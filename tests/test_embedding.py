"""Delay matrices, companion models, prediction, hidden-state recovery."""

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment

from conftest import growth_normalized_error, random_localizable_system, random_system
from localspec import (
    LinearSystem,
    NotLocalizableError,
    bipartite_fixture,
    delay_windows,
    exact_companion,
    fit_companion,
    hautus_localizable,
    is_localizable,
    local_eigenvalues,
    predict,
    recover_hidden_state,
    simulate_local,
)
from localspec._linalg import DEFAULT_RANK_TOL, singular_values
from localspec.io import example1_system


class TestHankelMatrices:
    # the rows of delay_windows are the rows of the series' Hankel matrix
    def test_scalar_unrolling(self):
        windows = delay_windows(np.array([1.0, 2.0, 3.0, 4.0]), 3)
        assert np.array_equal(windows, [[1.0, 2.0, 3.0], [2.0, 3.0, 4.0]])
        assert np.array_equal(windows[:, :2].T, [[1.0, 2.0], [2.0, 3.0]])
        assert np.array_equal(windows[:, 1:].T, [[2.0, 3.0], [3.0, 4.0]])
        assert not windows.flags.writeable

    def test_single_delay_reduces_to_plain_pair(self):
        data = np.arange(5.0)
        windows = delay_windows(data, 2)
        assert np.array_equal(windows[:, 0], data[:-1])
        assert np.array_equal(windows[:, 1], data[1:])

    def test_shifted_block_identity(self):
        rng = np.random.default_rng(0)
        for s in (1, 2, 3, 5):
            series = rng.standard_normal(12)
            windows = delay_windows(series, s + 1)
            k, j = np.indices(windows.shape)
            assert np.array_equal(windows, series[k + j])
            assert np.array_equal(windows[1:, :s], windows[:-1, 1:])

    def test_vector_observations(self):
        # the embedding is of one scalar series; a (steps, p) array is rejected
        states = np.random.default_rng(1).standard_normal((9, 3))
        with pytest.raises(ValueError, match="scalar series"):
            delay_windows(states, 4)

    def test_too_short_rejected(self):
        with pytest.raises(ValueError):
            delay_windows(np.ones(3), 4)


class TestFitCompanion:
    def test_scalar_geometric(self):
        u = 0.5 ** np.arange(10)
        model = fit_companion(u, s=1)
        assert abs(model.weights[0] - 0.5) <= 1e-12
        assert model.residual <= 1e-12

    def test_matches_exact_companion_on_clean_data(self):
        for seed in range(25):
            sys = random_localizable_system(seed)
            x0 = np.random.default_rng(100 + seed).standard_normal(sys.n)
            u = simulate_local(sys, x0, 4 * sys.n, 1)
            fitted = fit_companion(u, sys.n)
            exact = exact_companion(sys)
            assert np.max(np.abs(fitted.weights - exact.weights)) <= 1e-6
            assert fitted.residual <= 1e-8

    def test_zero_trajectory(self):
        model = fit_companion(np.zeros(10), s=3)
        assert np.array_equal(model.weights, np.zeros(3))
        assert model.residual == 0.0
        assert (model.rank, model.sigma_ratio) == (0, 0.0)

    def test_rank_and_sigma_ratio_of_the_row_scaled_design(self):
        sys = random_localizable_system(2, n=5)
        u = simulate_local(sys, np.random.default_rng(2).standard_normal(5), 40, 1)
        windows = delay_windows(np.asarray(u) / np.max(np.abs(u)), 6)
        sigma = singular_values(windows[:, :5] / np.max(np.abs(windows), axis=1)[:, None])
        fitted = fit_companion(u, 5)
        assert fitted.rank == 5
        assert fitted.sigma_ratio == pytest.approx(sigma[-1] / sigma[0], rel=1e-8)
        over = fit_companion(u, 8)  # more delays than the system has modes
        assert over.rank == 5 and over.sigma_ratio <= DEFAULT_RANK_TOL
        assert over.to_json_dict()["rank"] == 5
        exact = exact_companion(sys).to_json_dict()
        assert exact["rank"] is None and exact["sigma_ratio"] is None

    def test_scale_recorded_and_weights_invariant(self):
        u = simulate_local(random_localizable_system(3, n=4), [1.0, -2.0, 0.5, 0.3], 16, 1)
        big = fit_companion(1e6 * np.asarray(u), 4)
        small = fit_companion(np.asarray(u), 4)
        assert np.allclose(big.weights, small.weights, atol=1e-9)
        assert big.scale == pytest.approx(1e6 * small.scale)

    def test_too_short_rejected(self):
        with pytest.raises(ValueError):
            fit_companion(np.ones(5), s=3)

    @pytest.mark.parametrize("bad", [np.nan, 0.0, -1.0, np.inf])
    def test_rank_tolerance_must_be_finite_and_positive(self, bad):
        # NaN would cut every singular value and return all-zero weights
        u = simulate_local(bipartite_fixture(), np.arange(1.0, 7.0), 24, 1)
        with pytest.raises(ValueError, match="rank tolerance must be finite and positive"):
            fit_companion(u, 6, svd_tol=bad)

    def test_residual_in_data_units(self):
        u = 1e3 * np.random.default_rng(4).standard_normal(30) * 1.2 ** np.arange(30)
        model = fit_companion(u, 3)
        windows = delay_windows(u, 4)
        assert model.residual == pytest.approx(
            np.linalg.norm(windows[:, :3] @ model.weights - windows[:, 3]), rel=1e-12)

    @pytest.mark.parametrize("steps", [24, 60, 120])
    def test_growing_bipartite_series_keeps_its_spectrum(self, steps):
        # the fixture's largest modes grow, so without row equilibration the
        # late rows dominate the rank cut and the error was 1.06 at 60 steps
        sys = bipartite_fixture()
        u = simulate_local(sys, np.random.default_rng(7).standard_normal(6), steps, 1)
        est = local_eigenvalues(fit_companion(u, 6))
        dist = np.abs(est[:, None] - np.linalg.eigvals(sys.a)[None, :])
        rows, cols = linear_sum_assignment(dist)
        assert np.max(dist[rows, cols]) <= 1e-8


class TestExactCompanion:
    def test_two_by_two_formula(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            a = rng.standard_normal((2, 2))
            model = exact_companion(LinearSystem(a))
            assert model.weights[1] == pytest.approx(np.trace(a), abs=1e-12)
            assert model.weights[0] == pytest.approx(-np.linalg.det(a), abs=1e-12)

    def test_diag_one_two(self):
        model = exact_companion(LinearSystem(np.diag([1.0, 2.0])))
        # characteristic polynomial (x-1)(x-2) = x^2 - 3x + 2
        assert np.allclose(model.weights, [-2.0, 3.0], atol=1e-12)

    def test_trace_det_identities(self):
        for seed in range(30):
            sys = random_system(seed)
            w = exact_companion(sys).weights
            n = sys.n
            assert w[-1] == pytest.approx(np.trace(sys.a), abs=1e-9)
            assert w[0] == pytest.approx((-1) ** (n + 1) * np.linalg.det(sys.a), abs=1e-9)

    def test_against_root_product_oracle(self):
        # independent oracle: expand prod (x - lambda_i) from computed eigenvalues
        for seed in range(30):
            sys = random_system(seed)
            coeffs = np.real(np.poly(np.linalg.eigvals(sys.a)))
            oracle = -coeffs[1:][::-1]
            assert np.allclose(exact_companion(sys).weights, oracle, atol=1e-9)

    def test_roots_accurate_at_n60(self):
        # dense radius-1 systems: the companion roots must reproduce eig(A)
        for seed in range(5):
            sys = random_system(seed, n=60)
            roots = local_eigenvalues(exact_companion(sys))
            direct = np.linalg.eigvals(sys.a)
            dist = np.abs(roots[:, None] - direct[None, :])
            rows, cols = linear_sum_assignment(dist)
            assert np.max(dist[rows, cols]) <= 1e-6


class TestPredict:
    def test_exact_model_matches_simulation(self):
        for seed in range(20):
            sys = random_localizable_system(seed)
            x0 = np.random.default_rng(200 + seed).standard_normal(sys.n)
            u = simulate_local(sys, x0, sys.n + 49, 1)
            model = exact_companion(sys)
            pred = predict(model, u[: sys.n], 50)
            assert growth_normalized_error(pred, u) <= 1e-6

    def test_constant_sequence(self):
        from localspec import CompanionModel

        model = CompanionModel(s=1, weights=np.array([1.0]), residual=0.0)
        assert np.array_equal(predict(model, [3.5], 4), np.full(5, 3.5))

    def test_zero_weights_continue_with_zeros(self):
        from localspec import CompanionModel

        model = CompanionModel(s=2, weights=np.zeros(2), residual=0.0)
        out = predict(model, [1.0, 2.0], 3)
        assert np.array_equal(out, [1.0, 2.0, 0.0, 0.0, 0.0])


class TestRecoverHiddenState:
    def test_two_state_closed_form(self):
        a = np.array([[0.3, 0.7], [0.2, 0.5]])
        sys = LinearSystem(a)
        x0 = np.array([1.0, -2.0])
        u = simulate_local(sys, x0, 2, 1)
        v = recover_hidden_state(sys, 1, u[:2])
        assert v[0] == pytest.approx((u[1] - 0.3 * u[0]) / 0.7, abs=1e-12)
        assert v[0] == pytest.approx(-2.0, abs=1e-12)

    def test_recovers_simulated_hidden_block(self):
        for seed in range(20):
            sys = random_localizable_system(seed, n=4)
            x0 = np.random.default_rng(300 + seed).standard_normal(4)
            u = simulate_local(sys, x0, 4, 1)
            v = recover_hidden_state(sys, 1, u[:4])
            rel = np.max(np.abs(v - x0[1:])) / max(np.max(np.abs(x0[1:])), 1e-30)
            assert rel <= 1e-8

    def test_respects_vertex_argument(self):
        sys = random_localizable_system(7, n=5)
        # vertex 3: hidden components are (x1, x2, x4, x5) in original order
        x0 = np.random.default_rng(11).standard_normal(5)
        u = simulate_local(sys, x0, 5, 1)
        # probe a vertex where the permuted system is localizable
        for vertex in range(1, 6):
            if not is_localizable(sys, vertex).localizable:
                continue
            window = simulate_local(sys, x0, 5, vertex)[:5]
            v = recover_hidden_state(sys, vertex, window)
            hidden_true = np.delete(x0, vertex - 1)
            assert np.allclose(v, hidden_true, atol=1e-7)

    def test_one_state_has_an_empty_hidden_state(self):
        sys = LinearSystem([[0.5]])
        v = recover_hidden_state(sys, 1, [1.0])
        assert v.shape == (0,) and v.dtype == float
        with pytest.raises(ValueError, match="window must hold n = 1 values, got 2"):
            recover_hidden_state(sys, 1, [1.0, 0.5])

    def test_non_localizable_raises_with_singular_values(self):
        sys = example1_system("left")
        with pytest.raises(NotLocalizableError) as info:
            recover_hidden_state(sys, 1, np.array([1.0, 0.5, 0.25]))
        assert info.value.singular_values.shape == (2,)
        assert str(info.value) == ("system is not localizable in vertex 1 at rel_tol 1e-10 "
                                   "(numeric rank 1 of 2)")

    def test_ill_conditioned_r_of_a_localizable_vertex_is_named_as_such(self):
        # R's monomial rows reach a singular-value ratio of 2.9e-11 here, below
        # the cut, while the staircase and Hautus both call vertex 1 localizable
        n = 40
        sys = LinearSystem(np.random.default_rng([48, 0]).standard_normal((n, n)) / np.sqrt(n))
        assert is_localizable(sys, 1).localizable and hautus_localizable(sys, 1)
        with pytest.raises(NotLocalizableError) as info:
            recover_hidden_state(sys, 1, np.ones(n))
        message = str(info.value)
        assert message.startswith("system is localizable in vertex 1, but R is numerically "
                                  "singular at rel_tol 1e-10 (numeric rank 38 of 39, ")
        sigma = info.value.singular_values
        assert sigma.shape == (n - 1,)
        assert f"singular-value ratio {sigma[-1] / sigma[0]:.2g})" in message

    def test_round_trip_through_global_step(self):
        # recovered hidden state, advanced by the global dynamics, must
        # reproduce the next local value that the companion model predicts
        for seed in range(15):
            sys = random_localizable_system(seed)
            n = sys.n
            x0 = np.random.default_rng(400 + seed).standard_normal(n)
            u = simulate_local(sys, x0, n + 1, 1)
            v = recover_hidden_state(sys, 1, u[:n])
            state = np.concatenate([[u[0]], v])
            for _ in range(n):  # vertex 1 is already first
                state = sys.a @ state
            predicted = predict(exact_companion(sys), u[:n], 1)[-1]
            assert state[0] == pytest.approx(predicted, rel=1e-8, abs=1e-10)
            assert state[0] == pytest.approx(u[n], rel=1e-8, abs=1e-10)
