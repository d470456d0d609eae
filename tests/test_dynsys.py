"""Systems, generators, and simulators."""

from fractions import Fraction

import numpy as np
import pytest

from conftest import random_system
from localspec import (
    CoupledCellSystem,
    GenerationError,
    LinearSystem,
    Trajectory,
    bipartite_fixture,
    build_wave_system,
    coupled_cell_fixture,
    generate_sbm,
    koopman_lift,
    lift_state,
    localizable_everywhere,
    normalized_laplacian,
    simulate,
    simulate_coupled,
    simulate_local,
)
from localspec.dynsys import _BIPARTITE_EDGES

EXAMPLE1_LEFT = [
    [Fraction(3, 5), Fraction(-1, 2), Fraction(0)],
    [Fraction(-1, 2), Fraction(-3, 5), Fraction(0)],
    [Fraction(-1), Fraction(1, 2), Fraction(-1, 2)],
]


def matvec_oracle(rows, x):
    """Exact rational mat-vec, independent of any numpy code path."""
    return [sum(a * v for a, v in zip(row, x)) for row in rows]


class TestSimulate:
    def test_identity_dynamics(self):
        traj = simulate(LinearSystem(np.eye(3)), [1.0, 2.0, 3.0], 5)
        assert traj.states.shape == (6, 3)
        assert np.array_equal(traj.states, np.tile([1.0, 2.0, 3.0], (6, 1)))

    def test_scalar_geometric_decay(self):
        traj = simulate(LinearSystem([[0.5]]), [1.0], 3)
        assert np.allclose(traj.states[:, 0], [1.0, 0.5, 0.25, 0.125], rtol=0, atol=0)

    def test_matches_exact_rational_oracle(self):
        # oracle: Fraction arithmetic, frozen before comparing
        x = [Fraction(1), Fraction(1), Fraction(1)]
        expected = [x]
        for _ in range(2):
            x = matvec_oracle(EXAMPLE1_LEFT, x)
            expected.append(x)
        expected_float = np.array([[float(v) for v in row] for row in expected])
        a = np.array([[float(v) for v in row] for row in EXAMPLE1_LEFT])
        traj = simulate(LinearSystem(a), [1.0, 1.0, 1.0], 2)
        assert np.allclose(traj.states, expected_float, atol=1e-15)
        # frozen values for the record
        assert np.allclose(expected_float[1], [0.1, -1.1, -1.0], atol=1e-15)
        assert np.allclose(expected_float[2], [0.61, 0.61, -0.15], atol=1e-15)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError, match="x0 has dimension 2, system needs 3"):
            simulate(LinearSystem(np.eye(3)), [1.0, 2.0], 1)
        cells = coupled_cell_fixture(0)
        for call in (lambda x0: simulate_coupled(cells, x0, 1), lambda x0: lift_state(cells, x0)):
            with pytest.raises(ValueError, match=f"x0 has dimension 3, system needs {2 * cells.d}"):
                call([1.0, 2.0, 3.0])

    def test_overflow_rejected_at_first_infinite_step(self):
        # 1e200 * 1e200 overflows at step 1
        with pytest.raises(ValueError, match="step 1 is not"):
            simulate(LinearSystem([[1e200]]), [1e200], 3)

    def test_coupled_overflow_rejected(self):
        sys = CoupledCellSystem(
            alpha=[0.5], beta=[1.0], gamma=[2.0], coupling=[[0.0]], epsilon=0.1
        )
        # x2**3 overflows in the first update of x1
        with pytest.raises(ValueError, match="step 1 is not"):
            simulate_coupled(sys, [1.0, 1e200], 3)


class TestSimulateLocal:
    def test_is_projection_of_full_simulation(self):
        sys = random_system(0, n=5)
        x0 = np.random.default_rng(1).standard_normal(5)
        full = simulate(sys, x0, 10)
        for v in range(1, 6):
            assert np.array_equal(simulate_local(sys, x0, 10, v), full.states[:, v - 1])

    def test_diagonal_growth(self):
        u = simulate_local(LinearSystem(np.diag([2.0, 3.0])), [1.0, 1.0], 3, vertex=2)
        assert np.array_equal(u, [1.0, 3.0, 9.0, 27.0])

    def test_vertex_out_of_range(self):
        with pytest.raises(ValueError):
            simulate_local(LinearSystem(np.eye(2)), [1.0, 1.0], 2, vertex=3)


class TestNormalizedLaplacian:
    def test_two_vertex_complete_graph(self):
        w = np.array([[0.0, 1.0], [1.0, 0.0]])
        assert np.array_equal(normalized_laplacian(w), [[1.0, -1.0], [-1.0, 1.0]])

    def test_k3_eigenvalues(self):
        w = np.ones((3, 3)) - np.eye(3)
        eigs = np.sort(np.linalg.eigvalsh(normalized_laplacian(w)))
        # closed form for complete graphs: {0, d/(d-1) repeated}
        assert np.allclose(eigs, [0.0, 1.5, 1.5], atol=1e-12)

    def test_null_vector_is_sqrt_degree(self):
        for seed in range(10):
            w = generate_sbm([3, 3], 0.9, 0.4, 1.0, 0.5, seed=seed)
            lap = normalized_laplacian(w)
            null = np.sqrt(w.sum(axis=1))
            assert np.linalg.norm(lap @ null) <= 1e-10 * np.linalg.norm(null)

    def test_spectrum_in_unit_interval_doubled(self):
        for seed in range(20):
            w = generate_sbm([4, 4], 0.8, 0.3, 1.0, 0.7, seed=seed)
            eigs = np.linalg.eigvalsh(normalized_laplacian(w))
            assert eigs.min() >= -1e-10 and eigs.max() <= 2.0 + 1e-10

    def test_isolated_vertex_rejected(self):
        w = np.zeros((3, 3))
        w[0, 1] = w[1, 0] = 1.0
        with pytest.raises(ValueError, match="zero degree"):
            normalized_laplacian(w)

    def test_asymmetric_rejected(self):
        with pytest.raises(ValueError, match="symmetric"):
            normalized_laplacian(np.array([[0.0, 1.0], [0.5, 0.0]]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_weight_rejected(self, bad):
        # NaN != NaN, so the symmetry check alone would misname the fault
        w = np.array([[0.0, bad], [bad, 0.0]])
        with pytest.raises(ValueError, match="adjacency weights must be finite"):
            normalized_laplacian(w)


def quadratic_wave_roots(mu, c):
    """Oracle: the two roots of x**2 - (2 - c**2 mu) x + 1 per Laplacian eigenvalue."""
    b = 2.0 - c * c * mu
    disc = complex(b * b - 4.0)
    return (b + np.sqrt(disc)) / 2.0, (b - np.sqrt(disc)) / 2.0


class TestWaveSystem:
    def test_zero_laplacian_block(self):
        sys = build_wave_system(np.zeros((1, 1)), 1.0)
        assert np.array_equal(sys.a, [[2.0, -1.0], [1.0, 0.0]])
        assert np.allclose(np.linalg.eigvals(sys.a), [1.0, 1.0])

    def test_unit_circle_for_k2(self):
        lap = np.array([[1.0, -1.0], [-1.0, 1.0]])
        eigs = np.linalg.eigvals(build_wave_system(lap, 1.0).a)
        assert np.max(np.abs(np.abs(eigs) - 1.0)) <= 1e-8

    @pytest.mark.parametrize("c,on_circle", [(1.5, True), (1.7, False)])
    def test_k3_against_quadratic_oracle(self, c, on_circle):
        from localspec import multiset_distance

        w = np.ones((3, 3)) - np.eye(3)
        lap = normalized_laplacian(w)
        eigs = np.linalg.eigvals(build_wave_system(lap, c).a)
        oracle = []
        for mu in np.linalg.eigvalsh(lap):
            oracle.extend(quadratic_wave_roots(mu, c))
        assert multiset_distance(eigs, np.array(oracle)) <= 1e-6
        moduli_off_circle = np.abs(np.abs(eigs) - 1.0) > 1e-6
        assert moduli_off_circle.any() == (not on_circle)

    def test_unit_circle_for_admissible_speeds(self):
        # oracle route: per-mu quadratic roots have |.| = 1 exactly for c < sqrt(2)
        for seed in range(10):
            w = generate_sbm([3, 2], 0.9, 0.6, 1.0, 0.4, seed=seed)
            mu = np.clip(np.linalg.eigvalsh(normalized_laplacian(w)), 0.0, None)
            for c in (0.3, 1.0, 1.4):
                for m in mu:
                    for root in quadratic_wave_roots(m, c):
                        assert abs(abs(root) - 1.0) <= 1e-10

    @pytest.mark.parametrize("c", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_speed(self, c):
        with pytest.raises(ValueError, match="wave speed must be finite"):
            build_wave_system(np.zeros((2, 2)), c)


class TestGenerateSbm:
    def test_deterministic_in_seed(self):
        a = generate_sbm([5, 5, 5], 0.7, 0.05, 1.0, 0.2, seed=7)
        b = generate_sbm([5, 5, 5], 0.7, 0.05, 1.0, 0.2, seed=7)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, generate_sbm([5, 5, 5], 0.7, 0.05, 1.0, 0.2, seed=8))

    def test_block_structure_and_weights(self):
        w = generate_sbm([2, 2], 1.0, 0.0, 1.0, 0.2, seed=0)
        expected = np.zeros((4, 4))
        expected[0, 1] = expected[1, 0] = 1.0
        expected[2, 3] = expected[3, 2] = 1.0
        assert np.array_equal(w, expected)

    def test_three_cluster_shape(self):
        w = generate_sbm([5, 5, 5], 0.7, 0.05, 1.0, 0.2, seed=3)
        assert w.shape == (15, 15)
        assert np.array_equal(w, w.T)
        assert np.all(np.diag(w) == 0)
        assert set(np.unique(w)) <= {0.0, 0.2, 1.0}
        # intra blocks only carry intra weights
        assert set(np.unique(w[:5, :5])) <= {0.0, 1.0}
        assert set(np.unique(w[:5, 5:10])) <= {0.0, 0.2}

    def test_isolation_retries_exhausted(self):
        with pytest.raises(GenerationError):
            generate_sbm([1, 2], 1.0, 0.0, 1.0, 1.0, seed=0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("name", ["intra_weight", "inter_weight"])
    def test_rejects_non_finite_weight_naming_it(self, name, bad):
        weights = {"intra_weight": 1.0, "inter_weight": 0.2, name: bad}
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            generate_sbm([3, 3], 0.7, 0.05, seed=0, **weights)


class TestBipartiteFixture:
    def test_dependency_edges_match_declared_graph(self):
        a = bipartite_fixture().a
        declared = {(target - 1, source - 1) for source, target in _BIPARTITE_EDGES}
        assert {(int(i), int(j)) for i, j in zip(*np.nonzero(a))} == declared

    def test_spectrum_invariant_under_negation(self):
        eigs = np.linalg.eigvals(bipartite_fixture().a)
        assert np.allclose(np.sort_complex(eigs), np.sort_complex(-eigs), atol=1e-12)

    def test_localizable_everywhere(self):
        everywhere, reports = localizable_everywhere(bipartite_fixture())
        assert everywhere
        assert all(r.numeric_rank == 5 for r in reports)


class TestCoupledCells:
    def test_fixture_coupling_structure(self):
        sys = coupled_cell_fixture(0)
        assert np.array_equal(
            sys.coupling,
            [[0, 1, 0, 0], [0, 0, 1, 1], [0, 0, 0, 1], [1, 0, 0, 0]],
        )
        assert sys.epsilon == 0.1

    @pytest.mark.parametrize("seed", [0, 1, 2, 5])
    def test_fixture_parameter_ranges(self, seed):
        sys = coupled_cell_fixture(seed)
        assert np.all((-1 <= sys.alpha) & (sys.alpha <= 0))
        assert np.all((1 <= sys.beta) & (sys.beta <= 2))
        assert np.all((-1 <= sys.gamma) & (sys.gamma <= 0))

    def test_fixture_deterministic_in_seed(self):
        a, b = coupled_cell_fixture(7), coupled_cell_fixture(7)
        assert np.array_equal(a.alpha, b.alpha)
        assert np.array_equal(a.beta, b.beta)
        assert np.array_equal(a.gamma, b.gamma)

    def test_fixture_lift_localizable_at_observable_vertices(self):
        from localspec import is_localizable, koopman_lift

        lifted = koopman_lift(coupled_cell_fixture(0))
        for i in range(4):
            assert is_localizable(lifted, 3 * i + 1).localizable
        # the autonomous x2/x3 channels can never be localizable
        assert not is_localizable(lifted, 2).localizable
        assert not is_localizable(lifted, 3).localizable

    def test_uncoupled_linear_subcase(self):
        sys = CoupledCellSystem(
            alpha=[-0.5, -0.25], beta=[1.5, 1.0], gamma=[-0.5, -0.5],
            coupling=np.zeros((2, 2)), epsilon=0.0,
        )
        x0 = np.array([1.0, 0.0, 2.0, 0.0])
        traj = simulate_coupled(sys, x0, 4)
        assert np.allclose(traj.states[:, 0], [1.0, -0.5, 0.25, -0.125, 0.0625])
        assert np.allclose(traj.states[:, 2], 2.0 * (-0.25) ** np.arange(5))
        assert np.all(traj.states[:, 1::2] == 0)

    def test_cubic_term_vanishes_at_one(self):
        sys = coupled_cell_fixture(1)
        x0 = np.zeros(8)
        x0[1::2] = 1.0  # all second coordinates at the cubic fixed point
        traj = simulate_coupled(sys, x0, 3)
        # x2 channels follow the plain geometric path
        assert np.allclose(traj.states[:, 1::2], np.outer(sys.gamma**0, np.ones(4)) * sys.gamma[None, :] ** np.arange(4)[:, None])
        # first step of the x1 channel has no cubic contribution
        assert np.allclose(traj.states[1, 0::2], sys.epsilon * (sys.coupling @ x0[0::2]))

    def test_simulate_matches_scalar_oracle(self):
        sys = coupled_cell_fixture(3)
        x0 = np.full(8, 0.5)
        traj = simulate_coupled(sys, x0, 10)
        # independent straight-line reimplementation with python floats
        state = [0.5] * 8
        for k in range(10):
            nxt = [0.0] * 8
            for i in range(4):
                coupling = sum(
                    sys.coupling[i, j] * state[2 * j] for j in range(4)
                )
                x1, x2 = state[2 * i], state[2 * i + 1]
                nxt[2 * i] = (
                    sys.alpha[i] * x1
                    + sys.beta[i] * (x2**3 - x2)
                    + sys.epsilon * coupling
                )
                nxt[2 * i + 1] = sys.gamma[i] * x2
            state = nxt
        assert np.allclose(traj.states[-1], state, atol=1e-12)


class TestKoopmanLift:
    def test_cell_block_structure(self):
        sys = coupled_cell_fixture(2)
        lifted = koopman_lift(sys)
        assert lifted.n == 12
        for i in range(4):
            b = 3 * i
            block = lifted.a[b : b + 3, b : b + 3]
            expected = np.array(
                [
                    [sys.alpha[i], -sys.beta[i], sys.beta[i]],
                    [0.0, sys.gamma[i], 0.0],
                    [0.0, 0.0, sys.gamma[i] ** 3],
                ]
            )
            assert np.allclose(block, expected, rtol=0, atol=0)
        # coupling hits only the (x_{i,1}, x_{j,1}) entries
        assert lifted.a[9, 0] == sys.epsilon  # cell 4 <- cell 1
        assert lifted.a[0, 3] == sys.epsilon  # cell 1 <- cell 2
        assert lifted.a[3, 0] == 0.0  # no edge cell 2 <- cell 1
        assert np.all(lifted.a[1::3, 0::3] == 0) and np.all(lifted.a[2::3, 0::3] == 0)

    def test_matches_the_entrywise_lift_bit_for_bit(self):
        def entrywise_lift(sys):
            a = np.zeros((3 * sys.d, 3 * sys.d))
            for i in range(sys.d):
                b = 3 * i
                a[b, b], a[b, b + 1], a[b, b + 2] = sys.alpha[i], -sys.beta[i], sys.beta[i]
                a[b + 1, b + 1] = sys.gamma[i]
                a[b + 2, b + 2] = sys.gamma[i] ** 3
                for j in range(sys.d):
                    if sys.coupling[i, j] != 0:
                        a[b, 3 * j] += sys.epsilon * sys.coupling[i, j]
            return a

        # epsilon < 0 times a zero coupling is -0.0; and on CPUs with a SIMD pow, an
        # array ** 3 rounds one of these gamma**3 apart from the scalar ** 3
        rng = np.random.default_rng(106)
        negative = CoupledCellSystem(
            alpha=rng.uniform(-1, 0, 5), beta=rng.uniform(1, 2, 5), gamma=rng.uniform(-1, 0, 5),
            coupling=np.triu(rng.choice([0.0, 1.0, -2.0], (5, 5)), 1), epsilon=-0.3,
        )
        for sys in [*(coupled_cell_fixture(seed) for seed in range(60)), negative]:
            # compared as bytes, so the sign of every zero counts
            assert koopman_lift(sys).a.tobytes() == entrywise_lift(sys).tobytes()

    def test_lift_commutes_with_simulation(self):
        sys = coupled_cell_fixture(4)
        rng = np.random.default_rng(9)
        x0 = rng.standard_normal(8)
        steps = 20
        nonlinear = simulate_coupled(sys, x0, steps)
        lifted = simulate(koopman_lift(sys), lift_state(sys, x0), steps)
        assert np.max(np.abs(lifted.states[:, 0::3] - nonlinear.states[:, 0::2])) <= 1e-10
        assert np.max(np.abs(lifted.states[:, 1::3] - nonlinear.states[:, 1::2])) <= 1e-10

    def test_lift_exactness_property(self):
        # random parameters, 50 steps, 1e-9 per component
        for seed in range(20):
            rng = np.random.default_rng(seed)
            sys = CoupledCellSystem(
                alpha=rng.uniform(-1, 0, 4),
                beta=rng.uniform(1, 2, 4),
                gamma=rng.uniform(-1, 0, 4),
                coupling=np.array([[0, 1, 0, 0], [0, 0, 1, 1], [0, 0, 0, 1], [1, 0, 0, 0]]),
                epsilon=0.1,
            )
            x0 = rng.standard_normal(8)
            nonlinear = simulate_coupled(sys, x0, 50)
            lifted = simulate(koopman_lift(sys), lift_state(sys, x0), 50)
            assert np.max(np.abs(lifted.states[:, 0::3] - nonlinear.states[:, 0::2])) <= 1e-9
            assert np.max(np.abs(lifted.states[:, 1::3] - nonlinear.states[:, 1::2])) <= 1e-9


class TestValidation:
    def test_rejects_nonsquare(self):
        with pytest.raises(ValueError):
            LinearSystem(np.ones((2, 3)))

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            LinearSystem([[np.nan]])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_trajectory_rejects_nonfinite_naming_the_step(self, bad):
        states = np.ones((4, 2))
        states[2, 1] = bad
        states[3, 0] = bad
        with pytest.raises(ValueError, match="step 2 is not"):
            Trajectory(states)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("field", ["alpha", "beta", "gamma", "coupling", "epsilon"])
    def test_coupled_fields_must_be_finite(self, field, bad):
        fields = dict(alpha=[-0.5, -0.2], beta=[1.0, 1.5], gamma=[-0.5, -0.1],
                      coupling=[[0.0, 1.0], [1.0, 0.0]], epsilon=0.1)
        if field == "epsilon":
            fields[field] = bad
        elif field == "coupling":
            fields[field] = [[0.0, bad], [1.0, 0.0]]
        else:
            fields[field] = [fields[field][0], bad]
        with pytest.raises(ValueError, match=f"^{field} must be finite$"):
            CoupledCellSystem(**fields)

    def test_coupling_diagonal_must_be_zero(self):
        with pytest.raises(ValueError):
            CoupledCellSystem(
                alpha=[-0.5], beta=[1.0], gamma=[-0.5],
                coupling=[[1.0]], epsilon=0.1,
            )
