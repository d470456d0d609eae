"""Eigenvalue, eigenvector-component, and clustering recovery from local data."""

import inspect

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import growing_states, random_localizable_system, random_system
from localspec import (
    DegenerateSpectrumError,
    LinearSystem,
    analyze_vertex,
    bipartite_fixture,
    build_wave_system,
    consensus_cluster_count,
    decentralized_cluster_labels,
    detect_cluster_count,
    exact_companion,
    fit_companion,
    generate_sbm,
    is_bipartite_spectrum,
    is_localizable,
    is_strongly_connected,
    local_eigenvalues,
    local_eigenvector_components,
    multiset_distance,
    normalized_laplacian,
    r_matrix,
    simulate,
    sort_eigenvalues,
    trace_det,
)
from localspec._linalg import singular_values


class TestLocalEigenvalues:
    def test_diagonal_spectrum(self):
        model = exact_companion(LinearSystem(np.diag([1.0, 2.0, 3.0])))
        eigs = local_eigenvalues(model)
        assert np.allclose(sorted(eigs.real), [1.0, 2.0, 3.0], atol=1e-10)
        assert np.max(np.abs(eigs.imag)) <= 1e-10

    def test_matches_direct_spectrum(self):
        for seed in range(25):
            sys = random_system(seed)
            est = local_eigenvalues(exact_companion(sys))
            assert multiset_distance(est, np.linalg.eigvals(sys.a)) <= 1e-8

    def test_rotation_block(self):
        theta = 0.7
        rot = np.array(
            [[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]]
        )
        eigs = local_eigenvalues(exact_companion(LinearSystem(rot)))
        expected = np.array([np.exp(1j * theta), np.exp(-1j * theta)])
        assert multiset_distance(eigs, expected) <= 1e-10

    def test_canonical_ordering(self):
        eigs = sort_eigenvalues(np.array([0.1, -2.0, 1.0 + 1.0j, 1.0 - 1.0j]))
        assert abs(eigs[0]) >= abs(eigs[-1])
        moduli = np.abs(eigs)
        assert np.all(np.diff(moduli) <= 1e-12)
        # conjugate pair tie broken by ascending argument
        pair = eigs[np.isclose(np.abs(eigs), abs(1 + 1j))]
        assert pair[0].imag < pair[1].imag

    def test_moduli_within_the_distinct_tolerance_tie(self):
        eigs = sort_eigenvalues(np.array([1.0, -(1.0 + 1e-12), 0.5, -(0.5 - 2e-9)]))
        assert eigs.tolist() == [1.0, -(1.0 + 1e-12), 0.5, -(0.5 - 2e-9)]
        eigs = sort_eigenvalues(np.array([-(1.0 + 1e-12), 1.0]))
        assert eigs.tolist() == [1.0, -(1.0 + 1e-12)]

    @pytest.mark.parametrize("steps", [24, 60, 120])
    def test_estimated_pm_pairs_list_plus_first(self, steps):
        # an estimated +-lam pair differs in modulus only in the last bits
        x0 = np.random.default_rng(7).standard_normal(6)
        u = simulate(bipartite_fixture(), x0, steps).local(1)
        real = [e.real for e in analyze_vertex(u, 6).eigenvalues if e.imag == 0]
        assert len(real) == 4
        assert real[0] > 0 > real[1] and real[2] > 0 > real[3]
        assert real[1] == pytest.approx(-real[0]) and real[3] == pytest.approx(-real[2])


class TestCompanionEigenvector:
    def test_eigenpair_residual(self):
        for seed in range(15):
            model = exact_companion(random_system(seed))
            c = model.companion_matrix()
            for lam in local_eigenvalues(model):
                xi = np.power(lam, np.arange(model.s))  # (1, lam, ..., lam^(s-1))
                assert np.linalg.norm(c @ xi - lam * xi) <= 1e-9 * max(
                    1.0, np.linalg.norm(xi)
                )


class TestTraceDet:
    def test_diag_values(self):
        trace, det = trace_det(exact_companion(LinearSystem(np.diag([1.0, 2.0]))))
        assert trace == pytest.approx(3.0, abs=1e-12)
        assert det == pytest.approx(2.0, abs=1e-12)

    def test_two_by_two_against_matrix(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            a = rng.standard_normal((2, 2))
            trace, det = trace_det(exact_companion(LinearSystem(a)))
            assert trace == pytest.approx(np.trace(a), abs=1e-12)
            assert det == pytest.approx(np.linalg.det(a), abs=1e-12)

    def test_agrees_with_eigenvalue_sum_product(self):
        for seed in range(20):
            sys = random_system(seed)
            trace, det = trace_det(exact_companion(sys))
            eigs = np.linalg.eigvals(sys.a)
            assert trace == pytest.approx(float(np.sum(eigs).real), abs=1e-8)
            assert det == pytest.approx(float(np.prod(eigs).real), abs=1e-8)


class TestBipartiteSpectrum:
    def test_symmetric_multiset(self):
        assert is_bipartite_spectrum(np.array([1.0, -1.0, 2.0, -2.0]), tol=1e-9)

    def test_asymmetric_multiset(self):
        assert not is_bipartite_spectrum(np.array([1.0, 2.0]), tol=1e-9)

    def test_zero_self_matches(self):
        assert is_bipartite_spectrum(np.array([0.0, 1.5, -1.5]), tol=1e-9)

    def test_bipartite_fixture_model(self):
        eigs = local_eigenvalues(exact_companion(bipartite_fixture()))
        assert is_bipartite_spectrum(eigs, tol=1e-8)

    def test_ordering_invariance(self):
        rng = np.random.default_rng(1)
        eigs = np.array([0.5, -0.5, 1.2, -1.2, 0.0])
        for _ in range(5):
            assert is_bipartite_spectrum(rng.permutation(eigs), tol=1e-9)

    @pytest.mark.parametrize("bad", [np.nan, 0.0, -1.0, np.inf])
    def test_tolerance_must_be_finite_and_positive(self, bad):
        # NaN compares False: unchecked, it would call [1, -1] not bipartite
        with pytest.raises(ValueError, match="bipartite tolerance must be finite and positive"):
            is_bipartite_spectrum(np.array([1.0, -1.0]), tol=bad)


class TestEigenvectorComponents:
    def test_single_geometric_mode(self):
        u = 0.5 ** np.arange(8)
        c = local_eigenvector_components(u, np.array([0.5]))
        assert c[0] == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize("bad", [np.nan, 0.0, -1.0, np.inf])
    def test_rank_tolerance_must_be_finite_and_positive(self, bad):
        with pytest.raises(ValueError, match="rank tolerance must be finite and positive"):
            local_eigenvector_components(0.5 ** np.arange(8), np.array([0.5]), svd_tol=bad)

    @pytest.mark.parametrize("bad", [np.nan, 0.0, -1.0, np.inf])
    def test_distinct_tolerance_must_be_finite_and_positive(self, bad):
        # unchecked, a NaN or negative tolerance lets the repeated root 1
        # through and returns [0.5, 0.5]
        with pytest.raises(ValueError, match="distinct tolerance must be finite and positive"):
            local_eigenvector_components(np.ones(8), np.array([1.0, 1.0]), distinct_tol=bad)

    def test_matches_eigendecomposition_oracle(self):
        for seed in range(25):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(2, 9))
            a = rng.standard_normal((n, n))
            a /= np.max(np.abs(np.linalg.eigvals(a)))
            lam, xi = np.linalg.eig(a)
            if np.min(np.abs(lam[:, None] - lam[None, :]) + np.eye(n)) < 1e-6:
                continue
            order = np.lexsort((np.angle(lam), -np.abs(lam)))
            lam, xi = lam[order], xi[:, order]
            x0 = rng.standard_normal(n)
            z = np.linalg.solve(xi, x0)
            vertex = int(rng.integers(1, n + 1))
            u = simulate(LinearSystem(a), x0, 4 * n).local(vertex)
            c = local_eigenvector_components(u, lam)
            assert np.max(np.abs(c - z * xi[vertex - 1, :])) <= 1e-7

    def test_zero_trajectory_gives_zero_components(self):
        c = local_eigenvector_components(np.zeros(9), np.array([0.5, -0.25]))
        assert np.array_equal(c, np.zeros(2))

    def test_conjugate_symmetry_for_real_data(self):
        sys = random_localizable_system(8, n=6)
        x0 = np.random.default_rng(2).standard_normal(6)
        u = simulate(sys, x0, 24).local(1)
        eigs = local_eigenvalues(fit_companion(u, 6))
        c = local_eigenvector_components(u, eigs)
        assert np.any(eigs.imag != 0.0) and np.any(eigs.imag == 0.0)
        for i, lam in enumerate(eigs):
            j = int(np.argmin(np.abs(eigs - np.conj(lam))))
            assert c[i] == np.conj(c[j])
            if lam.imag == 0.0:
                assert c[i].imag == 0.0

    def test_zero_pair_coefficients_are_bitwise_conjugates(self):
        # the JSON reports print the sign of a zero, so -0.0 must stay paired
        # with 0.0 in the imaginary parts of a conjugate pair
        c = local_eigenvector_components(np.zeros(9), np.array([0.5 + 0.5j, 0.5 - 0.5j]))
        assert np.array_equal(c.view(np.uint64), np.conj(c[::-1]).view(np.uint64))

    def test_complex_series_rejected(self):
        with pytest.raises(ValueError, match="need a real series"):
            local_eigenvector_components(np.ones(5, dtype=complex), np.array([0.5]))

    @pytest.mark.parametrize("eigs", [
        [0.5 + 0.5j, 0.3],
        [0.5 + 0.5j, 0.5 - 0.5000001j],
    ], ids=["unpaired", "inexact partner"])
    def test_spectrum_not_closed_under_conjugation_rejected(self, eigs):
        with pytest.raises(ValueError, match="not closed under conjugation"):
            local_eigenvector_components(np.ones(8), np.array(eigs))

    def test_repeated_eigenvalues_rejected(self):
        with pytest.raises(DegenerateSpectrumError):
            local_eigenvector_components(np.ones(5), np.array([0.5, 0.5 + 1e-12]))

    def test_first_coinciding_pair_reported_in_row_order(self):
        # pairs (0, 3) and (1, 2) both coincide; (0, 3) comes first
        eigs = np.array([0.9, 0.5, 0.5 + 1e-12, 0.9 + 1e-12])
        with pytest.raises(DegenerateSpectrumError) as info:
            local_eigenvector_components(np.ones(8), eigs)
        assert str(info.value).startswith(f"eigenvalues {eigs[0] + 0j} and {eigs[3] + 0j} ")

    def test_mode_reconstruction(self):
        # sum_l c_l lam_l^k reproduces the observed window
        for seed in range(10):
            sys = random_localizable_system(seed, n=5)
            x0 = np.random.default_rng(500 + seed).standard_normal(5)
            u = simulate(sys, x0, 20).local(1)
            eigs = local_eigenvalues(exact_companion(sys))
            if np.min(
                np.abs(eigs[:, None] - eigs[None, :]) + np.eye(5)
            ) < 1e-6:
                continue
            c = local_eigenvector_components(u, eigs)
            recon = np.real(np.vander(eigs, N=len(u), increasing=True).T @ c)
            assert np.max(np.abs(recon - u)) <= 1e-7


class TestDetectClusterCount:
    def test_constructed_gap(self):
        eigs = np.array([1.0, 0.95, 0.9, 0.3, 0.25])
        assert detect_cluster_count(eigs, max_k=4) == 3

    def test_sbm_laplacian_dynamics_spectrum(self):
        # exact dynamics spectrum of a connected three-block graph
        w = generate_sbm([5, 5, 5], 0.7, 0.05, 1.0, 0.2, seed=0)
        lap = normalized_laplacian(w)
        eigs = np.linalg.eigvalsh(np.eye(15) - 0.5 * lap)
        assert detect_cluster_count(eigs, max_k=8) == 3

    def test_disconnected_components_exact(self):
        # union of 3 components: Laplacian eigenvalue 0 with multiplicity 3
        blocks = [np.ones((3, 3)) - np.eye(3)] * 3
        w = np.zeros((9, 9))
        for i, b in enumerate(blocks):
            w[3 * i : 3 * i + 3, 3 * i : 3 * i + 3] = b
        eigs = np.linalg.eigvalsh(np.eye(9) - 0.5 * normalized_laplacian(w))
        assert detect_cluster_count(eigs, max_k=5) == 3

    def test_single_eigenvalue(self):
        assert detect_cluster_count(np.array([1.0]), max_k=3) == 1

    def test_first_tie_wins(self):
        assert detect_cluster_count(np.array([1.0, 0.5, 0.0]), max_k=3) == 1

    @pytest.mark.parametrize("size", [1, 2, 5, 6, 15])
    def test_default_cap_is_half_the_spectrum_rounded_up(self, size):
        eigs = np.random.default_rng(size).uniform(-1.0, 1.0, size)
        assert detect_cluster_count(eigs) == detect_cluster_count(eigs, max_k=(size + 1) // 2)

    @pytest.mark.parametrize("max_k", [None, 3])
    def test_empty_spectrum_rejected(self, max_k):
        with pytest.raises(ValueError, match="at least one eigenvalue"):
            detect_cluster_count(np.array([]), max_k=max_k)


class TestConsensusClusterCount:
    def test_agrees_on_identical_spectra(self):
        spectrum = np.array([1.0, 0.95, 0.9, 0.3, 0.2])
        assert consensus_cluster_count([spectrum] * 5, max_k=4) == 3

    def test_averages_out_disagreement(self):
        base = np.array([1.0, 0.95, 0.9, 0.3, 0.2])
        noisy = [base + np.random.default_rng(s).normal(0, 0.01, 5) for s in range(8)]
        assert consensus_cluster_count(noisy, max_k=4) == 3

    @pytest.mark.parametrize("size", [3, 6, 15])
    def test_default_cap_is_half_the_spectrum_rounded_up(self, size):
        rng = np.random.default_rng(size)
        spectra = [rng.uniform(-1.0, 1.0, size) for _ in range(4)]
        assert consensus_cluster_count(spectra) == consensus_cluster_count(
            spectra, max_k=(size + 1) // 2
        )

    def test_rejects_mixed_lengths(self):
        with pytest.raises(ValueError):
            consensus_cluster_count([np.ones(3), np.ones(4)], max_k=2)


class TestDecentralizedLabels:
    def test_three_pattern_partition(self):
        # 15 vertices split by the sign patterns of components 2 and 3
        comps = {}
        for v in range(1, 16):
            if v <= 5:
                c2, c3 = -1.0, -1.0
            elif v <= 10:
                c2, c3 = 1.0, -1.0
            else:
                c2, c3 = 1.0, 1.0
            comps[v] = np.array([1.0, c2, c3], dtype=complex)
        labels = decentralized_cluster_labels(comps, k=3)
        assert sorted(set(labels.values())) == [0, 1, 2]
        assert len({labels[v] for v in range(1, 6)}) == 1
        assert len({labels[v] for v in range(6, 11)}) == 1
        assert len({labels[v] for v in range(11, 16)}) == 1

    def test_single_shared_pattern(self):
        comps = {v: np.array([1.0, 0.5, 0.5], dtype=complex) for v in range(1, 5)}
        assert set(decentralized_cluster_labels(comps, 3).values()) == {0}

    def test_single_cluster_labels_every_vertex_zero(self):
        comps = {v: np.array([1.0, (-1.0) ** v, -v], dtype=complex) for v in range(1, 6)}
        assert decentralized_cluster_labels(comps, 1) == {v: 0 for v in range(1, 6)}

    @pytest.mark.parametrize("k", [0, -2])
    def test_count_below_one_rejected(self, k):
        with pytest.raises(ValueError, match="k >= 1"):
            decentralized_cluster_labels({1: np.ones(3, dtype=complex)}, k)

    def test_near_zero_resolves_positive(self):
        comps = {
            1: np.array([1.0, 1e-12, 1.0], dtype=complex),
            2: np.array([1.0, -1e-12, 1.0], dtype=complex),
        }
        labels = decentralized_cluster_labels(comps, 3)
        assert labels[1] == labels[2]

    def test_disconnected_cliques_exact_components(self):
        # two disconnected triangles: mode 2 separates them exactly
        w = np.kron(np.eye(2), np.ones((3, 3)) - np.eye(3))
        a = np.eye(6) - 0.5 * normalized_laplacian(w)
        mu, xi = np.linalg.eigh(a)
        order = np.argsort(mu)[::-1]
        xi = xi[:, order]
        x0 = np.random.default_rng(5).standard_normal(6)
        z = xi.T @ x0
        comps = {v: (z * xi[v - 1, :]).astype(complex) for v in range(1, 7)}
        labels = decentralized_cluster_labels(comps, 2)
        assert len({labels[v] for v in (1, 2, 3)}) == 1
        assert len({labels[v] for v in (4, 5, 6)}) == 1
        assert labels[1] != labels[4]

    def test_rescaling_invariance(self):
        rng = np.random.default_rng(3)
        comps = {v: rng.standard_normal(4) + 0j for v in range(1, 8)}
        labels = decentralized_cluster_labels(comps, 3)
        for factor in (7.5, 1e-12):
            scaled = {v: factor * c for v, c in comps.items()}
            assert decentralized_cluster_labels(scaled, 3) == labels

    def test_mode_sign_flip_preserves_partition(self):
        rng = np.random.default_rng(4)
        comps = {v: rng.standard_normal(4) + 0j for v in range(1, 10)}
        labels = decentralized_cluster_labels(comps, 3)
        flipped_comps = {}
        for v, c in comps.items():
            c = c.copy()
            c[1] = -c[1]  # flip mode 2 consistently everywhere
            flipped_comps[v] = c
        flipped = decentralized_cluster_labels(flipped_comps, 3)

        def partition(lbl):
            groups = {}
            for v, g in lbl.items():
                groups.setdefault(g, set()).add(v)
            return frozenset(frozenset(g) for g in groups.values())

        assert partition(flipped) == partition(labels)


def sbm_states(seed: int) -> np.ndarray | None:
    """States x(0..150) of x(k+1) = (I - L/2) x(k) on an SBM [5,5,5] draw, or
    None when the draw is not connected."""
    w = generate_sbm([5, 5, 5], 0.7, 0.05, 1.0, 0.2, seed=seed)
    if not is_strongly_connected(w):
        return None
    a = np.eye(15) - 0.5 * normalized_laplacian(w)
    x0 = np.random.default_rng(seed).standard_normal(15)
    return simulate(LinearSystem(a), x0, 150).states


def sign_partition(states: np.ndarray, k: int = 3) -> frozenset:
    """Vertex sets of the sign-pattern labels, each vertex fitted from its column."""
    comps = {v: analyze_vertex(states[:, v - 1], states.shape[1], vertex=v).components
             for v in range(1, states.shape[1] + 1)}
    groups: dict[int, set] = {}
    for v, label in decentralized_cluster_labels(comps, k).items():
        groups.setdefault(label, set()).add(v)
    return frozenset(frozenset(g) for g in groups.values())


class TestLabelProperties:
    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), exponent=st.integers(-12, 6))
    def test_partition_independent_of_units(self, seed, exponent):
        states = sbm_states(seed)
        assume(states is not None)
        assert sign_partition(10.0**exponent * states) == sign_partition(states)

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), perm_seed=st.integers(0, 2**32 - 1))
    def test_labels_equivariant_under_vertex_permutation(self, seed, perm_seed):
        states = sbm_states(seed)
        assume(states is not None)
        perm = np.random.default_rng(perm_seed).permutation(15)  # new vertex j is old perm[j]
        moved = sign_partition(states[:, perm])
        back = frozenset(frozenset(int(perm[v - 1]) + 1 for v in g) for g in moved)
        assert back == sign_partition(states)


class TestAnalyzeVertex:
    def test_series_beyond_1e154_analyzed_without_overflow(self):
        # pytest turns an overflow RuntimeWarning into a failure here
        states = growing_states()
        for v in range(1, states.shape[1] + 1):
            report = analyze_vertex(states[:, v - 1], states.shape[1], vertex=v)
            assert np.all(np.isfinite(report.eigenvalues))
            assert report.vertex == v
            assert np.all(np.isfinite(report.components))

    def test_coinciding_eigenvalues_leave_components_unset(self):
        # the directed path 1 -> 2 -> 3 -> 4 is nilpotent: four zero eigenvalues
        path = LinearSystem(np.eye(4, k=-1))
        u = simulate(path, [1.0, 2.0, 3.0, 4.0], 20).local(4)
        report = analyze_vertex(u, 4, vertex=4)
        assert np.array_equal(report.eigenvalues, np.zeros(4))
        assert report.bipartite is True
        assert report.vertex == 4 and report.components is None
        assert report.to_json_dict()["vertex_components"] == {}
        with pytest.raises(DegenerateSpectrumError):
            local_eigenvector_components(u, report.eigenvalues)

    def test_rank_deficient_fit_reports_the_identified_modes(self):
        # a geometric series embedded in s = 3 delays: rank 1, one mode
        u = 3.0 * 0.5 ** np.arange(12)
        report = analyze_vertex(u, 3, vertex=2)
        assert (report.s, report.rank) == (3, 1)
        assert report.eigenvalues == pytest.approx([0.5], abs=1e-12)
        assert report.components == pytest.approx([3.0], abs=1e-10)
        assert report.trace_estimate is None and report.det_estimate is None
        payload = report.to_json_dict()
        assert payload["trace_estimate"] is None and payload["det_estimate"] is None
        assert (payload["s"], payload["rank"]) == (3, 1)
        assert payload["sigma_ratio"] == report.sigma_ratio <= 1e-10

    def test_full_rank_fit_keeps_the_companion_spectrum(self):
        fix = bipartite_fixture()
        u = simulate(fix, np.random.default_rng(7).standard_normal(6), 24).local(1)
        model = fit_companion(u, 6)
        report = analyze_vertex(u, 6)
        assert model.rank == report.rank == 6 and model.basis is None
        assert np.array_equal(report.eigenvalues, local_eigenvalues(model))
        assert (report.trace_estimate, report.det_estimate) == trace_det(model)
        assert report.sigma_ratio == model.sigma_ratio > 1e-10

    def test_no_component_switch(self):
        # one analysis for every caller: bipartiteness and the gap count are
        # read off the report, not switched on here
        params = inspect.signature(analyze_vertex).parameters
        assert list(params) == ["u", "s", "vertex", "svd_tol", "distinct_tol"]

    def test_bipartite_fixture_flag(self):
        fix = bipartite_fixture()
        x0 = np.random.default_rng(42).standard_normal(6)
        u = simulate(fix, x0, 24).local(1)
        report = analyze_vertex(u, 6, vertex=1)
        assert report.bipartite is True
        assert multiset_distance(report.eigenvalues, np.linalg.eigvals(fix.a)) <= 1e-6

    def test_wave_spectrum_not_damped(self):
        # wave dynamics on a small two-block graph: locally estimated
        # eigenvalues stay on the unit circle
        w = generate_sbm([3, 3], 1.0, 0.5, 1.0, 0.3, seed=4)
        wave = build_wave_system(normalized_laplacian(w), 1.0)
        best_v = max(
            range(1, wave.n + 1),
            key=lambda v: (lambda s: s[-1] / s[0])(singular_values(r_matrix(wave, v))),
        )
        x0 = np.random.default_rng(6).standard_normal(wave.n)
        u = simulate(wave, x0, 500).local(best_v)
        report = analyze_vertex(u, wave.n, vertex=best_v)
        assert np.max(np.abs(np.abs(report.eigenvalues) - 1.0)) <= 1e-6

    def test_scalar_geometric_report(self):
        u = 0.5 ** np.arange(12)
        report = analyze_vertex(u, 1, vertex=1)
        assert report.eigenvalues[0] == pytest.approx(0.5, abs=1e-10)
        assert report.trace_estimate == pytest.approx(0.5, abs=1e-10)
        assert report.det_estimate == pytest.approx(0.5, abs=1e-10)
        assert report.components[0] == pytest.approx(1.0, abs=1e-8)

    def test_json_round_trip(self):
        import json

        u = 0.5 ** np.arange(12)
        report = analyze_vertex(u, 1, vertex=1)
        payload = json.loads(json.dumps(report.to_json_dict()))
        assert payload["bipartite"] is False
        assert payload["eigenvalues"][0]["re"] == pytest.approx(0.5)


class TestIsospectralityProperties:
    def test_fitted_spectrum_matches_direct(self):
        for seed in range(30):
            sys = random_localizable_system(seed)
            x0 = np.random.default_rng(600 + seed).standard_normal(sys.n)
            u = simulate(sys, x0, 4 * sys.n).local(1)
            est = local_eigenvalues(fit_companion(u, sys.n))
            assert multiset_distance(est, np.linalg.eigvals(sys.a)) <= 1e-6

    def test_vertex_independence(self):
        for seed in range(10):
            sys = random_localizable_system(seed, n=5)
            loc = [is_localizable(sys, v).localizable for v in range(1, 6)]
            vertices = [v for v, ok in zip(range(1, 6), loc) if ok]
            if len(vertices) < 2:
                continue
            x0 = np.random.default_rng(700 + seed).standard_normal(5)
            estimates = []
            for v in vertices[:2]:
                u = simulate(sys, x0, 20).local(v)
                estimates.append(local_eigenvalues(fit_companion(u, 5)))
            assert multiset_distance(estimates[0], estimates[1]) <= 1e-6

    def test_conjugate_closure(self):
        for seed in range(10):
            sys = random_localizable_system(seed)
            x0 = np.random.default_rng(800 + seed).standard_normal(sys.n)
            u = simulate(sys, x0, 4 * sys.n).local(1)
            eigs = local_eigenvalues(fit_companion(u, sys.n))
            assert multiset_distance(eigs, np.conj(eigs)) <= 1e-8
