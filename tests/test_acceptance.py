"""Acceptance suite: one test per exit criterion, at its stated tolerance.

Each test prints one `ACCEPTANCE <nn> <name>: PASS|FAIL` line (run pytest
with -s to see them all) and then asserts, so a red criterion is visible
both ways.
"""

import time
from fractions import Fraction

import numpy as np
import scipy.sparse
from scipy.sparse.csgraph import connected_components

from conftest import growth_normalized_error, random_localizable_system
from localspec import (
    LinearSystem,
    bipartite_fixture,
    build_wave_system,
    coupled_cell_fixture,
    consensus_cluster_count,
    decentralized_cluster_labels,
    exact_companion,
    fit_companion,
    generate_sbm,
    hautus_localizable,
    is_bipartite_spectrum,
    is_localizable,
    koopman_lift,
    lift_state,
    local_eigenvalues,
    local_eigenvector_components,
    localizable_everywhere,
    multiset_distance,
    normalized_laplacian,
    predict,
    r_matrix,
    recover_hidden_state,
    simulate,
    simulate_coupled,
    simulate_local,
)
from localspec._linalg import singular_values
from localspec.cli import main as cli_main
from localspec.io import example1_system


def report(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num:02d} {name}: {status}" + (f" ({detail})" if detail else ""))
    return ok


def is_connected(w):
    count, _ = connected_components(scipy.sparse.csr_matrix(w != 0), directed=False)
    return count == 1


def test_01_example1_non_localizability():
    systems = {name: example1_system(name) for name in ("left", "middle", "right")}
    start = time.perf_counter()
    reports = {name: is_localizable(sys, 1) for name, sys in systems.items()}
    elapsed = time.perf_counter() - start
    ok = all(r.numeric_rank == 1 and not r.localizable for r in reports.values())
    ok = ok and elapsed < 1e-3
    assert report(1, "example1-non-localizability", ok, f"{elapsed * 1e6:.0f} us")


def test_02_perturbation_restores_localizability():
    a = example1_system("middle").a.copy()
    a[1, 1] = -2.0 / 5.0
    start = time.perf_counter()
    rep = is_localizable(LinearSystem(a), 1)
    elapsed = time.perf_counter() - start
    ok = rep.localizable and elapsed < 1e-3
    assert report(2, "perturbation-remark", ok, f"rank {rep.numeric_rank}")


def test_03_hautus_equals_rank_criterion():
    start = time.perf_counter()
    disagreements = 0
    for seed in range(1000):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 9))
        a = rng.standard_normal((n, n))
        if rng.random() < 0.5:
            a = a * (rng.random((n, n)) < 0.6)
            if not np.any(a):
                a[0, 0] = 1.0
        sys = LinearSystem(a)
        if hautus_localizable(sys, 1) != is_localizable(sys, 1).localizable:
            disagreements += 1
    elapsed = time.perf_counter() - start
    ok = disagreements == 0 and elapsed < 5.0
    assert report(3, "hautus-equals-rank", ok,
                  f"{disagreements} disagreements in 1000, {elapsed:.1f} s")


def test_04_isospectrality_from_local_data():
    start = time.perf_counter()
    worst = 0.0
    for seed in range(100):
        sys = random_localizable_system(seed)
        x0 = np.random.default_rng(10_000 + seed).standard_normal(sys.n)
        u = simulate_local(sys, x0, 4 * sys.n, 1)
        est = local_eigenvalues(fit_companion(u, sys.n))
        worst = max(worst, multiset_distance(est, np.linalg.eigvals(sys.a)))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-6 and elapsed < 10.0
    assert report(4, "isospectrality", ok, f"worst multiset distance {worst:.2e}")


def test_05_companion_coefficients_double_oracle():
    start = time.perf_counter()
    worst = 0.0
    for seed in range(100):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 9))
        a = rng.standard_normal((n, n))
        a /= np.max(np.abs(np.linalg.eigvals(a)))
        sys = LinearSystem(a)
        w = exact_companion(sys).weights
        # oracle 1: expanded product of the computed eigenvalues
        coeffs = np.real(np.poly(np.linalg.eigvals(a)))
        w_oracle = -coeffs[1:][::-1]
        scale = max(1.0, float(np.max(np.abs(w_oracle))))
        worst = max(worst, float(np.max(np.abs(w - w_oracle))) / scale)
        # oracle 2: trace / determinant identities
        worst = max(worst, abs(w[-1] - np.trace(a)) / scale)
        worst = max(worst, abs(w[0] - (-1.0) ** (n + 1) * np.linalg.det(a)) / scale)
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-8 and elapsed < 5.0
    assert report(5, "companion-coefficients", ok, f"worst relative error {worst:.2e}")


def test_06_prediction_and_hidden_state():
    start = time.perf_counter()
    worst_pred, worst_hidden = 0.0, 0.0
    for seed in range(100):
        sys = random_localizable_system(seed)
        n = sys.n
        x0 = np.random.default_rng(20_000 + seed).standard_normal(n)
        u = simulate_local(sys, x0, n + 49, 1)
        pred = predict(exact_companion(sys), u[:n], 50)
        worst_pred = max(worst_pred, growth_normalized_error(pred, u))
        v = recover_hidden_state(sys, 1, u[:n])
        rel = np.max(np.abs(v - x0[1:])) / max(np.max(np.abs(x0[1:])), 1e-30)
        worst_hidden = max(worst_hidden, float(rel))
    elapsed = time.perf_counter() - start
    ok = worst_pred <= 1e-6 and worst_hidden <= 1e-8 and elapsed < 5.0
    assert report(6, "proposition1-prediction", ok,
                  f"pred {worst_pred:.2e}, hidden {worst_hidden:.2e}")


def test_07_bipartite_fixture_reproduction():
    start = time.perf_counter()
    fix = bipartite_fixture()
    everywhere, _ = localizable_everywhere(fix)
    x0 = np.random.default_rng(42).standard_normal(6)
    traj = simulate(fix, x0, 24)
    symmetric = []
    for v in (1, 3, 5):
        est = local_eigenvalues(fit_companion(traj.local(v), 6))
        symmetric.append(is_bipartite_spectrum(est, tol=1e-6))
    elapsed = time.perf_counter() - start
    ok = everywhere and all(symmetric) and elapsed < 1.0
    assert report(7, "fig1-bipartite", ok,
                  f"localizable everywhere {everywhere}, symmetric {symmetric}")


def test_08_sbm_cluster_recovery():
    start = time.perf_counter()
    # first 20 seeds giving a connected graph: a vertex's trajectory carries
    # no information about components it is not attached to, so decentralized
    # clustering presumes connectivity
    seeds, s = [], 0
    while len(seeds) < 20:
        w = generate_sbm([5, 5, 5], 0.7, 0.05, 1.0, 0.2, seed=s)
        if is_connected(w):
            seeds.append(s)
        s += 1

    def partition(labels):
        groups = {}
        for v, c in sorted(labels.items()):
            groups.setdefault(c, []).append(v)
        return frozenset(frozenset(g) for g in groups.values())

    successes = 0
    for seed in seeds:
        w = generate_sbm([5, 5, 5], 0.7, 0.05, 1.0, 0.2, seed=seed)
        lap = normalized_laplacian(w)
        n = 15
        sysm = LinearSystem(np.eye(n) - 0.5 * lap)
        x0 = np.random.default_rng(seed + 555).standard_normal(n)
        traj = simulate(sysm, x0, 150)
        comps, spectra = {}, {}
        for v in range(1, n + 1):
            u = traj.local(v)
            eigs = local_eigenvalues(fit_companion(u, n))
            spectra[v] = eigs
            comps[v] = local_eigenvector_components(u, eigs)
        k = consensus_cluster_count(spectra, max_k=8)
        labels = decentralized_cluster_labels(comps, max(k, 2))
        # oracle: sign structure of the true 2nd/3rd Laplacian eigenvectors
        mu, xi = np.linalg.eigh(lap)
        oracle, ids = {}, {}
        for v in range(1, n + 1):
            pattern = (xi[v - 1, 1] >= -1e-9, xi[v - 1, 2] >= -1e-9)
            if pattern not in ids:
                ids[pattern] = len(ids)
            oracle[v] = ids[pattern]
        if k == 3 and partition(labels) == partition(oracle):
            successes += 1
    elapsed = time.perf_counter() - start
    ok = successes >= 18 and elapsed < 30.0
    assert report(8, "fig2-cluster-recovery", ok, f"{successes}/20 runs, {elapsed:.1f} s")


def quadratic_wave_spectrum(lap, c):
    """Oracle: roots of x**2 - (2 - c**2 mu) x + 1 per Laplacian eigenvalue mu.

    The Laplacian is positive semidefinite, so tiny negative mu from the
    symmetric eigensolver are clamped to zero before the discriminant.
    """
    mu = np.clip(np.linalg.eigvalsh(lap), 0.0, None)
    half = 1.0 - 0.5 * c * c * mu
    roots = []
    for h in half:
        disc = h * h - 1.0
        if disc <= 0:
            root = complex(h, np.sqrt(-disc))
            roots.extend([root, root.conjugate()])
        else:
            sq = np.sqrt(disc)
            roots.extend([h + sq, h - sq])
    return np.array(roots)


def random_weighted_adjacency(n, seed):
    """Complete graph with uniform(0.5, 1.5) edge weights (generic: no
    symmetries, so no eigenvector zeros blocking local observability)."""
    rng = np.random.default_rng(seed)
    w = np.zeros((n, n))
    iu = np.triu_indices(n, 1)
    w[iu] = rng.uniform(0.5, 1.5, len(iu[0]))
    return w + w.T


def test_09_wave_spectrum_on_unit_circle():
    # 3-vertex weighted graphs: at >= 4 vertices the defective lambda = 1
    # double root of the wave matrix (the Laplacian null mode) splits under
    # fitting by sqrt of the eps-level weight error, which lands exactly at
    # the 1e-6 tolerance; 6-dimensional wave systems keep a real margin.
    start = time.perf_counter()
    worst_direct, worst_cross, worst_local = 0.0, 0.0, 0.0
    for i in range(20):
        lap = normalized_laplacian(random_weighted_adjacency(3, 900 + i))
        for c in (0.5, 1.0, 1.4):
            wave = build_wave_system(lap, c)
            spectrum = quadratic_wave_spectrum(lap, c)
            worst_direct = max(worst_direct, float(np.max(np.abs(np.abs(spectrum) - 1.0))))
            # cross-check the structured route against the generic eigensolver
            generic = np.linalg.eigvals(wave.a)
            worst_cross = max(worst_cross, multiset_distance(spectrum, generic))
            # local estimate from the best-conditioned vertex
            best_v, best_ratio = 1, -1.0
            for v in range(1, wave.n + 1):
                sigma = singular_values(r_matrix(wave, v))
                ratio = sigma[-1] / sigma[0]
                if ratio > best_ratio:
                    best_v, best_ratio = v, ratio
            x0 = np.random.default_rng(7000 + i).standard_normal(wave.n)
            u = simulate_local(wave, x0, 300, best_v)
            est = local_eigenvalues(fit_companion(u, wave.n))
            worst_local = max(worst_local, float(np.max(np.abs(np.abs(est) - 1.0))))
    elapsed = time.perf_counter() - start
    ok = worst_direct <= 1e-10 and worst_cross <= 1e-6 and worst_local <= 1e-6
    ok = ok and elapsed < 10.0
    assert report(9, "wave-unit-circle", ok,
                  f"direct {worst_direct:.2e}, cross {worst_cross:.2e}, local {worst_local:.2e}")


def test_10_coupled_cell_reproduction():
    start = time.perf_counter()
    lift_ok = True
    passes = 0
    worst_lift = 0.0
    for seed in range(10):
        sys = coupled_cell_fixture(seed)
        x0 = np.random.default_rng(1000 + seed).standard_normal(8)
        total = 48 + 50
        nonlinear = simulate_coupled(sys, x0, total)
        lifted_sys = koopman_lift(sys)
        lifted = simulate(lifted_sys, lift_state(sys, x0), total)
        dev = float(
            max(
                np.max(np.abs(lifted.states[:51, 0::3] - nonlinear.states[:51, 0::2])),
                np.max(np.abs(lifted.states[:51, 1::3] - nonlinear.states[:51, 1::2])),
            )
        )
        worst_lift = max(worst_lift, dev)
        lift_ok = lift_ok and dev <= 1e-9 and lifted_sys.n == 12
        u = nonlinear.states[:, 0]
        model = fit_companion(u[:49], 12)
        pred = predict(model, u[37:49], 50)
        err = growth_normalized_error(pred[12:], u[49:99])
        passes += err <= 1e-4
    elapsed = time.perf_counter() - start
    ok = lift_ok and passes >= 9 and elapsed < 30.0
    assert report(10, "fig3-coupled-cells", ok,
                  f"lift {worst_lift:.2e}, prediction passes {passes}/10")


def test_11_eigenvector_components_oracle():
    start = time.perf_counter()
    worst = 0.0
    checked = 0
    for seed in range(50):
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
        u = simulate_local(LinearSystem(a), x0, 4 * n, vertex)
        c = local_eigenvector_components(u, lam)
        worst = max(worst, float(np.max(np.abs(c - z * xi[vertex - 1, :]))))
        checked += 1
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-7 and checked >= 45 and elapsed < 10.0
    assert report(11, "eigenvector-components", ok,
                  f"worst {worst:.2e} over {checked} systems")


def test_12_cli_determinism_and_fixture_fidelity(tmp_path):
    start = time.perf_counter()
    d1, d2 = tmp_path / "run1", tmp_path / "run2"
    code1 = cli_main(["demo", "fig2", "--seed", "0", "--outdir", str(d1), "--quiet"])
    code2 = cli_main(["demo", "fig2", "--seed", "0", "--outdir", str(d2), "--quiet"])
    payloads = [
        "adjacency.json", "system.json", "trajectory.csv",
        "laplacian_spectrum.csv", "components.csv", "labels.json",
    ]
    identical = all((d1 / p).read_bytes() == (d2 / p).read_bytes() for p in payloads)

    expected = {
        "left": [
            [Fraction(3, 5), Fraction(-1, 2), 0],
            [Fraction(-1, 2), Fraction(-3, 5), 0],
            [Fraction(-1), Fraction(1, 2), Fraction(-1, 2)],
        ],
        "middle": [
            [Fraction(1, 2), Fraction(-2, 5), Fraction(2, 5)],
            [Fraction(-2, 5), Fraction(-1, 2), 0],
            [Fraction(2, 5), 0, Fraction(-1, 2)],
        ],
        "right": [
            [1, 1, 2],
            [-1, Fraction(-1, 3), -1],
            [-1, Fraction(-5, 6), Fraction(-3, 2)],
        ],
    }
    fidelity = True
    for name, rows in expected.items():
        parsed = example1_system(name).a
        exact = np.array([[float(v) for v in row] for row in rows])
        fidelity = fidelity and np.array_equal(parsed, exact)

    elapsed = time.perf_counter() - start
    ok = code1 == 0 and code2 == 0 and identical and fidelity and elapsed < 5.0
    assert report(12, "cli-determinism-fixtures", ok,
                  f"identical {identical}, fixture fidelity {fidelity}")
