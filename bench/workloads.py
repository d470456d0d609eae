"""The benchmark's workloads: seeded pools of CLI operations and their checks.

`build(name, seed, workdir)` writes a workload's input files and returns its
pool. That is the set-up a user pays before the first command; it is what
`setup_s` times. `Pool.references()` then computes the expected answers,
apart from the program, outside every timed region.

An operation is one or more `localspec.cli.main(argv)` calls. A round runs
every operation of the pool once, in pool order.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import checks
from localspec import dynsys, io


@dataclass
class Op:
    """One operation: CLI argv lists run in order, and the check of their outputs.

    ``check`` receives the captured stdout of each call and returns problems.
    ``kept_failure`` names the program fault for operations that fail on
    every run today; they count as failed without making a run incorrect.
    """

    label: str
    commands: list[list[str]]
    check: Callable[[list[str]], list[str]]
    kept_failure: str | None = None


@dataclass
class Pool:
    ops: list[Op]
    references: Callable[[], None] = field(default=lambda: None)


def build(name: str, seed: int, workdir: Path) -> Pool:
    builders = {
        "cluster-sbm60": build_cluster,
        "localize-batch": build_localize,
        "roundtrip-orth60": build_roundtrip,
    }
    return builders[name](seed, Path(workdir))


# --- cluster-sbm60 -------------------------------------------------------------
#
# Six fixed 60-vertex SBM draws (generator seeds 0..5) and their trajectories.
# The run seed draws a vertex relabeling of each. Each vertex's analysis
# sees only its own column, so a relabeling changes the files and the
# expected labels but not a vertex's result: an operation that fails, fails
# on every seed.

SBM_SIZES = (20, 20, 20)
SBM_GRAPHS = 6
# Draw 3 loses the lambda = 0.968 mode at 13 of 60 vertices and splits a block.
SBM_MISLABELED = {3: "cluster --k 3 splits a block of SBM draw 3 (a top-3 mode is lost at 13 of 60 vertices)"}
SBM_UNIT_MODE_RTOL = 1e-5


def sbm_graph(graph_seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Adjacency and states x(0..10n) of x(k+1) = (I - L/2) x(k) for one SBM draw."""
    w = dynsys.generate_sbm(list(SBM_SIZES), 0.7, 0.05, 1.0, 0.2, seed=graph_seed)
    n = w.shape[0]
    system = dynsys.LinearSystem(np.eye(n) - 0.5 * dynsys.normalized_laplacian(w))
    x0 = np.random.default_rng(graph_seed).standard_normal(n)
    return w, dynsys.simulate(system, x0, 10 * n).states


def check_cluster(labels_path: Path, comps_path: Path, blocks, degrees, k):
    n = len(blocks)

    def check(_stdout: list[str]) -> list[str]:
        payload = json.loads(labels_path.read_text())
        header, values = checks.parse_components_csv(comps_path.read_text())
        problems = checks.cluster_count_is(payload, k)
        problems += checks.components_finite(header, values, n, n)
        if problems:
            return problems
        labels = {e["vertex"]: e["cluster"] for e in payload["labels"]}
        problems += checks.labels_match_blocks(labels, blocks)
        c1 = values[:, 1] + 1j * values[:, 2]
        problems += checks.unit_mode_follows_degree(c1, degrees, SBM_UNIT_MODE_RTOL)
        return problems

    return check


def build_cluster(seed: int, workdir: Path) -> Pool:
    rng = np.random.default_rng(seed)
    planted = np.repeat(np.arange(len(SBM_SIZES)), SBM_SIZES)
    graphs = [sbm_graph(g) for g in range(SBM_GRAPHS)]
    ops = []
    for g, (w, states) in enumerate(graphs):
        perm = rng.permutation(w.shape[0])
        traj, out = workdir / f"sbm{g}.csv", workdir / f"labels{g}.json"
        io.save_trajectory(traj, states[:, perm])
        ops.append(Op(
            f"cluster sbm{g} --k 3",
            [["cluster", str(traj), "--k", "3", "--out", str(out), "--quiet"]],
            check_cluster(out, workdir / f"labels{g}_components.csv",
                          planted[perm], w.sum(axis=1)[perm], 3),
            SBM_MISLABELED.get(g),
        ))
    # --k auto reads draw 0 unrelabeled: a kept failure needs seed-independent inputs.
    w, states = graphs[0]
    traj, out = workdir / "sbm0_fixed.csv", workdir / "labels_auto.json"
    io.save_trajectory(traj, states)
    ops.append(Op(
        "cluster sbm0 --k auto",
        [["cluster", str(traj), "--k", "auto", "--out", str(out), "--quiet"]],
        check_cluster(out, workdir / "labels_auto_components.csv", planted, w.sum(axis=1), 3),
        "spectral.consensus_cluster_count returns 28, not 3, on SBM [20,20,20]",
    ))
    return Pool(ops)


# --- localize-batch ------------------------------------------------------------
#
# Twenty dense and twenty sparse seeded systems, two of each size 3..12, then
# planted non-localizable cases and two fixed dense 48-vertex systems.

LOCALIZE_SIZES = tuple(range(3, 13)) * 2
DENSE48_SEEDS = (0, 1)
DENSE48_FAULT = ("localizability ranks monomial Krylov rows a12^T A22^l; at n = 48 "
                 "their singular values fall below the cutoff, so localizable vertices read not")


def dense_system(rng, n: int) -> np.ndarray:
    return rng.standard_normal((n, n)) / np.sqrt(n)


def sparse_system(rng, n: int) -> np.ndarray:
    """Half the off-diagonal entries zero, unit spectral radius."""
    while True:
        a = np.where(rng.random((n, n)) < 0.5, rng.standard_normal((n, n)), 0.0)
        a[np.diag_indices(n)] = rng.standard_normal(n)
        radius = np.max(np.abs(np.linalg.eigvals(a)))
        if radius > 0:
            return a / radius


def clear_cut(draw, rng, n: int) -> np.ndarray:
    """A draw whose Hautus margins all lie outside the ambiguous band.

    Redrawing on the benchmark's own margins keeps every expected flag
    clear-cut; it never looks at the program's answer.
    """
    lo, hi = checks.HAUTUS_AMBIGUOUS
    while True:
        a = draw(rng, n)
        if not any(lo < m < hi for m in checks.hautus_margins(a)):
            return a


def unit_bipartite() -> np.ndarray:
    """The bipartite fixture's graph with unit weights: vertices 2 and 5 are not localizable."""
    a = dynsys.bipartite_fixture().a.copy()
    a[a != 0] = 1.0
    return a


def direct_sum(rng) -> np.ndarray:
    """Two decoupled random blocks: no vertex sees the other block."""
    a = np.zeros((9, 9))
    a[:4, :4] = dense_system(rng, 4)
    a[4:, 4:] = dense_system(rng, 5)
    return a


def check_localize(expected_box: dict, key: str):
    def check(stdout: list[str]) -> list[str]:
        return checks.localizability_flags(json.loads(stdout[0]), expected_box[key])
    return check


def build_localize(seed: int, workdir: Path) -> Pool:
    rng = np.random.default_rng(seed)
    # (name, matrix or fixture path, flags known by construction, kept fault)
    cases = []
    for i, n in enumerate(LOCALIZE_SIZES):
        cases.append((f"dense{i}", clear_cut(dense_system, rng, n), "all", None))
    for i, n in enumerate(LOCALIZE_SIZES):
        cases.append((f"sparse{i}", clear_cut(sparse_system, rng, n), {}, None))
    for which in io.EXAMPLE1_NAMES:
        cases.append((f"example1_{which}", io.example1_path(which), {1: False}, None))
    cases.append(("direct_sum", direct_sum(rng), "none", None))
    cases.append(("unit_bipartite", unit_bipartite(), {2: False, 5: False}, None))
    for s in DENSE48_SEEDS:
        a = dense_system(np.random.default_rng([48, s]), 48)
        cases.append((f"dense48_{s}", a, "all", DENSE48_FAULT))

    expected: dict[str, list[bool]] = {}
    ops = []
    for name, source, _, fault in cases:
        if isinstance(source, Path):
            path = source
        else:
            path = workdir / f"{name}.json"
            io.save_system(path, dynsys.LinearSystem(source))
        ops.append(Op(f"localizability {name} --all",
                      [["localizability", str(path), "--all"]],
                      check_localize(expected, name), fault))

    def references() -> None:
        for name, source, planted, _ in cases:
            a = source if isinstance(source, np.ndarray) else io.load_system(source).a
            flags = checks.hautus_localizable(a)
            if planted in ("all", "none"):
                planted = {v: planted == "all" for v in range(1, a.shape[0] + 1)}
            if any(flags[v - 1] != want for v, want in planted.items()):
                raise RuntimeError(f"Hautus test disagrees with the planted flags of {name}")
            expected[name] = flags

    return Pool(ops, references)


# --- roundtrip-orth60 ----------------------------------------------------------
#
# simulate a 60-dimensional orthogonal system to CSV, then analyze one vertex.
# Even pool entries are dense Haar-orthogonal, odd ones block anti-diagonal
# (bipartite) with Haar-orthogonal blocks.

ORTH_N = 60
ORTH_SYSTEMS = 4
ORTH_STEPS = 2000
ORTH_EIG_TOL = 1e-8
ORTH_CSV_RTOL = 1e-12
ORTH_REBUILD_RTOL = 1e-8


def haar_orthogonal(rng, n: int) -> np.ndarray:
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    return q * np.sign(np.diag(r))


def orthogonal_system(rng, bipartite: bool) -> np.ndarray:
    if not bipartite:
        return haar_orthogonal(rng, ORTH_N)
    h = ORTH_N // 2
    a = np.zeros((ORTH_N, ORTH_N))
    a[:h, h:] = haar_orthogonal(rng, h)
    a[h:, :h] = haar_orthogonal(rng, h)
    return a


def check_roundtrip(traj: Path, a: np.ndarray, vertex: int, bipartite: bool, ref: dict):
    def check(stdout: list[str]) -> list[str]:
        states = ref["states"]
        problems = checks.trajectory_matches(traj.read_text(), states, ORTH_CSV_RTOL)
        report = json.loads(stdout[1])
        eigs = checks.parse_complex_list(report["eigenvalues"])
        comps = checks.parse_complex_list(report["vertex_components"][str(vertex)])
        problems += checks.spectrum_matches(eigs, ref["eigenvalues"], ORTH_EIG_TOL)
        problems += checks.unit_modulus(eigs, ORTH_EIG_TOL)
        problems += checks.trace_det_match(report["trace_estimate"], report["det_estimate"],
                                           a, ORTH_EIG_TOL)
        problems += checks.bipartite_flag(report["bipartite"], bipartite)
        problems += checks.modes_reconstruct(states[:, vertex - 1], eigs, comps,
                                             ORTH_REBUILD_RTOL)
        return problems
    return check


def build_roundtrip(seed: int, workdir: Path) -> Pool:
    rng = np.random.default_rng(seed)
    ops, entries = [], []
    for i in range(ORTH_SYSTEMS):
        bipartite = i % 2 == 1
        a = orthogonal_system(rng, bipartite)
        vertex = int(rng.integers(1, ORTH_N + 1))
        x0_seed = int(rng.integers(2**31))
        system, traj = workdir / f"orth{i}.json", workdir / f"orth{i}.csv"
        io.save_system(system, dynsys.LinearSystem(a))
        ref: dict = {}
        entries.append((a, x0_seed, ref))
        ops.append(Op(
            f"simulate+analyze orth{i}",
            [["simulate", str(system), "--steps", str(ORTH_STEPS), "--x0-seed", str(x0_seed),
              "--out", str(traj), "--quiet"],
             ["analyze", str(traj), "--vertex", str(vertex)]],
            check_roundtrip(traj, a, vertex, bipartite, ref),
        ))

    def references() -> None:
        for a, x0_seed, ref in entries:
            # x0 follows the documented --x0-seed convention: a seeded standard normal.
            states = np.empty((ORTH_STEPS + 1, ORTH_N))
            states[0] = np.random.default_rng(x0_seed).standard_normal(ORTH_N)
            for k in range(ORTH_STEPS):
                states[k + 1] = a @ states[k]
            ref["states"] = states
            ref["eigenvalues"] = np.linalg.eigvals(a)

    return Pool(ops, references)
