"""Correctness checks of localspec outputs, made apart from the program.

Every check compares an output with a computation written here (an
eigen-decomposition, a Hautus rank test, an own iteration of the system) or
with a property the method must have. Each returns a list of problems; an
empty list means the output passed. None of them imports localspec.
"""

from __future__ import annotations

import csv
import io

import numpy as np
from scipy.optimize import linear_sum_assignment

# A Hautus stack [lam I - A22; a12^T] with sigma_min / sigma_max above this is
# full rank. Inputs are drawn so that no margin lies within HAUTUS_AMBIGUOUS.
HAUTUS_TOL = 1e-8
HAUTUS_AMBIGUOUS = (1e-12, 1e-6)


def parse_complex_list(values) -> np.ndarray:
    """Report encoding [{"re": ..., "im": ...}, ...] to a complex array."""
    return np.array([v["re"] + 1j * v["im"] for v in values], dtype=complex)


# --- cluster -----------------------------------------------------------------


def labels_match_blocks(labels: dict[int, int], blocks) -> list[str]:
    """Cluster ids of vertices 1..n equal the planted blocks up to relabeling."""
    blocks = list(blocks)
    if sorted(labels) != list(range(1, len(blocks) + 1)):
        return [f"labels cover {len(labels)} vertices, expected 1..{len(blocks)}"]
    pairs = {(labels[v], blocks[v - 1]) for v in labels}
    if not len(pairs) == len({c for c, _ in pairs}) == len({b for _, b in pairs}):
        return [f"labels are no relabeling of the planted blocks ({len(pairs)} label/block pairs)"]
    return []


def parse_components_csv(text: str) -> tuple[list[str], np.ndarray]:
    """Header and numeric rows of a `cluster` components CSV."""
    rows = list(csv.reader(io.StringIO(text)))
    return rows[0], np.array(rows[1:], dtype=float)


def components_finite(header: list[str], values: np.ndarray, n: int, s: int) -> list[str]:
    """One row per vertex 1..n, with the real and imaginary part of s components."""
    if len(header) != 1 + 2 * s:
        return [f"components header has {len(header)} columns, expected {1 + 2 * s}"]
    if values.shape != (n, 1 + 2 * s):
        return [f"components table has shape {values.shape}, expected {(n, 1 + 2 * s)}"]
    if not np.array_equal(values[:, 0], np.arange(1, n + 1)):
        return ["components rows are not vertices 1..n in order"]
    if not np.all(np.isfinite(values)):
        return ["components hold non-finite values"]
    return []


def unit_mode_follows_degree(c1: np.ndarray, degrees: np.ndarray, rtol: float) -> list[str]:
    """The lambda = 1 component of every vertex is proportional to sqrt(degree).

    For x(k+1) = (I - L/2) x(k) with L the normalized Laplacian, the
    eigenvector of eigenvalue 1 is D^(1/2) 1, so c1[v] / sqrt(d_v) is the
    same mode amplitude at every vertex.
    """
    ratio = np.asarray(c1, dtype=complex) / np.sqrt(np.asarray(degrees, dtype=float))
    mean = np.mean(ratio)
    if mean == 0 or not np.isfinite(mean):
        return ["lambda = 1 components have no common amplitude"]
    spread = float(np.max(np.abs(ratio / mean - 1.0)))
    if spread > rtol:
        return [f"lambda = 1 components deviate from sqrt(degree) by {spread:.2e} > {rtol:g}"]
    return []


def cluster_count_is(payload: dict, k: int) -> list[str]:
    got = payload.get("cluster_count")
    return [] if got == k else [f"cluster_count {got}, expected {k}"]


# --- localizability ----------------------------------------------------------


def hautus_margins(a: np.ndarray) -> list[float]:
    """Per vertex, the smallest relative sigma_min of [lam I - A22; a12^T].

    A22 and a12 are taken with the vertex moved first; lam runs over the
    eigenvalues of A22. A vertex is localizable iff the margin exceeds
    HAUTUS_TOL. Written apart from localspec, which tests the rank of the
    stacked Krylov rows a12^T A22^l instead.
    """
    a = np.asarray(a, dtype=float)
    n = a.shape[0]
    margins = []
    for v in range(n):
        order = [v] + [i for i in range(n) if i != v]
        b = a[np.ix_(order, order)]
        a12, a22 = b[0, 1:], b[1:, 1:]
        margin = np.inf
        for lam in np.linalg.eigvals(a22):
            stacked = np.vstack([lam * np.eye(n - 1) - a22, a12[None, :]])
            sigma = np.linalg.svd(stacked, compute_uv=False)
            margin = min(margin, sigma[-1] / sigma[0] if sigma[0] > 0 else 0.0)
        margins.append(float(margin))
    return margins


def hautus_localizable(a: np.ndarray) -> list[bool]:
    return [m > HAUTUS_TOL for m in hautus_margins(a)]


def localizability_flags(payload: dict, expected: list[bool]) -> list[str]:
    """`localizability --all` output agrees with the expected flag of every vertex."""
    reports = payload.get("reports", [])
    vertices = [r.get("vertex") for r in reports]
    if vertices != list(range(1, len(expected) + 1)):
        return [f"reports cover vertices {vertices}, expected 1..{len(expected)}"]
    wrong = [r["vertex"] for r, e in zip(reports, expected) if r.get("localizable") is not e]
    problems = []
    if wrong:
        problems.append(f"localizable flag wrong at vertices {wrong}")
    if payload.get("localizable_everywhere") is not all(expected):
        problems.append(f"localizable_everywhere is {payload.get('localizable_everywhere')}")
    return problems


# --- simulate / analyze ------------------------------------------------------


def parse_trajectory_csv(text: str) -> tuple[list[str], np.ndarray]:
    """Header and the numeric rows of a trajectory CSV, k column included."""
    header, _, body = text.partition("\n")
    columns = header.strip().split(",")
    values = np.array(body.replace(",", " ").split(), dtype=float)
    return columns, values.reshape(-1, len(columns))


def trajectory_matches(text: str, expected: np.ndarray, rtol: float) -> list[str]:
    """A trajectory CSV equals the expected states x(0..m) to rtol of their max."""
    expected = np.asarray(expected, dtype=float)
    steps, n = expected.shape
    try:
        header, values = parse_trajectory_csv(text)
    except ValueError as exc:
        return [f"trajectory CSV does not parse: {exc}"]
    if header != ["k"] + [f"x{i}" for i in range(1, n + 1)]:
        return ["trajectory CSV header is not k,x1,...,xn"]
    if values.shape != (steps, n + 1):
        return [f"trajectory CSV has shape {values.shape}, expected {(steps, n + 1)}"]
    if not np.array_equal(values[:, 0], np.arange(steps)):
        return ["trajectory CSV k column is not 0..m"]
    err = float(np.max(np.abs(values[:, 1:] - expected)))
    scale = float(np.max(np.abs(expected)))
    if not err <= rtol * scale:
        return [f"trajectory deviates by {err:.2e}, more than {rtol:g} of max {scale:.3g}"]
    return []


def spectrum_matches(estimated: np.ndarray, true: np.ndarray, tol: float) -> list[str]:
    """Optimal one-to-one matching of the two spectra moves no eigenvalue more than tol."""
    estimated = np.asarray(estimated, dtype=complex)
    true = np.asarray(true, dtype=complex)
    if estimated.shape != true.shape:
        return [f"{estimated.size} eigenvalues reported, system has {true.size}"]
    cost = np.abs(estimated[:, None] - true[None, :])
    rows, cols = linear_sum_assignment(cost)
    worst = float(cost[rows, cols].max())
    if not worst <= tol:
        return [f"eigenvalues off by {worst:.2e} > {tol:g} under optimal matching"]
    return []


def unit_modulus(eigs: np.ndarray, tol: float) -> list[str]:
    worst = float(np.max(np.abs(np.abs(np.asarray(eigs, dtype=complex)) - 1.0)))
    return [] if worst <= tol else [f"eigenvalue modulus off 1 by {worst:.2e} > {tol:g}"]


def trace_det_match(trace: float, det: float, a: np.ndarray, tol: float) -> list[str]:
    problems = []
    if not abs(trace - np.trace(a)) <= tol:
        problems.append(f"trace estimate {trace!r}, A has {np.trace(a)!r}")
    if not abs(det - np.linalg.det(a)) <= tol:
        problems.append(f"det estimate {det!r}, A has {np.linalg.det(a)!r}")
    return problems


def bipartite_flag(flag, expected: bool) -> list[str]:
    return [] if flag is expected else [f"bipartite flag {flag}, expected {expected}"]


def modes_reconstruct(u: np.ndarray, eigs: np.ndarray, comps: np.ndarray, rtol: float) -> list[str]:
    """sum_l c_l lam_l^k reproduces u(k) at every observed k."""
    u = np.asarray(u, dtype=float)
    powers = np.vander(np.asarray(eigs, dtype=complex), N=u.shape[0], increasing=True)
    rebuilt = np.asarray(comps, dtype=complex) @ powers
    err = float(np.max(np.abs(rebuilt - u)))
    scale = float(np.max(np.abs(u)))
    if not err <= rtol * scale:
        return [f"modes rebuild u(k) to {err:.2e}, more than {rtol:g} of max {scale:.3g}"]
    return []
