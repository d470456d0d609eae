"""Global spectral information recovered from one vertex's trajectory.

The companion weights estimated locally carry the full characteristic
polynomial of the network, so each vertex can compute eigenvalues, its own
eigenvector components (up to the shared mode amplitudes), bipartiteness of
the dependency graph, and a cluster assignment, all without seeing any other
vertex's data.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._linalg import (DEFAULT_BIPARTITE_TOL, DEFAULT_DISTINCT_TOL, DEFAULT_RANK_TOL,
                      DEFAULT_SIGN_TOL, lstsq_min_norm)
from .embedding import CompanionModel, fit_companion


class DegenerateSpectrumError(ValueError):
    """Eigenvector components were requested for a spectrum with repeated roots."""


@dataclass(frozen=True)
class SpectralReport:
    """Everything one vertex can report about the global system.

    ``vertex_components[v][l]`` is the product of mode amplitude z_l and the
    vertex-v entry of eigenvector l; the amplitudes are shared across all
    vertices because they observe the same trajectory, so sign patterns are
    globally consistent without any coordination.
    """

    eigenvalues: np.ndarray
    vertex_components: dict[int, np.ndarray]
    trace_estimate: float
    det_estimate: float
    bipartite: bool | None = None
    cluster_count: int | None = None

    def to_json_dict(self) -> dict:
        def cplx(values):
            return [{"re": float(v.real), "im": float(v.imag)} for v in values]

        return {
            "eigenvalues": cplx(self.eigenvalues),
            "vertex_components": {
                str(v): cplx(c) for v, c in self.vertex_components.items()
            },
            "trace_estimate": float(self.trace_estimate),
            "det_estimate": float(self.det_estimate),
            "bipartite": self.bipartite,
            "cluster_count": self.cluster_count,
            "labels": None,  # labels need every vertex's components (the cluster command)
        }


def sort_eigenvalues(eigs: np.ndarray) -> np.ndarray:
    """Deterministic order: descending modulus, ties by ascending argument."""
    eigs = np.asarray(eigs, dtype=complex)
    order = np.lexsort((np.angle(eigs), -np.abs(eigs)))
    return eigs[order]


def local_eigenvalues(model: CompanionModel) -> np.ndarray:
    """Eigenvalues of the structured companion matrix, in canonical order.

    Computed from the matrix itself rather than by generic root-finding on
    monomial coefficients.
    """
    return sort_eigenvalues(np.linalg.eigvals(model.companion_matrix()))


def trace_det(model: CompanionModel) -> tuple[float, float]:
    """Trace and determinant read directly off the companion weights.

    trace = w_{s-1}; det = (-1)^(s+1) w_0. Both equal the sum and product of
    the eigenvalues, which tests use as a cross-check.
    """
    s = model.s
    trace = float(model.weights[-1])
    det = float((-1.0) ** (s + 1) * model.weights[0])
    return trace, det


def multiset_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Greedy nearest-neighbor matching distance between two eigenvalue multisets.

    Returns the largest matched-pair distance (inf if the sizes differ).
    Greedy matching can overestimate the optimal assignment but is adequate
    at desk scale.
    """
    a = sort_eigenvalues(np.asarray(a, dtype=complex))
    b = np.asarray(b, dtype=complex)
    if a.shape != b.shape:
        return float("inf")
    available = list(b)
    worst = 0.0
    for lam in a:
        dists = [abs(lam - mu) for mu in available]
        idx = int(np.argmin(dists))
        worst = max(worst, float(dists[idx]))
        available.pop(idx)
    return worst


def is_bipartite_spectrum(eigs: np.ndarray, tol: float = DEFAULT_BIPARTITE_TOL) -> bool:
    """True iff the eigenvalue multiset equals its own negation within ``tol``.

    A directed graph is bipartite exactly when its spectrum is invariant
    under multiplication by -1; zero eigenvalues match themselves.
    """
    eigs = np.asarray(eigs, dtype=complex)
    return bool(multiset_distance(eigs, -eigs) <= tol)


def local_eigenvector_components(
    u: np.ndarray,
    eigs: np.ndarray,
    svd_tol: float = DEFAULT_RANK_TOL,
    distinct_tol: float = DEFAULT_DISTINCT_TOL,
) -> np.ndarray:
    """Per-mode coefficients c_l = z_l * xi_v[l] of one vertex's trajectory.

    Solves the row regression u(k) = sum_l c_l lam_l^k over all observed k
    (a Vandermonde system in the eigenvalues) by minimum-norm least squares.
    Requires pairwise-distinct eigenvalues. For a real trajectory each
    coefficient is averaged with the conjugate of its partner's (the
    eigenvalue nearest its conjugate), and the later of two partners takes
    the conjugate of that average. On a spectrum closed under conjugation, as
    ``eigvals`` of a real matrix returns, partnership is mutual, so conjugate
    pairs get exact conjugates and real eigenvalues get real coefficients.
    """
    u = np.asarray(u).reshape(-1)
    eigs = np.asarray(eigs, dtype=complex).reshape(-1)
    if eigs.shape[0] == 0:
        raise ValueError("need at least one eigenvalue")
    if u.shape[0] <= eigs.shape[0]:
        raise ValueError(
            f"need more observations ({u.shape[0]}) than eigenvalues ({eigs.shape[0]})"
        )
    close = np.triu(np.abs(eigs[:, None] - eigs) <= distinct_tol, k=1)
    if close.any():
        i, j = np.argwhere(close)[0]  # first pair in row-major (i, j) order
        raise DegenerateSpectrumError(
            f"eigenvalues {eigs[i]} and {eigs[j]} coincide within "
            f"{distinct_tol:g}; the Vandermonde system is rank-deficient"
        )
    # Column k of the Vandermonde system is (lam_1^k, ..., lam_n^k); solving
    # its transpose against u recovers the coefficient row.
    powers = np.vander(eigs, N=u.shape[0], increasing=True)
    coeffs, _, _ = lstsq_min_norm(powers.T, u.astype(complex), svd_tol)
    if np.isrealobj(u) or np.max(np.abs(np.imag(u))) == 0.0:
        partner = np.argmin(np.abs(eigs[:, None] - np.conj(eigs)), axis=1)
        avg = 0.5 * (coeffs + np.conj(coeffs[partner]))
        coeffs = np.where(np.arange(eigs.size) <= partner, avg, np.conj(avg[partner]))
    return coeffs


def detect_cluster_count(eigs: np.ndarray, max_k: int | None = None) -> int:
    """Number of weakly coupled clusters read off the dominant spectral gap.

    Sorts the real parts of the dynamics eigenvalues descending (for
    Laplacian-driven dynamics of the (I - L)-type or wave form, dominant
    modes correspond to small Laplacian eigenvalues) and returns the k in
    [1, max_k) with the largest gap lam_k - lam_{k+1}, first index winning
    ties. ``max_k`` defaults to half the spectrum, rounded up.
    """
    values = np.sort(np.asarray(eigs).real)[::-1]
    if values.size == 0:
        raise ValueError("need at least one eigenvalue")
    max_k = (values.size + 1) // 2 if max_k is None else max_k
    if max_k < 1:
        raise ValueError("max_k must be at least 1")
    top = min(max_k - 1, values.size - 1)
    if top < 1:
        return 1
    gaps = values[:top] - values[1 : top + 1]
    return int(np.argmax(gaps)) + 1


def consensus_spectrum(
    spectra: list[np.ndarray] | dict[int, np.ndarray]
) -> np.ndarray:
    """Elementwise mean of the per-vertex real parts, each sorted descending.

    Every vertex estimates the same global spectrum (they observe the same
    system), so averaging the sorted real parts across vertices lets
    artifact modes of individual fits, which scatter vertex by vertex,
    largely cancel. Only the real parts are used: estimated spectra of
    real-spectrum systems carry complex artifact pairs that are not data.
    A dict is averaged in vertex order.
    """
    if isinstance(spectra, dict):
        spectra = [spectra[v] for v in sorted(spectra)]
    if not spectra:
        raise ValueError("need at least one spectrum estimate")
    rows = [np.sort(np.asarray(s).real)[::-1] for s in spectra]
    lengths = {r.shape[0] for r in rows}
    if len(lengths) != 1:
        raise ValueError("all spectrum estimates must have equal length")
    return np.mean(np.vstack(rows), axis=0)


def consensus_cluster_count(
    spectra: list[np.ndarray] | dict[int, np.ndarray], max_k: int | None = None
) -> int:
    """Cluster count read off the gap of the :func:`consensus_spectrum`."""
    return detect_cluster_count(consensus_spectrum(spectra), max_k=max_k)


def decentralized_cluster_labels(components: dict[int, np.ndarray], k: int) -> dict[int, int]:
    """Cluster ids from the sign patterns of eigenvector components 2..k.

    Each vertex looks only at its own component list: the signs of the real
    parts of entries 2..k form a (k-1)-bit pattern, and equal patterns mean
    same cluster; at k = 1 the pattern is empty and every vertex gets 0.
    Magnitudes within ``DEFAULT_SIGN_TOL`` of zero resolve to '+'. Ids are
    canonicalized to 0..#patterns-1 by first appearance in vertex order.
    """
    if k < 1:
        raise ValueError(f"sign-pattern clustering needs k >= 1, got {k}")
    ids: dict[tuple[bool, ...], int] = {}
    labels: dict[int, int] = {}
    for vertex in sorted(components):
        comp = np.asarray(components[vertex]).reshape(-1)
        if comp.shape[0] < k:
            raise ValueError(f"vertex {vertex} supplies {comp.shape[0]} < k = {k} components")
        pattern = tuple(bool(r >= -DEFAULT_SIGN_TOL) for r in comp[1:k].real)
        labels[vertex] = ids.setdefault(pattern, len(ids))
    return labels


def analyze_vertex(
    u: np.ndarray,
    s: int,
    vertex: int = 1,
    *,
    check_bipartite: bool = True,
    compute_components: bool = True,
    detect_clusters: bool = False,
    max_k: int | None = None,
    svd_tol: float = DEFAULT_RANK_TOL,
    distinct_tol: float = DEFAULT_DISTINCT_TOL,
) -> SpectralReport:
    """Full local pipeline: fit, eigenvalues, components, and derived flags.

    ``vertex`` only keys the component map; the analysis itself never sees
    any other vertex's data. Cluster detection is opt-in because it presumes
    a real (Laplacian-driven) spectrum; it reads the gap of the real parts,
    as :func:`consensus_cluster_count` does for one spectrum.
    """
    model = fit_companion(u, s, svd_tol)
    eigs = local_eigenvalues(model)
    trace, det = trace_det(model)
    bipartite = is_bipartite_spectrum(eigs) if check_bipartite else None
    components: dict[int, np.ndarray] = {}
    if compute_components:
        components[vertex] = local_eigenvector_components(u, eigs, svd_tol, distinct_tol)
    cluster_count = detect_cluster_count(eigs, max_k) if detect_clusters else None
    return SpectralReport(
        eigenvalues=eigs,
        vertex_components=components,
        trace_estimate=trace,
        det_estimate=det,
        bipartite=bipartite,
        cluster_count=cluster_count,
    )
