"""Global spectral information recovered from one vertex's trajectory.

The companion weights estimated locally carry the full characteristic
polynomial of the network, so each vertex can compute eigenvalues, its own
eigenvector components (up to the shared mode amplitudes), bipartiteness of
the dependency graph, and a cluster assignment, all without seeing any other
vertex's data. When the data determine only r < s of the weights, the vertex
reads the r modes they do determine from the fit's singular basis instead.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._linalg import (DEFAULT_BIPARTITE_TOL, DEFAULT_DISTINCT_TOL, DEFAULT_RANK_TOL,
                      DEFAULT_SIGN_TOL, check_tol, lstsq_min_norm)
from .embedding import CompanionModel, fit_companion


class DegenerateSpectrumError(ValueError):
    """Eigenvector components were requested for a spectrum with repeated roots."""


@dataclass(frozen=True)
class SpectralReport:
    """Everything one vertex can report about the global system.

    ``components[l]`` is the product of mode amplitude z_l and the entry of
    eigenvector l at ``vertex``; the amplitudes are shared across all
    vertices because they observe the same trajectory, so sign patterns are
    globally consistent without any coordination. ``components`` is None
    when the estimated eigenvalues coincide, since the data then do not
    determine them. ``s`` is the embedding length, and ``rank`` and
    ``sigma_ratio`` are the companion fit's (:class:`CompanionModel`): at
    ``rank`` = s there are s eigenvalues and the trace and determinant are
    A's, while below it there are ``rank`` eigenvalues, those of the modes
    the data identify, and the trace and determinant are None.
    :attr:`bipartite` matches the spectrum against its negation only when
    read; in the JSON form, ``analyze --gap`` fills in the gap count, and the
    labels stay null (``cluster`` writes its own file).
    """

    eigenvalues: np.ndarray
    vertex: int
    components: np.ndarray | None
    trace_estimate: float | None
    det_estimate: float | None
    s: int
    rank: int
    sigma_ratio: float

    @property
    def bipartite(self) -> bool:
        """:func:`is_bipartite_spectrum` of the estimated eigenvalues."""
        return is_bipartite_spectrum(self.eigenvalues)

    def to_json_dict(self) -> dict:
        def cplx(values):
            return [{"re": float(v.real), "im": float(v.imag)} for v in values]

        def real(value):
            return None if value is None else float(value)

        return {
            "eigenvalues": cplx(self.eigenvalues),
            "vertex_components": (
                {} if self.components is None else {str(self.vertex): cplx(self.components)}
            ),
            "trace_estimate": real(self.trace_estimate),
            "det_estimate": real(self.det_estimate),
            "bipartite": self.bipartite,
            "cluster_count": None,
            "labels": None,
            "s": self.s,
            "rank": self.rank,
            "sigma_ratio": self.sigma_ratio,
        }


def sort_eigenvalues(eigs: np.ndarray) -> np.ndarray:
    """Deterministic order: descending modulus, ties by ascending argument.

    Moduli within ``DEFAULT_DISTINCT_TOL`` of the next larger one tie, so the
    two members of an estimated +-lam pair, whose moduli differ only in the
    last bits, come in one order (+lam first) whatever the rounding.
    """
    eigs = np.asarray(eigs, dtype=complex)
    eigs = eigs[np.argsort(-np.abs(eigs), kind="stable")]
    tier = np.cumsum(-np.diff(np.abs(eigs), prepend=np.inf) > DEFAULT_DISTINCT_TOL)
    return eigs[np.lexsort((np.angle(eigs), tier))]


def local_eigenvalues(model: CompanionModel) -> np.ndarray:
    """Eigenvalues of the structured companion matrix, in canonical order.

    Computed from the matrix itself rather than by generic root-finding on
    monomial coefficients.
    """
    return sort_eigenvalues(np.linalg.eigvals(model.companion_matrix()))


def pencil_eigenvalues(model: CompanionModel) -> np.ndarray:
    """Eigenvalues of the modes a rank-deficient fit identifies, in canonical order.

    The rows of ``model.basis`` span the delay vectors (1, lam, ..., lam^(s-1))
    of the r identified modes, and a shift by one delay maps that span into
    itself. So with V the basis as columns, the r x r least-squares solution
    X of V[:-1] X = V[1:] is similar to diag(lam), and its eigenvalues are the
    modes' (the matrix pencil of Kung 1978 and Hua & Sarkar 1990).
    """
    v = model.basis.T
    shift = np.linalg.lstsq(v[:-1], v[1:], rcond=None)[0]
    return sort_eigenvalues(np.linalg.eigvals(shift))


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
    check_tol(tol, "bipartite")
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
    Requires pairwise-distinct eigenvalues, a real series and a spectrum
    closed under conjugation, as ``eigvals`` of a real matrix returns. The
    fit is real: a real eigenvalue gives the column lam^k and a conjugate
    pair the columns sqrt(2) Re lam^k and sqrt(2) Im lam^k of its upper
    member, a unitary change of the pair's complex columns that keeps the
    singular values, the rank cut and the minimum-norm solution. Pairs get
    exact conjugate coefficients and real eigenvalues real ones.
    """
    check_tol(distinct_tol, "distinct")
    u = np.asarray(u).reshape(-1)
    eigs = np.asarray(eigs, dtype=complex).reshape(-1)
    if np.iscomplexobj(u):
        raise ValueError("eigenvector components need a real series")
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
    partner = np.argmin(np.abs(eigs[:, None] - np.conj(eigs)), axis=1)
    if not np.array_equal(eigs[partner], np.conj(eigs)):
        raise ValueError("the spectrum is not closed under conjugation")
    real, upper = np.flatnonzero(eigs.imag == 0), np.flatnonzero(eigs.imag > 0)
    r, p = real.size, upper.size
    powers = np.vander(eigs[np.r_[real, upper]], N=u.shape[0], increasing=True)
    pairs = np.sqrt(2.0) * powers[r:]
    ab = np.empty((u.shape[0], eigs.size + 1), order="F")  # [real basis | u]
    ab[:, :r], ab[:, r : r + p], ab[:, r + p : -1] = powers[:r].real.T, pairs.real.T, pairs.imag.T
    ab[:, -1] = u
    y, _, _ = lstsq_min_norm(ab, svd_tol)
    coeffs = np.empty(eigs.size, dtype=complex)
    coeffs[real] = y[:r]
    coeffs[upper] = (y[r : r + p] - 1j * y[r + p :]) * np.sqrt(0.5)
    lower = eigs.imag < 0
    coeffs[lower] = np.conj(coeffs[partner[lower]])
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
    Real parts within ``DEFAULT_SIGN_TOL`` times the vertex's largest
    |component| of zero resolve to '+', so the labels do not depend on the
    data's units. Ids are canonicalized to 0..#patterns-1 by first
    appearance in vertex order.
    """
    if k < 1:
        raise ValueError(f"sign-pattern clustering needs k >= 1, got {k}")
    ids: dict[tuple[bool, ...], int] = {}
    labels: dict[int, int] = {}
    for vertex in sorted(components):
        comp = np.asarray(components[vertex]).reshape(-1)
        if comp.shape[0] < k:
            raise ValueError(f"vertex {vertex} supplies {comp.shape[0]} < k = {k} components")
        floor = -DEFAULT_SIGN_TOL * float(np.max(np.abs(comp)))
        pattern = tuple(bool(r >= floor) for r in comp[1:k].real)
        labels[vertex] = ids.setdefault(pattern, len(ids))
    return labels


def analyze_vertex(
    u: np.ndarray,
    s: int,
    vertex: int = 1,
    *,
    svd_tol: float = DEFAULT_RANK_TOL,
    distinct_tol: float = DEFAULT_DISTINCT_TOL,
) -> SpectralReport:
    """Local pipeline: fit, eigenvalues, trace and determinant, and components.

    The fit's numeric rank r decides the eigenvalues. Below full rank
    (0 < r < s) the data determine r modes, and the vertex reports the r
    :func:`pencil_eigenvalues`, with no trace or determinant; otherwise it
    reports the s :func:`local_eigenvalues` and :func:`trace_det`. The
    components are fitted on those eigenvalues.

    ``vertex`` only labels the report; the analysis itself never sees any
    other vertex's data. The components are None when two estimated
    eigenvalues coincide within ``distinct_tol``. Bipartiteness, the gap
    count and the labels are read off the report by whoever needs them.
    """
    model = fit_companion(u, s, svd_tol)
    if model.basis is None:
        eigs = local_eigenvalues(model)
        trace, det = trace_det(model)
    else:
        eigs, trace, det = pencil_eigenvalues(model), None, None
    try:
        components = local_eigenvector_components(u, eigs, svd_tol, distinct_tol)
    except DegenerateSpectrumError:
        components = None
    return SpectralReport(
        eigenvalues=eigs,
        vertex=vertex,
        components=components,
        trace_estimate=trace,
        det_estimate=det,
        s=s,
        rank=model.rank,
        sigma_ratio=model.sigma_ratio,
    )
