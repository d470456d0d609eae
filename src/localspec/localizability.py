"""Can the hidden state be recovered from one vertex's scalar trajectory?

A system x(k+1) = A x(k), observed only in vertex v, is localizable in v
when the (n-1) x (n-1) matrix R stacking the rows a12^T A22^l (l = 0..n-2,
in the coordinates that put v first) has full rank. Localizability is what
licenses every downstream local estimate: companion models, spectra, and
hidden-state reconstruction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._linalg import DEFAULT_DISTINCT_TOL, DEFAULT_RANK_TOL
from ._linalg import numeric_rank, singular_values
from .dynsys import DependencyGraph, LinearSystem


@dataclass(frozen=True)
class LocalizabilityReport:
    """Rank diagnosis of the observability-style matrix R for one vertex."""

    vertex: int
    r_matrix: np.ndarray
    singular_values: np.ndarray
    numeric_rank: int
    localizable: bool
    tolerance_used: float

    def to_json_dict(self) -> dict:
        return {
            "vertex": self.vertex,
            "singular_values": [float(s) for s in self.singular_values],
            "numeric_rank": self.numeric_rank,
            "localizable": self.localizable,
            "tolerance": self.tolerance_used,
        }


def permute_vertex_first(sys: LinearSystem, vertex: int) -> LinearSystem:
    """Similarity transform P^T A P moving ``vertex`` to position 1.

    The relative order of the remaining vertices is preserved, so hidden
    components keep their original ordering; the spectrum is unchanged.
    """
    if not 1 <= vertex <= sys.n:
        raise ValueError(f"vertex {vertex} out of range 1..{sys.n}")
    if vertex == 1:
        return sys
    order = [vertex - 1] + [i for i in range(sys.n) if i != vertex - 1]
    return LinearSystem(sys.a[np.ix_(order, order)])


def _split_blocks(sys: LinearSystem, vertex: int):
    a = permute_vertex_first(sys, vertex).a
    return a[0, 0], a[0, 1:], a[1:, 0], a[1:, 1:]


def r_matrix(sys: LinearSystem, vertex: int) -> np.ndarray:
    """Stacked rows a12^T A22^l for l = 0..n-2, built by iterated row products.

    Row-vector times matrix per step keeps the cost at O(n^3) total and
    avoids forming explicit powers of A22.
    """
    if sys.n < 2:
        raise ValueError("R is only defined for systems with n >= 2")
    _, a12, _, a22 = _split_blocks(sys, vertex)
    rows = np.empty((sys.n - 1, sys.n - 1))
    rows[0] = a12
    for l in range(1, sys.n - 1):
        rows[l] = rows[l - 1] @ a22
    return rows


def is_localizable(
    sys: LinearSystem, vertex: int, rel_tol: float = DEFAULT_RANK_TOL
) -> LocalizabilityReport:
    """Numeric-rank test of R; localizable iff rank(R) = n - 1.

    A 1-dimensional system has an empty R and is localizable vacuously.
    ``rel_tol`` is the singular-value cutoff relative to sigma_max; it is a
    genuine modelling choice for near-deficient R, hence always exposed.
    """
    if not 1 <= vertex <= sys.n:
        raise ValueError(f"vertex {vertex} out of range 1..{sys.n}")
    if rel_tol <= 0:
        raise ValueError("rel_tol must be positive")
    if sys.n == 1:
        return LocalizabilityReport(
            vertex=vertex,
            r_matrix=np.zeros((0, 0)),
            singular_values=np.zeros(0),
            numeric_rank=0,
            localizable=True,
            tolerance_used=rel_tol,
        )
    r = r_matrix(sys, vertex)
    sigma = singular_values(r)
    rank = numeric_rank(sigma, rel_tol)
    return LocalizabilityReport(
        vertex=vertex,
        r_matrix=r,
        singular_values=sigma,
        numeric_rank=rank,
        localizable=rank == sys.n - 1,
        tolerance_used=rel_tol,
    )


def localizable_everywhere(
    sys: LinearSystem, rel_tol: float = DEFAULT_RANK_TOL
) -> tuple[bool, list[LocalizabilityReport]]:
    """Conjunction of :func:`is_localizable` over all vertices, reports retained."""
    reports = [is_localizable(sys, v, rel_tol) for v in range(1, sys.n + 1)]
    return all(r.localizable for r in reports), reports


def hautus_localizable(
    sys: LinearSystem,
    vertex: int,
    rel_tol: float = DEFAULT_RANK_TOL,
    distinct_tol: float = DEFAULT_DISTINCT_TOL,
) -> bool:
    """Eigenvalue-wise rank test equivalent to the rank-of-R criterion.

    For every eigenvalue lam of A22, the stacked matrix
    [lam I - A22; a12^T] must have full column rank n - 1; complex
    eigenvalues make the stack complex and rank is taken over C. Each
    distinct eigenvalue (modulo ``distinct_tol``) is tested once.
    """
    if sys.n < 2:
        raise ValueError("the Hautus test needs n >= 2")
    _, a12, _, a22 = _split_blocks(sys, vertex)
    eigs = np.linalg.eigvals(a22)
    order = np.lexsort((eigs.imag, eigs.real))
    eigs = eigs[order]
    tested: list[complex] = []
    eye = np.eye(sys.n - 1)
    for lam in eigs:
        if tested and abs(lam - tested[-1]) <= distinct_tol:
            continue
        tested.append(lam)
        stacked = np.vstack([lam * eye - a22, a12[None, :]])
        sigma = singular_values(stacked)
        if numeric_rank(sigma, rel_tol) < sys.n - 1:
            return False
    return True


def is_strongly_connected(graph: DependencyGraph) -> bool:
    """True iff every ordered vertex pair is joined by a directed path.

    Equivalently, vertex 1 reaches every vertex both along the edges and
    against them; each sweep grows the reached set until it stops growing.
    """
    adj = graph.adjacency() != 0
    for step in (adj, adj.T):
        seen = np.arange(graph.vertex_count) == 0
        while not np.array_equal(grown := seen | step[seen].any(axis=0), seen):
            seen = grown
        if not seen.all():
            return False
    return True
