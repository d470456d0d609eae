"""Can the hidden state be recovered from one vertex's scalar trajectory?

A system x(k+1) = A x(k), observed only in vertex v, is localizable in v
when the (n-1) x (n-1) matrix R stacking the rows a12^T A22^l (l = 0..n-2,
in the coordinates that put v first) has full rank: when the pair
(A22, a12^T) is observable. Localizability is what licenses every
downstream local estimate: companion models, spectra, and hidden-state
reconstruction, which solves R v(k) = b(k) here.

The test itself never forms R, whose monomial rows lose rank in floating
point well before n = 48. It runs the observability staircase instead
(Arnoldi on A22^T from a12 with reorthogonalization; Paige 1981, Van Dooren
1981): the rank of R is the number of steps before the first one whose
norm falls to the cut, and the smallest step ratio up to it is the
report's margin. A one-vertex query runs its vertex's whole block of the
all-vertex test, so both give that vertex the same report.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._linalg import DEFAULT_RANK_TOL, check_tol, lstsq_min_norm
from ._linalg import numeric_rank, singular_values
from .dynsys import LinearSystem, check_vertex


class NotLocalizableError(ValueError):
    """Hidden-state recovery was attempted at a vertex with rank-deficient R."""

    def __init__(self, message: str, singular_values: np.ndarray):
        super().__init__(message)
        self.singular_values = singular_values


@dataclass(frozen=True)
class LocalizabilityReport:
    """Observability-staircase diagnosis of (A22, a12^T) for one vertex.

    ``margin`` is the smallest step ratio up to and including the first one
    at or below the cut, so ``localizable`` iff ``margin > tolerance_used``;
    it is None for a 1-dimensional system, which takes no step.
    """

    vertex: int
    numeric_rank: int
    localizable: bool
    margin: float | None
    tolerance_used: float

    def to_json_dict(self) -> dict:
        return {
            "vertex": self.vertex,
            "margin": self.margin,
            "numeric_rank": self.numeric_rank,
            "localizable": self.localizable,
            "tolerance": self.tolerance_used,
        }


# Doubles of Arnoldi basis that localizable_everywhere holds at once, about
# k n^2 for a block of k vertices. Of 2^15, 2^17 and 2^19 it is the fastest
# at n = 120 and n = 240; every system with n <= 50 is one block.
BLOCK_DOUBLES = 2**17
_SQRT_TINY = np.sqrt(np.finfo(float).tiny)


def _blocks(n: int) -> list[range]:
    """Vertices 1..n in consecutive ranges of ``max(1, BLOCK_DOUBLES // n**2)``,
    the last one possibly shorter: the blocks whose staircases run together."""
    size = max(1, BLOCK_DOUBLES // n**2)
    return [range(first, min(first + size, n + 1)) for first in range(1, n + 1, size)]


def _vertex_block(n: int, vertex: int) -> range:
    """The block of :func:`_blocks` that holds ``vertex``; its staircase's
    rounding depends on the block, so every query of ``vertex`` runs this one."""
    check_vertex(vertex, n)
    return next(block for block in _blocks(n) if vertex in block)


def _split_blocks(a: np.ndarray, vertex: int):
    """Blocks a11, a12, a21, A22 of the update matrix ``a`` with ``vertex`` first.

    The similarity P^T A P keeps the other vertices in their order, so hidden
    components keep their original ordering; the spectrum is unchanged.
    """
    n = a.shape[0]
    check_vertex(vertex, n)
    order = np.r_[vertex - 1, 0 : vertex - 1, vertex:n]
    p = a[np.ix_(order, order)]
    return p[0, 0], p[0, 1:], p[1:, 0], p[1:, 1:]


def r_matrix(sys: LinearSystem, vertex: int) -> np.ndarray:
    """The rows a12^T A22^l for l = 0..n-2, built by iterated row products.

    Row-vector times matrix per step keeps the cost at O(n^3) total and
    avoids forming explicit powers of A22. A 1-dimensional system has the
    empty 0 x 0 R. Raises ValueError when a row overflows.
    """
    _, a12, _, a22 = _split_blocks(sys.a, vertex)
    rows = np.empty((sys.n - 1, sys.n - 1))
    rows[:1] = a12
    with np.errstate(over="ignore", invalid="ignore"):  # checked below
        for l in range(1, sys.n - 1):
            np.matmul(rows[l - 1], a22, out=rows[l])
    if not np.isfinite(rows).all():
        raise ValueError(f"R of vertex {vertex} overflows: its rows exceed the float range")
    return rows


def _step_ratios(a: np.ndarray, vertices: range) -> np.ndarray:
    """Observability staircase of (A22, a12^T) for each of ``vertices``.

    Arnoldi on A22^T from a12 spans the row space of R with an orthonormal
    basis, so, unlike the monomial rows of R, no step loses rank to
    rounding. Each vertex works in full n-coordinates with its own entry
    held at zero: a12 is row v of A, and q A22 is q A with entry v zeroed,
    so one step for all k vertices is one k x n by n x n product. Two
    classical Gram-Schmidt passes keep each basis orthonormal. Returns the
    k x (n-1) step norms (step 0 is ||a12||) over max(||A22||_F, ||a12||),
    or 0 where that is 0. ``a`` is first scaled by a power of 2 to a
    largest entry below 1, which is exact and keeps every square finite.
    """
    n = a.shape[0]
    k, cols = len(vertices), np.asarray(vertices) - 1
    own = (np.arange(k), cols)  # each vertex's own entry
    top = np.max(np.abs(a))
    b = np.ldexp(a, -np.frexp(top)[1]) if top > 0 else a
    keep = np.arange(n) != cols[:, None]
    # squares summed with row and column v left out: no subtraction cancels
    sq = b * b
    a22_sq = ((keep @ sq) * keep).sum(axis=1)
    a12_sq = (sq[cols] * keep).sum(axis=1)
    scale = np.sqrt(np.maximum(a22_sq, a12_sq))

    basis = np.zeros((k, n - 1, n))
    steps = np.empty((k, n - 1))
    w = b[cols] * keep
    for l in range(n - 1):
        if l:
            w = basis[:, l - 1] @ b
            w[own] = 0.0
            done = basis[:, :l]
            done_t = done.transpose(0, 2, 1)
            for _ in range(2):
                w -= (w[:, None] @ done_t @ done)[:, 0]
        h = steps[:, l] = np.sqrt((w * w).sum(axis=1))
        # below sqrt(tiny) the squares in h underflow, so every entry of w is
        # below the floor too: the row stays shorter than sqrt(n) and no later
        # product overflows; a zero step leaves it zero
        np.divide(w, np.maximum(h, _SQRT_TINY)[:, None], out=basis[:, l])
    return np.divide(steps, scale[:, None], out=np.zeros_like(steps), where=scale[:, None] > 0)


def is_localizable(
    sys: LinearSystem,
    vertex: int,
    rel_tol: float = DEFAULT_RANK_TOL,
    *,
    stacked: np.ndarray | None = None,
) -> LocalizabilityReport:
    """Observability-staircase test; localizable iff rank(R) = n - 1.

    The numeric rank is the number of leading step ratios of
    :func:`_step_ratios` above ``rel_tol``; the first step at or below it
    ends the Krylov space. A 1-dimensional system takes no step and is
    localizable vacuously. ``rel_tol`` is a genuine modelling choice for
    near-deficient systems, hence always exposed. The staircase runs the
    vertex's whole :func:`_vertex_block`, so the report is the one
    :func:`localizable_everywhere` gives, at the cost of the block:
    about 5 ms at n = 48 and 11 ms at n = 120. ``stacked`` is this vertex's
    step ratios when a caller has already computed them for its block.
    """
    check_tol(rel_tol, "rank")
    if stacked is None:
        block = _vertex_block(sys.n, vertex)
        stacked = _step_ratios(sys.a, block)[vertex - block.start]
    ratios = stacked.tolist()
    rank = next((l for l, ratio in enumerate(ratios) if ratio <= rel_tol), len(ratios))
    return LocalizabilityReport(
        vertex=vertex,
        numeric_rank=rank,
        localizable=rank == sys.n - 1,
        margin=min(ratios[: rank + 1]) if ratios else None,
        tolerance_used=rel_tol,
    )


def localizable_everywhere(
    sys: LinearSystem, rel_tol: float = DEFAULT_RANK_TOL
) -> tuple[bool, list[LocalizabilityReport]]:
    """Conjunction of :func:`is_localizable` over all vertices, reports retained.

    One :func:`_step_ratios` staircase per block of :func:`_blocks`, then
    one :func:`is_localizable` report per vertex.
    """
    check_tol(rel_tol, "rank")
    reports = []
    for block in _blocks(sys.n):
        ratios = _step_ratios(sys.a, block)
        reports += [is_localizable(sys, v, rel_tol, stacked=ratios_v)
                    for v, ratios_v in zip(block, ratios)]
    return all(rep.localizable for rep in reports), reports


def hautus_localizable(sys: LinearSystem, vertex: int, rel_tol: float = DEFAULT_RANK_TOL) -> bool:
    """Eigenvalue-wise rank test equivalent to the rank-of-R criterion.

    For every eigenvalue lam of A22, the stacked matrix
    [lam I - A22; a12^T] must have full column rank n - 1; complex
    eigenvalues make the stack complex and rank is taken over C. A
    1-dimensional system has an empty A22 and passes vacuously, as in
    :func:`is_localizable`; ``rel_tol`` is checked there too.
    """
    check_tol(rel_tol, "rank")
    _, a12, _, a22 = _split_blocks(sys.a, vertex)
    eye = np.eye(sys.n - 1)
    for lam in np.linalg.eigvals(a22):
        stacked = np.vstack([lam * eye - a22, a12[None, :]])
        if numeric_rank(singular_values(stacked), rel_tol) < sys.n - 1:
            return False
    return True


def recover_hidden_state(
    sys: LinearSystem,
    vertex: int,
    window: np.ndarray,
    rel_tol: float = DEFAULT_RANK_TOL,
) -> np.ndarray:
    """Reconstruct the hidden block v(k) from n consecutive local values.

    Solves R v(k) = b(k), where b_r = u(k+r) - sum_{j<r} g_j u(k+r-1-j)
    removes what reaches the observed vertex through its own past (g_0 = a11,
    g_{l+1} = a12^T A22^l a21), one convolution; one :func:`lstsq_min_norm`
    factorization of [R | b] both ranks R and solves. The components keep
    the original vertex order with ``vertex`` removed, so a 1-dimensional
    system has the empty hidden state. Raises :class:`NotLocalizableError`,
    carrying R's singular values, when R is numerically singular at
    ``rel_tol``. R's monomial rows lose rank to rounding (dense N(0, 1/n)
    draws do by n = 40), so the message says whether :func:`is_localizable`
    finds the vertex not localizable or R merely ill-conditioned.
    """
    n = sys.n
    window = np.asarray(window, dtype=float).reshape(-1)
    if window.shape[0] != n:
        raise ValueError(f"window must hold n = {n} values, got {window.shape[0]}")
    rows = r_matrix(sys, vertex)
    a11, _, a21, _ = _split_blocks(sys.a, vertex)
    b = window[1:] - np.convolve(np.r_[a11, rows @ a21], window)[: n - 1]
    hidden, rank, sigma_ratio, _ = lstsq_min_norm(np.column_stack([rows, b]), rel_tol)
    if rank < n - 1:
        report = is_localizable(sys, vertex, rel_tol)
        if report.localizable:
            message = (f"system is localizable in vertex {vertex}, but R is numerically "
                       f"singular at rel_tol {rel_tol:g} (numeric rank {rank} of {n - 1}, "
                       f"singular-value ratio {sigma_ratio:.2g})")
        else:
            message = (f"system is not localizable in vertex {vertex} at rel_tol {rel_tol:g} "
                       f"(numeric rank {report.numeric_rank} of {n - 1})")
        raise NotLocalizableError(message, singular_values(rows))
    return hidden


def is_strongly_connected(a: np.ndarray) -> bool:
    """True iff the nonzero pattern of the square matrix ``a`` is a strongly
    connected digraph: every ordered vertex pair is joined by a directed path.

    Equivalently, vertex 1 reaches every vertex both along the edges and
    against them; each sweep grows the reached set until it stops growing.
    """
    adj = np.asarray(a) != 0
    if adj.ndim != 2 or adj.shape[0] != adj.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {adj.shape}")
    for step in (adj, adj.T):
        seen = np.arange(adj.shape[0]) == 0
        while not np.array_equal(grown := seen | step[seen].any(axis=0), seen):
            seen = grown
        if not seen.all():
            return False
    return True
