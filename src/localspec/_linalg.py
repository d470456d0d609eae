"""Dense linear-algebra helpers and the package's tolerance table.

Rank decisions on singular values (least squares, the Hautus test, hidden
state recovery) go through :func:`numeric_rank`, relative to the largest
one; the localizability staircase cuts its own step ratios at the same
rank tolerance. Every tolerance passes :func:`check_tol`, and every
default tolerance of the package is defined here, once.

Every least-squares fit of data goes through :func:`lstsq_min_norm`, which
takes the augmented matrix ``[a | b]`` in one buffer, cuts the rank on the
singular values of its QR triangle, solves a full-rank square triangle by
substitution and takes the truncated SVD of any other. (The one other
solve, the matrix pencil's shift on an orthonormal basis, has r right-hand
sides and no rank to cut.)
"""

from __future__ import annotations

import numpy as np

# Relative singular-value cutoff used by default for every rank decision and
# least-squares solve in the package. Near-rank-deficient matrices are
# exactly the interesting regime, so every caller also accepts an override.
DEFAULT_RANK_TOL = 1e-10
# Eigenvalues closer than this are one root, the package's one such rule:
# sort_eigenvalues ties moduli within it, and eigenvector components are
# refused for a spectrum with two eigenvalues within it, where the
# Vandermonde regression is rank-deficient. Only spectral decides distinctness.
DEFAULT_DISTINCT_TOL = 1e-9
# Real parts with magnitude below this fraction of the vertex's largest
# |component| resolve to '+' in sign-pattern labels.
DEFAULT_SIGN_TOL = 1e-9
# Largest matched-pair distance between a spectrum and its negation that
# still counts as bipartite.
DEFAULT_BIPARTITE_TOL = 1e-6


def singular_values(matrix: np.ndarray) -> np.ndarray:
    """Singular values of ``matrix`` in nonincreasing order (empty for 0-size)."""
    if matrix.size == 0:
        return np.zeros(min(matrix.shape))
    return np.linalg.svd(matrix, compute_uv=False)


def check_tol(value: float, name: str) -> None:
    """ValueError naming the tolerance unless it is finite and positive (NaN fails)."""
    if not 0.0 < value < np.inf:
        raise ValueError(f"{name} tolerance must be finite and positive, got {value}")


def numeric_rank(sigma: np.ndarray, rel_tol: float) -> int:
    """Number of singular values exceeding ``rel_tol * sigma_max``.

    An all-zero (or empty) matrix has rank 0. ``rel_tol`` must pass
    :func:`check_tol`.
    """
    check_tol(rel_tol, "rank")
    if sigma.size == 0 or sigma[0] == 0.0:
        return 0
    return int(np.count_nonzero(sigma > rel_tol * sigma[0]))


def lstsq_min_norm(ab: np.ndarray, rel_tol: float) -> tuple:
    """Minimum-norm least-squares solution of ``a @ x ~= b`` from ``ab = [a | b]``.

    ``b`` is the last column; real and complex data of any shape work.
    ``ab`` is QR-factored, and the leading n x n block T of its triangle
    (n = columns of ``a``) has the singular values of ``a``, so the rank cut
    and the solution are those of ``a`` (Chan's R-SVD). Returns ``(x, rank,
    sigma_ratio, basis)``: ``sigma_ratio`` is the smallest of the n singular
    values of ``a`` over the largest, so it says how well the data determine
    x; it is 0 when ``a`` is zero, has no columns, or has fewer rows than
    columns. ``basis`` holds the leading ``rank`` right singular vectors of
    ``a`` as rows, which span its numeric row space, from the SVD of T; it
    is None when substitution solved T, which computes no vectors.

    A square T (at least n rows) of full numeric rank has one solution,
    found by substitution on T; its singular values are computed without
    vectors. Otherwise the truncated SVD of T gives the minimum-norm
    solution, and at rank 0 its empty products give the zero solution.
    Since sigma_min <= min |t_ii| and sigma_max >= max |t_ii| for a
    triangle, a diagonal that fails the cut goes to the SVD directly.
    """
    check_tol(rel_tol, "rank")
    ab = np.asarray(ab)
    n = ab.shape[1] - 1
    r = np.linalg.qr(ab, mode="r")
    t, c = r[:n, :n], r[:n, n]
    if t.shape[0] == n > 0:
        diag = np.abs(np.diagonal(t))
        if diag.min() > rel_tol * diag.max():
            s = np.linalg.svd(t, compute_uv=False)
            rank = numeric_rank(s, rel_tol)
            if rank == n:
                return np.linalg.solve(t, c), rank, float(s[-1] / s[0]), None
    u, s, vh = np.linalg.svd(t, full_matrices=False)
    rank = numeric_rank(s, rel_tol)
    x = vh[:rank].conj().T @ ((u[:, :rank].conj().T @ c) / s[:rank])
    ratio = float(s[-1] / s[0]) if s.size == n > 0 and s[0] else 0.0
    return x, rank, ratio, vh[:rank]
