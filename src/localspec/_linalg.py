"""Dense linear-algebra helpers and the package's tolerance table.

All rank decisions in this package go through :func:`numeric_rank`, so the
one tolerance convention (relative to the largest singular value) is applied
uniformly to localizability tests and least-squares solves. Every default
tolerance of the package is defined here, once.
"""

from __future__ import annotations

import numpy as np

# Relative singular-value cutoff used by default for every rank decision and
# least-squares solve in the package. Near-rank-deficient matrices are
# exactly the interesting regime, so every caller also accepts an override.
DEFAULT_RANK_TOL = 1e-10
# Eigenvalues closer than this are treated as one root: the Vandermonde
# regression for eigenvector components is rank-deficient below it, and the
# Hautus test tests each merged representative once (over-merging is safe).
DEFAULT_DISTINCT_TOL = 1e-9
# Real parts with magnitude below this resolve to '+' in sign-pattern labels.
DEFAULT_SIGN_TOL = 1e-9
# Largest matched-pair distance between a spectrum and its negation that
# still counts as bipartite.
DEFAULT_BIPARTITE_TOL = 1e-6


def singular_values(matrix: np.ndarray) -> np.ndarray:
    """Singular values of ``matrix`` in nonincreasing order (empty for 0-size)."""
    if matrix.size == 0:
        return np.zeros(0)
    return np.linalg.svd(matrix, compute_uv=False)


def numeric_rank(sigma: np.ndarray, rel_tol: float) -> int:
    """Number of singular values exceeding ``rel_tol * sigma_max``.

    An all-zero (or empty) matrix has rank 0.
    """
    if sigma.size == 0 or sigma[0] == 0.0:
        return 0
    return int(np.count_nonzero(sigma > rel_tol * sigma[0]))


def lstsq_min_norm(
    a: np.ndarray, b: np.ndarray, rel_tol: float
) -> tuple[np.ndarray, int, float]:
    """Minimum-norm least-squares solution of ``a @ x ~= b`` via truncated SVD.

    ``b`` is a vector. Works for real and complex data. Returns
    ``(x, rank, residual_norm)`` where ``residual_norm = ||a @ x - b||``.
    At rank 0 the empty products give the zero solution.
    """
    a = np.asarray(a)
    b = np.asarray(b)
    u, s, vh = np.linalg.svd(a, full_matrices=False)
    rank = numeric_rank(s, rel_tol)
    x = vh[:rank].conj().T @ ((u[:, :rank].conj().T @ b) / s[:rank])
    residual = float(np.linalg.norm(a @ x - b))
    return x, rank, residual
