"""Dense linear-algebra helpers and the package's tolerance table.

All rank decisions in this package go through :func:`numeric_rank`, so the
one tolerance convention (relative to the largest singular value) is applied
uniformly to localizability tests, pseudoinverses, and regressions. Every
default tolerance of the package is defined here, once.
"""

from __future__ import annotations

import numpy as np

# Relative singular-value cutoff used by default for every rank decision and
# truncated pseudoinverse in the package. Near-rank-deficient matrices are
# exactly the interesting regime, so every caller also accepts an override.
DEFAULT_RANK_TOL = 1e-10
# Eigenvalues closer than this are treated as one root: the Vandermonde
# regression for eigenvector components is rank-deficient below it, and the
# Hautus test tests each merged representative once (over-merging is safe).
DEFAULT_DISTINCT_TOL = 1e-9
# Real parts with magnitude below this resolve to '+' in sign-pattern labels.
DEFAULT_SIGN_TOL = 1e-9
# Imaginary residue allowed when interpreting an estimated spectrum as real.
DEFAULT_IMAG_TOL = 1e-8
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


def truncated_pinv(matrix: np.ndarray, rel_tol: float) -> tuple[np.ndarray, int]:
    """Moore-Penrose pseudoinverse discarding singular values <= rel_tol * sigma_max.

    Returns ``(pinv, rank)``; the pinv of an all-zero matrix is the zero matrix.
    """
    u, s, vh = np.linalg.svd(matrix, full_matrices=False)
    rank = numeric_rank(s, rel_tol)
    if rank == 0:
        return np.zeros((matrix.shape[1], matrix.shape[0]), dtype=matrix.dtype), 0
    return (vh[:rank].conj().T / s[:rank]) @ u[:, :rank].conj().T, rank


def lstsq_min_norm(
    a: np.ndarray, b: np.ndarray, rel_tol: float
) -> tuple[np.ndarray, int, float]:
    """Minimum-norm least-squares solution of ``a @ x ~= b`` via truncated SVD.

    Works for real and complex data. Returns ``(x, rank, residual_norm)``
    where ``residual_norm = ||a @ x - b||_2``.
    """
    a = np.asarray(a)
    b = np.asarray(b)
    u, s, vh = np.linalg.svd(a, full_matrices=False)
    rank = numeric_rank(s, rel_tol)
    if rank == 0:
        x = np.zeros(a.shape[1], dtype=np.result_type(a, b))
    else:
        x = vh[:rank].conj().T @ ((u[:, :rank].conj().T @ b) / s[:rank])
    residual = float(np.linalg.norm(a @ x - b))
    return x, rank, residual
