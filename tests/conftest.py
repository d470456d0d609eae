"""Shared helpers for the test suite."""

from __future__ import annotations

import numpy as np

from localspec import LinearSystem, is_localizable, simulate
from localspec._linalg import numeric_rank


def spectral_radius(a: np.ndarray) -> float:
    return float(np.max(np.abs(np.linalg.eigvals(a))))


def random_system(seed: int, n: int | None = None, sparse: bool = False) -> LinearSystem:
    """Dense (or sparsified) gaussian system scaled to spectral radius 1."""
    rng = np.random.default_rng(seed)
    if n is None:
        n = int(rng.integers(2, 9))
    a = rng.standard_normal((n, n))
    if sparse:
        a = a * (rng.random((n, n)) < 0.6)
        if not np.any(a):
            a[0, 0] = 1.0
    rho = spectral_radius(a)
    if rho > 0:
        a = a / rho
    return LinearSystem(a)


def random_localizable_system(seed: int, n: int | None = None) -> LinearSystem:
    """Radius-1 gaussian system that is localizable in vertex 1."""
    rng = np.random.default_rng(seed)
    if n is None:
        n = int(rng.integers(2, 9))
    while True:
        a = rng.standard_normal((n, n))
        a /= spectral_radius(a)
        sys = LinearSystem(a)
        if is_localizable(sys, 1).localizable:
            return sys


def growing_states() -> np.ndarray:
    """2001 states of a radius-1.3 gaussian system on 10 vertices.

    Every vertex reaches about 1e228, far above the 1e154 whose square
    overflows a float.
    """
    rng = np.random.default_rng(0)
    a = rng.standard_normal((10, 10))
    a *= 1.3 / spectral_radius(a)
    return simulate(LinearSystem(a), rng.standard_normal(10), 2000).states


def growth_normalized_error(pred: np.ndarray, true: np.ndarray) -> float:
    """Max |pred - true| relative to the running max of |true|."""
    run_max = np.maximum.accumulate(np.abs(true))
    return float(np.max(np.abs(pred - true) / np.maximum(run_max, 1e-300)))


def lstsq_min_norm_oracle(a, b, rel_tol):
    """Reference for ``_linalg.lstsq_min_norm``, which solves full-rank square
    triangles by substitution: here every solve takes the truncated SVD.

    Minimum-norm least-squares solution of ``a @ x ~= b`` via truncated SVD.

    ``b`` is a vector; real and complex data of any shape work. ``[a | b]``
    is QR-factored and only the leading n x n block T of its triangle goes
    through the SVD (Chan's R-SVD; n = columns of ``a``). T has the singular
    values of ``a``, so the rank cut and the solution are those of ``a``.
    Returns ``(x, rank)``. At rank 0 the empty products give the zero
    solution.
    """
    a = np.asarray(a)
    n = a.shape[1]
    r = np.linalg.qr(np.column_stack([a, b]), mode="r")
    t, c = r[:n, :n], r[:n, n]
    u, s, vh = np.linalg.svd(t, full_matrices=False)
    rank = numeric_rank(s, rel_tol)
    x = vh[:rank].conj().T @ ((u[:, :rank].conj().T @ c) / s[:rank])
    return x, rank
