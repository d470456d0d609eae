"""Shared helpers for the test suite."""

from __future__ import annotations

import numpy as np

from localspec import LinearSystem, is_localizable, simulate


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
