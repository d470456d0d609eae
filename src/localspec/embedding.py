"""Delay-embedded data matrices and companion models of one vertex's dynamics.

The local model of a single observed vertex is the s x s companion matrix
whose bottom row carries the weights of the recurrence
u(k+s) = w_{s-1} u(k+s-1) + ... + w_0 u(k); everything above that row is the
fixed shift structure, so only the weights are ever estimated.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ._linalg import DEFAULT_RANK_TOL, lstsq_min_norm
from .dynsys import LinearSystem


@dataclass(frozen=True)
class CompanionModel:
    """Weights of the bottom row of a structured s x s companion matrix.

    ``residual`` is the 2-norm of the training residual in the original data
    units; ``scale`` records the max-abs normalization applied before the
    regression (the weights themselves are scale-invariant). ``rank`` and
    ``sigma_ratio`` are the numeric rank of the fit's row-scaled design and
    its smallest over its largest singular value, which say how well the
    data determine the weights; both are None for weights that were not
    fitted. Below full rank, ``basis`` holds the design's leading ``rank``
    right singular vectors as rows: they span the delay vectors
    (1, lam, ..., lam^(s-1)) of the modes the data identify. It is None at
    full rank, at rank 0 and for weights that were not fitted.
    """

    s: int
    weights: np.ndarray
    residual: float
    scale: float = 1.0
    rank: int | None = None
    sigma_ratio: float | None = None
    basis: np.ndarray | None = field(default=None, repr=False, compare=False)

    def __post_init__(self) -> None:
        weights = np.array(self.weights, dtype=float)
        if weights.shape != (self.s,):
            raise ValueError(f"expected {self.s} weights, got shape {weights.shape}")
        if self.residual < 0:
            raise ValueError("residual must be nonnegative")
        weights.setflags(write=False)
        object.__setattr__(self, "weights", weights)

    def companion_matrix(self) -> np.ndarray:
        """The full s x s matrix: identity superdiagonal plus the weight row."""
        c = np.zeros((self.s, self.s))
        c[:-1, 1:] = np.eye(self.s - 1)
        c[-1] = self.weights
        return c

    def to_json_dict(self) -> dict:
        return {
            "s": self.s,
            "w": [float(w) for w in self.weights],
            "residual": float(self.residual),
            "scale": float(self.scale),
            "rank": self.rank,
            "sigma_ratio": self.sigma_ratio,
        }


def delay_windows(u, width: int) -> np.ndarray:
    """Read-only view whose row k is the delay window u(k), ..., u(k+width-1).

    A series of m observations yields m - width + 1 windows; the rows are
    the rows of the series' Hankel matrix.
    """
    u = np.asarray(u, dtype=float)
    if u.ndim != 1:
        raise ValueError(f"expected a scalar series, got an array of shape {u.shape}")
    if width < 1:
        raise ValueError("window width must be at least 1")
    if u.shape[0] < width:
        raise ValueError(f"need at least {width} observations, got {u.shape[0]}")
    return np.lib.stride_tricks.sliding_window_view(u, width)


def fit_companion(
    u: np.ndarray, s: int, svd_tol: float = DEFAULT_RANK_TOL
) -> CompanionModel:
    """Estimate the s recurrence weights of one vertex from its scalar series.

    Only the bottom row of the structured companion matrix is unknown, so
    the regression has s unknowns and len(u) - s equations: row k states
    u(k+s) = sum_j w_j u(k+j), i.e. the design holds the first s entries of
    the :func:`delay_windows` of width s + 1 and the target their last.
    The series is scaled to unit max-abs first so decaying trajectories do
    not underflow the regression; the weights are invariant under that
    scaling. Each row of [design | target] is then divided by its own
    max-abs: the rows are exact linear relations, so the exact solution is
    unchanged, but the largest rows of a growing or decaying series no
    longer decide the rank cut alone. ``residual`` is in data units. The
    solve's singular basis is kept below full rank (:class:`CompanionModel`),
    so the modes are read without factoring the design again.
    """
    u = np.asarray(u, dtype=float).reshape(-1)
    if s < 1:
        raise ValueError("delay count s must be at least 1")
    if u.shape[0] < 2 * s:
        raise ValueError(f"need at least 2s = {2 * s} observations, got {u.shape[0]}")
    scale = float(np.max(np.abs(u))) or 1.0  # an all-zero series fits zero weights
    windows = np.asfortranarray(delay_windows(u / scale, s + 1))  # [design | target]
    rows = np.max(np.abs(windows), axis=1)
    rows[rows == 0.0] = 1.0  # an all-zero row constrains nothing
    weights, rank, sigma_ratio, basis = lstsq_min_norm(windows / rows[:, None], svd_tol,
                                                       basis=True)
    residual = float(np.linalg.norm(windows[:, :s] @ weights - windows[:, s])) * scale
    return CompanionModel(s=s, weights=weights, residual=residual, scale=scale,
                          rank=rank, sigma_ratio=sigma_ratio,
                          basis=basis if 0 < rank < s else None)


def exact_companion(sys: LinearSystem) -> CompanionModel:
    """Companion weights w_i = -alpha_i from the characteristic polynomial of A.

    ``np.poly`` expands the product of A's computed eigenvalues, which stays
    accurate at sizes where trace recurrences such as Faddeev-LeVerrier lose
    most of their digits.
    """
    return CompanionModel(s=sys.n, weights=-np.poly(sys.a)[1:][::-1], residual=0.0)


def predict(model: CompanionModel, window: np.ndarray, steps: int) -> np.ndarray:
    """Iterate the companion recurrence from a seed window of s values.

    Returns the window followed by ``steps`` predicted values.
    """
    window = np.asarray(window, dtype=float).reshape(-1)
    if window.shape[0] != model.s:
        raise ValueError(f"window must hold s = {model.s} values, got {window.shape[0]}")
    if steps < 0:
        raise ValueError("steps must be nonnegative")
    out = np.empty(model.s + steps)
    out[: model.s] = window
    for k in range(steps):
        out[model.s + k] = model.weights @ out[k : k + model.s]
    return out
