"""Answers on 60-vertex three-block SBM trajectories that the solver's fast
paths must keep.

The graphs and trajectories are built as the benchmark's ``cluster-sbm60``
workload builds them: ``generate_sbm`` with the draw as seed, x0 from
``default_rng(draw)``, and 10n steps of x(k+1) = (I - L/2) x(k).
Draw 3 is left out: ``cluster --k 3`` splits one of its blocks.
"""

import numpy as np
import pytest

from conftest import lstsq_min_norm_oracle
from localspec import CompanionModel, LinearSystem, cli, dynsys, fit_companion
from localspec._linalg import DEFAULT_RANK_TOL
from localspec.embedding import delay_windows

SIZES = [20, 20, 20]
PLANTED = np.repeat(np.arange(len(SIZES)), SIZES)


def sbm_draw(draw):
    """Adjacency and trajectory x(0..10n) of one SBM draw."""
    w = dynsys.generate_sbm(SIZES, 0.7, 0.05, 1.0, 0.2, seed=draw)
    n = w.shape[0]
    system = LinearSystem(np.eye(n) - 0.5 * dynsys.normalized_laplacian(w))
    x0 = np.random.default_rng(draw).standard_normal(n)
    return w, dynsys.simulate(system, x0, 10 * n)


def fit_companion_oracle(
    u: np.ndarray, s: int, svd_tol: float = DEFAULT_RANK_TOL
) -> CompanionModel:
    """Reference for ``fit_companion``: the design copied column by column
    and every solve through the truncated SVD.

    Estimate the s recurrence weights of one vertex from its scalar series.

    Only the bottom row of the structured companion matrix is unknown, so
    the regression has s unknowns and len(u) - s equations: row k states
    u(k+s) = sum_j w_j u(k+j), i.e. the design holds the first s entries of
    the :func:`delay_windows` of width s + 1 and the target their last.
    The series is scaled to unit max-abs first so decaying trajectories do
    not underflow the regression; the weights are invariant under that
    scaling. Each row of [design | target] is then divided by its own
    max-abs: the rows are exact linear relations, so the exact solution is
    unchanged, but the largest rows of a growing or decaying series no
    longer decide the rank cut alone. ``residual`` is in data units.
    """
    u = np.asarray(u, dtype=float).reshape(-1)
    if s < 1:
        raise ValueError("delay count s must be at least 1")
    if u.shape[0] < 2 * s:
        raise ValueError(f"need at least 2s = {2 * s} observations, got {u.shape[0]}")
    scale = float(np.max(np.abs(u))) or 1.0  # an all-zero series fits zero weights
    windows = delay_windows(u / scale, s + 1)
    design, target = np.asfortranarray(windows[:, :s]), windows[:, s]
    rows = np.maximum(np.max(np.abs(design), axis=1), np.abs(target))
    rows[rows == 0.0] = 1.0  # an all-zero row constrains nothing
    weights, _ = lstsq_min_norm_oracle(design / rows[:, None], target / rows, svd_tol)
    residual = float(np.linalg.norm(design @ weights - target)) * scale
    return CompanionModel(s=s, weights=weights, residual=residual, scale=scale)


@pytest.mark.parametrize("draw", [0, 1, 2, 4, 5])
def test_cluster_recovers_the_blocks_and_the_unit_mode(draw):
    w, traj = sbm_draw(draw)
    n = w.shape[0]
    payload, comps, _ = cli._cluster(traj, n, 3)
    labels = [entry["cluster"] for entry in payload["labels"]]
    assert labels == PLANTED.tolist()
    c1 = np.array([comps[v][0] for v in range(1, n + 1)])
    ratio = c1 / np.sqrt(w.sum(axis=1))
    assert np.max(np.abs(ratio / np.mean(ratio) - 1.0)) <= 1e-5


def test_companion_fit_bit_identical_to_the_oracle_on_draw_0():
    w, traj = sbm_draw(0)
    n = w.shape[0]
    for v in range(1, n + 1):
        model, ref = fit_companion(traj.local(v), n), fit_companion_oracle(traj.local(v), n)
        assert model.rank < n  # the fit stays on the SVD path
        assert np.array_equal(model.weights, ref.weights), v
        assert (model.residual, model.scale) == (ref.residual, ref.scale), v
