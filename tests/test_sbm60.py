"""Answers on three-block SBM trajectories that the solver's fast paths must
keep.

The graphs and trajectories are built as the benchmark's ``cluster-sbm60``
workload builds them: ``generate_sbm`` with the draw as seed, x0 from
``default_rng(draw)``, and 10n steps of x(k+1) = (I - L/2) x(k). Every
vertex's companion fit there is rank-deficient (rank 6-9 of n), so these
are answers of the rank-adaptive path.
"""

import numpy as np
import pytest

from conftest import lstsq_min_norm_oracle
from localspec import CompanionModel, LinearSystem, analyze_vertex, cli, dynsys, fit_companion
from localspec._linalg import DEFAULT_RANK_TOL
from localspec.embedding import delay_windows

SIZES = [20, 20, 20]


def sbm_draw(draw, sizes=SIZES):
    """Adjacency and trajectory x(0..10n) of one SBM draw."""
    w = dynsys.generate_sbm(sizes, 0.7, 0.05, 1.0, 0.2, seed=draw)
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


def assert_cluster_recovers_the_blocks_and_the_unit_mode(sizes, draw, k):
    w, traj = sbm_draw(draw, sizes)
    n = w.shape[0]
    payload, comps, _ = cli._cluster(traj, n, k)
    assert payload["cluster_count"] == 3
    labels = [entry["cluster"] for entry in payload["labels"]]
    assert labels == np.repeat(np.arange(len(sizes)), sizes).tolist()
    c1 = np.array([comps[v][0] for v in range(1, n + 1)])
    ratio = c1 / np.sqrt(w.sum(axis=1))
    assert np.max(np.abs(ratio / np.mean(ratio) - 1.0)) <= 1e-5


@pytest.mark.parametrize("draw", range(6))
def test_cluster_recovers_the_blocks_and_the_unit_mode(draw):
    assert_cluster_recovers_the_blocks_and_the_unit_mode(SIZES, draw, 3)


@pytest.mark.parametrize("sizes, draw", [([30, 30, 30], 0), ([30, 30, 30], 1),
                                         ([40, 40, 40], 0)], ids=["30x3-0", "30x3-1", "40x3-0"])
def test_cluster_auto_recovers_the_blocks_at_n_90_and_120(sizes, draw):
    # --k auto must read 3, and its labels are then those of --k 3
    assert_cluster_recovers_the_blocks_and_the_unit_mode(sizes, draw, "auto")


def test_a_rank_deficient_vertex_factors_its_design_once(monkeypatch):
    # the modes come from the singular basis of the fit's own solve: one QR of
    # [design | target] and one SVD of its s x s triangle per vertex
    w, traj = sbm_draw(0)
    n = w.shape[0]
    calls = []

    def counted(name):
        original = getattr(np.linalg, name)
        return lambda a, *args, **kwargs: calls.append((name, a.shape)) or original(
            a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "qr", counted("qr"))
    monkeypatch.setattr(np.linalg, "svd", counted("svd"))
    for v in range(1, n + 1):
        calls.clear()
        report = analyze_vertex(traj.local(v), n, vertex=v)
        assert 0 < report.rank < n and report.eigenvalues.size == report.rank
        assert [c for c in calls if c[1][-1] in (n, n + 1)] == [
            ("qr", (10 * n + 1 - n, n + 1)), ("svd", (n, n))], v


def test_companion_fit_bit_identical_to_the_oracle_on_draw_0():
    w, traj = sbm_draw(0)
    n = w.shape[0]
    for v in range(1, n + 1):
        model, ref = fit_companion(traj.local(v), n), fit_companion_oracle(traj.local(v), n)
        assert model.rank < n  # the fit stays on the SVD path
        assert np.array_equal(model.weights, ref.weights), v
        assert (model.residual, model.scale) == (ref.residual, ref.scale), v
