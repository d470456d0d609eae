"""Observability-staircase, rank-of-R and Hautus localizability tests."""

import json
import tracemalloc

import numpy as np
import pytest
import scipy.sparse
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.sparse.csgraph import connected_components

from conftest import random_system
from localspec import (
    LinearSystem,
    bipartite_fixture,
    hautus_localizable,
    is_localizable,
    is_strongly_connected,
    localizability,
    localizable_everywhere,
    r_matrix,
    recover_hidden_state,
)
from localspec._linalg import DEFAULT_RANK_TOL, numeric_rank, singular_values
from localspec.io import example1_system
from localspec.localizability import BLOCK_DOUBLES, _blocks, _step_ratios, _vertex_block


class TestRMatrix:
    def test_example1_left(self):
        # hand expansion: a12 = (-1/2, 0); a12 A22 = (3/10, 0)
        r = r_matrix(example1_system("left"), 1)
        assert np.allclose(r, [[-0.5, 0.0], [0.3, 0.0]], rtol=0, atol=1e-15)

    def test_example1_middle_rows_proportional(self):
        # A22 = -I/2 forces row 2 = -row 1 / 2
        r = r_matrix(example1_system("middle"), 1)
        assert np.allclose(r, [[-0.4, 0.4], [0.2, -0.2]], rtol=0, atol=1e-15)
        assert np.allclose(r[1], -0.5 * r[0], atol=1e-15)

    def test_zero_coupling_row(self):
        a = np.array([[1.0, 0.0, 0.0], [2.0, 3.0, 1.0], [0.5, 1.0, 2.0]])
        assert np.array_equal(r_matrix(LinearSystem(a), 1), np.zeros((2, 2)))

    def test_one_state_gives_the_empty_r(self):
        sys = LinearSystem([[1.0]])
        assert r_matrix(sys, 1).shape == (0, 0)
        assert is_localizable(sys, 1).numeric_rank == 0

    @pytest.mark.parametrize("vertex", [0, 4])
    def test_vertex_out_of_range(self, vertex):
        with pytest.raises(ValueError, match=f"vertex {vertex} out of range 1..3"):
            r_matrix(LinearSystem(np.eye(3)), vertex)

    def test_overflow_is_a_value_error_naming_the_vertex(self):
        # a12 A22 already exceeds the float range; no NaN reaches the SVD
        a = np.full((5, 5), 1e200)
        np.fill_diagonal(a, 0.5)
        with pytest.raises(ValueError, match="R of vertex 2 overflows"):
            r_matrix(LinearSystem(a), 2)
        with pytest.raises(ValueError, match="R of vertex 2 overflows"):
            recover_hidden_state(LinearSystem(a), 2, np.ones(5))
        # the staircase works on A scaled to a largest entry below 1: a12 is
        # an eigenvector of A22 = 1e200 (J - I), so it spans the Krylov space
        report = is_localizable(LinearSystem(a), 2)
        assert (report.numeric_rank, report.localizable) == (1, False)
        assert report.margin < 1e-15
        assert not hautus_localizable(LinearSystem(a), 2)


class TestIsLocalizable:
    @pytest.mark.parametrize("which", ["left", "middle", "right"])
    def test_example1_systems_fail_at_vertex_one(self, which):
        report = is_localizable(example1_system(which), 1)
        assert report.numeric_rank == 1
        assert not report.localizable

    def test_identity_never_localizable(self):
        for v in (1, 2, 3):
            assert not is_localizable(LinearSystem(np.eye(3)), v).localizable

    def test_perturbing_a22_restores_localizability(self):
        a = example1_system("middle").a.copy()
        a[1, 1] = -2.0 / 5.0
        report = is_localizable(LinearSystem(a), 1)
        assert report.localizable
        # rank oracle: the perturbed R has nonzero determinant 0.016
        r = r_matrix(LinearSystem(a), 1)
        assert abs(np.linalg.det(r) - 0.016) < 1e-12

    def test_one_dimensional_system_is_localizable(self):
        report = is_localizable(LinearSystem([[0.7]]), 1)
        assert report.localizable
        assert report.margin is None
        assert report.numeric_rank == 0

    def test_report_invariants(self):
        for seed in range(20):
            sys = random_system(seed, sparse=True)
            rep = is_localizable(sys, 1)
            block = _vertex_block(sys.n, 1)
            ratios = _step_ratios(sys.a, block)[1 - block.start]
            assert ratios.shape == (sys.n - 1,)
            assert np.all((ratios >= 0.0) & (ratios <= 1.0 + 1e-12))
            below = np.flatnonzero(ratios <= rep.tolerance_used)
            expected = int(below[0]) if below.size else sys.n - 1
            assert rep.numeric_rank == expected
            assert rep.margin == ratios[: expected + 1].min()
            assert rep.localizable == (rep.numeric_rank == sys.n - 1)
            assert rep.localizable == (rep.margin > rep.tolerance_used)


class TestBlockPartition:
    @pytest.mark.parametrize("n", [1, 2, 50, 51, 70, 240])
    def test_blocks_cover_the_vertices_once_in_order(self, n):
        size = max(1, BLOCK_DOUBLES // n**2)
        blocks = _blocks(n)
        assert [v for block in blocks for v in block] == list(range(1, n + 1))
        assert all(len(block) == size for block in blocks[:-1])
        assert 1 <= len(blocks[-1]) <= size
        for v in range(1, n + 1):
            block = _vertex_block(n, v)
            assert block in blocks and v in block

    def test_block_sizes_at_the_edges(self):
        # 2^17 // 50^2 = 52 covers n = 50 in one block; 2^17 // 51^2 = 50 does not
        assert _blocks(50) == [range(1, 51)]
        assert _blocks(51) == [range(1, 51), range(51, 52)]
        assert _blocks(240)[-1] == range(239, 241)


class TestLocalizableEverywhere:
    def test_bipartite_fixture(self):
        everywhere, reports = localizable_everywhere(bipartite_fixture())
        assert everywhere and len(reports) == 6

    def test_identity(self):
        everywhere, _ = localizable_everywhere(LinearSystem(np.eye(4)))
        assert not everywhere

    def test_reducible_systems_fail(self):
        # build P^T [[B11, 0], [B21, B22]] P as in the necessity argument
        for seed in range(25):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(2, 7))
            p = int(rng.integers(1, n))
            a = np.zeros((n, n))
            a[:p, :p] = rng.standard_normal((p, p))
            a[p:, :p] = rng.standard_normal((n - p, p))
            a[p:, p:] = rng.standard_normal((n - p, n - p))
            perm = rng.permutation(n)
            a = a[np.ix_(perm, perm)]
            everywhere, _ = localizable_everywhere(LinearSystem(a))
            assert not everywhere


class TestHautus:
    def test_agrees_with_rank_criterion(self):
        for seed in range(200):
            sys = random_system(seed, sparse=bool(seed % 2))
            assert (
                hautus_localizable(sys, 1)
                == is_localizable(sys, 1).localizable
            )

    def test_example1_middle_repeated_eigenvalue(self):
        # A22 = -I/2: the repeated eigenvalue -1/2 cannot be separated by a12
        assert not hautus_localizable(example1_system("middle"), 1)

    def test_zero_coupling_fails(self):
        a = np.array([[1.0, 0.0, 0.0], [2.0, 3.0, 1.0], [0.5, 1.0, 2.0]])
        assert not hautus_localizable(LinearSystem(a), 1)

    @pytest.mark.parametrize("a", [0.5, 0.0])
    def test_one_state_agrees_with_rank_criterion(self, a):
        sys = LinearSystem([[a]])
        assert hautus_localizable(sys, 1)
        assert is_localizable(sys, 1).localizable


@pytest.mark.parametrize("bad", [np.nan, 0.0, -1.0, np.inf])
@pytest.mark.parametrize("test", [is_localizable, hautus_localizable],
                         ids=["rank", "hautus"])
def test_rank_tolerance_must_be_finite_and_positive(test, bad):
    # at n = 1 there is no rank to decide, and the tolerance is still checked
    for sys in (bipartite_fixture(), LinearSystem([[0.5]])):
        with pytest.raises(ValueError, match="rank tolerance must be finite and positive"):
            test(sys, 1, bad)


def strongly_connected_oracle(a):
    """One strong component by scipy's csgraph: the reference."""
    count, _ = connected_components(scipy.sparse.csr_matrix(a != 0), directed=True,
                                    connection="strong")
    return count == 1


@st.composite
def pattern_matrices(draw):
    """Square matrices whose nonzero patterns are random-density digraphs and
    the edge cases: no edges, self-loops only, and one-way chains, optionally
    closed into a cycle."""
    n = draw(st.integers(1, 12))
    kind = draw(st.sampled_from(["random", "empty", "self-loops", "chain"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "random":
        hits = rng.random((n, n)) < draw(st.floats(0.0, 1.0))
    elif kind == "empty":
        hits = np.zeros((n, n), dtype=bool)
    elif kind == "self-loops":
        hits = np.eye(n, dtype=bool)
    else:
        hits = np.eye(n, k=-1, dtype=bool)  # a[i + 1, i]: vertex i + 1 feeds i + 2
        hits[0, n - 1] |= draw(st.booleans())
    return np.where(hits, rng.uniform(-2.0, 2.0, (n, n)), 0.0)


class TestStrongConnectivity:
    @settings(max_examples=400, deadline=None)
    @given(a=pattern_matrices())
    def test_matches_scipy_strong_components(self, a):
        assert is_strongly_connected(a) == strongly_connected_oracle(a)

    def test_example1_left_not_strongly_connected(self):
        # reachability oracle: a[0, 2] = a[1, 2] = 0, so vertex 3 feeds only
        # itself and nothing returns from it
        a = example1_system("left").a
        assert np.array_equal(np.nonzero(a[:, 2])[0], [2])
        assert not is_strongly_connected(a)

    def test_example1_right_fully_connected(self):
        assert is_strongly_connected(example1_system("right").a)

    def test_single_vertex(self):
        assert is_strongly_connected(np.array([[0.5]]))

    def test_strongly_connected_but_not_localizable(self):
        # the non-sufficiency witness: full dependency graph, rank(R) = 1
        sys = example1_system("right")
        assert is_strongly_connected(sys.a)
        assert not is_localizable(sys, 1).localizable

    def test_rejects_a_non_square_matrix(self):
        with pytest.raises(ValueError, match="square"):
            is_strongly_connected(np.ones((2, 3)))


class TestProperties:
    def test_similarity_safety(self):
        for seed in range(15):
            sys = random_system(seed, sparse=True)
            for v in range(1, sys.n + 1):
                order = np.r_[v - 1, 0 : v - 1, v : sys.n]  # vertex v first
                permuted = LinearSystem(sys.a[np.ix_(order, order)])
                direct = is_localizable(sys, v).localizable
                assert direct == is_localizable(permuted, 1).localizable

    def test_generic_localizability(self):
        hits = 0
        for seed in range(200):
            rng = np.random.default_rng(10_000 + seed)
            sys = LinearSystem(rng.standard_normal((6, 6)))
            everywhere, _ = localizable_everywhere(sys)
            hits += everywhere
        assert hits >= 198  # >= 99% of dense gaussian systems


# --- the stacked pass against the per-vertex oracle -----------------------------
#
# A one-vertex Arnoldi written with loops over explicit a12 and A22, apart from
# the stacked full-coordinate staircase. Flags and ranks must agree exactly.
# Margins are ratios to max(||A22||_F, ||a12||), so they must agree to 1e-12
# of that scale: the margin of an exact breakdown sits at the rounding floor
# and has no relative digits to compare. A one-vertex query runs its vertex's
# block, so its report must equal the all-vertex one exactly.

MARGIN_ATOL = 1e-12


def _split_blocks_oracle(a: np.ndarray, vertex: int):
    """Blocks a11, a12, a21, A22 of the update matrix ``a`` with ``vertex`` first."""
    n = a.shape[0]
    order = [vertex - 1, *range(vertex - 1), *range(vertex, n)]
    p = a[np.ix_(order, order)]
    return p[0, 0], p[0, 1:], p[1:, 0], p[1:, 1:]


def step_ratios_oracle(a: np.ndarray, vertex: int) -> np.ndarray:
    """Arnoldi on A22^T from a12, one basis vector at a time, with two
    classical Gram-Schmidt passes; the step norms over max(||A22||_F, ||a12||)."""
    top = np.max(np.abs(a))
    _, a12, _, a22 = _split_blocks_oracle(a / top if top > 0 else a, vertex)
    scale = max(np.linalg.norm(a22), np.linalg.norm(a12))
    basis, ratios = [], []
    w = a12
    for l in range(a.shape[0] - 1):
        if l:
            w = basis[-1] @ a22
            for _ in range(2):
                coeffs = [q @ w for q in basis]
                for c, q in zip(coeffs, basis):
                    w = w - c * q
        h = np.linalg.norm(w)
        ratios.append(h / scale if scale > 0 else 0.0)
        basis.append(w / h if h > 0 else w)
    return np.array(ratios)


def is_localizable_oracle(sys: LinearSystem, vertex: int, rel_tol: float):
    """(localizable, numeric rank, margin) from the oracle's step ratios."""
    ratios = step_ratios_oracle(sys.a, vertex)
    below = np.flatnonzero(ratios <= rel_tol)
    rank = int(below[0]) if below.size else sys.n - 1
    margin = float(ratios[: rank + 1].min()) if ratios.size else None
    return rank == sys.n - 1, rank, margin


def _assert_same_report(report, localizable, rank, margin):
    assert (report.localizable, report.numeric_rank) == (localizable, rank)
    if margin is None:
        assert report.margin is None
    else:
        assert abs(report.margin - margin) <= MARGIN_ATOL


def _assert_matches_the_oracle(sys, rel_tol=DEFAULT_RANK_TOL):
    everywhere, reports = localizable_everywhere(sys, rel_tol)
    assert [r.vertex for r in reports] == list(range(1, sys.n + 1))
    assert all(r.tolerance_used == rel_tol for r in reports)
    expected = [is_localizable_oracle(sys, v, rel_tol) for v in range(1, sys.n + 1)]
    assert everywhere == all(flag for flag, _, _ in expected)
    for report, oracle in zip(reports, expected):
        _assert_same_report(report, *oracle)
        assert is_localizable(sys, report.vertex, rel_tol) == report


@st.composite
def oracle_systems(draw):
    """Dense and sparse gaussian systems, systems with zeroed rows, and
    systems scaled far enough up that the rows of R overflow."""
    n = draw(st.integers(1, 30))
    kind = draw(st.sampled_from(["dense", "sparse", "zero-rows", "huge"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    a = rng.standard_normal((n, n)) / np.sqrt(n)
    if kind == "sparse":
        a *= rng.random((n, n)) < draw(st.floats(0.05, 0.6))
    elif kind == "zero-rows":
        a[rng.random(n) < 0.3] = 0.0
    elif kind == "huge":
        a *= 10.0 ** draw(st.integers(20, 200))
    return LinearSystem(a)


class TestStackedPassMatchesThePerVertexOracle:
    @settings(max_examples=300, deadline=None)
    @given(sys=oracle_systems(), rel_tol=st.sampled_from([DEFAULT_RANK_TOL, 1e-6]))
    def test_drawn_systems(self, sys, rel_tol):
        _assert_matches_the_oracle(sys, rel_tol)

    def test_system_across_block_boundaries(self):
        n = 70
        assert BLOCK_DOUBLES // n**2 < n  # more than one block
        sys = random_system(3, n=n)
        _assert_matches_the_oracle(sys)
        _assert_matches_the_oracle(sys, 1e-6)

    def test_overflow_named_at_the_lowest_vertex_outside_the_first_block(self):
        # vertices 61..70 form a block of weights 1e100; their R overflows by
        # row 4, while a12 of vertices 1..60 never reaches that block
        n, first = 70, 61
        assert BLOCK_DOUBLES // n**2 < first - 1
        a = np.zeros((n, n))
        a[:first - 1, :first - 1] = random_system(4, n=first - 1).a
        a[first - 1:, first - 1:] = 1e100
        sys = LinearSystem(a)
        with pytest.raises(ValueError, match=f"R of vertex {first} overflows"):
            recover_hidden_state(sys, first, np.ones(n))

    def test_localizable_everywhere_answers_where_r_overflows(self):
        # same system: the staircase scales A first, and no vertex sees both
        # blocks, so every vertex is reported not localizable
        n, first = 70, 61
        a = np.zeros((n, n))
        a[:first - 1, :first - 1] = random_system(4, n=first - 1).a
        a[first - 1:, first - 1:] = 1e100
        sys = LinearSystem(a)
        everywhere, reports = localizable_everywhere(sys)
        assert not everywhere
        assert not any(r.localizable for r in reports)
        assert all(np.isfinite(r.margin) for r in reports)
        _assert_matches_the_oracle(sys)

    def test_one_report_call_per_vertex(self, monkeypatch):
        # the benchmark's vertex counter wraps is_localizable
        calls = []
        original = localizability.is_localizable

        def counted(*args, **kwargs):
            calls.append(args[1])
            return original(*args, **kwargs)

        monkeypatch.setattr(localizability, "is_localizable", counted)
        n = 70
        localizable_everywhere(random_system(5, n=n))
        assert calls == list(range(1, n + 1))

    def test_peak_memory_keeps_no_r(self):
        # the reports keep no R; one block of Arnoldi bases is about
        # BLOCK_DOUBLES doubles (1 MB)
        n = 100
        sys = random_system(6, n=n)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            _, reports = localizable_everywhere(sys)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert len(reports) == n
        assert peak < 4 * 2**20


# --- the staircase against Hautus ----------------------------------------------


def hautus_margin(sys: LinearSystem, vertex: int) -> float:
    """Smallest sigma_min / sigma_max of [lam I - A22; a12^T] over the
    eigenvalues lam of A22; inf for a 1-dimensional system."""
    _, a12, _, a22 = _split_blocks_oracle(sys.a, vertex)
    margin = np.inf
    for lam in np.linalg.eigvals(a22):
        sigma = singular_values(np.vstack([lam * np.eye(sys.n - 1) - a22, a12[None, :]]))
        margin = min(margin, sigma[-1] / sigma[0] if sigma[0] > 0 else 0.0)
    return float(margin)


def dense48(seed: int) -> LinearSystem:
    return LinearSystem(np.random.default_rng([48, seed]).standard_normal((48, 48)) / np.sqrt(48))


class TestStaircaseEdgeCases:
    @pytest.mark.parametrize("seed", [0, 1])
    def test_dense_48_systems_localizable_at_every_vertex(self, seed):
        # the monomial rows of R lose rank here at 48 and 47 of 48 vertices
        sys = dense48(seed)
        everywhere, reports = localizable_everywhere(sys)
        assert everywhere
        assert all(r.numeric_rank == 47 for r in reports)
        assert all(hautus_localizable(sys, v) for v in range(1, 49))

    @pytest.mark.parametrize("seed, n, vertex", [(4, 29, 22), (11, 32, 21), (26, 31, 19),
                                                 (38, 29, 26)])
    def test_vertices_where_the_rank_of_r_disagrees_with_hautus(self, seed, n, vertex):
        rng = np.random.default_rng([1632, seed])
        assert int(rng.integers(16, 33)) == n
        sys = LinearSystem(rng.standard_normal((n, n)) / np.sqrt(n))
        assert numeric_rank(singular_values(r_matrix(sys, vertex)), DEFAULT_RANK_TOL) < n - 1
        assert hautus_margin(sys, vertex) > 1e-6
        assert hautus_localizable(sys, vertex)
        assert is_localizable(sys, vertex).localizable

    def test_one_state_margin_is_null_in_the_payload(self):
        _, [report] = localizable_everywhere(LinearSystem([[0.5]]))
        assert report.margin is None
        payload = json.loads(json.dumps(report.to_json_dict(), allow_nan=False))
        assert payload["margin"] is None

    def test_zero_coupling_has_margin_zero(self):
        a = np.array([[1.0, 0.0, 0.0], [2.0, 3.0, 1.0], [0.5, 1.0, 2.0]])
        _, reports = localizable_everywhere(LinearSystem(a))
        assert (reports[0].margin, reports[0].numeric_rank) == (0.0, 0)
        assert not reports[0].localizable
        assert is_localizable(LinearSystem(a), 1) == reports[0]

    def test_zero_matrix_has_margin_zero_everywhere(self):
        everywhere, reports = localizable_everywhere(LinearSystem(np.zeros((4, 4))))
        assert not everywhere
        assert [(r.margin, r.numeric_rank) for r in reports] == [(0.0, 0)] * 4

    def test_weakly_coupled_vertex_keeps_its_small_steps(self):
        # steps 1e-8 and 1e-5 over ||A22||_F = sqrt(2), both far above the
        # cut; their product is below 1e-12 and must not end the staircase
        sys = LinearSystem([[0.0, 1e-8, 0.0], [0.0, 1.0, 1e-5], [0.0, 0.0, 1.0]])
        report = is_localizable(sys, 1)
        assert report.localizable and report.numeric_rank == 2
        assert report.margin == pytest.approx(1e-8 / np.sqrt(2), rel=1e-12)
        assert hautus_localizable(sys, 1)
        _assert_same_report(report, *is_localizable_oracle(sys, 1, DEFAULT_RANK_TOL))

    @pytest.mark.parametrize("vertex", [0, 4])
    def test_vertex_out_of_range(self, vertex):
        with pytest.raises(ValueError, match=f"vertex {vertex} out of range 1..3"):
            is_localizable(LinearSystem(np.eye(3)), vertex)

    def test_entries_whose_squares_underflow_overflow_nothing(self):
        # a12 and A22 of vertex 1 are 1e-200 beside a unit column: their
        # squares underflow after scaling, and the steps must stay finite
        a = np.ones((4, 4))
        a[:, 1:] = 1e-200 * np.random.default_rng(3).standard_normal((4, 3))
        ratios = _step_ratios(a, [1, 2, 3, 4])
        assert np.all(np.isfinite(ratios)) and np.all(ratios <= 1.0 + 1e-12)
        _, reports = localizable_everywhere(LinearSystem(a))
        json.dumps([r.to_json_dict() for r in reports], allow_nan=False)

    @pytest.mark.xfail(strict=True, reason="squares of a12 and A22 below about 1e-154 of "
                       "A's largest entry underflow, so every step reads 0")
    def test_entries_whose_squares_underflow_keep_the_hautus_answer(self):
        a = np.ones((4, 4))
        a[:, 1:] = 1e-200 * np.random.default_rng(0).standard_normal((4, 3))
        assert hautus_localizable(LinearSystem(a), 1)
        assert is_localizable(LinearSystem(a), 1).localizable


@st.composite
def hautus_systems(draw):
    """Dense, sparse and zero-row gaussian systems with n <= 14."""
    n = draw(st.integers(1, 14))
    kind = draw(st.sampled_from(["dense", "sparse", "zero-rows"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    a = rng.standard_normal((n, n)) / np.sqrt(n)
    if kind == "sparse":
        a *= rng.random((n, n)) < draw(st.floats(0.05, 0.6))
    elif kind == "zero-rows":
        a[rng.random(n) < 0.3] = 0.0
    return LinearSystem(a)


class TestStaircaseProperties:
    @settings(max_examples=150, deadline=None)
    @given(sys=hautus_systems(), power=st.integers(-200, 200))
    def test_flags_equal_hautus_and_ignore_the_scale_of_a(self, sys, power):
        margins = [hautus_margin(sys, v) for v in range(1, sys.n + 1)]
        assume(not any(1e-12 < m < 1e-6 for m in margins))
        everywhere, reports = localizable_everywhere(sys)
        flags = [r.localizable for r in reports]
        assert flags == [hautus_localizable(sys, v) for v in range(1, sys.n + 1)]
        assert everywhere == all(flags)
        _, scaled = localizable_everywhere(LinearSystem(sys.a * 10.0**power))
        for report, other in zip(reports, scaled):
            _assert_same_report(other, report.localizable, report.numeric_rank, report.margin)
