"""The least-squares solver against truncated-SVD oracles."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import lstsq_min_norm_oracle
from localspec._linalg import lstsq_min_norm, numeric_rank, singular_values

REL_TOL = 1e-10


def truncated_svd_oracle(a, b, rel_tol):
    """Minimum-norm solution from the full SVD of ``a``: the reference."""
    u, s, vh = np.linalg.svd(a, full_matrices=False)
    rank = numeric_rank(s, rel_tol)
    return vh[:rank].conj().T @ ((u[:, :rank].conj().T @ b) / s[:rank]), rank


def random_unitary(rng, n, complex_data):
    g = rng.standard_normal((n, n))
    if complex_data:
        g = g + 1j * rng.standard_normal((n, n))
    return np.linalg.qr(g)[0]


@st.composite
def planted_problems(draw):
    """(a, b, rank): a has ``rank`` singular values in [0.01, 1] times its
    scale and the rest at zero or 1e-13 times its scale, a clear gap."""
    m, n = draw(st.integers(1, 9)), draw(st.integers(1, 9))
    complex_data = draw(st.booleans())
    rank = draw(st.integers(0, min(m, n)))
    kept = draw(st.lists(st.floats(0.01, 1.0), min_size=rank, max_size=rank))
    tail = draw(st.sampled_from([0.0, 1e-13]))
    scale = draw(st.sampled_from([1e-8, 1.0, 1e8]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    sigma = np.zeros(min(m, n))
    sigma[:rank] = sorted(kept, reverse=True)
    if rank:
        sigma[rank:] = tail * sigma[0]
    u = random_unitary(rng, m, complex_data)[:, : min(m, n)]
    vh = random_unitary(rng, n, complex_data)[: min(m, n)]
    a = scale * (u * sigma) @ vh
    b = rng.standard_normal(m) + (1j * rng.standard_normal(m) if complex_data else 0)
    return a, b, rank


class TestLstsqMinNorm:
    @settings(max_examples=300, deadline=None)
    @given(problem=planted_problems())
    def test_matches_truncated_svd(self, problem):
        a, b, planted = problem
        x, rank, _ = lstsq_min_norm(np.column_stack([a, b]), REL_TOL)
        ref, ref_rank = truncated_svd_oracle(a, b, REL_TOL)
        assert rank == ref_rank == planted
        assert np.linalg.norm(x - ref) <= 1e-10 * np.linalg.norm(ref)

    @staticmethod
    def assert_matches_r_svd(a, b):
        """Same rank as the all-SVD solver; bit-equal below full column rank,
        within 1e-10 ||x|| at full rank, where substitution replaces the SVD."""
        x, rank, ratio = lstsq_min_norm(np.column_stack([a, b]), REL_TOL)
        ref, ref_rank = lstsq_min_norm_oracle(a, b, REL_TOL)
        assert rank == ref_rank
        if rank < a.shape[1]:
            assert np.array_equal(x, ref)
        else:
            assert np.linalg.norm(x - ref) <= 1e-10 * np.linalg.norm(ref)
        sigma = singular_values(a)
        if rank == a.shape[1] > 0:
            assert ratio == pytest.approx(sigma[-1] / sigma[0], rel=1e-6)
        else:
            assert 0.0 <= ratio <= REL_TOL
        return x, rank, ratio

    @settings(max_examples=300, deadline=None)
    @given(problem=planted_problems())
    def test_matches_r_svd_solver(self, problem):
        a, b, _ = problem
        self.assert_matches_r_svd(a, b)

    @pytest.mark.parametrize("complex_data", [False, True], ids=["real", "complex"])
    @pytest.mark.parametrize("m, n", [(12, 8), (8, 8)])
    def test_full_rank_at_sigma_ratio_1e_minus_9(self, m, n, complex_data):
        rng = np.random.default_rng([m, n, complex_data])
        u = random_unitary(rng, m, complex_data)[:, :n]
        vh = random_unitary(rng, n, complex_data)
        a = (u * np.geomspace(1.0, 1e-9, n)) @ vh
        b = rng.standard_normal(m) + (1j * rng.standard_normal(m) if complex_data else 0)
        _, rank, ratio = self.assert_matches_r_svd(a, b)
        assert rank == n
        assert ratio == pytest.approx(1e-9, rel=1e-5)

    @pytest.mark.parametrize("complex_data", [False, True], ids=["real", "complex"])
    def test_wide_system_takes_the_minimum_norm_solution(self, complex_data):
        rng = np.random.default_rng(4)
        a = rng.standard_normal((3, 7)) + (1j * rng.standard_normal((3, 7)) if complex_data else 0)
        _, rank, ratio = self.assert_matches_r_svd(a, rng.standard_normal(3))
        assert rank == 3 and ratio == 0.0

    @pytest.mark.parametrize("shape", [(5, 3), (3, 5), (0, 2)])
    def test_rank_zero_gives_the_zero_solution(self, shape):
        x, rank, ratio = self.assert_matches_r_svd(np.zeros(shape), np.ones(shape[0]))
        assert rank == 0 and ratio == 0.0
        assert np.array_equal(x, np.zeros(shape[1]))

    def test_zero_column_is_cut(self):
        rng = np.random.default_rng(5)
        a = rng.standard_normal((9, 4))
        a[:, 2] = 0.0
        x, rank, _ = self.assert_matches_r_svd(a, rng.standard_normal(9))
        assert rank == 3 and x[2] == 0.0

    def test_no_columns(self):
        x, rank, ratio = self.assert_matches_r_svd(np.zeros((4, 0)), np.ones(4))
        assert x.shape == (0,) and rank == 0 and ratio == 0.0

    @settings(max_examples=200, deadline=None)
    @given(problem=planted_problems())
    def test_basis_spans_the_numeric_row_space(self, problem):
        a, b, _ = problem
        ab = np.column_stack([a, b])
        x, rank, ratio, basis = lstsq_min_norm(ab, REL_TOL, basis=True)
        assert all(np.array_equal(p, q) for p, q in zip((x, rank, ratio),
                                                        lstsq_min_norm(ab, REL_TOL)))
        if basis is None:  # substitution: full rank, no vectors computed
            assert rank == a.shape[1]
            return
        vh = np.linalg.svd(a, full_matrices=False)[2][:rank]
        assert basis.shape == (rank, a.shape[1])
        assert np.allclose(basis @ basis.conj().T, np.eye(rank), atol=1e-12)
        assert np.allclose(basis.conj().T @ basis, vh.conj().T @ vh, atol=1e-8)

    @pytest.mark.parametrize("bad", [np.nan, 0.0, -1.0, np.inf])
    def test_tolerance_must_be_finite_and_positive_on_every_path(self, bad):
        full_rank, deficient = np.eye(3, 4), np.zeros((3, 4))
        for ab in (full_rank, deficient):
            with pytest.raises(ValueError, match="rank tolerance must be finite and positive"):
                lstsq_min_norm(ab, bad)


class TestNumericRank:
    @pytest.mark.parametrize("bad", [np.nan, 0.0, -1.0, np.inf])
    @pytest.mark.parametrize("sigma", [np.zeros(0), np.array([2.0, 1.0])], ids=["empty", "2"])
    def test_tolerance_must_be_finite_and_positive(self, bad, sigma):
        with pytest.raises(ValueError, match="rank tolerance must be finite and positive"):
            numeric_rank(sigma, bad)


class TestSingularValues:
    @pytest.mark.parametrize("shape, expected", [
        ((0, 0), (0,)), ((3, 0), (0,)), ((0, 4), (0,)),
    ])
    def test_empty_matrices_have_no_values(self, shape, expected):
        assert singular_values(np.zeros(shape)).shape == expected
