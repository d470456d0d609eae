"""The least-squares solver against a truncated-SVD oracle."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
        x, rank = lstsq_min_norm(a, b, REL_TOL)
        ref, ref_rank = truncated_svd_oracle(a, b, REL_TOL)
        assert rank == ref_rank == planted
        assert np.linalg.norm(x - ref) <= 1e-10 * np.linalg.norm(ref)


class TestNumericRank:
    @pytest.mark.parametrize("bad", [np.nan, 0.0, -1.0, np.inf])
    @pytest.mark.parametrize("sigma", [np.zeros(0), np.array([2.0, 1.0])], ids=["empty", "2"])
    def test_tolerance_must_be_finite_and_positive(self, bad, sigma):
        with pytest.raises(ValueError, match="rank tolerance must be finite and positive"):
            numeric_rank(sigma, bad)


class TestSingularValues:
    def test_stack_gives_each_matrix_its_own_values_bit_for_bit(self):
        stack = np.random.default_rng(0).standard_normal((4, 5, 5))
        sigma = singular_values(stack)
        assert sigma.shape == (4, 5)
        for row, matrix in zip(sigma, stack):
            assert np.array_equal(row, singular_values(matrix))

    @pytest.mark.parametrize("shape, expected", [
        ((0, 0), (0,)), ((3, 0), (0,)), ((4, 0, 0), (4, 0)),
    ])
    def test_empty_matrices_have_no_values(self, shape, expected):
        assert singular_values(np.zeros(shape)).shape == expected
