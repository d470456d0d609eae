"""Rank-of-R and Hautus localizability tests."""

import numpy as np
import pytest
import scipy.sparse
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse.csgraph import connected_components

from conftest import random_system
from localspec import (
    DependencyGraph,
    LinearSystem,
    bipartite_fixture,
    dependency_graph,
    hautus_localizable,
    is_localizable,
    is_strongly_connected,
    localizable_everywhere,
    permute_vertex_first,
    r_matrix,
)
from localspec.io import example1_system


class TestPermuteVertexFirst:
    def test_vertex_one_is_identity(self):
        sys = random_system(0, n=4)
        assert permute_vertex_first(sys, 1) is sys

    def test_diagonal_reordering(self):
        out = permute_vertex_first(LinearSystem(np.diag([1.0, 2.0, 3.0])), 3)
        assert np.array_equal(out.a, np.diag([3.0, 1.0, 2.0]))

    def test_similarity_preserves_spectrum(self):
        for seed in range(10):
            sys = random_system(seed, n=5)
            for v in range(1, 6):
                before = np.sort_complex(np.linalg.eigvals(sys.a))
                after = np.sort_complex(np.linalg.eigvals(permute_vertex_first(sys, v).a))
                assert np.allclose(before, after, atol=1e-10)


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

    def test_needs_two_states(self):
        with pytest.raises(ValueError):
            r_matrix(LinearSystem([[1.0]]), 1)


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
        assert report.r_matrix.shape == (0, 0)
        assert report.numeric_rank == 0

    def test_report_invariants(self):
        for seed in range(20):
            sys = random_system(seed, sparse=True)
            rep = is_localizable(sys, 1)
            sigma = rep.singular_values
            assert np.all(np.diff(sigma) <= 1e-12)
            if sigma.size and sigma[0] > 0:
                expected = int(np.sum(sigma > rep.tolerance_used * sigma[0]))
            else:
                expected = 0
            assert rep.numeric_rank == expected
            assert rep.localizable == (rep.numeric_rank == sys.n - 1)


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


def strongly_connected_oracle(graph):
    """One strong component by scipy's csgraph: the reference."""
    adj = scipy.sparse.csr_matrix(graph.adjacency())
    count, _ = connected_components(adj, directed=True, connection="strong")
    return count == 1


@st.composite
def digraphs(draw):
    """Random-density digraphs and the edge cases: no edges, self-loops only,
    and one-way chains, optionally closed into a cycle."""
    n = draw(st.integers(1, 12))
    kind = draw(st.sampled_from(["random", "empty", "self-loops", "chain"]))
    if kind == "random":
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        hits = rng.random((n, n)) < draw(st.floats(0.0, 1.0))
        edges = {(int(j) + 1, int(i) + 1) for j, i in zip(*np.nonzero(hits))}
    elif kind == "empty":
        edges = set()
    elif kind == "self-loops":
        edges = {(v, v) for v in range(1, n + 1)}
    else:
        edges = {(v, v + 1) for v in range(1, n)}
        if draw(st.booleans()):
            edges.add((n, 1))
    return DependencyGraph(vertex_count=n, edges=frozenset(edges))


class TestStrongConnectivity:
    @settings(max_examples=400, deadline=None)
    @given(graph=digraphs())
    def test_matches_scipy_strong_components(self, graph):
        assert is_strongly_connected(graph) == strongly_connected_oracle(graph)

    def test_example1_left_not_strongly_connected(self):
        # reachability oracle: vertex 3 has no outgoing edge except its
        # self-loop, so nothing returns from it
        g = dependency_graph(example1_system("left"))
        out_of_3 = {edge for edge in g.edges if edge[0] == 3 and edge[1] != 3}
        assert out_of_3 == set()
        assert not is_strongly_connected(g)

    def test_example1_right_fully_connected(self):
        assert is_strongly_connected(dependency_graph(example1_system("right")))

    def test_single_vertex(self):
        assert is_strongly_connected(dependency_graph(LinearSystem([[0.5]])))

    def test_strongly_connected_but_not_localizable(self):
        # the non-sufficiency witness: full dependency graph, rank(R) = 1
        sys = example1_system("right")
        assert is_strongly_connected(dependency_graph(sys))
        assert not is_localizable(sys, 1).localizable


class TestProperties:
    def test_similarity_safety(self):
        for seed in range(15):
            sys = random_system(seed, sparse=True)
            for v in range(1, sys.n + 1):
                direct = is_localizable(sys, v).localizable
                permuted = is_localizable(permute_vertex_first(sys, v), 1).localizable
                assert direct == permuted

    def test_generic_localizability(self):
        hits = 0
        for seed in range(200):
            rng = np.random.default_rng(10_000 + seed)
            sys = LinearSystem(rng.standard_normal((6, 6)))
            everywhere, _ = localizable_everywhere(sys)
            hits += everywhere
        assert hits >= 198  # >= 99% of dense gaussian systems
