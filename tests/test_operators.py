import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from graphenergy import (
    OPERATORS,
    OrderCapError,
    complete_graph,
    cycle_graph,
    energy,
    generalized_splitting,
    kronecker_product,
    m_shadow,
    m_splitting,
    path_graph,
    shadow_splitting,
)
from graphenergy.graphs import MAX_ORDER_ENV_VAR
from graphenergy.operators import _kron

from conftest import from_edges, random_graphs
from neighborhood_reference import ShadowSplitParams, SplitParams, construct_by_neighborhood


class TestCoefficientMatrices:
    def test_split_1_1(self):
        assert np.array_equal(OPERATORS["split"].coefficients(1, 1), [[1, 1], [1, 0]])

    def test_shadow_1_1(self):
        assert np.array_equal(OPERATORS["shadow-split"].coefficients(1, 1), [[1, 1], [1, 0]])

    def test_split_2_1(self):
        expected = [[1, 0, 1], [0, 1, 1], [1, 1, 0]]
        assert np.array_equal(OPERATORS["split"].coefficients(2, 1), expected)

    def test_shadow_2_2(self):
        expected = [[1, 1, 1, 1], [1, 1, 1, 1], [1, 1, 0, 0], [1, 1, 0, 0]]
        assert np.array_equal(OPERATORS["shadow-split"].coefficients(2, 2), expected)

    @pytest.mark.parametrize("p,q", list(itertools.product(range(1, 5), repeat=2)))
    def test_split_block_structure(self, p, q):
        m = OPERATORS["split"].coefficients(p, q)
        assert m.shape == (p + q, p + q)
        assert np.array_equal(m[:p, :p], np.eye(p, dtype=int))
        assert np.all(m[:p, p:] == 1)
        assert np.all(m[p:, p:] == 0)

    @pytest.mark.parametrize("c,k", list(itertools.product(range(1, 5), repeat=2)))
    def test_shadow_block_structure(self, c, k):
        m = OPERATORS["shadow-split"].coefficients(c, k)
        assert np.all(m[:c, :c] == 1)
        assert np.all(m[:c, c:] == 1)
        assert np.all(m[c:, c:] == 0)

    def test_params_validated(self):
        with pytest.raises(ValueError, match=r"^split needs p,q >= 1, got p=0, q=1$"):
            OPERATORS["split"].coefficients(0, 1)
        with pytest.raises(ValueError, match=r"^shadow-split needs c,k >= 1, got c=1, k=0$"):
            OPERATORS["shadow-split"].coefficients(1, 0)
        with pytest.raises(ValueError):
            OPERATORS["split"].coefficients(1, 0)


class TestGeneralizedSplitting:
    def test_smallest_case_on_k2(self):
        # one copy of an edge plus one splitting set: each new vertex
        # attaches to the opposite endpoint, giving a 4-vertex path
        g = generalized_splitting(complete_graph(2), 1, 1)
        assert g.order == 4
        assert g.edge_count == 3
        expected = from_edges(4, [(0, 1), (0, 3), (1, 2)])
        assert g == expected

    def test_2_2_on_c4_order_and_edges(self):
        g = generalized_splitting(cycle_graph(4), 2, 2)
        assert g.order == 16
        assert g.edge_count == 40

    def test_reduces_to_m_splitting(self):
        for g in [cycle_graph(4), complete_graph(3)]:
            for m in (1, 2, 3):
                assert m_splitting(g, m) == generalized_splitting(g, 1, m)

    def test_matches_kron_of_coefficient_matrix(self):
        g = cycle_graph(5)
        built = generalized_splitting(g, 3, 2)
        kron = np.kron(OPERATORS["split"].coefficients(3, 2), g.adjacency)
        assert np.array_equal(built.adjacency, kron)

    def test_m_splitting_on_k2(self):
        g = m_splitting(complete_graph(2), 1)
        assert g.order == 4
        assert g.edge_count == 3

    def test_m_splitting_on_k1_is_empty(self):
        g = m_splitting(complete_graph(1), 2)
        assert g.order == 3
        assert g.edge_count == 0


class TestShadowSplitting:
    def test_c1_matches_generalized_splitting(self):
        for g in [cycle_graph(4), complete_graph(3), path_graph(4)]:
            for k in (1, 2, 3):
                assert shadow_splitting(g, 1, k) == generalized_splitting(g, 1, k)

    def test_2_2_on_c4_order(self):
        g = shadow_splitting(cycle_graph(4), 2, 2)
        assert g.order == 16

    def test_on_k1_is_empty(self):
        g = shadow_splitting(complete_graph(1), 2, 1)
        assert g.order == 3
        assert g.edge_count == 0


class TestShadow:
    def test_m1_is_identity(self):
        g = cycle_graph(5)
        assert m_shadow(g, 1) == g

    def test_m2_on_k2_is_k22(self):
        g = m_shadow(complete_graph(2), 2)
        assert g.order == 4
        assert g.edge_count == 4
        # doubled edge: every vertex adjacent to both images of its neighbor
        assert sorted(g.adjacency.sum(1)) == [2, 2, 2, 2]

    def test_energy_scales_by_m(self):
        c4 = cycle_graph(4)
        assert abs(energy(m_shadow(c4, 3)) - 12.0) < 1e-8

    def test_matches_definition_route(self):
        # shadow by definition: vertex i in copy a adjacent to neighbor j in
        # every copy b
        for g in random_graphs(5, 7, seed=3):
            for m in (1, 2, 3):
                n = g.order
                expected = np.zeros((m * n, m * n), dtype=np.uint8)
                for a in range(m):
                    for b in range(m):
                        expected[a * n : (a + 1) * n, b * n : (b + 1) * n] = g.adjacency
                assert np.array_equal(m_shadow(g, m).adjacency, expected)


@st.composite
def zero_one_squares(draw):
    """A square 0/1 uint8 matrix of order 1-12: random (rarely symmetric),
    empty or all ones."""
    n = draw(st.integers(min_value=1, max_value=12))
    fill = draw(st.sampled_from(["random", "zeros", "ones"]))
    if fill != "random":
        return np.full((n, n), fill == "ones", dtype=np.uint8)
    bits = draw(st.lists(st.booleans(), min_size=n * n, max_size=n * n))
    return np.array(bits, dtype=np.uint8).reshape(n, n)


ONE = np.ones((1, 1), dtype=np.uint8)
P3 = path_graph(3).adjacency


class TestKroneckerProduct:
    @settings(max_examples=300, deadline=None)
    @given(zero_one_squares(), zero_one_squares())
    @example(ONE, P3)
    @example(ONE, ONE)
    @example(np.zeros((1, 1), dtype=np.uint8), np.triu(np.ones((4, 4), dtype=np.uint8)))
    def test_kron_is_np_kron_byte_for_byte(self, a, b):
        # both size orders, so each factor is scattered over the other
        for x, y in ((a, b), (b, a)):
            out = _kron(x, y)
            assert out.dtype == np.uint8 and out.flags.c_contiguous
            assert out.shape == (x.shape[0] * y.shape[0],) * 2
            assert out.tobytes() == np.kron(x, y).tobytes()

    def test_with_k1_is_empty(self):
        g = cycle_graph(5)
        out = kronecker_product(g, complete_graph(1))
        assert out.order == 5
        assert out.edge_count == 0

    def test_k2_with_k2_is_two_disjoint_edges(self):
        out = kronecker_product(complete_graph(2), complete_graph(2))
        assert out.order == 4
        assert out.edge_count == 2
        assert out == from_edges(4, [(0, 3), (1, 2)])

    def test_energy_multiplicative(self):
        out = kronecker_product(cycle_graph(4), complete_graph(3))
        assert abs(energy(out) - 16.0) < 1e-8

    def test_row_major_pairing(self):
        g, h = path_graph(2), path_graph(3)
        out = kronecker_product(g, h)
        # (u1,v1)~(u2,v2) iff u1~u2 and v1~v2; index = u*3+v
        assert out.adjacency[0 * 3 + 0, 1 * 3 + 1]
        assert not out.adjacency[0 * 3 + 0, 1 * 3 + 2]


class TestNeighborhoodRoute:
    @pytest.mark.parametrize("params", [SplitParams(2, 2), ShadowSplitParams(2, 2)])
    def test_reference_operators_on_c4(self, params):
        g = cycle_graph(4)
        if isinstance(params, SplitParams):
            direct = generalized_splitting(g, params.p, params.q)
        else:
            direct = shadow_splitting(g, params.c, params.k)
        assert construct_by_neighborhood(g, params) == direct

    def test_smallest_split_case(self):
        g = complete_graph(2)
        built = construct_by_neighborhood(g, SplitParams(1, 1))
        assert built == generalized_splitting(g, 1, 1)
        # splitting vertex u_i adjacent exactly to the neighbors of v_i
        assert np.flatnonzero(built.adjacency[2]).tolist() == [1]
        assert np.flatnonzero(built.adjacency[3]).tolist() == [0]

    def test_generator_graphs_small_params(self):
        from graphenergy import complete_bipartite, star_graph

        bases = [
            complete_graph(2), complete_graph(3), complete_graph(8),
            cycle_graph(4), cycle_graph(6), path_graph(4), path_graph(5),
            complete_bipartite(2, 3), star_graph(4),
        ]
        for g in bases:
            for a, b in itertools.product((1, 2, 3), repeat=2):
                assert construct_by_neighborhood(g, SplitParams(a, b)) == \
                    generalized_splitting(g, a, b)
                assert construct_by_neighborhood(g, ShadowSplitParams(a, b)) == \
                    shadow_splitting(g, a, b)

    def test_random_graphs_small_params(self):
        for i, g in enumerate(random_graphs(6, 10, seed=77)):
            a = 1 + i % 3
            b = 1 + (i // 2) % 3
            assert construct_by_neighborhood(g, SplitParams(a, b)) == \
                generalized_splitting(g, a, b)
            assert construct_by_neighborhood(g, ShadowSplitParams(a, b)) == \
                shadow_splitting(g, a, b)

    def test_rejects_unknown_params(self):
        with pytest.raises(TypeError):
            construct_by_neighborhood(cycle_graph(4), (2, 2))


class TestOperatorIncidence:
    """Edge-level checks of the 16-vertex examples built from the 4-cycle.

    Layout: vertices 0-3 first copy, 4-7 second copy, 8-11 and 12-15 the two
    splitting sets; base vertex i has cycle neighbors (i+1)%4 and (i-1)%4.
    """

    def _cycle_neighbors(self, i):
        return {(i + 1) % 4, (i - 1) % 4}

    def test_split_2_2_incidences(self):
        g = generalized_splitting(cycle_graph(4), 2, 2)
        for i in range(4):
            nbrs = self._cycle_neighbors(i)
            # copies keep their own cycle edges and stay mutually disjoint
            assert set(np.flatnonzero(g.adjacency[i, :4]).tolist()) == nbrs
            assert set(np.flatnonzero(g.adjacency[4 + i, 4:8]).tolist()) == nbrs
            assert not g.adjacency[i, 4:8].any()
            # each splitting vertex sees the neighbor images in both copies
            for block in (8, 12):
                expected = {j for j in nbrs} | {4 + j for j in nbrs}
                assert set(np.flatnonzero(g.adjacency[block + i]).tolist()) == expected
        # splitting vertices never touch each other
        assert not g.adjacency[8:, 8:].any()

    def test_shadow_split_2_2_incidences(self):
        g = shadow_splitting(cycle_graph(4), 2, 2)
        for i in range(4):
            nbrs = self._cycle_neighbors(i)
            # copies are mutually shadowed: neighbor images in both copies
            shadowed = nbrs | {4 + j for j in nbrs}
            assert set(np.flatnonzero(g.adjacency[i, :8]).tolist()) == shadowed
            assert set(np.flatnonzero(g.adjacency[4 + i, :8]).tolist()) == shadowed
            for block in (8, 12):
                assert set(np.flatnonzero(g.adjacency[block + i]).tolist()) == shadowed
        assert not g.adjacency[8:, 8:].any()


class TestStructuralLaws:
    def test_edge_count_law(self):
        # sum(kron(M, A)) = sum(M) * sum(A)
        for g in random_graphs(6, 8, seed=19):
            for p, q in [(1, 1), (2, 3), (3, 1)]:
                m = OPERATORS["split"].coefficients(p, q)
                built = generalized_splitting(g, p, q)
                assert 2 * built.edge_count == int(m.sum()) * 2 * g.edge_count
            for c, k in [(1, 2), (2, 2), (3, 1)]:
                m = OPERATORS["shadow-split"].coefficients(c, k)
                built = shadow_splitting(g, c, k)
                assert 2 * built.edge_count == int(m.sum()) * 2 * g.edge_count

    def test_degree_law_from_block_row_sums(self):
        # degree of vertex i in block row L equals rowsum(M, L) * deg(i)
        for g in random_graphs(4, 7, seed=29):
            degrees = g.adjacency.sum(1)
            for p, q in [(2, 2), (1, 3)]:
                m = OPERATORS["split"].coefficients(p, q)
                built = generalized_splitting(g, p, q)
                built_degrees = built.adjacency.sum(1)
                for block in range(p + q):
                    row_sum = int(m[block].sum())
                    for i in range(g.order):
                        assert built_degrees[block * g.order + i] == row_sum * degrees[i]

    def test_m_shadow_equals_shadow_split_without_split_blocks(self):
        for g in random_graphs(4, 6, seed=37):
            for m in (2, 3):
                shadow = m_shadow(g, m)
                full = shadow_splitting(g, m, 1)
                cut = full.adjacency[: m * g.order, : m * g.order]
                assert np.array_equal(shadow.adjacency, cut)


class TestOrderCap:
    @pytest.mark.parametrize("build", [
        lambda g: generalized_splitting(g, 2000, 1),
        lambda g: shadow_splitting(g, 1, 2000),
        lambda g: m_shadow(g, 2000),
        lambda g: m_splitting(g, 2000),
    ], ids=["split", "shadow-split", "shadow", "splitting"])
    def test_over_the_cap_fails_before_the_coefficient_matrix_is_built(self, monkeypatch,
                                                                        build):
        # a 2001 x 2001 uint8 coefficient matrix alone would take 4 MiB
        monkeypatch.setenv(MAX_ORDER_ENV_VAR, "100")
        g = cycle_graph(4)
        tracemalloc.start()
        try:
            with pytest.raises(OrderCapError, match="dense cap"):
                build(g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_construction_respects_cap(self, monkeypatch):
        monkeypatch.setenv(MAX_ORDER_ENV_VAR, "10")
        g = cycle_graph(4)
        with pytest.raises(ValueError, match="dense cap"):
            generalized_splitting(g, 2, 2)
        with pytest.raises(ValueError, match="dense cap"):
            m_shadow(g, 3)
        with pytest.raises(ValueError, match="dense cap"):
            kronecker_product(g, g)
