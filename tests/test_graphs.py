import numpy as np
import pytest

from graphenergy import (
    Graph,
    adjacency_spectrum,
    complete_bipartite,
    complete_graph,
    cycle_graph,
    disjoint_union,
    empty_graph,
    energy,
    path_graph,
    random_graph,
    star_graph,
)
from graphenergy.graphs import (
    MAX_ORDER_ENV_VAR,
    OrderCapError,
    _upper_edges,
    check_order,
    max_order,
)

from conftest import from_edges, random_graphs


def assert_valid(g: Graph):
    a = g.adjacency
    assert a.shape == (g.order, g.order)
    assert np.array_equal(a, a.T)
    assert not np.diagonal(a).any()
    assert np.isin(a, (0, 1)).all()


class TestGenerators:
    def test_complete_single_vertex(self):
        g = complete_graph(1)
        assert g.order == 1
        assert g.edge_count == 0

    def test_complete_triangle(self):
        g = complete_graph(3)
        assert g.order == 3
        assert g.edge_count == 3

    def test_complete_7_has_21_edges(self):
        assert complete_graph(7).edge_count == 21

    def test_complete_rejects_zero(self):
        with pytest.raises(ValueError):
            complete_graph(0)

    def test_bipartite_single_edge(self):
        g = complete_bipartite(1, 1)
        assert g.order == 2
        assert g.edge_count == 1

    def test_bipartite_4_4(self):
        assert complete_bipartite(4, 4).edge_count == 16

    def test_bipartite_degree_sequence(self):
        degs = sorted(complete_bipartite(2, 3).adjacency.sum(1), reverse=True)
        assert degs == [3, 3, 2, 2, 2]

    def test_bipartite_rejects_zero_part(self):
        with pytest.raises(ValueError):
            complete_bipartite(0, 3)
        with pytest.raises(ValueError):
            complete_bipartite(3, 0)

    def test_cycle_3_is_triangle(self):
        assert cycle_graph(3) == complete_graph(3)

    def test_cycle_4(self):
        g = cycle_graph(4)
        assert g.edge_count == 4
        assert all(d == 2 for d in g.adjacency.sum(1))

    def test_cycle_5_spectrum_has_simple_two(self):
        values = adjacency_spectrum(cycle_graph(5)).values
        assert sum(abs(v - 2.0) < 1e-9 for v in values) == 1

    def test_cycle_rejects_small(self):
        with pytest.raises(ValueError):
            cycle_graph(2)

    def test_path_graph(self):
        g = path_graph(4)
        assert g.edge_count == 3
        assert sorted(g.adjacency.sum(1)) == [1, 1, 2, 2]

    def test_star_graph(self):
        g = star_graph(4)
        assert g == complete_bipartite(1, 4)
        assert sorted(g.adjacency.sum(1), reverse=True) == [4, 1, 1, 1, 1]

    @pytest.mark.parametrize("n,p", [(1, 0.5), (6, 0.0), (6, 1.0), (12, 0.3)])
    def test_random_graph_valid(self, n, p):
        g = random_graph(n, p, seed=7)
        assert_valid(g)
        if p == 0.0:
            assert g.edge_count == 0
        if p == 1.0:
            assert g.edge_count == n * (n - 1) // 2

    def test_random_graph_reproducible(self):
        assert random_graph(10, 0.5, seed=3) == random_graph(10, 0.5, seed=3)

    @pytest.mark.parametrize("make,message", [
        (lambda: empty_graph(0), "order must be >= 1"),
        (lambda: path_graph(0), "path graph needs n >= 1"),
        (lambda: random_graph(0), "order must be >= 1"),
        (lambda: random_graph(3, 1.5), r"edge_probability must be in \[0, 1\]"),
    ], ids=["empty", "path", "random-order", "random-probability"])
    def test_generators_reject_bad_arguments(self, make, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            make()

    def test_generators_all_valid(self):
        for g in [complete_graph(5), complete_bipartite(3, 4), cycle_graph(6),
                  path_graph(5), star_graph(3), empty_graph(4)]:
            assert_valid(g)


class TestGraphValidation:
    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError, match="symmetric"):
            Graph([[0, 1], [0, 0]])

    def test_rejects_diagonal(self):
        with pytest.raises(ValueError, match="diagonal"):
            Graph([[1, 0], [0, 0]])

    def test_rejects_nonbinary(self):
        with pytest.raises(ValueError, match="0 or 1"):
            Graph([[0, 2], [2, 0]])

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            Graph(np.zeros((0, 0)))

    def test_adjacency_is_readonly(self):
        g = complete_graph(3)
        with pytest.raises(ValueError):
            g.adjacency[0, 1] = 0

    def test_instances_immutable(self):
        g = complete_graph(3)
        with pytest.raises(AttributeError):
            g.adjacency = np.zeros((2, 2))

    def test_from_edges(self):
        g = from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
        assert g == cycle_graph(4)

    def test_from_edges_rejects_loop(self):
        with pytest.raises(ValueError):
            from_edges(3, [(1, 1)])

    def test_dense_cap_env_override(self, monkeypatch):
        monkeypatch.setenv(MAX_ORDER_ENV_VAR, "50")
        assert max_order() == 50
        with pytest.raises(OrderCapError, match="dense cap"):
            check_order(51)
        assert issubclass(OrderCapError, ValueError)
        with pytest.raises(ValueError):
            empty_graph(51)

    def test_dense_cap_env_rejects_junk(self, monkeypatch):
        monkeypatch.setenv(MAX_ORDER_ENV_VAR, "many")
        with pytest.raises(ValueError):
            max_order()

    @pytest.mark.parametrize("n,p", [(1, 0.5), (7, 0.0), (30, 0.3), (41, 1.0)])
    def test_edges_and_edge_count_walk_the_upper_triangle_by_rows(self, n, p):
        g = random_graph(n, p, seed=n)
        a = g.adjacency.tolist()
        want = [(u, v) for u in range(n) for v in range(u + 1, n) if a[u][v]]
        rows, cols = _upper_edges(g.adjacency)
        assert list(zip(rows.tolist(), cols.tolist())) == want
        assert g.edge_count == len(want) and type(g.edge_count) is int

    def test_equality_with_a_non_graph_is_not_implemented(self):
        g = cycle_graph(4)
        assert g.__eq__(1) is NotImplemented
        assert g != 1


class TestDisjointUnion:
    def test_identity_on_singleton(self):
        g = complete_graph(1)
        assert disjoint_union([g]) == g

    def test_rejects_empty_list(self):
        with pytest.raises(ValueError):
            disjoint_union([])

    def test_k7_k8_union(self):
        g = disjoint_union([complete_graph(7), complete_graph(8)])
        assert g.order == 15
        assert abs(energy(g) - 26.0) < 1e-8

    def test_two_c4(self):
        g = disjoint_union([cycle_graph(4), cycle_graph(4)])
        assert g.order == 8
        assert abs(energy(g) - 8.0) < 1e-8

    def test_order_additivity(self):
        parts = random_graphs(5, 8, seed=11)
        assert disjoint_union(parts).order == sum(p.order for p in parts)

    def test_spectrum_is_multiset_union(self):
        parts = random_graphs(4, 7, seed=13)
        g = disjoint_union(parts)
        merged = np.sort(np.concatenate([adjacency_spectrum(p).values for p in parts]))[::-1]
        assert np.max(np.abs(adjacency_spectrum(g).values - merged)) < 1e-10
