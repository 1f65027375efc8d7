"""Vertex orderings for hierarchical labelings."""

from repro.core import (
    coverage_order,
    degree_order,
    eccentricity_order,
    random_order,
)
from repro.core.pll import pruned_landmark_labeling
from repro.graphs import (
    Graph,
    barabasi_albert,
    grid_2d,
    path_graph,
    random_sparse_graph,
    star_graph,
)
from repro.lowerbound.degree3 import build_degree3_instance
from repro.perf.build import build_flat_labels


def is_permutation(order, n):
    return sorted(order) == list(range(n))


def _order_graphs():
    return [
        Graph(0),
        Graph(3),
        path_graph(9),
        star_graph(6),
        grid_2d(5, 7),
        random_sparse_graph(60, seed=3),
        barabasi_albert(200, 2, seed=0),
    ]


class TestOrders:
    def test_degree_order_star(self):
        order = degree_order(star_graph(6))
        assert order[0] == 0
        assert is_permutation(order, 6)

    def test_degree_order_is_a_degree_sorted_permutation(self):
        for g in _order_graphs():
            order = degree_order(g)
            assert is_permutation(order, g.num_vertices)
            assert all(type(v) is int for v in order)
            degrees = [g.degree(v) for v in order]
            assert degrees == sorted(degrees, reverse=True)

    def test_degree_order_is_fixed_across_calls_and_copies(self):
        for g in _order_graphs():
            order = degree_order(g)
            assert degree_order(g) == order
            assert degree_order(g.copy()) == order

    def test_default_order_halves_index_tie_labels(self):
        # Regression guard for the random tie-break: index ties root a
        # path's vertices end to end, which stores 124,752 entries on
        # path_graph(500) and 58,004 on G(2, 1).
        assert pruned_landmark_labeling(path_graph(500)).total_size() <= 124_752 // 2
        g21 = build_degree3_instance(2, 1).graph
        assert build_flat_labels(g21).total_size() <= 58_004 // 2

    def test_random_order_deterministic_per_seed(self, small_grid):
        a = random_order(small_grid, seed=5)
        b = random_order(small_grid, seed=5)
        c = random_order(small_grid, seed=6)
        assert a == b
        assert a != c
        assert is_permutation(a, small_grid.num_vertices)

    def test_eccentricity_order_path_center_first(self):
        order = eccentricity_order(path_graph(7))
        assert order[0] == 3
        assert set(order[1:3]) == {2, 4}
        assert is_permutation(order, 7)

    def test_coverage_order_star_center_first(self):
        order = coverage_order(star_graph(8))
        assert order[0] == 0
        assert is_permutation(order, 8)

    def test_coverage_order_path_picks_central(self):
        order = coverage_order(path_graph(9))
        assert order[0] == 4  # the midpoint covers the most pairs
        assert is_permutation(order, 9)

    def test_coverage_order_rounds_cap(self):
        g = grid_2d(3, 3)
        order = coverage_order(g, rounds=2)
        assert is_permutation(order, 9)

    def test_coverage_order_disconnected(self):
        from repro.graphs import Graph

        g = Graph(4)
        g.add_edge(0, 1)
        order = coverage_order(g)
        assert is_permutation(order, 4)
