"""Unit tests for the Graph, GraphBuilder and CSRGraph data structures."""

import pytest

from repro.graphs import (
    CSRGraph,
    Graph,
    GraphBuilder,
    grid_2d,
    random_sparse_graph,
    random_weighted_graph,
)


class TestGraphConstruction:
    def test_empty_graph(self):
        g = Graph()
        assert g.num_vertices == 0
        assert g.num_edges == 0
        assert g.max_degree() == 0
        assert g.degrees() == []
        assert g.average_degree() == 0.0

    def test_add_vertices(self):
        g = Graph(3)
        assert g.num_vertices == 3
        new = g.add_vertex()
        assert new == 3
        rng = g.add_vertices(4)
        assert list(rng) == [4, 5, 6, 7]
        assert g.num_vertices == 8

    def test_add_vertices_negative_rejected(self):
        g = Graph(1)
        with pytest.raises(ValueError):
            g.add_vertices(-1)

    def test_negative_vertex_count_rejected(self):
        with pytest.raises(ValueError):
            Graph(-1)

    def test_add_edge_basic(self):
        g = Graph(4)
        g.add_edge(0, 1)
        g.add_edge(1, 2, 5)
        assert g.num_edges == 2
        assert g.has_edge(0, 1)
        assert g.has_edge(1, 0)
        assert g.edge_weight(1, 2) == 5
        assert g.edge_weight(0, 2) is None

    def test_self_loop_rejected(self):
        g = Graph(2)
        with pytest.raises(ValueError):
            g.add_edge(1, 1)

    def test_negative_weight_rejected(self):
        g = Graph(2)
        with pytest.raises(ValueError):
            g.add_edge(0, 1, -1)

    def test_zero_weight_allowed(self):
        g = Graph(2)
        g.add_edge(0, 1, 0)
        assert g.edge_weight(0, 1) == 0
        assert g.is_weighted

    def test_out_of_range_vertex(self):
        g = Graph(2)
        with pytest.raises(IndexError):
            g.add_edge(0, 5)
        with pytest.raises(IndexError):
            g.degree(-1)

    def test_parallel_edge_keeps_minimum(self):
        g = Graph(2)
        g.add_edge(0, 1, 7)
        g.add_edge(0, 1, 3)
        assert g.num_edges == 1
        assert g.edge_weight(0, 1) == 3
        g.add_edge(0, 1, 9)
        assert g.edge_weight(0, 1) == 3

    def test_is_weighted_tracking(self):
        g = Graph(3)
        g.add_edge(0, 1)
        assert not g.is_weighted
        g.add_edge(1, 2, 4)
        assert g.is_weighted


class TestGraphInspection:
    def test_degrees(self):
        g = Graph(4)
        g.add_edge(0, 1)
        g.add_edge(0, 2)
        g.add_edge(0, 3)
        assert g.degree(0) == 3
        assert g.degree(1) == 1
        assert g.degrees() == [3, 1, 1, 1]
        assert g.max_degree() == 3
        assert g.average_degree() == pytest.approx(1.5)

    def test_neighbors(self):
        g = Graph(3)
        g.add_edge(0, 1, 2)
        g.add_edge(0, 2, 3)
        assert sorted(g.neighbor_ids(0)) == [1, 2]
        assert dict(g.neighbors(0)) == {1: 2, 2: 3}

    def test_edges_iteration_each_once(self):
        g = Graph(4)
        g.add_edge(0, 1)
        g.add_edge(2, 1, 4)
        g.add_edge(3, 0, 2)
        edges = sorted(g.edges())
        assert edges == [(0, 1, 1), (0, 3, 2), (1, 2, 4)]

    def test_total_weight(self):
        g = Graph(3)
        g.add_edge(0, 1, 2)
        g.add_edge(1, 2, 5)
        assert g.total_weight() == 7

    def test_repr_mentions_counts(self):
        g = Graph(3)
        g.add_edge(0, 1)
        assert "n=3" in repr(g)
        assert "m=1" in repr(g)


class TestDerivedGraphs:
    def test_copy_is_independent(self):
        g = Graph(3)
        g.add_edge(0, 1)
        h = g.copy()
        h.add_edge(1, 2)
        assert g.num_edges == 1
        assert h.num_edges == 2

    def test_induced_subgraph(self):
        g = Graph(5)
        g.add_edge(0, 1)
        g.add_edge(1, 2)
        g.add_edge(2, 3)
        g.add_edge(3, 4)
        sub, mapping = g.induced_subgraph([1, 2, 3])
        assert sub.num_vertices == 3
        assert sub.num_edges == 2
        assert sub.has_edge(mapping[1], mapping[2])
        assert sub.has_edge(mapping[2], mapping[3])

    def test_induced_subgraph_preserves_weights(self):
        g = Graph(3)
        g.add_edge(0, 2, 9)
        sub, mapping = g.induced_subgraph([0, 2])
        assert sub.edge_weight(mapping[0], mapping[2]) == 9

    def test_remove_vertices(self):
        g = Graph(4)
        g.add_edge(0, 1)
        g.add_edge(1, 2)
        g.add_edge(2, 3)
        sub, mapping = g.remove_vertices([1])
        assert sub.num_vertices == 3
        assert sub.num_edges == 1
        assert 1 not in mapping
        assert sub.has_edge(mapping[2], mapping[3])


class TestGraphBuilder:
    def test_interning(self):
        b = GraphBuilder()
        i = b.vertex(("a", 1))
        j = b.vertex(("a", 2))
        assert i != j
        assert b.vertex(("a", 1)) == i
        assert b.has_vertex(("a", 2))
        assert not b.has_vertex("missing")

    def test_build_round_trip(self):
        b = GraphBuilder()
        b.add_edge("x", "y", 3)
        b.add_edge("y", "z")
        graph, index, names = b.build()
        assert graph.num_vertices == 3
        assert graph.edge_weight(index["x"], index["y"]) == 3
        assert names[index["z"]] == "z"

    def test_num_vertices_property(self):
        b = GraphBuilder()
        b.add_edge(1, 2)
        b.vertex(3)
        assert b.num_vertices == 3


class TestCSR:
    def test_structure(self):
        g = grid_2d(3, 3)
        csr = CSRGraph(g)
        assert csr.num_vertices == 9
        assert csr.num_edges == g.num_edges
        for v in g.vertices():
            assert sorted(csr.neighbor_ids(v)) == sorted(g.neighbor_ids(v))

    def test_weighted_flag(self):
        g = random_weighted_graph(10, 15, seed=1)
        assert CSRGraph(g).is_weighted

    def test_slices_partition(self):
        g = random_sparse_graph(30, seed=2)
        csr = CSRGraph(g)
        assert csr.offsets[0] == 0
        assert csr.offsets[-1] == len(csr.targets)

    def test_num_edges_is_source_count_not_arc_count(self):
        # The CSR stores two directed arcs per undirected edge; the edge
        # count must come from the source graph, not the arc arrays.
        g = random_weighted_graph(12, 20, seed=6)
        csr = CSRGraph(g)
        assert csr.num_edges == g.num_edges
        assert len(csr.targets) == 2 * g.num_edges

    def test_repr(self):
        g = grid_2d(2, 3)
        assert repr(CSRGraph(g)) == "CSRGraph(n=6, m=7, unweighted)"
        w = random_weighted_graph(5, 6, seed=0)
        assert "weighted" in repr(CSRGraph(w))
        assert f"m={w.num_edges}" in repr(CSRGraph(w))
