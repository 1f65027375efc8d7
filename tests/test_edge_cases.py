"""Cross-cutting edge cases the dedicated modules don't pin down."""

import pytest

from repro.core import (
    HubLabeling,
    SortedHubIndex,
    pruned_landmark_labeling,
)
from repro.graphs import (
    Graph,
    INF,
    diameter,
    is_connected,
    shortest_path_distances,
)
from repro.labeling import (
    BitWriter,
    DistanceRowScheme,
    HubEncodedScheme,
)


class TestSingletonAndEmptyGraphs:
    def test_single_vertex_everything(self):
        g = Graph(1)
        labeling = pruned_landmark_labeling(g)
        assert labeling.query(0, 0) == 0
        assert diameter(g) == 0
        assert is_connected(g)
        scheme = DistanceRowScheme(g)
        assert scheme.query(0, 0) == 0

    def test_empty_graph_labeling(self):
        labeling = pruned_landmark_labeling(Graph(0))
        assert labeling.num_vertices == 0
        assert labeling.total_size() == 0

    def test_two_isolated_vertices(self):
        g = Graph(2)
        labeling = pruned_landmark_labeling(g)
        assert labeling.query(0, 1) == INF
        index = SortedHubIndex(labeling)
        assert index.query(0, 1).distance == INF


class TestLargeValues:
    def test_big_weights_survive_everything(self):
        g = Graph(3)
        g.add_edge(0, 1, 10 ** 9)
        g.add_edge(1, 2, 10 ** 9)
        dist, _ = shortest_path_distances(g, 0)
        assert dist[2] == 2 * 10 ** 9
        labeling = pruned_landmark_labeling(g)
        assert labeling.query(0, 2) == 2 * 10 ** 9
        scheme = HubEncodedScheme(labeling)
        assert scheme.query(0, 2) == 2 * 10 ** 9

    def test_bitwriter_huge_gamma(self):
        w = BitWriter()
        w.write_gamma(2 ** 40 + 7)
        from repro.labeling import BitReader

        assert BitReader(w.getvalue()).read_gamma() == 2 ** 40 + 7


class TestQuerySymmetryAndSelfPairs:
    def test_hub_query_self_without_self_hub(self):
        lab = HubLabeling(2)
        lab.add_hub(0, 1, 3)
        lab.add_hub(1, 1, 0)
        # Self query falls back to 2 * d(0, hub) -- documents that the
        # store does not special-case u == v; constructions add self
        # hubs for that reason.
        assert lab.query(0, 0) == 6

    def test_distance_row_scheme_rejects_giant_widths(self):
        g = Graph(2)
        with pytest.raises(ValueError):
            DistanceRowScheme(g, distance_width=300)


class TestDenseGraphCorner:
    def test_complete_graph_labels_are_prefixes(self):
        from repro.graphs import complete_graph

        g = complete_graph(12)
        labeling = pruned_landmark_labeling(g, list(g.vertices()))
        # On a clique every pair's only shortest path is its edge, so
        # the canonical labeling stores exactly the higher-priority
        # endpoint: S(v) = {0..v} under the identity order -- adjacency
        # is the hard case for 2-hop covers, not distance.
        for v in g.vertices():
            assert labeling.hub_set(v) == list(range(v + 1))
        assert labeling.average_size() == pytest.approx(6.5)

    def test_star_plus_clique_mixed_degrees(self):
        g = Graph(8)
        for u in range(4):
            for v in range(u + 1, 4):
                g.add_edge(u, v)
        for leaf in range(4, 8):
            g.add_edge(0, leaf)
        labeling = pruned_landmark_labeling(g)
        from repro.core import is_valid_cover

        assert is_valid_cover(g, labeling)


class TestRuntimeEdgeCases:
    """Degradation paths on degenerate structures."""

    def test_empty_labeling_round_trips_through_envelope(self):
        from repro.core import labeling_from_bytes, labeling_to_bytes

        blob = labeling_to_bytes(HubLabeling(0))
        assert labeling_from_bytes(blob).num_vertices == 0
        legacy = labeling_to_bytes(HubLabeling(0), envelope=False)
        assert labeling_from_bytes(legacy).num_vertices == 0

    def test_resilient_oracle_on_singleton(self):
        from repro.runtime import ResilientOracle

        g = Graph(1)
        oracle = ResilientOracle(
            g, pruned_landmark_labeling(g), verify_sample=1
        )
        assert oracle.query(0, 0).distance == 0
        assert oracle.health.healthy

    def test_isolated_vertex_queries_stay_inf(self):
        from repro.runtime import ResilientOracle

        g = Graph(3)
        g.add_edge(0, 1)
        oracle = ResilientOracle(
            g, pruned_landmark_labeling(g), verify_sample=3
        )
        assert oracle.query(0, 2).distance == INF
        assert oracle.query(2, 2).distance == 0

    def test_edgelist_comments_and_blank_lines(self):
        from repro.core import graph_from_edgelist

        g = graph_from_edgelist(
            "# weighted triangle\n\n3 3\n0 1 2\n\n1 2 3  # heavy\n0 2 1\n"
        )
        assert g.num_vertices == 3
        assert g.num_edges == 3

    def test_edgelist_weightless_lines_default_to_one(self):
        from repro.core import graph_from_edgelist

        g = graph_from_edgelist("2 1\n0 1\n")
        assert g.edge_weight(0, 1) == 1

    def test_edgelist_errors_name_the_line(self):
        from repro.core import graph_from_edgelist
        from repro.runtime import FormatError

        cases = [
            ("bogus header\n", 1),
            ("2 1\n0 1 1 9\n", 2),          # too many fields
            ("2 1\n\n0 -1 1\n", 3),         # negative id, after blank
            ("2 1\n0 1 x\n", 2),            # non-numeric weight
            ("2 1\n0 5 1\n", 2),            # id out of range
            ("2 1\n0 0 1\n", 2),            # self-loop
            ("2 2\n0 1 1\n", 1),            # count mismatch -> header
        ]
        for text, line in cases:
            with pytest.raises(FormatError) as excinfo:
                graph_from_edgelist(text)
            assert excinfo.value.line == line, text
