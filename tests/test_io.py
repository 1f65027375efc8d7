"""Serialization round trips (JSON, binary, edge lists)."""

import pathlib

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import (
    HubLabeling,
    graph_from_edgelist,
    graph_to_edgelist,
    labeling_from_bytes,
    labeling_from_json,
    labeling_to_bytes,
    labeling_to_json,
    pruned_landmark_labeling,
)
from repro.graphs import (
    Graph,
    random_sparse_graph,
    random_tree,
    random_weighted_graph,
)
from repro.graphs.traversal import INF


def labelings_equal(a: HubLabeling, b: HubLabeling) -> bool:
    if a.num_vertices != b.num_vertices:
        return False
    return all(
        dict(a.hubs(v)) == dict(b.hubs(v)) for v in range(a.num_vertices)
    )


class TestJson:
    def test_round_trip(self):
        g = random_sparse_graph(25, seed=1)
        labeling = pruned_landmark_labeling(g)
        assert labelings_equal(
            labeling, labeling_from_json(labeling_to_json(labeling))
        )

    def test_empty(self):
        assert labelings_equal(
            HubLabeling(0), labeling_from_json(labeling_to_json(HubLabeling(0)))
        )


class TestBinary:
    def test_round_trip(self):
        g = random_sparse_graph(30, seed=2)
        labeling = pruned_landmark_labeling(g)
        blob = labeling_to_bytes(labeling)
        assert labelings_equal(labeling, labeling_from_bytes(blob))

    def test_binary_smaller_than_json(self):
        g = random_sparse_graph(40, seed=3)
        labeling = pruned_landmark_labeling(g)
        assert len(labeling_to_bytes(labeling)) < len(
            labeling_to_json(labeling).encode()
        )

    @given(st.integers(min_value=0, max_value=12), st.integers(0, 10 ** 6))
    @settings(max_examples=25, deadline=None)
    def test_round_trip_random_labelings(self, n, seed):
        import random

        rng = random.Random(seed)
        labeling = HubLabeling(n)
        for v in range(n):
            for _ in range(rng.randrange(4)):
                labeling.add_hub(v, rng.randrange(max(n, 1)), rng.randrange(50))
        blob = labeling_to_bytes(labeling)
        assert labelings_equal(labeling, labeling_from_bytes(blob))


class TestFlatArtifact:
    """The version-2 flat envelope: exact arrays, v1/v2 interop."""

    def _flat(self, n=30, seed=2):
        from repro.perf.flat import FlatHubLabeling

        g = random_sparse_graph(n, seed=seed)
        return FlatHubLabeling.from_labeling(pruned_landmark_labeling(g))

    def test_v2_round_trip_is_exact(self):
        from repro.core.io import (
            flat_labeling_from_bytes,
            flat_labeling_to_bytes,
        )

        flat = self._flat()
        back = flat_labeling_from_bytes(flat_labeling_to_bytes(flat))
        assert list(back._offsets) == list(flat._offsets)
        assert list(back._hubs) == list(flat._hubs)
        assert list(back._dists) == list(flat._dists)

    def test_v2_readable_as_dict_labeling(self):
        from repro.core.io import flat_labeling_to_bytes

        flat = self._flat(seed=5)
        labeling = labeling_from_bytes(flat_labeling_to_bytes(flat))
        for v in range(flat.num_vertices):
            assert dict(labeling.hubs(v)) == dict(flat.hubs(v))

    def test_v1_blob_readable_as_flat(self):
        from repro.core.io import flat_labeling_from_bytes

        g = random_sparse_graph(20, seed=7)
        labeling = pruned_landmark_labeling(g)
        flat = flat_labeling_from_bytes(labeling_to_bytes(labeling))
        for v in range(g.num_vertices):
            assert dict(flat.hubs(v)) == dict(labeling.hubs(v))

    def test_corruption_detected(self):
        from repro.core.io import (
            flat_labeling_from_bytes,
            flat_labeling_to_bytes,
        )
        from repro.runtime.errors import ArtifactCorruptError

        blob = bytearray(flat_labeling_to_bytes(self._flat(seed=9)))
        blob[len(blob) // 2] ^= 0xFF
        with pytest.raises(ArtifactCorruptError):
            flat_labeling_from_bytes(bytes(blob))

    def test_truncation_detected(self):
        from repro.core.io import (
            flat_labeling_from_bytes,
            flat_labeling_to_bytes,
        )
        from repro.runtime.errors import ArtifactCorruptError

        blob = flat_labeling_to_bytes(self._flat(seed=3))
        with pytest.raises(ArtifactCorruptError):
            flat_labeling_from_bytes(blob[: len(blob) - 7])

    def test_empty_labeling_round_trips(self):
        from repro.core.io import (
            flat_labeling_from_bytes,
            flat_labeling_to_bytes,
        )
        from repro.perf.flat import FlatHubLabeling

        flat = FlatHubLabeling.from_labeling(HubLabeling(0))
        back = flat_labeling_from_bytes(flat_labeling_to_bytes(flat))
        assert back.num_vertices == 0
        assert back.total_size() == 0


class TestV2Artifact:
    """A version-2 artifact written by an earlier release (int64 hubs,
    float64 distances) loads one way into the version-5 layout."""

    FIXTURE = pathlib.Path(__file__).parent / "data" / "flat_labels_v2.rhl"

    @staticmethod
    def _reference():
        # The graph the fixture was built from: two trees, so pairs
        # across them are INF.  Its order was the one degree_order gave
        # then: decreasing degree, ties by index.
        graph = Graph(24)
        for offset, size, seed in ((0, 15, 4), (15, 9, 5)):
            for u, v, w in random_tree(size, seed=seed).edges():
                graph.add_edge(offset + u, offset + v, w)
        order = sorted(graph.vertices(), key=lambda v: (-graph.degree(v), v))
        return pruned_landmark_labeling(graph, order)

    def test_loads_answer_identical(self):
        from repro.core.io import flat_labeling_from_bytes

        blob = self.FIXTURE.read_bytes()
        assert blob[4] == 2
        reference = self._reference()
        pairs = [(u, v) for u in range(24) for v in range(24)]
        expected = [(type(d), d) for d in (reference.query(u, v) for u, v in pairs)]
        flat = flat_labeling_from_bytes(blob)
        assert [a.dtype.name for a in flat.arrays()] == ["int64", "uint16", "uint16"]
        assert [(type(d), d) for d in flat.batch_query(pairs)] == expected
        assert [(type(d), d) for d in (flat.query(u, v) for u, v in pairs)] == expected
        thawed = labeling_from_bytes(blob)
        assert [(type(d), d) for d in (thawed.query(u, v) for u, v in pairs)] == expected

    def test_cannot_be_mapped_and_resaves_as_v5(self):
        from repro.core.io import (
            flat_labeling_from_bytes,
            flat_labeling_to_bytes,
            flat_labeling_view,
        )
        from repro.runtime.errors import ArtifactCorruptError

        blob = self.FIXTURE.read_bytes()
        with pytest.raises(ArtifactCorruptError, match="version 2"):
            flat_labeling_view(blob)
        resaved = flat_labeling_to_bytes(flat_labeling_from_bytes(blob))
        assert resaved[4] == 5
        assert len(resaved) < len(blob)
        view = flat_labeling_view(resaved, verify_crc=True, validate=True)
        reference = self._reference()
        for v in range(24):
            assert view.hubs(v) == reference.hubs(v)


class TestV3Artifact:
    """A version-3 artifact written by an earlier release (int32 hubs
    at every ``n``) loads one way, its hubs narrowed into the version-5
    hub tier, and answers exactly as that release did."""

    FIXTURE = pathlib.Path(__file__).parent / "data" / "flat_labels_v3.rhl"
    N = 29

    @classmethod
    def _graph(cls):
        # The graph the fixture was built from: two trees, so pairs
        # across them are INF; 87 entries, so the int32 hubs end on a
        # padding word.
        graph = Graph(cls.N)
        for offset, size, seed in ((0, 17, 7), (17, 12, 8)):
            for u, v, w in random_tree(size, seed=seed).edges():
                graph.add_edge(offset + u, offset + v, w)
        return graph

    def _pairs_and_expected(self):
        reference = pruned_landmark_labeling(self._graph())
        pairs = [(u, v) for u in range(self.N) for v in range(self.N)]
        return pairs, [(type(d), d) for d in (reference.query(u, v) for u, v in pairs)]

    def test_loads_answer_identical(self):
        from repro.core.io import flat_labeling_from_bytes

        blob = self.FIXTURE.read_bytes()
        assert blob[4] == 3
        pairs, expected = self._pairs_and_expected()
        flat = flat_labeling_from_bytes(blob)
        assert [a.dtype.name for a in flat.arrays()] == ["int64", "uint16", "uint16"]
        assert flat.total_size() == 87
        assert [(type(d), d) for d in flat.batch_query(pairs)] == expected
        assert [(type(d), d) for d in (flat.query(u, v) for u, v in pairs)] == expected
        assert flat.query(0, 9) == 7 and flat.query(0, 20) == INF
        thawed = labeling_from_bytes(blob)
        assert [(type(d), d) for d in (thawed.query(u, v) for u, v in pairs)] == expected
        for v in range(self.N):
            assert flat.hubs(v) == thawed.hubs(v)

    def test_cannot_be_mapped_and_resaves_as_v5(self):
        from repro.core.io import (
            flat_labeling_from_bytes,
            flat_labeling_to_bytes,
            flat_labeling_view,
        )
        from repro.runtime.errors import ArtifactCorruptError

        blob = self.FIXTURE.read_bytes()
        with pytest.raises(ArtifactCorruptError, match="version 3"):
            flat_labeling_view(blob)
        flat = flat_labeling_from_bytes(blob)
        resaved = flat_labeling_to_bytes(flat)
        assert resaved[4] == 5
        # 87 two-byte hubs pad to 176 bytes; as int32 they took 352.
        # Version 5 adds 16 prefix bytes (dense width and entry count)
        # and pads the 174 bytes of distances to 176.
        assert len(blob) - len(resaved) == (352 - 176) - 16 - 2
        view = flat_labeling_view(resaved, verify_crc=True, validate=True)
        for v in range(self.N):
            assert view.hubs(v) == flat.hubs(v)


class TestV4Artifact:
    """A version-4 artifact written by the previous release (one CSR
    triple of every entry, hubs in the hub tier) loads one way, split by
    the store's constructor, and answers exactly as that release did."""

    FIXTURE = pathlib.Path(__file__).parent / "data" / "flat_labels_v4.rhl"
    N = 26

    @classmethod
    def _graph(cls):
        # The graph the fixture was built from: K(8, 12), whose twelve
        # vertices each hold all eight hubs, beside a tree, so pairs
        # across them are INF; 157 entries under degree_order.
        graph = Graph(cls.N)
        for u in range(8):
            for v in range(8, 20):
                graph.add_edge(u, v)
        for u, v, w in random_tree(6, seed=3).edges():
            graph.add_edge(20 + u, 20 + v, w)
        return graph

    def _pairs_and_expected(self):
        reference = pruned_landmark_labeling(self._graph())
        pairs = [(u, v) for u in range(self.N) for v in range(self.N)]
        return pairs, [(type(d), d) for d in (reference.query(u, v) for u, v in pairs)]

    @pytest.mark.parametrize("min_dense", [32, 1])
    def test_loads_answer_identical(self, min_dense):
        from repro.core.io import flat_labeling_from_bytes
        from repro.perf import kernels

        blob = self.FIXTURE.read_bytes()
        assert blob[4] == 4
        pairs, expected = self._pairs_and_expected()
        with pytest.MonkeyPatch.context() as mp:
            # A one-column floor lets the load derive a tile of columns.
            mp.setattr(kernels, "_MIN_DENSE", min_dense)
            flat = flat_labeling_from_bytes(blob)
        assert (flat.dense_width > 0) == (min_dense == 1)
        assert [a.dtype.name for a in flat.arrays()] == ["int64", "uint16", "uint16"]
        assert flat.total_size() == 157
        assert [(type(d), d) for d in flat.batch_query(pairs)] == expected
        assert [(type(d), d) for d in (flat.query(u, v) for u, v in pairs)] == expected
        assert flat.query(20, 22) == 3 and flat.query(0, 20) == INF
        thawed = labeling_from_bytes(blob)
        assert [(type(d), d) for d in (thawed.query(u, v) for u, v in pairs)] == expected
        for v in range(self.N):
            assert flat.hubs(v) == thawed.hubs(v)

    def test_cannot_be_mapped_and_resaves_as_v5(self):
        from repro.core.io import (
            flat_labeling_from_bytes,
            flat_labeling_to_bytes,
            flat_labeling_view,
        )
        from repro.runtime.errors import ArtifactCorruptError

        blob = self.FIXTURE.read_bytes()
        with pytest.raises(ArtifactCorruptError, match="version 4"):
            flat_labeling_view(blob)
        flat = flat_labeling_from_bytes(blob)
        resaved = flat_labeling_to_bytes(flat)
        assert resaved[4] == 5
        # With K = 0 version 5 is version 4 plus 16 prefix bytes and
        # the distances' padding (157 two-byte cells pad to 320).
        assert len(resaved) - len(blob) == 16 + 6
        view = flat_labeling_view(resaved, verify_crc=True, validate=True)
        for v in range(self.N):
            assert view.hubs(v) == flat.hubs(v)


class TestEdgeList:
    def test_round_trip(self):
        g = random_weighted_graph(20, 40, seed=4)
        text = graph_to_edgelist(g)
        h = graph_from_edgelist(text)
        assert sorted(g.edges()) == sorted(h.edges())
        assert g.num_vertices == h.num_vertices

    def test_empty(self):
        assert graph_from_edgelist(graph_to_edgelist(Graph())).num_vertices == 0

    def test_isolated_vertices_preserved(self):
        g = Graph(5)
        g.add_edge(0, 1)
        h = graph_from_edgelist(graph_to_edgelist(g))
        assert h.num_vertices == 5

    def test_header_mismatch_detected(self):
        with pytest.raises(ValueError):
            graph_from_edgelist("3 5\n0 1 1\n")
