"""The persistent label cache: hits, misses, corruption recovery.

``LabelCache`` must be invisible to correctness (a warm hit returns the
exact arrays the builder produced; a corrupt artifact is discarded and
rebuilt) and visible to observability (the hit/miss/invalidation
counters, and the *absence* of the ``build.flat`` span on hits -- that
absence is how the CI smoke step proves a warm run skipped
construction).
"""

import pytest

from repro.core.orders import degree_order, random_order
from repro.graphs import Graph, grid_2d, random_sparse_graph
from repro.obs.catalog import (
    BUILD_CACHE_HITS,
    BUILD_CACHE_INVALIDATIONS,
    BUILD_CACHE_MISSES,
    SPAN_DURATION_SECONDS,
)
from repro.obs.registry import Registry, use_registry
from repro.perf.build import build_flat_labels
from repro.perf.cache import LabelCache, cache_key

pytest.importorskip("numpy")


def _graph(n=40, seed=3):
    return random_sparse_graph(n, seed=seed)


def _flats_equal(a, b):
    return (
        list(a._offsets) == list(b._offsets)
        and list(a._hubs) == list(b._hubs)
        and list(a._dists) == list(b._dists)
    )


class TestKey:
    def test_key_is_stable(self):
        graph = _graph()
        order = degree_order(graph)
        assert cache_key(graph, order) == cache_key(graph, order)

    def test_key_depends_on_order(self):
        graph = _graph()
        assert cache_key(graph, degree_order(graph)) != cache_key(
            graph, random_order(graph, seed=1)
        )

    def test_key_depends_on_graph(self):
        g1 = _graph(seed=3)
        g2 = _graph(seed=4)
        assert cache_key(g1, degree_order(g1)) != cache_key(
            g2, degree_order(g2)
        )

    def test_key_depends_on_weights(self):
        g1 = Graph(3)
        g1.add_edge(0, 1)
        g1.add_edge(1, 2)
        g2 = Graph(3)
        g2.add_edge(0, 1, 5)
        g2.add_edge(1, 2)
        order = [0, 1, 2]
        assert cache_key(g1, order) != cache_key(g2, order)

    def test_key_ignores_edge_insertion_order(self):
        graph = _graph()
        edges = list(graph.edges())
        shuffled = Graph(graph.num_vertices)
        for u, v, w in reversed(edges):
            shuffled.add_edge(v, u, w)
        order = degree_order(graph)
        assert cache_key(shuffled, order) == cache_key(graph, order)
        assert cache_key(graph.copy(), order) == cache_key(graph, order)

    @pytest.mark.parametrize("a, b", [(1, 2), (2, 2.5)])
    def test_key_hashes_weights_exactly(self, a, b):
        keys = []
        for weight in (a, b):
            graph = Graph(3)
            graph.add_edge(0, 1, weight)
            graph.add_edge(1, 2, 3)
            keys.append(cache_key(graph, [0, 1, 2]))
        assert keys[0] != keys[1]

    def test_key_of_edgeless_graph(self):
        assert cache_key(Graph(4), [0, 1, 2, 3]) == cache_key(
            Graph(4), [0, 1, 2, 3]
        )
        assert cache_key(Graph(4), [0, 1, 2, 3]) != cache_key(
            Graph(4), [3, 2, 1, 0]
        )
        assert cache_key(Graph(0), []) != cache_key(Graph(1), [0])


class TestRoundTrip:
    def test_cold_build_then_warm_hit(self, tmp_path):
        graph = _graph()
        cache = LabelCache(tmp_path)
        first = cache.load_or_build(graph)
        second = cache.load_or_build(graph)
        assert _flats_equal(first, second)
        reference = build_flat_labels(graph)
        assert _flats_equal(first, reference)

    def test_store_is_atomic_no_leftover_tmp(self, tmp_path):
        graph = _graph()
        cache = LabelCache(tmp_path)
        cache.load_or_build(graph)
        names = [p.name for p in tmp_path.iterdir()]
        assert len(names) == 1
        assert names[0].startswith("labels-") and names[0].endswith(".rhl")

    def test_distinct_orders_get_distinct_entries(self, tmp_path):
        graph = grid_2d(4, 4)
        cache = LabelCache(tmp_path)
        cache.load_or_build(graph, degree_order(graph))
        cache.load_or_build(graph, random_order(graph, seed=2))
        assert len(list(tmp_path.iterdir())) == 2

    def test_load_or_build_hashes_the_graph_once(self, tmp_path, monkeypatch):
        from repro.perf import cache as cache_module

        calls = []

        def counting_key(graph, order):
            calls.append(1)
            return cache_key(graph, order)

        monkeypatch.setattr(cache_module, "cache_key", counting_key)
        cache = LabelCache(tmp_path)
        graph = _graph()
        cache.load_or_build(graph)  # miss: lookup and store
        assert len(calls) == 1
        cache.load_or_build(graph)  # hit
        assert len(calls) == 2

    def test_missing_directory_is_created(self, tmp_path):
        nested = tmp_path / "a" / "b"
        LabelCache(nested).load_or_build(_graph(n=12))
        assert nested.is_dir()


class TestCounters:
    def test_miss_then_hit(self, tmp_path):
        graph = _graph()
        registry = Registry()
        with use_registry(registry):
            cache = LabelCache(tmp_path)
            cache.load_or_build(graph)
            cache.load_or_build(graph)
        assert registry.get(BUILD_CACHE_MISSES).value == 1
        assert registry.get(BUILD_CACHE_HITS).value == 1
        assert registry.get(BUILD_CACHE_INVALIDATIONS).value == 0

    def test_hit_emits_no_build_span(self, tmp_path):
        graph = _graph()
        LabelCache(tmp_path).load_or_build(graph)  # cold, uninstrumented
        registry = Registry()
        with use_registry(registry):
            LabelCache(tmp_path).load_or_build(graph)
        assert registry.get(BUILD_CACHE_HITS).value == 1
        span = registry.get(SPAN_DURATION_SECONDS, span="build.flat")
        assert span is None

    def test_counters_absent_without_registry(self, tmp_path):
        from repro.obs.registry import NullRegistry

        with use_registry(NullRegistry()):
            cache = LabelCache(tmp_path)
            assert cache._hits is None
            cache.load_or_build(_graph(n=10))  # must not raise


class TestCorruptionRecovery:
    def _artifact(self, cache, graph):
        return cache.path_for(cache_key(graph, degree_order(graph)))

    def test_corrupt_artifact_is_rebuilt(self, tmp_path):
        graph = _graph()
        registry = Registry()
        with use_registry(registry):
            cache = LabelCache(tmp_path)
            good = cache.load_or_build(graph)
            artifact = self._artifact(cache, graph)
            blob = bytearray(artifact.read_bytes())
            blob[-3] ^= 0xFF
            artifact.write_bytes(bytes(blob))
            rebuilt = cache.load_or_build(graph)
        assert _flats_equal(good, rebuilt)
        assert registry.get(BUILD_CACHE_INVALIDATIONS).value == 1
        assert registry.get(BUILD_CACHE_MISSES).value == 2
        assert registry.get(BUILD_CACHE_HITS).value == 0
        # The rebuild re-persisted a good artifact: next lookup hits.
        with use_registry(registry):
            cache.load_or_build(graph)
        assert registry.get(BUILD_CACHE_HITS).value == 1

    def test_truncated_artifact_is_rebuilt(self, tmp_path):
        graph = _graph(seed=6)
        cache = LabelCache(tmp_path)
        good = cache.load_or_build(graph)
        artifact = self._artifact(cache, graph)
        artifact.write_bytes(artifact.read_bytes()[:10])
        assert _flats_equal(good, cache.load_or_build(graph))

    def test_wrong_vertex_count_is_invalidated(self, tmp_path):
        small, big = _graph(n=10, seed=1), _graph(n=30, seed=1)
        registry = Registry()
        with use_registry(registry):
            cache = LabelCache(tmp_path)
            cache.load_or_build(small)
            # Plant the small graph's artifact under the big graph's key.
            planted = self._artifact(cache, big)
            planted.write_bytes(
                self._artifact(cache, small).read_bytes()
            )
            flat = cache.load_or_build(big)
        assert flat.num_vertices == big.num_vertices
        assert registry.get(BUILD_CACHE_INVALIDATIONS).value == 1
