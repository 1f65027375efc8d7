"""The fast direct-to-flat builder: byte-identity with reference PLL.

``build_flat_labels`` must emit exactly the canonical hierarchical
labeling that ``FlatHubLabeling.from_labeling(pruned_landmark_labeling(
graph, order))`` produces -- same offsets, same hub ids, same distances,
for every graph, every order, and every batch width.  The committed
differential corpus replays that contract on pinned cases; smaller
directed checks cover the fallback path (weighted graphs), disconnected
inputs, shuffled orders, degenerate sizes, and the observability
surface (span + metrics).
"""

import json
import pathlib

import pytest

from repro.core import pruned_landmark_labeling
from repro.core.orders import degree_order, random_order
from repro.graphs import (
    Graph,
    barabasi_albert,
    grid_2d,
    path_graph,
    random_sparse_graph,
    random_tree,
)
from repro.lowerbound.degree3 import build_degree3_instance
from repro.obs.catalog import (
    BUILD_BITPARALLEL_PASSES,
    BUILD_DURATION_SECONDS,
    BUILD_LABELS_PER_SECOND,
    SPAN_DURATION_SECONDS,
)
from repro.obs.registry import Registry, use_registry
from repro.perf import build as build_module
from repro.perf.build import (
    BUILDER_VERSION,
    bitparallel_available,
    build_flat_labels,
)
from repro.perf.flat import FlatHubLabeling

CORPUS_PATH = (
    pathlib.Path(__file__).parent / "data" / "differential_corpus.json"
)

numpy = pytest.importorskip("numpy")


def _corpus_graphs():
    corpus = json.loads(CORPUS_PATH.read_text())
    for case in corpus["cases"]:
        graph = Graph(case["n"])
        for u, v, w in case["edges"]:
            graph.add_edge(u, v, w)
        yield case["name"], graph


def assert_identical(graph, order=None):
    """Direct build == reference build, byte for byte."""
    direct = build_flat_labels(graph, order)
    reference = FlatHubLabeling.from_labeling(
        pruned_landmark_labeling(graph, order)
    )
    assert direct.num_vertices == reference.num_vertices
    assert list(direct._offsets) == list(reference._offsets)
    assert list(direct._hubs) == list(reference._hubs)
    assert list(direct._dists) == list(reference._dists)
    return direct


class TestCorpusIdentity:
    def test_every_corpus_case_default_order(self):
        for name, graph in _corpus_graphs():
            assert_identical(graph)

    def test_every_corpus_case_shuffled_order(self):
        for name, graph in _corpus_graphs():
            assert_identical(graph, random_order(graph, seed=11))


class TestBatchWidths:
    """Identity must hold at any batch width, not just the default."""

    @pytest.mark.parametrize("width", [1, 4, 64])
    def test_narrow_batches(self, width, monkeypatch):
        monkeypatch.setattr(build_module, "_BATCH", width)
        assert_identical(random_sparse_graph(60, seed=5))
        assert_identical(grid_2d(5, 5))

    @pytest.mark.parametrize("width", [1, 3, 64])
    def test_runs_outgrow_their_capacity_mid_build(self, width, monkeypatch):
        """Appends past a run's capacity re-lay the store out; answers hold."""
        monkeypatch.setattr(build_module, "_BATCH", width)
        moved = []
        relayout = build_module._relayout

        def spy(store_hub, store_dist, lab_off, lab_len, total, cap):
            moved.append(total)
            return relayout(store_hub, store_dist, lab_off, lab_len, total, cap)

        monkeypatch.setattr(build_module, "_relayout", spy)
        for graph in (
            build_degree3_instance(2, 1).graph,
            path_graph(200),
            barabasi_albert(600, 2, seed=0),
        ):
            moved.clear()
            assert_identical(graph)
            # The last call is the final compaction; an earlier call
            # with entries already stored is a re-layout mid-build.
            assert any(0 < total < moved[-1] for total in moved[:-1])

    def test_batch_smaller_than_graph_and_larger(self, monkeypatch):
        graph = random_tree(40, seed=2)
        monkeypatch.setattr(build_module, "_BATCH", 7)
        assert_identical(graph)
        monkeypatch.setattr(build_module, "_BATCH", 4096)
        assert_identical(graph)


class TestEdgeCases:
    def test_empty_and_tiny_graphs(self):
        for n in (0, 1, 2, 3):
            assert_identical(Graph(n))

    def test_single_edge(self):
        graph = Graph(2)
        graph.add_edge(0, 1)
        assert_identical(graph)

    def test_disconnected_components(self):
        graph = Graph(9)
        for u, v in [(0, 1), (1, 2), (3, 4), (5, 6), (6, 7)]:
            graph.add_edge(u, v)
        flat = assert_identical(graph)
        assert flat.query(0, 2) == 2
        assert flat.query(0, 3) == float("inf")
        assert flat.query(8, 0) == float("inf")

    def test_non_permutation_order_rejected(self):
        graph = random_tree(6, seed=0)
        with pytest.raises(ValueError):
            build_flat_labels(graph, [0, 1, 2, 3, 4, 4])
        with pytest.raises(ValueError):
            build_flat_labels(graph, [0, 1, 2])


class TestFallback:
    def test_weighted_graph_uses_fallback_and_matches(self):
        graph = Graph(8)
        edges = [(0, 1, 2), (1, 2, 3), (2, 3, 1), (3, 4, 5), (4, 5, 1),
                 (5, 6, 2), (6, 7, 4), (0, 7, 9)]
        for u, v, w in edges:
            graph.add_edge(u, v, w)
        assert graph.is_weighted
        assert not bitparallel_available(graph)
        assert_identical(graph)

    def test_fallback_reports_builder_label(self):
        graph = Graph(4)
        graph.add_edge(0, 1, 3)
        graph.add_edge(1, 2, 2)
        registry = Registry()
        with use_registry(registry):
            build_flat_labels(graph)
        gauge = registry.get(BUILD_DURATION_SECONDS, builder="fallback")
        assert gauge is not None and gauge.value > 0
        passes = registry.get(BUILD_BITPARALLEL_PASSES)
        assert passes is not None and passes.value == 0


class TestObservability:
    def test_build_emits_span_passes_and_rate(self):
        graph = random_sparse_graph(50, seed=9)
        registry = Registry()
        with use_registry(registry):
            flat = build_flat_labels(graph)
        hist = registry.get(SPAN_DURATION_SECONDS, span="build.flat")
        assert hist is not None and hist.count == 1
        gauge = registry.get(BUILD_DURATION_SECONDS, builder="bitparallel")
        assert gauge is not None and gauge.value > 0
        passes = registry.get(BUILD_BITPARALLEL_PASSES)
        assert passes is not None and passes.value >= 1
        rate = registry.get(
            BUILD_LABELS_PER_SECOND, builder="flat-bitparallel"
        )
        assert rate is not None and rate.value > 0
        assert flat.total_size() > 0

    def test_builder_version_is_pinned(self):
        # The cache key embeds this; bumping it must be a conscious act.
        assert isinstance(BUILDER_VERSION, int)
        assert BUILDER_VERSION >= 1


class TestOracleFromGraph:
    def test_from_graph_flat_backend(self):
        graph = grid_2d(4, 4)
        from repro.oracles.oracle import HubLabelOracle

        oracle = HubLabelOracle.from_graph(graph)
        assert oracle.query(0, 15).distance == 6

    def test_from_graph_dict_backend(self):
        graph = random_tree(20, seed=4)
        from repro.oracles.oracle import HubLabelOracle

        oracle = HubLabelOracle.from_graph(graph, backend="dict")
        reference = pruned_landmark_labeling(graph)
        for u, v in [(0, 1), (3, 17), (5, 5), (19, 2)]:
            assert oracle.query(u, v).distance == reference.query(u, v)
