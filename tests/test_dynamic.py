"""Dynamic graphs: incremental PLL repair, hot-swap serving, churn.

The contract under test is absolute: after any sequence of edge
inserts and deletes, :class:`~repro.dynamic.DynamicHubLabeling` must
answer every pair identically -- value AND type, ``inf`` included --
to a from-scratch rebuild on the same pinned vertex order, and a
serving fleet hot-swapped through ``set_oracle`` must never return a
stale answer.  Three independent harnesses enforce it:

* the committed mutation corpus (``tests/data/mutation_corpus.json``)
  replays 40 seed-pinned scripts per zoo family against pinned
  post-mutation distances;
* hypothesis properties drive random edit sequences, weighted and
  unweighted, kept-connected and disconnecting;
* live hot-swap tests mutate under concurrent load through both the
  in-process and the multi-process sharded door.
"""

import json
import math
import mmap
import pathlib
import sys
import threading

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.core import pruned_landmark_labeling
from repro.core.orders import degree_order
from repro.dynamic import (
    DynamicHubLabeling,
    MutationScript,
    RepairReport,
    apply_script,
    mutation_script,
)
from repro.graphs import Graph, random_sparse_graph
from repro.graphs.generators import random_weighted_graph
from repro.graphs.traversal import INF, shortest_path_distances
from repro.obs.catalog import (
    DYNAMIC_INSERTS,
    DYNAMIC_REBUILDS,
    DYNAMIC_REPAIR_LATENCY_SECONDS,
    DYNAMIC_STAGE_SECONDS,
    SERVE_GENERATION,
)
from repro.obs.registry import get_registry
from repro.oracles.oracle import HubLabelOracle
from repro.perf.build import build_flat_labels
from repro.perf.cache import LabelCache
from repro.perf import kernels
from repro.perf.flat import FlatHubLabeling
from repro.serve import QueryServer, run_loadgen

CORPUS_PATH = pathlib.Path(__file__).parent / "data" / "mutation_corpus.json"


def _assert_answer_identical(dyn, tag=""):
    """All-pairs value+type identity against a from-scratch rebuild,
    and value equality with BFS/Dijkstra ground truth.

    A weighted rebuild runs the same pruned sweep as repair, so the
    traversal grades both independently of it.
    """
    rebuilt = build_flat_labels(dyn.graph, dyn.order)
    n = dyn.graph.num_vertices
    for u in range(n):
        truth, _ = shortest_path_distances(dyn.graph, u)
        for v in range(n):
            got = dyn.query(u, v)
            want = rebuilt.query(u, v)
            assert got == want and type(got) is type(want), (
                f"{tag} dist({u},{v}) = {got!r}, rebuild says {want!r}"
            )
            assert got == truth[v], (
                f"{tag} dist({u},{v}) = {got!r}, traversal says {truth[v]!r}"
            )


class TestRemoveEdge:
    def test_round_trip(self):
        g = Graph(4)
        g.add_edge(0, 1, 5)
        g.add_edge(1, 2)
        assert g.remove_edge(0, 1) == 5
        assert not g.has_edge(0, 1)
        assert g.num_edges == 1
        g.add_edge(0, 1, 5)
        assert g.has_edge(0, 1)

    def test_missing_edge_raises(self):
        g = Graph(3)
        g.add_edge(0, 1)
        with pytest.raises(KeyError):
            g.remove_edge(0, 2)

    def test_endpoint_order_irrelevant(self):
        g = Graph(3)
        g.add_edge(1, 2, 7)
        assert g.remove_edge(2, 1) == 7
        assert g.num_edges == 0


class TestConstruction:
    def test_bad_budgets_rejected(self):
        g = random_sparse_graph(8, seed=0)
        with pytest.raises(ValueError):
            DynamicHubLabeling(g, rebuild_fraction=0.0)
        with pytest.raises(ValueError):
            DynamicHubLabeling(g, rebuild_fraction=1.5)
        with pytest.raises(ValueError):
            DynamicHubLabeling(g, staleness_budget=0.0)

    def test_bad_order_rejected(self):
        g = random_sparse_graph(8, seed=0)
        with pytest.raises(ValueError):
            DynamicHubLabeling(g, order=[0, 1, 2])
        with pytest.raises(ValueError):
            DynamicHubLabeling(g, order=[0] * 8)

    def test_initial_labeling_matches_static(self):
        g = random_sparse_graph(20, seed=1)
        dyn = DynamicHubLabeling(g)
        _assert_answer_identical(dyn, "fresh")
        assert dyn.mutations == 0
        assert dyn.staleness == 0.0

    def test_order_property_is_a_copy(self):
        g = random_sparse_graph(8, seed=0)
        dyn = DynamicHubLabeling(g)
        dyn.order.reverse()
        assert dyn.order == degree_order(g)


class TestMutationErrors:
    def test_duplicate_insert_raises(self):
        g = Graph(3)
        g.add_edge(0, 1)
        dyn = DynamicHubLabeling(g)
        with pytest.raises(ValueError):
            dyn.insert_edge(1, 0)

    def test_missing_delete_raises(self):
        g = Graph(3)
        g.add_edge(0, 1)
        dyn = DynamicHubLabeling(g)
        with pytest.raises(KeyError):
            dyn.delete_edge(0, 2)

    def test_unknown_op_rejected(self):
        g = Graph(3)
        g.add_edge(0, 1)
        dyn = DynamicHubLabeling(g)
        with pytest.raises(ValueError):
            dyn.apply(MutationScript(ops=(("frobnicate", 0, 1, 1),)))


class TestRepairReports:
    def test_insert_and_delete_reports(self):
        g = random_sparse_graph(16, seed=2)
        dyn = DynamicHubLabeling(g)
        u, v = next(
            (a, b)
            for a in range(16)
            for b in range(a + 1, 16)
            if not g.has_edge(a, b)
        )
        rep = dyn.insert_edge(u, v)
        assert isinstance(rep, RepairReport)
        assert (rep.op, rep.u, rep.v, rep.weight) == ("insert", u, v, 1)
        assert "insert" in rep.render()
        rep = dyn.delete_edge(u, v)
        assert rep.op == "delete"
        assert rep.seconds >= 0
        assert dyn.mutations == 2

    def test_repair_metrics_emitted(self):
        g = random_sparse_graph(12, seed=3)
        dyn = DynamicHubLabeling(g)
        u, v = next(
            (a, b)
            for a in range(12)
            for b in range(a + 1, 12)
            if not g.has_edge(a, b)
        )
        dyn.insert_edge(u, v)
        registry = get_registry()
        assert registry.get(DYNAMIC_INSERTS).value == 1
        # Pre-created at zero even though no rebuild happened.
        assert registry.get(DYNAMIC_REBUILDS).value == 0


class TestStageMetrics:
    """dynamic.stage_seconds: one observation per stage per edit."""

    @staticmethod
    def _observed(registry):
        stages = {}
        for stage in ("detect", "invalidate", "resweep", "splice", "rebuild"):
            hist = registry.get(DYNAMIC_STAGE_SECONDS, stage=stage)
            if hist is not None:
                stages[stage] = (hist.count, hist.sum)
        return stages

    def test_incremental_repair_stages(self, metrics_registry):
        # An insert resumes its endpoint hubs' sweeps: nothing to
        # invalidate.
        g = random_sparse_graph(16, seed=2)
        dyn = DynamicHubLabeling(g, rebuild_fraction=1.0)
        u, v = next(
            (a, b)
            for a in range(16)
            for b in range(a + 1, 16)
            if not g.has_edge(a, b)
        )
        assert not dyn.insert_edge(u, v).rebuilt
        self._assert_stages(
            metrics_registry, {"detect", "resweep", "splice"}
        )

    def test_delete_repair_stages(self, metrics_registry):
        g = random_sparse_graph(16, seed=2)
        dyn = DynamicHubLabeling(g, rebuild_fraction=1.0)
        u, v, _ = next(iter(g.edges()))
        assert not dyn.delete_edge(u, v).rebuilt
        self._assert_stages(
            metrics_registry, {"detect", "invalidate", "resweep", "splice"}
        )

    def _assert_stages(self, registry, expected):
        stages = self._observed(registry)
        assert set(stages) == expected
        assert all(count == 1 for count, _ in stages.values())
        latency = registry.get(DYNAMIC_REPAIR_LATENCY_SECONDS)
        assert sum(total for _, total in stages.values()) <= latency.sum

    def test_forced_rebuild_stages(self, metrics_registry):
        g = random_sparse_graph(16, seed=4)
        dyn = DynamicHubLabeling(g, rebuild_fraction=0.01)
        u, v = next(
            (a, b)
            for a in range(16)
            for b in range(a + 1, 16)
            if not g.has_edge(a, b)
        )
        assert dyn.insert_edge(u, v).rebuilt
        self._assert_stages(metrics_registry, {"detect", "rebuild"})


class TestFlatStore:
    """The labeling is one immutable flat store, replaced per edit."""

    def test_flat_is_the_labeling(self):
        g = random_sparse_graph(16, seed=20)
        dyn = DynamicHubLabeling(g)
        assert isinstance(dyn.labeling, FlatHubLabeling)
        assert dyn.flat() is dyn.labeling
        dyn.apply(mutation_script(g, 3, seed=20))
        assert dyn.flat() is dyn.labeling

    def test_handed_out_store_survives_edits(self):
        # Hot swap relies on this: a store a server is still serving
        # never changes under it.
        g = random_sparse_graph(20, seed=21)
        dyn = DynamicHubLabeling(
            g, rebuild_fraction=1.0, staleness_budget=float("inf")
        )
        n = g.num_vertices
        pairs = [(a, b) for a in range(n) for b in range(n)]
        old = dyn.flat()
        before = [old.query(a, b) for a, b in pairs]
        reports = dyn.apply(mutation_script(g, 4, seed=21))
        assert not any(rep.rebuilt for rep in reports)
        assert dyn.flat() is not old
        after = [old.query(a, b) for a, b in pairs]
        assert [(x, type(x)) for x in after] == [(x, type(x)) for x in before]
        _assert_answer_identical(dyn, "after-snapshot")

    def test_repair_without_the_kernel(self):
        # Distances of 20000 and more take the uint32 dist tier, so
        # detection, invalidation and the splice run on it.
        g = random_weighted_graph(10, 16, seed=22)
        heavy = Graph(g.num_vertices)
        for a, b, w in g.edges():
            heavy.add_edge(a, b, 20000 + w)
        dyn = DynamicHubLabeling(
            heavy, rebuild_fraction=1.0, staleness_budget=float("inf")
        )
        script = mutation_script(heavy, 6, seed=22, keep_connected=False)
        for index, op in enumerate(script):
            assert dyn.flat().arrays()[2].dtype.name == "uint32"
            rep = dyn.apply(MutationScript(ops=(op,)))[0]
            assert not rep.rebuilt
            _assert_answer_identical(dyn, f"op {index} {op}")

    @staticmethod
    def _repair_counts(weighted, insert_fraction):
        g = (
            random_weighted_graph(30, 60, seed=32)
            if weighted
            else random_sparse_graph(40, seed=31)
        )
        dyn = DynamicHubLabeling(
            g, rebuild_fraction=1.0, staleness_budget=float("inf")
        )
        script = mutation_script(
            g, 6, seed=31, keep_connected=False,
            insert_fraction=insert_fraction,
        )
        counts = [
            (rep.affected_roots, rep.labels_removed, rep.labels_added)
            for rep in dyn.apply(script)
        ]
        return counts, dyn.labeling.total_size()

    @pytest.mark.parametrize(
        "weighted, pinned, total",
        [
            (
                False,
                [(5, 4, 4), (4, 7, 12), (36, 225, 216),
                 (6, 4, 12), (8, 3, 4), (36, 230, 227)],
                233,
            ),
            (
                True,
                [(13, 0, 2), (8, 4, 4), (5, 33, 32),
                 (8, 44, 41), (5, 14, 13), (9, 5, 8)],
                184,
            ),
        ],
    )
    def test_repair_counts_are_pinned(self, weighted, pinned, total):
        # Per edit: roots swept, entries removed (an overwrite counts)
        # and entries written.  An insert resumes its endpoint hubs'
        # sweeps; a delete re-sweeps its affected roots.
        assert self._repair_counts(weighted, 0.5) == (pinned, total)

    @pytest.mark.parametrize(
        "weighted, pinned, total",
        [
            (
                False,
                [(36, 223, 224), (35, 215, 225), (30, 173, 171),
                 (37, 233, 230), (35, 193, 195), (40, 239, 235)],
                235,
            ),
            (
                True,
                [(22, 153, 150), (0, 0, 0), (27, 174, 169),
                 (29, 174, 180), (11, 73, 71), (30, 180, 171)],
                171,
            ),
        ],
    )
    def test_delete_repair_counts_are_pinned(self, weighted, pinned, total):
        # Delete-only scripts take the invalidate + re-sweep path, so
        # they keep the counts of the repair that re-swept inserts too:
        # the same detection and the same pruning (against surviving
        # entries plus this repair's additions) as a static PLL sweep.
        assert self._repair_counts(weighted, 0.0) == (pinned, total)

    def test_stub_cache_serves_rebuilds(self):
        class LoadOrBuildOnly:
            def __init__(self):
                self.calls = 0

            def load_or_build(self, graph, order=None):
                self.calls += 1
                return build_flat_labels(graph, order)

        g = random_sparse_graph(14, seed=23)
        cache = LoadOrBuildOnly()
        dyn = DynamicHubLabeling(g, cache=cache, rebuild_fraction=0.01)
        u, v = next(
            (a, b)
            for a in range(14)
            for b in range(a + 1, 14)
            if not g.has_edge(a, b)
        )
        assert dyn.insert_edge(u, v).rebuilt
        assert cache.calls == 2  # the initial build and the rebuild
        _assert_answer_identical(dyn, "stub-cache")


class TestBudgetFallback:
    def test_tiny_fraction_forces_rebuild(self):
        g = random_sparse_graph(16, seed=4)
        dyn = DynamicHubLabeling(g, rebuild_fraction=0.01)
        u, v = next(
            (a, b)
            for a in range(16)
            for b in range(a + 1, 16)
            if not g.has_edge(a, b)
        )
        rep = dyn.insert_edge(u, v)
        assert rep.rebuilt
        assert dyn.staleness == 0.0  # rebuild resets the accumulator
        assert get_registry().get(DYNAMIC_REBUILDS).value == 1
        _assert_answer_identical(dyn, "post-rebuild")

    def test_staleness_accumulates_until_budget(self):
        g = random_sparse_graph(16, seed=5)
        dyn = DynamicHubLabeling(
            g, rebuild_fraction=1.0, staleness_budget=0.75
        )
        script = mutation_script(g, 12, seed=5)
        rebuilds = sum(1 for rep in dyn.apply(script) if rep.rebuilt)
        # Every repair adds its affected fraction; a budget under 1.0
        # must eventually trip (each trip resets the accumulator).
        assert rebuilds >= 1
        assert dyn.staleness < 0.75
        _assert_answer_identical(dyn, "post-budget")

    def test_rebuild_served_through_cache(self, tmp_path):
        g = random_sparse_graph(14, seed=6)
        cache = LabelCache(str(tmp_path))
        dyn = DynamicHubLabeling(g, cache=cache, rebuild_fraction=0.01)
        u, v = next(
            (a, b)
            for a in range(14)
            for b in range(a + 1, 14)
            if not g.has_edge(a, b)
        )
        assert dyn.insert_edge(u, v).rebuilt
        # Both the initial build and the forced rebuild persisted.
        assert len(list(tmp_path.iterdir())) >= 2
        _assert_answer_identical(dyn, "cache-rebuild")


class TestMutationScripts:
    def test_scripts_are_seed_deterministic(self):
        g = random_sparse_graph(20, seed=7)
        a = mutation_script(g, 10, seed=3)
        b = mutation_script(g, 10, seed=3)
        assert a.ops == b.ops
        assert a.ops != mutation_script(g, 10, seed=4).ops

    def test_script_replays_cleanly(self):
        g = random_sparse_graph(20, seed=8)
        script = mutation_script(g, 10, seed=1, keep_connected=False)
        assert len(script) == 10
        inserts, deletes = script.counts()
        assert inserts + deletes == 10
        apply_script(g, script)  # every op names a legal edit

    def test_generation_leaves_graph_untouched(self):
        g = random_sparse_graph(20, seed=9)
        before = sorted(g.edges())
        mutation_script(g, 10, seed=2)
        assert sorted(g.edges()) == before

    def test_kept_connected_scripts_preserve_reachability(self):
        g = random_sparse_graph(20, seed=10)
        dyn = DynamicHubLabeling(g)
        finite = {
            (u, v)
            for u in range(20)
            for v in range(20)
            if dyn.query(u, v) != INF
        }
        dyn.apply(mutation_script(g, 10, seed=3, keep_connected=True))
        for u, v in finite:
            assert dyn.query(u, v) != INF, (u, v)


class TestRepairEqualsRebuild:
    """The headline property, across structure, weights, and budgets."""

    @settings(max_examples=20, deadline=None)
    @given(
        graph_seed=st.integers(0, 1000),
        script_seed=st.integers(0, 1000),
        keep_connected=st.booleans(),
    )
    def test_unweighted_random_edits(
        self, graph_seed, script_seed, keep_connected
    ):
        g = random_sparse_graph(12, seed=graph_seed)
        dyn = DynamicHubLabeling(g, rebuild_fraction=1.0)
        script = mutation_script(
            g, 5, seed=script_seed, keep_connected=keep_connected
        )
        for index, op in enumerate(script):
            dyn.apply(MutationScript(ops=(op,)))
            _assert_answer_identical(dyn, f"op {index} {op}")

    @settings(max_examples=12, deadline=None)
    @given(
        graph_seed=st.integers(0, 1000),
        script_seed=st.integers(0, 1000),
    )
    def test_weighted_random_edits(self, graph_seed, script_seed):
        g = random_weighted_graph(10, 16, seed=graph_seed)
        dyn = DynamicHubLabeling(g, rebuild_fraction=1.0)
        script = mutation_script(
            g, 4, seed=script_seed, keep_connected=False
        )
        for index, op in enumerate(script):
            dyn.apply(MutationScript(ops=(op,)))
            _assert_answer_identical(dyn, f"op {index} {op}")

    @settings(max_examples=10, deadline=None)
    @given(
        script_seed=st.integers(0, 1000),
        rebuild_fraction=st.sampled_from([0.05, 0.3, 1.0]),
        staleness_budget=st.sampled_from([0.5, 4.0]),
    )
    def test_budget_fallbacks_stay_exact(
        self, script_seed, rebuild_fraction, staleness_budget
    ):
        # Whether an edit repairs or trips a rebuild must be invisible
        # in the answers.
        g = random_sparse_graph(12, seed=script_seed)
        dyn = DynamicHubLabeling(
            g,
            rebuild_fraction=rebuild_fraction,
            staleness_budget=staleness_budget,
        )
        dyn.apply(mutation_script(g, 5, seed=script_seed))
        _assert_answer_identical(dyn, "budget-mix")


class TestDenseColumnRepair:
    """Repair equals rebuild when the sweeps' writes land in dense
    columns.  A one-column floor gives these small stores a dense part;
    every splice keeps the input's dense hubs."""

    @settings(max_examples=12, deadline=None)
    @given(
        graph_seed=st.integers(0, 1000),
        script_seed=st.integers(0, 1000),
        weights=st.sampled_from([None, 1, 0.5]),
    )
    def test_random_edits_keep_dense_hubs(self, graph_seed, script_seed, weights):
        if weights is None:
            g = random_sparse_graph(30, seed=graph_seed)
        else:
            # Integral (uint16) or fractional (float64) weights.
            g = Graph(24)
            for u, v, w in random_weighted_graph(24, 40, seed=graph_seed).edges():
                g.add_edge(u, v, w * weights if weights != 1 else w)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(kernels, "_MIN_DENSE", 1)
            dyn = DynamicHubLabeling(g, rebuild_fraction=1.0, staleness_budget=1e9)
            dense_hubs = dyn.flat().dense()[0].tolist()
            # About half these stores fill a tile of columns.
            assume(dense_hubs)
            for index, op in enumerate(
                mutation_script(g, 4, seed=script_seed, keep_connected=False)
            ):
                dyn.apply(MutationScript(ops=(op,)))
                assert dyn.flat().dense()[0].tolist() == dense_hubs
                _assert_answer_identical(dyn, f"op {index} {op}")

    @pytest.mark.parametrize("op", ["insert", "delete"])
    def test_writes_land_in_dense_columns(self, op):
        g = random_sparse_graph(30, seed=11)
        order = degree_order(g)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(kernels, "_MIN_DENSE", 1)
            dyn = DynamicHubLabeling(
                g, order=order, rebuild_fraction=1.0, staleness_budget=1e9
            )
            before = dyn.flat().dense()[1].copy()
            top = order[0]
            if op == "insert":
                far = max(
                    (v for v in range(30) if not g.has_edge(top, v) and v != top),
                    key=lambda v: dyn.query(top, v),
                )
                report = dyn.insert_edge(top, far)
            else:
                report = dyn.delete_edge(top, g.neighbor_ids(top)[0])
            assert not report.rebuilt
            after = dyn.flat().dense()[1]
            assert dyn.flat().dense_width and not np.array_equal(before, after)
            _assert_answer_identical(dyn, op)
            assert dyn.flat().total_size() == sum(
                dyn.flat().label_size(x) for x in range(30)
            )

    def test_a_write_past_uint16_folds_the_columns(self):
        # K_8 fills a tile of columns; vertex 8 hangs off it by a
        # weight-1 shortcut and a 9000 + 9000 detour.  Deleting the
        # shortcut pushes distances past the uint16 tier, which holds a
        # dense part, to uint32, which cannot.
        g = Graph(10)
        for u in range(8):
            for v in range(u + 1, 8):
                g.add_edge(u, v, 1)
        g.add_edge(8, 9, 9000)
        g.add_edge(9, 0, 9000)
        g.add_edge(8, 1, 1)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(kernels, "_MIN_DENSE", 1)
            dyn = DynamicHubLabeling(g, rebuild_fraction=1.0, staleness_budget=1e9)
            assert dyn.flat().dense_width
            assert not dyn.delete_edge(8, 1).rebuilt
            flat = dyn.flat()
            assert flat.arrays()[2].dtype.name == "uint32"
            assert flat.dense_width == 0
            _assert_answer_identical(dyn, "fold")
            assert dyn.query(8, 0) == 18000


class TestCacheHitRepair:
    def test_a_store_loaded_from_the_cache_repairs(self, tmp_path):
        # A hit's arrays are read-only little-endian views over the
        # mapped artifact; the repair iterates memoryviews of them,
        # which need the native byte order, and never writes them.
        g = random_sparse_graph(40, seed=4)
        order = degree_order(g)
        cache = LabelCache(tmp_path)
        cache.store(g, order, build_flat_labels(g, order))
        absent = next(
            (u, v) for u in range(40) for v in range(u + 1, 40)
            if not g.has_edge(u, v)
        )
        present = next(iter(g.edges()))[:2]
        pairs = [(u, v) for u in range(40) for v in range(40)]
        want = build_flat_labels(g, order).batch_query(pairs)
        for op, (u, v) in (("insert", absent), ("delete", present)):
            dyn = DynamicHubLabeling(
                g.copy(), order=order, cache=cache, rebuild_fraction=1.0,
                staleness_budget=1e9,
            )
            hit = dyn.flat()
            owner = hit.arrays()[1]
            while isinstance(owner, np.ndarray) and owner.base is not None:
                owner = owner.base
            assert isinstance(owner.obj, mmap.mmap)
            edit = dyn.insert_edge if op == "insert" else dyn.delete_edge
            assert not edit(u, v).rebuilt
            _assert_answer_identical(dyn, f"cache hit {op}")
            # The repair replaced the store; the hit itself is unchanged.
            assert hit.batch_query(pairs) == want


def _true_distances(graph):
    return [shortest_path_distances(graph, s)[0] for s in graph.vertices()]


def _assert_label_invariants(dyn, tag=""):
    """The two invariants that make every answer exact.

    Every entry ``(h, x, d)`` has ``d >= d(h, x)``, and whenever ``h``
    is the top-ranked vertex on every shortest ``h``-``s`` path,
    ``L(s)`` holds ``h`` at exactly ``d(h, s)``.
    """
    graph = dyn.graph
    dist = _true_distances(graph)
    rank = {vertex: position for position, vertex in enumerate(dyn.order)}
    vertices = list(graph.vertices())
    for s in vertices:
        label = dyn.labeling.hubs(s)
        for h, d in label.items():
            assert d >= dist[h][s], f"{tag} L({s})[{h}] = {d} < {dist[h][s]}"
        for h in vertices:
            total = dist[h][s]
            if total == INF:
                continue
            top = all(
                rank[y] >= rank[h]
                for y in vertices
                if dist[h][y] + dist[y][s] == total
            )
            if top:
                assert label.get(h) == total, (
                    f"{tag} L({s})[{h}] = {label.get(h)!r}, want {total}"
                )


class TestRepairInvariants:
    """Entries overshoot at most, and top-ranked hubs stay exact."""

    @settings(max_examples=25, deadline=None)
    @given(
        graph_seed=st.integers(0, 1000),
        script_seed=st.integers(0, 1000),
        weighted=st.booleans(),
        keep_connected=st.booleans(),
    )
    def test_invariants_hold_after_every_edit(
        self, graph_seed, script_seed, weighted, keep_connected
    ):
        g = (
            random_weighted_graph(10, 16, seed=graph_seed)
            if weighted
            else random_sparse_graph(12, seed=graph_seed)
        )
        dyn = DynamicHubLabeling(
            g, rebuild_fraction=1.0, staleness_budget=float("inf")
        )
        script = mutation_script(
            g, 8, seed=script_seed, keep_connected=keep_connected
        )
        for index, op in enumerate(script):
            rep = dyn.apply(MutationScript(ops=(op,)))[0]
            assert not rep.rebuilt
            _assert_label_invariants(dyn, f"op {index} {op}")

    @pytest.mark.parametrize("weighted", [False, True])
    def test_insert_writes_only_endpoint_hubs(self, weighted):
        g = (
            random_weighted_graph(40, 70, seed=41)
            if weighted
            else random_sparse_graph(60, seed=41)
        )
        dyn = DynamicHubLabeling(
            g, rebuild_fraction=1.0, staleness_budget=float("inf")
        )
        script = mutation_script(g, 12, seed=41, insert_fraction=1.0)
        for op, u, v, weight in script:
            before = dyn.labeling
            at_u, at_v = before.hubs(u), before.hubs(v)
            rep = dyn.insert_edge(u, v, weight)
            assert not rep.rebuilt
            assert rep.affected_roots <= len(at_u) + len(at_v)
            after = dyn.labeling
            endpoint_hubs = at_u.keys() | at_v.keys()
            for x in g.vertices():
                old, new = before.hubs(x), after.hubs(x)
                # Nothing is dropped, and entries only ever shrink.
                assert old.keys() <= new.keys()
                for h, d in new.items():
                    if old.get(h) != d:
                        assert h in endpoint_hubs, (op, u, v, x, h)
                        assert h not in old or d < old[h]
        _assert_answer_identical(dyn, "inserts")

    def test_staleness_counts_label_growth(self):
        g = random_sparse_graph(40, seed=42)
        dyn = DynamicHubLabeling(
            g, rebuild_fraction=1.0, staleness_budget=float("inf")
        )
        built = dyn.labeling.total_size()
        (op, u, v, weight), = mutation_script(g, 1, seed=42, insert_fraction=1.0)
        dist = _true_distances(g)
        detected = sum(
            1
            for r in g.vertices()
            if dist[r][u] + weight < dist[r][v]
            or dist[r][v] + weight < dist[r][u]
        )
        rep = dyn.insert_edge(u, v, weight)
        growth = rep.labels_added - rep.labels_removed
        assert growth == dyn.labeling.total_size() - built
        assert dyn.staleness == pytest.approx(detected / 40 + growth / built)


class TestMutationCorpus:
    """Replay the committed corpus: pinned answers, then rebuild parity."""

    @pytest.fixture(scope="class")
    def corpus(self):
        with open(CORPUS_PATH) as handle:
            return json.load(handle)

    def test_corpus_shape(self, corpus):
        assert corpus["version"] == 3
        families = {case["family"] for case in corpus["cases"]}
        assert families == {"ba", "powerlaw", "smallworld", "road"}
        assert len(corpus["cases"]) == 40
        connected = [c for c in corpus["cases"] if c["keep_connected"]]
        assert connected and len(connected) < len(corpus["cases"])

    def test_every_case_repairs_to_pinned_answers(self, corpus):
        for case in corpus["cases"]:
            graph = Graph(case["n"])
            for u, v, w in case["edges"]:
                graph.add_edge(u, v, w)
            dyn = DynamicHubLabeling(graph)
            dyn.apply(
                MutationScript(
                    ops=tuple(tuple(op) for op in case["ops"]),
                    seed=case["seed"],
                    keep_connected=case["keep_connected"],
                )
            )
            for (u, v), want in zip(case["pairs"], case["expected"]):
                got = dyn.query(u, v)
                if want is None:
                    assert got == INF, (case["name"], u, v, got)
                else:
                    assert got == want and type(got) is type(want), (
                        case["name"], u, v, got, want,
                    )
            rebuilt = build_flat_labels(dyn.graph, dyn.order)
            for (u, v), _ in zip(case["pairs"], case["expected"]):
                got = dyn.query(u, v)
                ref = rebuilt.query(u, v)
                assert got == ref and type(got) is type(ref), (
                    case["name"], u, v, got, ref,
                )

    def test_disconnecting_cases_pin_inf_answers(self, corpus):
        assert any(
            want is None
            for case in corpus["cases"]
            if not case["keep_connected"]
            for want in case["expected"]
        ), "no corpus case exercises the INF answer path"


class TestHotSwapServing:
    def _dyn_and_server(self, n=40, seed=11, **server_kwargs):
        graph = random_sparse_graph(n, seed=seed)
        dyn = DynamicHubLabeling(graph)
        server = QueryServer(
            HubLabelOracle(dyn.flat(), backend="flat"), **server_kwargs
        )
        return dyn, server

    def test_swap_serves_new_answers_and_bumps_generation(self):
        dyn, server = self._dyn_and_server()
        n = dyn.graph.num_vertices
        u, v = max(
            (
                (a, b)
                for a in range(n)
                for b in range(a + 1, n)
                if not dyn.graph.has_edge(a, b)
                and dyn.query(a, b) != INF
            ),
            key=lambda pair: dyn.query(*pair),
        )
        with server:
            before = server.query(u, v)
            assert before == dyn.query(u, v)
            assert server.generation_seq == 0
            dyn.insert_edge(u, v)
            server.set_oracle(HubLabelOracle(dyn.flat(), backend="flat"))
            assert server.generation_seq == 1
            after = server.query(u, v)
            assert after == 1
            assert before > after
            gauge = get_registry().get(SERVE_GENERATION)
            assert gauge is not None and gauge.value == 1

    def test_generation_gauge_is_monotone_across_swaps(self):
        dyn, server = self._dyn_and_server(seed=12)
        script = mutation_script(dyn.graph, 6, seed=12)
        seen = []
        with server:
            registry = get_registry()
            seen.append(registry.get(SERVE_GENERATION).value)
            for op in script:
                dyn.apply(MutationScript(ops=(op,)))
                server.set_oracle(
                    HubLabelOracle(dyn.flat(), backend="flat")
                )
                seen.append(registry.get(SERVE_GENERATION).value)
        assert seen == sorted(seen)
        assert seen[0] == 0 and seen[-1] == len(script)
        assert server.generation_seq == len(script)

    def test_post_swap_queries_never_stale_under_load(self):
        # Clients hammer one pair while the main thread swaps back and
        # forth between two labelings; every answer must belong to one
        # of the two generations (no torn or cached-stale value), and
        # probes issued after a swap must see the new value.
        dyn, server = self._dyn_and_server(seed=13)
        n = dyn.graph.num_vertices
        u, v = max(
            (
                (a, b)
                for a in range(n)
                for b in range(a + 1, n)
                if not dyn.graph.has_edge(a, b)
                and dyn.query(a, b) != INF
            ),
            key=lambda pair: dyn.query(*pair),
        )
        old = dyn.query(u, v)
        legal = {old, 1}
        stop = threading.Event()
        wrong = []

        def hammer():
            while not stop.is_set():
                got = server.query(u, v)
                if got not in legal:
                    wrong.append(got)

        with server:
            threads = [
                threading.Thread(target=hammer) for _ in range(3)
            ]
            for t in threads:
                t.start()
            present = False
            for _ in range(8):
                if present:
                    dyn.delete_edge(u, v)
                else:
                    dyn.insert_edge(u, v)
                present = not present
                server.set_oracle(
                    HubLabelOracle(dyn.flat(), backend="flat")
                )
                want = 1 if present else old
                assert server.query(u, v) == want  # post-swap probe
            stop.set()
            for t in threads:
                t.join()
        assert wrong == []


    def test_row_reads_stay_exact_while_edits_detect(self):
        # Detection reads the store the server is serving.  Row-shaped
        # tickets drive the server's row kernel on that same store, so
        # a detection that shared the kernel's scratch vector would
        # corrupt them.
        graph = random_sparse_graph(80, seed=24)
        dyn = DynamicHubLabeling(
            graph, rebuild_fraction=1.0, staleness_budget=float("inf")
        )
        n = graph.num_vertices
        u, v = max(
            (
                (a, b)
                for a in range(n)
                for b in range(a + 1, n)
                if not graph.has_edge(a, b)
            ),
            key=lambda pair: dyn.query(*pair),
        )
        sources, targets = [u] * n, list(range(n))
        absent = [dyn.query(u, t) for t in targets]
        dyn.insert_edge(u, v)
        present = [dyn.query(u, t) for t in targets]
        dyn.delete_edge(u, v)
        legal = (absent, present)
        server = QueryServer(
            HubLabelOracle(dyn.flat(), backend="flat"),
            cache_size=0, dispatchers=2,
        )
        stop = threading.Event()
        wrong = []

        def reader():
            while not stop.is_set():
                got = server.submit_batch(sources, targets).result(timeout=10)
                if got not in legal:
                    wrong.append(got)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with server:
                threads = [threading.Thread(target=reader) for _ in range(3)]
                for t in threads:
                    t.start()
                for index in range(100):
                    if index % 2:
                        dyn.delete_edge(u, v)
                    else:
                        dyn.insert_edge(u, v)
                    server.set_oracle(HubLabelOracle(dyn.flat(), backend="flat"))
                stop.set()
                for t in threads:
                    t.join(timeout=10)
                assert not any(t.is_alive() for t in threads)
        finally:
            sys.setswitchinterval(interval)
        assert wrong == []


class TestShardedHotSwap:
    """set_oracle across the multi-process door: fresh segment per
    swap, no stale answers, no /dev/shm leaks."""

    @staticmethod
    def _shm_entries():
        import os

        from repro.perf.shm import SHM_NAME_PREFIX

        try:
            return {
                name
                for name in os.listdir("/dev/shm")
                if name.startswith(SHM_NAME_PREFIX)
            }
        except OSError:  # pragma: no cover - no /dev/shm here
            return set()

    def test_swap_running_fleet_serves_new_answers(self):
        from repro.serve import ShardedQueryServer

        graph = random_sparse_graph(40, seed=17)
        dyn = DynamicHubLabeling(graph)
        n = graph.num_vertices
        u, v = max(
            (
                (a, b)
                for a in range(n)
                for b in range(a + 1, n)
                if not graph.has_edge(a, b) and dyn.query(a, b) != INF
            ),
            key=lambda pair: dyn.query(*pair),
        )
        before_entries = self._shm_entries()
        server = ShardedQueryServer(
            HubLabelOracle(dyn.flat(), backend="flat"), processes=2
        )
        with server:
            old = server.query(u, v)
            assert old == dyn.query(u, v) and old > 1
            dyn.insert_edge(u, v)
            server.set_oracle(HubLabelOracle(dyn.flat(), backend="flat"))
            assert server.generation_seq == 1
            assert server.query(u, v) == 1
            # A batch through the swapped fleet, graded value AND type
            # against a from-scratch rebuild of the mutated graph.
            rebuilt = build_flat_labels(dyn.graph, dyn.order)
            us = list(range(n))
            vs = [(i * 7 + 3) % n for i in range(n)]
            got = server.submit_batch(us, vs).result()
            for a, b, answer in zip(us, vs, got):
                want = rebuilt.query(a, b)
                assert answer == want and type(answer) is type(want), (
                    a, b, answer, want,
                )
            gauge = get_registry().get(SERVE_GENERATION)
            assert gauge is not None and gauge.value == 1
        assert self._shm_entries() == before_entries  # old segment gone

    def test_swap_while_stopped_applies_on_next_start(self):
        from repro.serve import ShardedQueryServer

        graph = random_sparse_graph(30, seed=18)
        dyn = DynamicHubLabeling(graph)
        n = graph.num_vertices
        u, v = next(
            (a, b)
            for a in range(n)
            for b in range(a + 1, n)
            if not graph.has_edge(a, b) and dyn.query(a, b) > 2
        )
        before_entries = self._shm_entries()
        server = ShardedQueryServer(
            HubLabelOracle(dyn.flat(), backend="flat"), processes=1
        )
        dyn.insert_edge(u, v)
        server.set_oracle(HubLabelOracle(dyn.flat(), backend="flat"))
        assert server.generation_seq == 1
        with server:
            assert server.query(u, v) == 1
        assert self._shm_entries() == before_entries  # stop() cleaned up

    def test_swaps_under_concurrent_batches(self):
        from repro.serve import ShardedQueryServer

        graph = random_sparse_graph(36, seed=19)
        dyn = DynamicHubLabeling(graph)
        n = graph.num_vertices
        script = list(mutation_script(graph, 4, seed=19))
        stop = threading.Event()
        failures = []

        def hammer():
            us = list(range(n))
            vs = [(i * 5 + 1) % n for i in range(n)]
            while not stop.is_set():
                try:
                    answers = server.submit_batch(us, vs).result()
                except Exception as exc:  # pragma: no cover - fails test
                    failures.append(exc)
                    return
                if len(answers) != n:
                    failures.append(("short batch", len(answers)))
                    return

        server = ShardedQueryServer(
            HubLabelOracle(dyn.flat(), backend="flat"), processes=2
        )
        with server:
            threads = [threading.Thread(target=hammer) for _ in range(2)]
            for t in threads:
                t.start()
            for op in script:
                dyn.apply(MutationScript(ops=(op,)))
                server.set_oracle(
                    HubLabelOracle(dyn.flat(), backend="flat")
                )
                # Post-swap probe: graded against the repaired labeling.
                probe = server.query(0, n - 1)
                want = dyn.query(0, n - 1)
                assert probe == want and type(probe) is type(want)
            stop.set()
            for t in threads:
                t.join()
        assert failures == []
        assert server.generation_seq == len(script)


class TestLoadgenChurn:
    def test_churn_callable_is_driven_and_counted(self):
        graph = random_sparse_graph(60, seed=14)
        dyn = DynamicHubLabeling(graph)
        script = list(mutation_script(graph, 8, seed=14))
        cursor = iter(script)

        def churn():
            try:
                op, u, v, w = next(cursor)
            except StopIteration:
                return False
            if op == "insert":
                dyn.insert_edge(u, v, w)
            else:
                dyn.delete_edge(u, v)
            server.set_oracle(HubLabelOracle(dyn.flat(), backend="flat"))
            return True

        with QueryServer(
            HubLabelOracle(dyn.flat(), backend="flat")
        ) as server:
            report = run_loadgen(
                server,
                graph.num_vertices,
                clients=2,
                duration=0.4,
                seed=14,
                churn=churn,
                churn_interval=0.005,
            )
        assert report.ok, report.render()
        assert 1 <= report.mutations <= len(script)
        assert "mutations" in report.render()
        _assert_answer_identical(dyn, "post-loadgen")

    def test_churn_exception_fails_the_run(self):
        graph = random_sparse_graph(20, seed=15)

        def churn():
            raise RuntimeError("repair went sideways")

        with QueryServer(HubLabelOracle(pruned_landmark_labeling(graph))) as server:
            with pytest.raises(RuntimeError, match="sideways"):
                run_loadgen(
                    server,
                    graph.num_vertices,
                    clients=2,
                    requests_per_client=50,
                    seed=15,
                    churn=churn,
                )

    def test_churn_false_stops_early(self):
        graph = random_sparse_graph(20, seed=16)
        calls = []

        def churn():
            calls.append(1)
            return False

        with QueryServer(HubLabelOracle(pruned_landmark_labeling(graph))) as server:
            report = run_loadgen(
                server,
                graph.num_vertices,
                clients=2,
                duration=0.2,
                seed=16,
                churn=churn,
                churn_interval=0.001,
            )
        assert report.ok
        assert len(calls) == 1
        assert report.mutations == 0  # a False return mutated nothing


class TestCli:
    def test_mutate_verb_grades_green(self, capsys):
        from repro.cli import main

        assert (
            main(
                [
                    "mutate",
                    "--generator",
                    "sparse:30",
                    "--ops",
                    "8",
                    "--seed",
                    "3",
                    "--verify-sample",
                    "150",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "0 mismatch(es)" in out and "OK" in out

    def test_mutate_verify_each(self, capsys):
        from repro.cli import main

        code = main(
            [
                "mutate",
                "--generator",
                "tree:16",
                "--ops",
                "4",
                "--allow-disconnect",
                "--verify-each",
                "--verify-sample",
                "60",
            ]
        )
        assert code == 0
        assert "OK" in capsys.readouterr().out

    def test_loadgen_churn_runs_green(self, capsys):
        from repro.cli import main

        code = main(
            [
                "loadgen",
                "--generator",
                "sparse:50",
                "--clients",
                "2",
                "--requests",
                "200",
                "--churn",
                "4",
                "--churn-interval",
                "0.002",
            ]
        )
        assert code == 0
        assert "verdict:    OK" in capsys.readouterr().out

    def test_loadgen_churn_rejects_validate(self):
        from repro.cli import main

        with pytest.raises(SystemExit):
            main(
                [
                    "loadgen",
                    "--generator",
                    "sparse:20",
                    "--validate",
                    "--churn",
                    "2",
                ]
            )

    def test_corpus_drift_check_passes(self):
        import importlib.util

        spec = importlib.util.spec_from_file_location(
            "gen_mutation_corpus",
            pathlib.Path(__file__).parent.parent
            / "tools"
            / "gen_mutation_corpus.py",
        )
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        assert module.main(["--check"]) == 0
        assert module.render().endswith("\n")


def test_inf_answers_survive_repair():
    # Disconnect a leaf, repair, and the INF must be float('inf') with
    # float type -- the exact value the traversal module uses.
    g = Graph(6)
    for v in range(1, 6):
        g.add_edge(v - 1, v)
    dyn = DynamicHubLabeling(g)
    dyn.delete_edge(4, 5)
    got = dyn.query(0, 5)
    assert got == INF and math.isinf(got)
    assert dyn.query(5, 5) == 0
    _assert_answer_identical(dyn, "leaf-cut")
    dyn.insert_edge(4, 5)
    assert dyn.query(0, 5) == 5
    _assert_answer_identical(dyn, "leaf-heal")
