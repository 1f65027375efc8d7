"""Incremental PLL label repair for edge inserts and deletes.

The labeling lives in one immutable
:class:`~repro.perf.flat.FlatHubLabeling`; every edit produces a new
store and never touches the old one, so a store handed to a server
keeps answering exactly as it did.  The repair is the same four phases
for both mutation kinds:

1. **Detect** the affected hub roots against the *pre-mutation* store,
   from the two distance rows ``d(u, .)`` and ``d(v, .)`` (the row
   kernel, over every dist tier) and one vectorised comparison.  An edge ``{u, v}`` of weight ``w`` lies
   on some shortest path from root ``r`` iff ``d(r,u) + w == d(r,v)``
   or ``d(r,v) + w == d(r,u)`` (deletion can only disturb such roots);
   an insert improves some distance from ``r`` iff
   ``d(r,u) + w < d(r,v)`` or ``d(r,v) + w < d(r,u)``.  Roots outside
   the affected set keep every distance unchanged, so their label
   entries stay exact.
2. **Invalidate**: mask out every CSR entry whose hub is affected --
   this covers all entries whose witness paths could have used the
   edge.
3. **Re-sweep**: re-run the pruned traversal from each affected root in
   pinned-order rank, pruning only against hubs of strictly higher
   rank (exactly the label state a static PLL sweep would see).  A
   vertex's surviving run is thawed into a dict the first time a sweep
   visits it, once per repair.
4. **Splice** the surviving entries and the re-swept ones into a fresh
   CSR, hubs ascending within each run, in the narrowest dist tier
   that holds them.

The resulting labeling is *answer-identical* to a from-scratch PLL
rebuild under the pinned order: all surviving and re-added entries are
exact distances, and for any pair the highest-ranked vertex on a
shortest path is either unaffected (its old entries survive and the
static cover argument applies verbatim -- a pruning witness would be a
higher-ranked vertex on a still-shortest path) or affected (its
re-sweep replays the static sweep against exact entries).  The hub
*sets* may differ from the canonical rebuild; the answers may not.

Once a single mutation touches more than ``rebuild_fraction`` of the
roots, or the accumulated affected fraction crosses
``staleness_budget``, repair is abandoned for a full rebuild served
through the optional :class:`~repro.perf.cache.LabelCache` (or
:func:`~repro.perf.build.build_flat_labels` without one).
"""

from __future__ import annotations

import heapq
import time
from collections import deque
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..core.orders import degree_order
from ..graphs.graph import Graph
from ..graphs.traversal import INF
from ..obs.catalog import (
    DYNAMIC_AFFECTED_ROOTS,
    DYNAMIC_DELETES,
    DYNAMIC_INSERTS,
    DYNAMIC_LABELS_REPAIRED,
    DYNAMIC_REBUILDS,
    DYNAMIC_REPAIR_LATENCY_SECONDS,
    DYNAMIC_STAGE_SECONDS,
)
from ..obs.registry import get_registry
from ..obs.spans import span
from ..perf.build import build_flat_labels
from ..perf.flat import FlatHubLabeling
from ..perf.kernels import dist_dtype

__all__ = ["DynamicHubLabeling", "RepairReport"]


@dataclass
class RepairReport:
    """What one ``insert_edge`` / ``delete_edge`` call did."""

    op: str
    u: int
    v: int
    weight: int
    affected_roots: int
    labels_removed: int
    labels_added: int
    rebuilt: bool
    seconds: float

    def render(self) -> str:
        how = "full rebuild" if self.rebuilt else "incremental repair"
        return (
            f"{self.op} {{{self.u}, {self.v}}} w={self.weight}: "
            f"{how}, {self.affected_roots} affected roots, "
            f"-{self.labels_removed}/+{self.labels_added} labels, "
            f"{self.seconds * 1e3:.2f} ms"
        )


class _Stages:
    """Wall time of each write-path stage of one edit."""

    def __init__(self) -> None:
        self.seconds: List[Tuple[str, float]] = []
        self._mark = time.perf_counter()

    def start(self) -> None:
        self._mark = time.perf_counter()

    def done(self, stage: str) -> None:
        now = time.perf_counter()
        self.seconds.append((stage, now - self._mark))
        self._mark = now


class DynamicHubLabeling:
    """A hub labeling, held as a FlatHubLabeling, that tracks edge edits.

    :attr:`labeling` and :meth:`flat` return that immutable store; each
    ``insert_edge`` / ``delete_edge`` replaces it with a new one and
    never modifies it.  The wrapper owns the graph it is given and mutates it in place;
    callers observe the evolving graph through the :attr:`graph`
    property.  The vertex order is pinned at construction (mutations
    never change the vertex set, so it stays a valid permutation),
    which keeps every repaired labeling comparable to
    ``build_flat_labels(graph, order)`` on the mutated graph.

    ``cache`` is an optional :class:`~repro.perf.cache.LabelCache` (any
    object with its ``load_or_build(graph, order)`` method will do);
    when the work budget forces a full rebuild it is served (and
    persisted) through the cache, so revisiting a graph state is a
    cache hit.
    """

    def __init__(
        self,
        graph: Graph,
        *,
        order: Optional[List[int]] = None,
        cache=None,
        rebuild_fraction: float = 0.5,
        staleness_budget: float = 4.0,
    ) -> None:
        if not 0.0 < rebuild_fraction <= 1.0:
            raise ValueError("rebuild_fraction must be in (0, 1]")
        if staleness_budget <= 0.0:
            raise ValueError("staleness_budget must be positive")
        self._graph = graph
        self._order = list(order) if order is not None else degree_order(graph)
        if sorted(self._order) != list(graph.vertices()):
            raise ValueError("order must be a permutation of the vertices")
        self._rank = [0] * graph.num_vertices
        for position, vertex in enumerate(self._order):
            self._rank[vertex] = position
        self._cache = cache
        self._rebuild_fraction = rebuild_fraction
        self._staleness_budget = staleness_budget
        self._staleness = 0.0
        self._mutations = 0
        self._store = self._build()
        registry = get_registry()
        if registry.enabled:
            # Pre-create the rebuild counter so a churn run that never
            # exceeds its budget still exposes dynamic.rebuilds = 0.
            registry.counter(DYNAMIC_REBUILDS)

    # ------------------------------------------------------------------
    # Inspection
    # ------------------------------------------------------------------
    @property
    def graph(self) -> Graph:
        """The live (mutating) graph. Mutate it only through this class."""
        return self._graph

    @property
    def labeling(self) -> FlatHubLabeling:
        """The current labeling: the immutable flat store :meth:`flat`
        returns (the same object, until the next edit replaces it)."""
        return self._store

    @property
    def order(self) -> List[int]:
        """The pinned vertex order (a copy)."""
        return list(self._order)

    @property
    def mutations(self) -> int:
        """Edge edits applied so far."""
        return self._mutations

    @property
    def staleness(self) -> float:
        """Accumulated affected-root fraction since the last full build."""
        return self._staleness

    def query(self, u: int, v: int) -> float:
        """Exact distance on the mutated graph (``INF`` if disconnected)."""
        return self._store.query(u, v)

    def flat(self) -> FlatHubLabeling:
        """The current :class:`FlatHubLabeling`, without a copy.

        This is the hot-swap currency: hand it to
        ``QueryServer.set_oracle`` / ``ShardedQueryServer.set_oracle``
        wrapped in a fresh oracle.  Edits never modify a store once
        handed out; they replace it.
        """
        return self._store

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def insert_edge(self, u: int, v: int, weight: int = 1) -> RepairReport:
        """Add edge ``{u, v}`` and repair the labeling incrementally.

        Raises ``ValueError`` if the edge is already present (parallel
        edges are not stored, so a duplicate insert is almost always a
        script bug) and propagates ``add_edge``'s validation errors.
        """
        if self._graph.has_edge(u, v):
            raise ValueError(f"edge {{{u}, {v}}} already present")
        started = time.perf_counter()
        stages = _Stages()
        with span("dynamic.repair"):
            affected = self._affected_roots(u, v, weight, insert=True)
            stages.done("detect")
            self._graph.add_edge(u, v, weight)
            removed, added, rebuilt = self._repair_or_rebuild(affected, stages)
        return self._report(
            "insert", u, v, weight, affected, removed, added, rebuilt,
            time.perf_counter() - started, DYNAMIC_INSERTS, stages,
        )

    def delete_edge(self, u: int, v: int) -> RepairReport:
        """Remove edge ``{u, v}`` and repair the labeling incrementally.

        Raises ``KeyError`` if the edge is absent.
        """
        weight = self._graph.edge_weight(u, v)
        if weight is None:
            raise KeyError(f"edge {{{u}, {v}}} not present")
        started = time.perf_counter()
        stages = _Stages()
        with span("dynamic.repair"):
            affected = self._affected_roots(u, v, weight, insert=False)
            stages.done("detect")
            self._graph.remove_edge(u, v)
            removed, added, rebuilt = self._repair_or_rebuild(affected, stages)
        return self._report(
            "delete", u, v, weight, affected, removed, added, rebuilt,
            time.perf_counter() - started, DYNAMIC_DELETES, stages,
        )

    def apply(self, script) -> List[RepairReport]:
        """Apply a :class:`~repro.dynamic.mutations.MutationScript`."""
        reports = []
        for op, u, v, weight in script:
            if op == "insert":
                reports.append(self.insert_edge(u, v, weight))
            elif op == "delete":
                reports.append(self.delete_edge(u, v))
            else:
                raise ValueError(f"unknown mutation op {op!r}")
        return reports

    # ------------------------------------------------------------------
    # Repair internals
    # ------------------------------------------------------------------
    def _affected_roots(
        self, u: int, v: int, weight: int, *, insert: bool
    ) -> List[int]:
        """Affected roots, judged on the pre-mutation store.

        An insert affects the roots whose distances the new edge
        improves; a delete, the roots with some shortest path through
        ``{u, v}``.  ``du[r] = d(r, u)`` by symmetry of the labeling.
        """
        du = self._store.distance_row(u)
        dv = self._store.distance_row(v)
        if insert:
            mask = (du + weight < dv) | (dv + weight < du)
        else:
            # The edge exists, so u and v share a component; a root
            # that cannot reach u cannot route anything through it.
            mask = (du != INF) & ((du + weight == dv) | (dv + weight == du))
        return np.flatnonzero(mask).tolist()

    def _repair_or_rebuild(self, affected: List[int], stages: _Stages):
        n = self._graph.num_vertices
        fraction = len(affected) / n if n else 0.0
        self._mutations += 1
        self._staleness += fraction
        stages.start()
        if (
            fraction > self._rebuild_fraction
            or self._staleness >= self._staleness_budget
        ):
            before = self._store.total_size()
            self._store = self._build()
            self._staleness = 0.0
            stages.done("rebuild")
            return before, self._store.total_size(), True
        survivors, removed = self._invalidate(affected)
        stages.done("invalidate")
        additions = self._resweep(affected, survivors)
        stages.done("resweep")
        if affected:  # otherwise nothing changed: keep the store
            self._store = self._splice(survivors, additions)
        stages.done("splice")
        return removed, len(additions[0]), False

    def _invalidate(self, affected: List[int]):
        """The CSR minus every entry whose hub is affected.

        Returns ``((offsets, hubs, dists, owner), removed)``, where
        ``owner[i]`` is the vertex whose run holds entry ``i``.  With
        nothing affected these are the store's own read-only views and
        ``owner`` is ``None``.
        """
        offsets, hubs, dists = self._store.arrays()
        if not affected:
            return (offsets, hubs, dists, None), 0
        n = len(offsets) - 1
        stale = np.zeros(n, dtype=bool)
        stale[affected] = True
        keep = ~stale[hubs]
        owner = np.repeat(np.arange(n, dtype=np.int64), np.diff(offsets))[keep]
        kept = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(owner, minlength=n), out=kept[1:])
        removed = len(hubs) - len(owner)
        return (kept, hubs[keep], dists[keep], owner), removed

    def _resweep(self, affected: List[int], survivors):
        """Static-semantics pruned sweeps from the affected roots.

        Prunes against the surviving entries plus the entries this
        repair has already added; returns the additions as
        ``(vertices, hubs, dists)`` lists.
        """
        if not affected:
            return [], [], []
        offsets, hubs, dists, _ = survivors
        graph = self._graph
        if dists.dtype.kind == "f" and (dists == np.floor(dists)).all():
            dists = dists.astype(np.int64)
        # Memoryview slices iterate as Python numbers (ints for the
        # integer dist tiers), so a row thaws without a copy or a
        # per-row NumPy call.
        run_hubs, run_dists = memoryview(hubs), memoryview(dists)
        starts = offsets.tolist()
        rows: List[Optional[Dict[int, float]]] = [None] * graph.num_vertices

        def thaw(x: int) -> Dict[int, float]:
            a, b = starts[x], starts[x + 1]
            row = rows[x] = dict(zip(run_hubs[a:b], run_dists[a:b]))
            return row

        rank = self._rank
        sweep = _ranked_pruned_dijkstra if graph.is_weighted else _ranked_pruned_bfs
        vertices: List[int] = []
        roots: List[int] = []
        depths: List[float] = []
        for root in sorted(affected, key=rank.__getitem__):
            before = len(vertices)
            sweep(graph, root, rows, thaw, rank, vertices, depths)
            roots.extend([root] * (len(vertices) - before))
        return vertices, roots, depths

    def _splice(self, survivors, additions) -> FlatHubLabeling:
        """Merge survivors and additions into a fresh CSR store.

        The merged distances take the wider of the survivors' dist tier
        and the additions' (a repair can push ``max_dist`` across a
        tier); the store then narrows them to the tightest tier.
        """
        offsets, hubs, dists, owner = survivors
        add_v, add_h, add_d = additions
        n = len(offsets) - 1
        if add_v:
            add_v = np.array(add_v, dtype=np.int64)
            add_h = np.array(add_h, dtype=np.int32)
            add_d = np.array(add_d)
            keys = add_v * n + add_h
            order = np.argsort(keys)
            add_v, add_h, add_d = add_v[order], add_h[order], add_d[order]
            # Survivor keys ascend (vertex-major, hubs ascending per
            # run), and no addition collides with one: every entry of
            # an affected root was invalidated.  Each addition lands
            # after the survivors below its key and the additions
            # before it.
            at = np.searchsorted(owner * n + hubs, keys[order])
            at += np.arange(len(at))
            total = len(hubs) + len(at)
            from_survivors = np.ones(total, dtype=bool)
            from_survivors[at] = False
            merged_hubs = np.empty(total, dtype=np.int32)
            merged_hubs[at] = add_h
            merged_hubs[from_survivors] = hubs
            merged_dists = np.empty(
                total, dtype=np.promote_types(dists.dtype, dist_dtype(add_d))
            )
            merged_dists[at] = add_d
            merged_dists[from_survivors] = dists
            counts = np.diff(offsets) + np.bincount(add_v, minlength=n)
            offsets = np.zeros(n + 1, dtype=np.int64)
            np.cumsum(counts, out=offsets[1:])
            hubs, dists = merged_hubs, merged_dists
        return FlatHubLabeling(offsets, hubs, dists, validate=False)

    def _build(self) -> FlatHubLabeling:
        if self._cache is not None:
            return self._cache.load_or_build(self._graph, list(self._order))
        return build_flat_labels(self._graph, list(self._order))

    def _report(
        self, op, u, v, weight, affected, removed, added, rebuilt,
        seconds, op_metric, stages,
    ) -> RepairReport:
        registry = get_registry()
        if registry.enabled:
            registry.counter(op_metric).inc()
            registry.gauge(DYNAMIC_AFFECTED_ROOTS).set(len(affected))
            registry.counter(DYNAMIC_LABELS_REPAIRED).inc(removed + added)
            registry.histogram(DYNAMIC_REPAIR_LATENCY_SECONDS).observe(seconds)
            for stage, stage_seconds in stages.seconds:
                registry.histogram(
                    DYNAMIC_STAGE_SECONDS, stage=stage
                ).observe(stage_seconds)
            if rebuilt:
                registry.counter(DYNAMIC_REBUILDS).inc()
        return RepairReport(
            op=op, u=u, v=v, weight=weight,
            affected_roots=len(affected),
            labels_removed=removed, labels_added=added,
            rebuilt=rebuilt, seconds=seconds,
        )


def _ranked_pruned_bfs(graph, root, rows, thaw, rank, vertices, depths):
    """Pruned BFS from ``root``, pruning only on higher-ranked hubs.

    Unlike the static sweep, the labeling already holds entries for
    hubs of *lower* rank than ``root``; counting those in the pruning
    test would break the cover property, so coverage is restricted to
    hubs ``h`` with ``rank[h] < rank[root]`` -- exactly the label state
    the static sweep would have seen.  ``rows[x]`` is vertex ``x``'s
    live label dict (``thaw(x)`` creates it on first visit); each new
    entry goes into it and onto ``vertices`` / ``depths``.
    """
    limit = rank[root]
    dist: List[float] = [INF] * graph.num_vertices
    dist[root] = 0
    queue = deque([root])
    root_label = rows[root]
    if root_label is None:
        root_label = thaw(root)
    while queue:
        u = queue.popleft()
        d = dist[u]
        label = rows[u]
        if label is None:
            label = thaw(u)
        if _covered_below_rank(root_label, label, d, rank, limit):
            continue
        label[root] = d
        vertices.append(u)
        depths.append(d)
        for v, _ in graph.neighbors(u):
            if dist[v] == INF:
                dist[v] = d + 1
                queue.append(v)


def _ranked_pruned_dijkstra(graph, root, rows, thaw, rank, vertices, depths):
    """Weighted analogue of :func:`_ranked_pruned_bfs`."""
    limit = rank[root]
    dist: List[float] = [INF] * graph.num_vertices
    dist[root] = 0
    heap = [(0, root)]
    root_label = rows[root]
    if root_label is None:
        root_label = thaw(root)
    while heap:
        d, u = heapq.heappop(heap)
        if d > dist[u]:
            continue
        label = rows[u]
        if label is None:
            label = thaw(u)
        if _covered_below_rank(root_label, label, d, rank, limit):
            continue
        label[root] = d
        vertices.append(u)
        depths.append(d)
        for v, w in graph.neighbors(u):
            nd = d + w
            if nd < dist[v]:
                dist[v] = nd
                heapq.heappush(heap, (nd, v))


def _covered_below_rank(
    root_label: Dict[int, float],
    u_label: Dict[int, float],
    d: float,
    rank: List[int],
    limit: int,
) -> bool:
    """True if hubs ranked above ``limit`` already certify ``<= d``."""
    if len(root_label) > len(u_label):
        root_label, u_label = u_label, root_label
    for hub, dr in root_label.items():
        if rank[hub] >= limit:
            continue
        du = u_label.get(hub)
        if du is not None and dr + du <= d:
            return True
    return False
