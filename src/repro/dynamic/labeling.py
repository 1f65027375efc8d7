"""Incremental PLL label repair for edge inserts and deletes.

The labeling lives in one immutable
:class:`~repro.perf.flat.FlatHubLabeling`; every edit produces a new
store and never touches the old one, so a store handed to a server
keeps answering exactly as it did.

Every edit first **detects** the roots it affects, against the
*pre-mutation* store, from the two distance rows ``d(u, .)`` and
``d(v, .)`` (the row kernel, over every dist tier) and one vectorised
comparison.  An edge ``{u, v}`` of weight ``w`` lies on some shortest
path from root ``r`` iff ``d(r,u) + w == d(r,v)`` or
``d(r,v) + w == d(r,u)`` (deletion can only disturb such roots); an
insert improves some distance from ``r`` iff ``d(r,u) + w < d(r,v)``
or ``d(r,v) + w < d(r,u)``.  The detected fraction feeds the rebuild
budget; a delete also uses the set itself.

* **Insert** (resumed repair, after Akiba, Iwata and Yoshida, WWW
  2014): nothing is invalidated.  For each hub ``h`` of ``L(u)``, in
  rank order, ``h``'s pruned sweep resumes at ``v`` from
  ``L(u)[h] + w``; symmetrically for the hubs of ``L(v)``.  Only
  ``|L(u)| + |L(v)|`` roots are swept.
* **Delete**: **invalidate** every CSR entry whose hub is affected,
  then **re-sweep** each affected root from itself at distance 0, in
  rank order.

Both edit kinds run the same pruned sweep (one per semantics, BFS and
Dijkstra, shared with static PLL in :mod:`repro.core.pll`).  A visit
of ``x`` at distance ``d`` in root ``h``'s sweep is pruned when a hub
ranked at or above ``h`` (``h`` included) already certifies
``<= d``; otherwise it writes ``L(x)[h] = d``, overwriting a larger
entry.  A vertex's run is thawed into a dict the first time a sweep
visits it, once per repair.  The **splice** then
merges the writes into a fresh CSR in one vectorised pass: a write
whose ``(vertex, hub)`` key already exists replaces that entry's
distance, every other write is inserted, hubs ascending within each
run, in the narrowest dist tier that holds them.

Two invariants hold after every edit, and together they make every
answer *identical* to a from-scratch PLL rebuild under the pinned
order (docs/dynamic.md has the argument):

1. every entry ``L(x)[h]`` is an upper bound on ``d(h, x)``;
2. whenever ``h`` is the top-ranked vertex on every shortest ``h``-``s``
   path, ``L(s)`` holds ``h`` at exactly ``d(h, s)``.

The hub *sets* may differ from the canonical rebuild, and an insert
can leave stale (too large, never too small) entries behind; the
answers may not differ.

Once a single mutation touches more than ``rebuild_fraction`` of the
roots, or the staleness accumulator -- detected root fractions plus
the net label growth relative to the size at the last build -- crosses
``staleness_budget``, repair is abandoned for a full rebuild served
through the optional :class:`~repro.perf.cache.LabelCache` (or
:func:`~repro.perf.build.build_flat_labels` without one).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..core.orders import degree_order
from ..core.pll import _pruned_sweep_bfs, _pruned_sweep_dijkstra
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
from ..perf.flat import FlatHubLabeling, insert_entries, merge_dense, retier
from ..perf.kernels import DENSE_TIERS, SENTINELS, TILE, cell_index, dist_dtype

__all__ = ["DynamicHubLabeling", "RepairReport"]


@dataclass
class RepairReport:
    """What one ``insert_edge`` / ``delete_edge`` call did.

    ``affected_roots`` counts the roots whose sweeps ran (for an
    insert, the endpoint hubs resumed), or the detected roots when the
    edit rebuilt.  An overwritten entry counts as one removed and one
    added, so ``labels_added - labels_removed`` is the label growth.
    """

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
        if self.rebuilt:
            how, roots = "full rebuild", "affected"
        elif self.op == "insert":
            how, roots = "resumed repair", "swept"
        else:
            how, roots = "incremental repair", "swept"
        return (
            f"{self.op} {{{self.u}, {self.v}}} w={self.weight}: "
            f"{how}, {self.affected_roots} {roots} roots, "
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
        self._mutations = 0
        self._rebuild()
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
        """Detected-root fractions accumulated since the last full build,
        plus the net label growth over the entries that build held."""
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

        The repair resumes the sweeps of the hubs of ``L(u)`` and
        ``L(v)`` across the new edge; detection only sizes the edit
        for the rebuild budget.  Raises ``ValueError`` if the edge is
        already present (parallel edges are not stored, so a duplicate
        insert is almost always a script bug) and propagates
        ``add_edge``'s validation errors.
        """
        if self._graph.has_edge(u, v):
            raise ValueError(f"edge {{{u}, {v}}} already present")
        started = time.perf_counter()
        stages = _Stages()
        with span("dynamic.repair"):
            affected = self._affected_roots(u, v, weight, insert=True)
            stages.done("detect")
            self._graph.add_edge(u, v, weight)
            swept, removed, added, rebuilt = self._repair_or_rebuild(
                affected, stages, (u, v, weight)
            )
        return self._report(
            "insert", u, v, weight, swept, removed, added, rebuilt,
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
            swept, removed, added, rebuilt = self._repair_or_rebuild(
                affected, stages, None
            )
        return self._report(
            "delete", u, v, weight, swept, removed, added, rebuilt,
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
        ``{u, v}``.  ``du[r] = d(r, u)`` by symmetry of the labeling,
        and both rows are exact: entries may overshoot, answers never.
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

    def _repair_or_rebuild(self, affected: List[int], stages: _Stages, edge):
        """Repair the store for an edit already applied to the graph.

        ``edge`` is the inserted ``(u, v, w)``, whose endpoint hubs'
        sweeps resume, or ``None`` for a delete, whose ``affected``
        roots are invalidated and re-swept.  Returns
        ``(roots swept, removed, added, rebuilt)``.
        """
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
            self._rebuild()
            stages.done("rebuild")
            return len(affected), before, self._store.total_size(), True
        if edge is None:
            survivors, removed = self._invalidate(affected)
            stages.done("invalidate")
        else:
            survivors, removed = (
                (*self._store.arrays(), *self._store.dense()), 0
            )
        swept, additions = self._resweep(survivors, affected, edge)
        stages.done("resweep")
        added = 0
        if removed or additions[0]:  # otherwise nothing changed
            self._store, overwritten, added = self._splice(survivors, additions)
            removed += overwritten
        stages.done("splice")
        self._staleness += (added - removed) / max(self._built_size, 1)
        return swept, removed, added, False

    def _invalidate(self, affected: List[int]):
        """The store minus every entry whose hub is affected.

        Returns ``((offsets, hubs, dists, dense_hubs, dense), removed)``:
        the tail without those entries and the dense part with the
        affected hubs' columns emptied -- with nothing affected, the
        store's own read-only views.
        """
        offsets, hubs, dists = self._store.arrays()
        dense_hubs, dense = self._store.dense()
        if not affected:
            return (offsets, hubs, dists, dense_hubs, dense), 0
        n = len(offsets) - 1
        stale = np.zeros(n, dtype=bool)
        stale[affected] = True
        keep = ~stale[hubs]
        owner = np.repeat(np.arange(n, dtype=np.int64), np.diff(offsets))[keep]
        kept = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(owner, minlength=n), out=kept[1:])
        removed = len(hubs) - len(owner)
        gone = np.flatnonzero(stale[dense_hubs])
        if len(gone):
            sentinel = SENTINELS[dense.dtype]
            columns = gone // TILE, slice(None), gone % TILE
            dense = dense.copy()
            removed += int(np.count_nonzero(dense[columns] < sentinel))
            dense[columns] = sentinel
        return (kept, hubs[keep], dists[keep], dense_hubs, dense), removed

    def _resweep(self, survivors, affected: List[int], edge):
        """Pruned sweeps over the survivors.

        A delete (``edge is None``) sweeps each affected root from
        itself at distance 0; an insert resumes, for each hub ``h`` of
        ``L(u)``, ``h``'s sweep at ``v`` from ``L(u)[h] + w``, and
        symmetrically for ``L(v)``.  Roots go in rank order.  Each
        sweep prunes against the survivors plus this repair's earlier
        writes.  Returns ``(roots swept, (vertices, hubs, dists))``.

        No ``(vertex, hub)`` key is written twice in one repair: a
        sweep visits a vertex once, a delete sweeps each root once, and
        an insert's two resumed sweeps of one hub ``h`` cannot both
        write a vertex ``x``.  Each write would beat ``d(h, x)`` before
        the edit, yet the sweep resumed at ``v`` never passes ``u`` and
        the one resumed at ``u`` never passes ``v``, so the two
        distances sum to at least twice it.
        """
        offsets, hubs, dists, dense_hubs, dense = survivors
        graph = self._graph
        if dists.dtype.kind == "f" and (dists == np.floor(dists)).all():
            dists = dists.astype(np.int64)
        # Memoryview slices iterate as Python numbers (ints for the
        # integer dist tiers), so a tail run thaws without a copy or a
        # per-row NumPy call; the dense cells a vertex holds join it.
        run_hubs, run_dists = memoryview(hubs), memoryview(dists)
        starts = offsets.tolist()
        rows: List[Optional[Dict[int, float]]] = [None] * graph.num_vertices
        columns = dense_hubs.tolist()
        sentinel = SENTINELS[dense.dtype]

        def thaw(x: int) -> Dict[int, float]:
            a, b = starts[x], starts[x + 1]
            row = rows[x] = dict(zip(run_hubs[a:b], run_dists[a:b]))
            if columns:
                row.update(
                    (hub, cell)
                    for hub, cell in zip(columns, dense[:, x].ravel().tolist())
                    if cell < sentinel
                )
            return row

        rank = self._rank
        if edge is None:
            roots = sorted(affected, key=rank.__getitem__)
            sweeps = [(root, root, 0) for root in roots]
        else:
            u, v, w = edge
            at_u, at_v = thaw(u), thaw(v)
            roots = sorted(at_u.keys() | at_v.keys(), key=rank.__getitem__)
            sweeps = [
                (root, start, label[root] + w)
                for root in roots
                for start, label in ((v, at_u), (u, at_v))
                if root in label
            ]
        sweep = _pruned_sweep_dijkstra if graph.is_weighted else _pruned_sweep_bfs
        vertices: List[int] = []
        hub_ids: List[int] = []
        depths: List[float] = []
        for root, start, offset in sweeps:
            before = len(vertices)
            sweep(graph, root, start, offset, rows, thaw, rank, vertices, depths)
            hub_ids.extend([root] * (len(vertices) - before))
        return len(roots), (vertices, hub_ids, depths)

    def _splice(self, survivors, additions):
        """Merge the sweeps' writes into the survivors as a fresh store.

        The store keeps the survivors' dense hubs: a write to one of
        them lands in its column, overwriting or filling the vertex's
        cell.  In the tail, a write whose ``(vertex, hub)`` key a
        survivor holds replaces that survivor's distance; the others
        are inserted in key order.  The merged distances take the wider
        of the survivors' dist tier and the writes', then narrow to the
        tightest tier holding them all; on the ``uint32`` tier, which
        holds no dense part, the columns fold back into the tail.
        Returns ``(store, overwritten, added)``.
        """
        offsets, hubs, dists, dense_hubs, dense = survivors
        n = len(offsets) - 1
        add_v = np.array(additions[0], dtype=np.int64)
        add_h = np.array(additions[1], dtype=hubs.dtype)
        add_d = np.array(additions[2])
        written = len(add_v)
        wide = np.promote_types(dists.dtype, dist_dtype(add_d))
        overwritten = 0
        if len(dense_hubs):
            column = np.full(n, -1, dtype=np.int64)
            column[dense_hubs] = np.arange(len(dense_hubs))
            columns = column[add_h]
            into = columns >= 0
            dense = retier(dense, wide)
            cells = cell_index(columns[into], add_v[into], n)
            overwritten += int(
                np.count_nonzero(dense.reshape(-1)[cells] < SENTINELS[wide])
            )
            dense.reshape(-1)[cells] = add_d[into]
            keep = ~into
            add_v, add_h, add_d = add_v[keep], add_h[keep], add_d[keep]
        keys = add_v * n + add_h
        order = np.argsort(keys)
        keys, add_v, add_h, add_d = (
            keys[order], add_v[order], add_h[order], add_d[order]
        )
        # Survivor keys ascend (vertex-major, hubs ascending per run).
        owner = np.repeat(np.arange(n, dtype=np.int64), np.diff(offsets))
        held = owner * n + hubs
        at = np.searchsorted(held, keys)
        hit = at < len(held)
        hit[hit] = held[at[hit]] == keys[hit]
        dists = dists.astype(wide)
        dists[at[hit]] = add_d[hit]
        overwritten += int(hit.sum())
        new = ~hit
        if new.any():
            offsets, hubs, dists = insert_entries(
                offsets, hubs, dists, at[new],
                add_v[new], add_h[new], add_d[new],
            )
        tier = dist_dtype(dists)
        if len(dense_hubs):
            if dense.dtype.kind == "f":  # the one dense tier that narrows
                held_cells = dense[dense < SENTINELS[dense.dtype]]
                tier = np.promote_types(tier, dist_dtype(held_cells))
            else:
                tier = np.promote_types(tier, dense.dtype)
            if tier not in DENSE_TIERS:  # uint32: sentinel sums wrap
                offsets, hubs, dists = merge_dense(
                    offsets, hubs, dists, dense_hubs, dense
                )
                dense_hubs, dense = dense_hubs[:0], dense[:0]
        if dense.dtype != tier:
            dense = retier(dense, tier)
        store = FlatHubLabeling.from_buffers(
            offsets,
            hubs,
            dists.astype(tier, copy=False),
            dense_hubs,
            dense,
            dense_entries=int(np.count_nonzero(dense < SENTINELS[tier])),
            validate=False,
        )
        return store, overwritten, written

    def _rebuild(self) -> None:
        """Replace the store with a full build and reset the budget."""
        if self._cache is not None:
            self._store = self._cache.load_or_build(self._graph, list(self._order))
        else:
            self._store = build_flat_labels(self._graph, list(self._order))
        self._built_size = self._store.total_size()
        self._staleness = 0.0

    def _report(
        self, op, u, v, weight, swept, removed, added, rebuilt,
        seconds, op_metric, stages,
    ) -> RepairReport:
        registry = get_registry()
        if registry.enabled:
            registry.counter(op_metric).inc()
            registry.gauge(DYNAMIC_AFFECTED_ROOTS).set(swept)
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
            affected_roots=swept,
            labels_removed=removed, labels_added=added,
            rebuilt=rebuilt, seconds=seconds,
        )
