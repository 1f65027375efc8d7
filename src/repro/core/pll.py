"""Pruned landmark labeling (PLL) -- the standard hub-labeling baseline.

PLL (Akiba, Iwata, Yoshida, SIGMOD 2013) processes vertices in a fixed
priority order ``v_1, v_2, ...``.  For each ``v_k`` it runs a *pruned*
traversal: when reaching ``u`` at distance ``d``, if the labels built so
far already certify ``dist(v_k, u) <= d`` the search is cut at ``u``;
otherwise ``v_k`` is added to ``S(u)`` with distance ``d``.

The result is the canonical *hierarchical* hub labeling for the order: it
is correct for every pair, and minimal among hierarchical labelings for
that order.  The paper's lower bound (Theorem 1.1) applies to *all* hub
labelings, so PLL on the hard instances gives the measured side of
experiment E4.

Both unweighted (pruned BFS) and weighted (pruned Dijkstra) graphs are
supported; weight-0 edges are handled by the Dijkstra path.  The two
sweeps are the ones :mod:`repro.dynamic` repairs labels with: static
PLL enters each root's sweep at the root itself at distance 0, in
rank order, writing into the labeling's per-vertex dicts.
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import List, Optional

from ..graphs.graph import Graph
from ..graphs.traversal import INF
from ..obs.catalog import BUILD_LABELS_PER_SECOND
from ..obs.registry import get_registry
from ..obs.spans import span
from .hublabel import HubLabeling
from .orders import degree_order

__all__ = ["pruned_landmark_labeling"]


def pruned_landmark_labeling(
    graph: Graph, order: Optional[List[int]] = None
) -> HubLabeling:
    """Build the canonical hierarchical hub labeling for ``order``.

    ``order`` defaults to decreasing degree.  Every vertex appears in its
    own hub set (with distance 0), which PLL guarantees by construction.

    The build reports tracing spans (``pll.build`` with nested
    ``pll.order`` / ``pll.sweeps``) and a ``build.labels_per_second``
    gauge to the active metrics registry.
    """
    with span("pll.build") as build_span:
        with span("pll.order"):
            if order is None:
                order = degree_order(graph)
            if sorted(order) != list(graph.vertices()):
                raise ValueError(
                    "order must be a permutation of the vertices"
                )
        labeling = HubLabeling(graph.num_vertices)
        with span("pll.sweeps"):
            # Every row exists, so the sweep never thaws one; every hub
            # already in L(root) ranks above root, so the sweep's rank
            # restriction prunes exactly as plain PLL does.
            rows = labeling._labels
            rank = [0] * graph.num_vertices
            for position, vertex in enumerate(order):
                rank[vertex] = position
            sweep = (
                _pruned_sweep_dijkstra if graph.is_weighted else _pruned_sweep_bfs
            )
            for root in order:
                sweep(graph, root, root, 0, rows, None, rank, [], [])
    _report_build_rate("pll", labeling, build_span.duration)
    return labeling


def _report_build_rate(builder: str, labeling, duration) -> None:
    """Set ``build.labels_per_second{builder=...}`` for a finished build."""
    registry = get_registry()
    if registry.enabled and duration:
        registry.gauge(BUILD_LABELS_PER_SECOND, builder=builder).set(
            labeling.total_size() / duration
        )


def _pruned_sweep_bfs(
    graph, root, start, offset, rows, thaw, rank, vertices, depths
):
    """Root ``root``'s pruned BFS, entered at ``start`` at distance ``offset``.

    Static PLL and a delete re-sweep enter at the root itself with
    offset 0; an insert repair resumes at an endpoint of the new edge.
    A visit of ``x`` at distance ``d`` is pruned when ``L(x)`` already
    holds ``root`` at ``<= d``, or a hub ranked strictly above ``root``
    certifies ``<= d`` (``L(root)[root]`` is 0, so together these are
    the hubs ranked at or above ``root``).  Lower-ranked hubs never
    prune: the exactness argument (docs/dynamic.md) needs ``L(x)`` to
    hold ``root`` wherever ``root`` tops every shortest path.  Otherwise
    the visit writes ``L(x)[root] = d``, overwriting a larger entry,
    and appends ``x`` and ``d`` to ``vertices`` / ``depths``.
    ``rows[x]`` is ``x``'s live label dict (``thaw(x)`` creates it).
    """
    limit = rank[root]
    label = rows[root]
    if label is None:
        label = thaw(root)
    pruners = {hub: d for hub, d in label.items() if rank[hub] < limit}
    dist = {start: offset}
    queue = deque([start])
    while queue:
        x = queue.popleft()
        d = dist[x]
        label = rows[x]
        if label is None:
            label = thaw(x)
        held = label.get(root)
        if held is not None and held <= d:
            continue
        small, large = (
            (pruners, label) if len(pruners) <= len(label) else (label, pruners)
        )
        for hub, dh in small.items():
            dx = large.get(hub)
            if dx is not None and dh + dx <= d:
                break
        else:
            label[root] = d
            vertices.append(x)
            depths.append(d)
            for y, _ in graph.neighbors(x):
                if y not in dist:
                    dist[y] = d + 1
                    queue.append(y)


def _pruned_sweep_dijkstra(
    graph, root, start, offset, rows, thaw, rank, vertices, depths
):
    """Weighted analogue of :func:`_pruned_sweep_bfs`."""
    limit = rank[root]
    label = rows[root]
    if label is None:
        label = thaw(root)
    pruners = {hub: d for hub, d in label.items() if rank[hub] < limit}
    dist = {start: offset}
    heap = [(offset, start)]
    while heap:
        d, x = heapq.heappop(heap)
        if d > dist[x]:
            continue
        label = rows[x]
        if label is None:
            label = thaw(x)
        held = label.get(root)
        if held is not None and held <= d:
            continue
        small, large = (
            (pruners, label) if len(pruners) <= len(label) else (label, pruners)
        )
        for hub, dh in small.items():
            dx = large.get(hub)
            if dx is not None and dh + dx <= d:
                break
        else:
            label[root] = d
            vertices.append(x)
            depths.append(d)
            for y, w in graph.neighbors(x):
                nd = d + w
                if nd < dist.get(y, INF):
                    dist[y] = nd
                    heapq.heappush(heap, (nd, y))
