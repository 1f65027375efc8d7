"""Vertex orderings for hierarchical hub labelings.

Pruned landmark labeling (:mod:`repro.core.pll`) processes vertices in a
fixed order and produces the canonical *hierarchical* labeling for that
order; the order is therefore the entire tuning surface.  This module
provides the standard choices from the hub-labeling literature:

* :func:`degree_order` -- highest degree first (the classic PLL default),
  ties broken by a fixed-seed random key per vertex;
* :func:`random_order` -- a seeded uniformly random permutation;
* :func:`coverage_order` -- greedy shortest-path-coverage (approximate
  betweenness): repeatedly pick the vertex covering the most still
  uncovered pairs.  Quadratic; meant for small instances and baselines;
* :func:`eccentricity_order` -- most central (smallest eccentricity)
  first, a good choice on grids and meshes.

Why :func:`degree_order` breaks ties at random: sparse graphs are mostly
long runs of equal-degree vertices, and index order runs monotonically
along each of them.  PLL then roots a path's vertices from one end to
the other; no earlier root ever lies between a root and the vertices
ahead of it, so nothing prunes, and the ``i``-th vertex keeps all ``i``
earlier roots as hubs: ``path_graph(500)`` stores 124,752 entries with
ties by index and 5,371 with random ties.  The paper's ``G(2, 2)``
(23,424 of its 24,400 vertices sit on degree-2 subdivision paths) drops
from 3,139,752 entries to 1,162,234.  The keys come from
``random.Random(0).random()``, whose stream Python keeps fixed across
versions: the order is part of every :class:`~repro.perf.cache.LabelCache`
key and every pinned label count.
"""

from __future__ import annotations

import random
from typing import List

import numpy as np

from ..graphs.graph import Graph
from ..graphs.shortest_paths import all_pairs_distances
from ..graphs.traversal import INF, shortest_path_distances

__all__ = [
    "degree_order",
    "random_order",
    "eccentricity_order",
    "coverage_order",
    "betweenness_order",
]


def degree_order(graph: Graph) -> List[int]:
    """Vertices by decreasing degree, ties by a fixed random key, then index.

    The keys are ``random.Random(0).random()`` drawn in vertex order, so
    the order depends only on the degree sequence: it is the same across
    calls and on ``graph.copy()``.  Random rather than index ties keep
    PLL from labeling each equal-degree path end to end (see the module
    docstring: 124,752 vs 5,371 entries on ``path_graph(500)``).
    """
    n = graph.num_vertices
    degree = np.array(graph.degrees(), dtype=np.int64)
    keys = np.fromiter(iter(random.Random(0).random, None), np.float64, n)
    return np.lexsort((np.arange(n), keys, -degree)).tolist()


def random_order(graph: Graph, seed: int = 0) -> List[int]:
    """A seeded random permutation of the vertices."""
    order = list(graph.vertices())
    random.Random(seed).shuffle(order)
    return order


def eccentricity_order(graph: Graph) -> List[int]:
    """Vertices by increasing eccentricity (most central first).

    Costs ``n`` single-source traversals.
    """
    keys = []
    for v in graph.vertices():
        dist, _ = shortest_path_distances(graph, v)
        finite = [d for d in dist if d != INF]
        keys.append((max(finite) if finite else 0, v))
    keys.sort()
    return [v for _, v in keys]


def betweenness_order(graph: Graph) -> List[int]:
    """Vertices by decreasing exact betweenness (Brandes), ties by index.

    The strongest general-purpose order for PLL on structured graphs;
    ``O(nm)`` preprocessing.
    """
    from ..graphs.betweenness import betweenness_centrality

    scores = betweenness_centrality(graph)
    return sorted(graph.vertices(), key=lambda v: (-scores[v], v))


def coverage_order(graph: Graph, *, rounds: int = None) -> List[int]:
    """Greedy coverage order.

    Repeatedly selects the vertex lying on shortest paths between the most
    still-uncovered pairs (computed exactly from the distance matrix), a
    quadratic-memory stand-in for betweenness orderings.  ``rounds`` caps
    the greedy phase; remaining vertices are appended by degree.
    """
    n = graph.num_vertices
    if rounds is None:
        rounds = n
    matrix = all_pairs_distances(graph)
    uncovered = {
        (u, v)
        for u in range(n)
        for v in range(u + 1, n)
        if matrix[u][v] != INF
    }
    order: List[int] = []
    chosen = [False] * n
    for _ in range(min(rounds, n)):
        if not uncovered:
            break
        best_vertex = -1
        best_gain = -1
        for w in range(n):
            if chosen[w]:
                continue
            gain = sum(
                1
                for (u, v) in uncovered
                if matrix[u][w] + matrix[w][v] == matrix[u][v]
            )
            if gain > best_gain:
                best_gain = gain
                best_vertex = w
        if best_vertex == -1:
            break
        chosen[best_vertex] = True
        order.append(best_vertex)
        w = best_vertex
        uncovered = {
            (u, v)
            for (u, v) in uncovered
            if matrix[u][w] + matrix[w][v] != matrix[u][v]
        }
    for v in degree_order(graph):
        if not chosen[v]:
            order.append(v)
            chosen[v] = True
    return order
