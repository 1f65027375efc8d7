"""A threshold-based hub labeling for sparse graphs (ADKP16/GKU16 style).

Section 1.1 of the paper sketches how the first sublinear schemes for
sparse graphs work: a random global hubset of size ``~ (n/D) log D``
covers almost every pair at distance ``>= D``; pairs at distance ``< D``
are covered by storing the ball of radius ``D`` explicitly (plus explicit
corrections for the few far pairs the sample misses).

This module implements that recipe as an honest baseline:

* every vertex stores itself, the global sample ``S``, its correction
  set, and its distance-``<= D`` ball;
* correctness is unconditional (balls cover all near pairs because
  ``v ∈ ball(u, D)`` whenever ``dist(u, v) <= D``);
* on bounded-degree graphs with ``D ~ log n / log Δ`` the average label
  size lands at ``O(n log D / D + Δ^D)``, the shape of
  [ADKP16]'s bound (their paper then works much harder to tame
  high-degree vertices; the library's degree reduction can be composed
  for that).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from ..graphs.graph import Graph
from ..graphs.shortest_paths import all_pairs_distances
from ..graphs.traversal import INF
from .hitting import HittingSetResult, build_hitting_set
from .hublabel import HubLabeling

__all__ = ["SparseSchemeResult", "sparse_hub_labeling", "default_radius"]


@dataclass
class SparseSchemeResult:
    """Labeling plus the accounting of its two ingredients."""

    labeling: HubLabeling
    radius: int
    hitting: HittingSetResult
    ball_total: int
    correction_total: int


def default_radius(graph: Graph) -> int:
    """A ball radius balancing ``n/D`` against ``Δ^D``: ``log_Δ n``."""
    n = max(graph.num_vertices, 2)
    delta = max(graph.max_degree(), 2)
    return max(1, int(round(math.log(n) / math.log(delta))))


def sparse_hub_labeling(
    graph: Graph,
    *,
    radius: Optional[int] = None,
    seed: int = 0,
) -> SparseSchemeResult:
    """Build the threshold scheme with ball radius ``D = radius``.

    Far pairs (distance ``> D``) have ``|H_uv| >= D`` automatically (in
    unweighted graphs every shortest-path vertex is a candidate), so the
    hitting-set machinery of :mod:`repro.core.hitting` applies verbatim.
    """
    if graph.is_weighted:
        raise ValueError("the sparse scheme expects an unweighted graph")
    n = graph.num_vertices
    if radius is None:
        radius = default_radius(graph)
    if radius < 1:
        raise ValueError("radius must be >= 1")
    labeling = HubLabeling(n)
    matrix = all_pairs_distances(graph)
    hitting = build_hitting_set(graph, radius + 1, seed=seed, matrix=matrix)
    for v in range(n):
        labeling.add_hub(v, v, 0)
        row = matrix[v]
        for h in hitting.hitting_set:
            if row[h] != INF:
                labeling.add_hub(v, h, row[h])
    correction_total = 0
    for u, partners in hitting.corrections.items():
        for v in partners:
            labeling.add_hub(u, v, matrix[u][v])
            correction_total += 1
    ball_total = 0
    for v in range(n):
        row = matrix[v]
        for x in range(n):
            if x != v and row[x] <= radius:
                labeling.add_hub(v, x, row[x])
                ball_total += 1
    return SparseSchemeResult(
        labeling=labeling,
        radius=radius,
        hitting=hitting,
        ball_total=ball_total,
        correction_total=correction_total,
    )
