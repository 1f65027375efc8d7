"""The paper's upper-bound construction (Theorem 4.1 / Theorem 1.4).

Builds, for any graph of bounded max degree, a hub labeling of total size
``O(D^5 n^2 / RS(n) + n^2 log D / D)`` -- which, at the paper's choice
``D = RS(n)^{1/6}``, is ``O(n^2 / RS(n)^{1/6} * polylog)`` total, i.e.
``O(n / RS(n)^{1/c})`` average with ``c <= 7``.

The construction follows the proof of Theorem 4.1 verbatim:

1. **Far pairs** (``|H_uv| >= D``): a random hitting set ``S`` of size
   ``(n / D) ln D`` hits almost every rich pair; the few misses are
   stored explicitly in correction sets ``Q_v``
   (:mod:`repro.core.hitting`).
2. **Color conflicts**: vertices get uniform colors from ``[1, D^3]``;
   a near pair whose candidate set ``H_uv`` (size ``<= D``) is *not*
   rainbow-colored is stored explicitly in ``R_v``.
3. **Rainbow near pairs**: for every hub candidate ``h`` and distance
   split ``(a, b)``, the ordered pairs ``(u, v)`` with
   ``h ∈ H_uv, dist(u,h) = a, dist(h,v) = b`` form a bipartite graph
   ``E^h_{a,b}``.  A maximal matching is extracted, a minimum vertex
   cover (Koenig) charges ``h`` to the sets ``F_v`` of covered vertices,
   and the final labels take the closed neighborhoods ``N(F_v)``.
   Lemma 4.2: matchings of same-colored hubs tile an RS graph, bounding
   ``sum |F_v| = O(D^5 n^2 / RS(n))``.

The cover argument (case 3 of the proof) walks a shortest path: every
path vertex lands in ``F_u`` or ``F_v``; at a switch point two adjacent
path vertices split sides, so ``N(F_u) ∩ N(F_v)`` contains a valid hub.
Self-hubs (always included) absorb the no-switch cases.

Works for unweighted and {0, 1}-weighted graphs (degree reduction
output); the paper notes the construction generalizes verbatim.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from ..graphs.graph import Graph
from ..graphs.shortest_paths import (
    all_pairs_distances,
    hub_candidates_from_distances,
)
from ..graphs.traversal import INF
from ..rs.function import rs_upper_bound
from ..rs.matchings import greedy_maximal_matching, konig_vertex_cover
from .hitting import HittingSetResult, build_hitting_set
from .hublabel import HubLabeling

__all__ = ["RSSchemeResult", "rs_hub_labeling", "default_threshold"]


@dataclass
class RSSchemeResult:
    """The labeling plus the per-component accounting of the proof."""

    labeling: HubLabeling
    threshold: int
    num_colors: int
    hitting: HittingSetResult
    #: sum over v of |Q_v| (explicit far-pair corrections).
    correction_total: int
    #: sum over v of |R_v| (color-conflict corrections).
    conflict_total: int
    #: sum over v of |F_v| (hub charges from vertex covers).
    charge_total: int
    #: sum over v of |N(F_v)|.
    neighborhood_total: int
    #: number of non-empty bipartite graphs E^h_{a,b} processed.
    num_pair_graphs: int = 0
    #: matchings grouped by (color, a, b) for the Lemma 4.2 diagnostics.
    matchings_by_color: Dict[Tuple[int, int, int], List[List[Tuple[int, int]]]] = field(
        default_factory=dict
    )

    def component_sizes(self) -> Dict[str, int]:
        n = self.labeling.num_vertices
        return {
            "hitting_set": len(self.hitting.hitting_set) * n,
            "corrections_Q": self.correction_total,
            "conflicts_R": self.conflict_total,
            "charges_F": self.charge_total,
            "neighborhoods_NF": self.neighborhood_total,
            "total_label_size": self.labeling.total_size(),
        }


def default_threshold(num_vertices: int) -> int:
    """The paper's choice ``D = RS(n)^{1/6}`` on the Behrend curve."""
    rs = rs_upper_bound(max(num_vertices, 2))
    return max(2, int(round(rs ** (1.0 / 6.0))))


def rs_hub_labeling(
    graph: Graph,
    *,
    threshold: Optional[int] = None,
    seed: int = 0,
    collect_matchings: bool = False,
    cover_method: str = "konig",
) -> RSSchemeResult:
    """Run the Theorem 4.1 construction on ``graph``.

    ``threshold`` is the parameter ``D`` (defaults to the paper's
    ``RS(n)^{1/6}``).  The returned labeling is always a correct exact
    cover; the result records the size of every proof component.

    ``cover_method`` selects the vertex cover used to charge hubs:
    ``"konig"`` computes a true minimum cover (what the paper's "some
    minimum vertex cover" asks for); ``"matching"`` takes both endpoints
    of the greedy maximal matching -- the 2-approximation the proof's
    *bound* actually uses (``|VC| <= 2 |MM|``).  The ablation benchmark
    compares the two.

    Complexity: ``O(n * m)`` for APSP plus ``O(n^2 D)`` for the pair
    scan -- intended for instances up to a few thousand vertices.
    """
    if cover_method not in ("konig", "matching"):
        raise ValueError("cover_method must be 'konig' or 'matching'")
    n = graph.num_vertices
    if threshold is None:
        threshold = default_threshold(n)
    if threshold < 2:
        raise ValueError("threshold D must be >= 2")
    rng = random.Random(seed)
    matrix = all_pairs_distances(graph)

    labeling = HubLabeling(n)
    for v in range(n):
        labeling.add_hub(v, v, 0)

    # --- Step 1: far pairs via the random hitting set -----------------
    hitting = build_hitting_set(
        graph, threshold, seed=rng.randrange(1 << 30), matrix=matrix
    )
    for h in hitting.hitting_set:
        for v in range(n):
            if matrix[v][h] != INF:
                labeling.add_hub(v, h, matrix[v][h])
    correction_total = 0
    for u, partners in hitting.corrections.items():
        for v in partners:
            labeling.add_hub(u, v, matrix[u][v])
            correction_total += 1

    # --- Step 2: random coloring, conflict sets R ----------------------
    num_colors = threshold ** 3
    colors = [rng.randrange(num_colors) for _ in range(n)]
    conflict_total = 0
    near_rainbow_pairs: List[Tuple[int, int, List[int]]] = []
    # Far pairs are step 1's job; in unweighted graphs distance
    # >= threshold - 1 certifies |H_uv| >= threshold without a scan.
    unweighted = not graph.is_weighted
    for u in range(n):
        row_u = matrix[u]
        for v in range(u + 1, n):
            if row_u[v] == INF:
                continue
            if unweighted and row_u[v] >= threshold - 1:
                continue  # rich pair, handled by step 1
            candidates = hub_candidates_from_distances(
                row_u, matrix[v], row_u[v]
            )
            if len(candidates) >= threshold:
                continue  # handled by step 1
            seen_colors: Set[int] = set()
            conflict = False
            for x in candidates:
                if colors[x] in seen_colors:
                    conflict = True
                    break
                seen_colors.add(colors[x])
            if conflict:
                # Store the pair explicitly (v into R_u and u into R_v).
                labeling.add_hub(u, v, row_u[v])
                labeling.add_hub(v, u, row_u[v])
                conflict_total += 2
            else:
                near_rainbow_pairs.append((u, v, candidates))

    # --- Step 3: pair graphs, matchings, vertex covers, F sets ---------
    pair_graphs: Dict[Tuple[int, int, int], List[Tuple[int, int]]] = {}
    for u, v, candidates in near_rainbow_pairs:
        duv = matrix[u][v]
        for h in candidates:
            a = matrix[u][h]
            b = matrix[h][v]
            # Ordered both ways so each endpoint can be charged.
            pair_graphs.setdefault((h, a, b), []).append((u, v))
            pair_graphs.setdefault((h, b, a), []).append((v, u))
    charges: List[Set[int]] = [set() for _ in range(n)]
    matchings_by_color: Dict[
        Tuple[int, int, int], List[List[Tuple[int, int]]]
    ] = {}
    for (h, a, b), edges in pair_graphs.items():
        matching = greedy_maximal_matching(edges)
        if cover_method == "konig":
            left_cover, right_cover = konig_vertex_cover(edges)
            cover = left_cover | right_cover
        else:
            cover = {u for u, _ in matching} | {v for _, v in matching}
        for w in cover:
            charges[w].add(h)
        if collect_matchings:
            matchings_by_color.setdefault(
                (colors[h], a, b), []
            ).append(matching)
    charge_total = sum(len(f) for f in charges)
    neighborhood_total = 0
    for v in range(n):
        closed: Set[int] = set()
        for h in charges[v]:
            closed.add(h)
            closed.update(graph.neighbor_ids(h))
        for x in closed:
            if matrix[v][x] != INF:
                labeling.add_hub(v, x, matrix[v][x])
        neighborhood_total += len(closed)

    return RSSchemeResult(
        labeling=labeling,
        threshold=threshold,
        num_colors=num_colors,
        hitting=hitting,
        correction_total=correction_total,
        conflict_total=conflict_total,
        charge_total=charge_total,
        neighborhood_total=neighborhood_total,
        num_pair_graphs=len(pair_graphs),
        matchings_by_color=matchings_by_color,
    )
