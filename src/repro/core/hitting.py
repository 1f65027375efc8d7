"""Random hitting sets for far pairs -- property (∗) of Section 4.

For a threshold ``D``, call a pair ``(u, v)`` *rich* when its hub
candidate set ``H_uv`` (every vertex on some shortest path) has size at
least ``D``.  Sampling ``|S| = ceil((n / D) * ln D)`` vertices uniformly
leaves each rich pair unhit with probability ``<= (1 - D/n)^{|S|} <= 1/D``,
so in expectation at most ``n^2 / D`` rich pairs survive; those survivors
are stored explicitly in the sets ``Q_v``.

This is also the mechanism behind the sparse-graph schemes of
[ADKP16, GKU16]: far pairs are cheap, only short distances are hard.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Dict, List, Set

from ..graphs.graph import Graph
from ..graphs.shortest_paths import all_pairs_distances
from ..graphs.traversal import INF
from ..obs.catalog import BUILD_PAIRS_PER_SECOND
from ..obs.registry import get_registry
from ..obs.spans import span

__all__ = ["HittingSetResult", "hitting_set_size", "build_hitting_set"]


def hitting_set_size(n: int, threshold: int) -> int:
    """The sample size ``ceil((n / D) * ln D)`` used in the proof."""
    if threshold < 1:
        raise ValueError("threshold must be >= 1")
    if threshold == 1:
        return n
    return min(n, max(1, math.ceil(n / threshold * math.log(threshold))))


@dataclass
class HittingSetResult:
    """A sampled hitting set plus its per-vertex correction sets.

    ``hitting_set`` is the global sample ``S``; ``corrections[u]`` is the
    paper's ``Q_u``: partners ``v`` of rich pairs not hit by ``S``.
    Together they cover every rich pair: either some ``h ∈ S ∩ H_uv`` or
    ``v ∈ Q_u`` acts as the hub.
    """

    threshold: int
    hitting_set: Set[int]
    corrections: Dict[int, Set[int]] = field(default_factory=dict)
    num_rich_pairs: int = 0

    @property
    def num_uncovered(self) -> int:
        return sum(len(q) for q in self.corrections.values())

    def correction_bound(self, n: int) -> float:
        """The proof's expectation bound ``n^2 / D`` on |uncovered|."""
        return n * n / self.threshold


def build_hitting_set(
    graph: Graph,
    threshold: int,
    *,
    seed: int = 0,
    matrix: List[List[float]] = None,
) -> HittingSetResult:
    """Sample ``S`` and collect the correction sets ``Q_u``.

    ``matrix`` may supply a precomputed distance matrix (APSP reuse by
    the RS scheme); otherwise it is computed here.  Rich pairs are
    detected exactly via ``|H_uv| >= D``.
    """
    with span("hitting.build"):
        n = graph.num_vertices
        rng = random.Random(seed)
        size = hitting_set_size(n, threshold)
        sample = set(rng.sample(range(n), size)) if n else set()
        if matrix is None:
            with span("hitting.apsp"):
                matrix = all_pairs_distances(graph)
        result = HittingSetResult(threshold=threshold, hitting_set=sample)
        sample_list = sorted(sample)
        # In an unweighted graph a shortest path of length d carries d + 1
        # candidate hubs, so distance >= threshold - 1 certifies richness
        # without scanning -- the common case for far pairs.
        unweighted = not graph.is_weighted
        with span("hitting.classify") as classify_span:
            for u in range(n):
                row_u = matrix[u]
                for v in range(u + 1, n):
                    duv = row_u[v]
                    if duv == INF:
                        continue
                    row_v = matrix[v]
                    if unweighted and duv >= threshold - 1:
                        rich = True
                    else:
                        count = 0
                        for x in range(n):
                            if row_u[x] + row_v[x] == duv:
                                count += 1
                                if count >= threshold:
                                    break
                        rich = count >= threshold
                    if not rich:
                        continue
                    result.num_rich_pairs += 1
                    # A sample vertex on a shortest path?  O(|S|)
                    # short-circuit.
                    hit = any(
                        row_u[s] + row_v[s] == duv for s in sample_list
                    )
                    if not hit:
                        result.corrections.setdefault(u, set()).add(v)
                        result.corrections.setdefault(v, set()).add(u)
    registry = get_registry()
    if registry.enabled and classify_span.duration:
        registry.gauge(BUILD_PAIRS_PER_SECOND, builder="hitting-set").set(
            (n * (n - 1) // 2) / classify_span.duration
        )
    return result
