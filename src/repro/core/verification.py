"""Verification of hub labelings against ground-truth distances.

A labeling is *correct* (a shortest-path cover / 2-hop cover) when every
connected pair's query equals the true distance.  The checker reports the
violating pairs, which the tests use both positively (constructions are
correct) and negatively (deliberately broken labelings are caught).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from ..graphs.graph import Graph
from ..graphs.traversal import INF, shortest_path_distances
from ..runtime.errors import DomainError
from .hublabel import HubLabeling

__all__ = [
    "CoverReport",
    "verify_cover",
    "is_valid_cover",
    "coverage_fraction",
    "verify_cover_sampled",
]


@dataclass
class CoverReport:
    """Outcome of a full cover check."""

    num_pairs: int
    num_covered: int
    violations: List[Tuple[int, int, float, float]] = field(
        default_factory=list
    )
    #: Cap that was applied to the stored violation list (the counts above
    #: are always exact).
    violation_cap: Optional[int] = None

    @property
    def ok(self) -> bool:
        return self.num_covered == self.num_pairs

    @property
    def fraction_covered(self) -> float:
        if self.num_pairs == 0:
            return 1.0
        return self.num_covered / self.num_pairs

    def __repr__(self) -> str:
        status = "OK" if self.ok else f"{len(self.violations)}+ violations"
        return (
            f"CoverReport(pairs={self.num_pairs}, "
            f"covered={self.num_covered}, {status})"
        )


def verify_cover(
    graph: Graph,
    labeling: HubLabeling,
    *,
    pairs: Optional[Sequence[Tuple[int, int]]] = None,
    max_violations: int = 100,
    include_disconnected: bool = False,
) -> CoverReport:
    """Check that the labeling answers every (given) pair exactly.

    When ``pairs`` is None all connected ordered pairs ``u < v`` are
    checked via ``n`` single-source traversals.  Violations are recorded
    as ``(u, v, true_distance, query_result)`` up to ``max_violations``.

    ``include_disconnected`` additionally checks pairs with no path:
    their query must return INF (a corrupted labeling inventing a finite
    distance for a disconnected pair is a violation too).  The runtime's
    admission gate uses this; the default matches the paper's cover
    property, which only constrains connected pairs.
    """
    if labeling.num_vertices != graph.num_vertices:
        raise DomainError(
            "labeling does not match the graph's vertex count"
        )
    report = CoverReport(
        num_pairs=0, num_covered=0, violation_cap=max_violations
    )
    if pairs is not None:
        for u, v in pairs:
            dist, _ = shortest_path_distances(graph, u)
            _check_pair(report, u, v, dist[v], labeling, max_violations)
        return report
    for u in graph.vertices():
        dist, _ = shortest_path_distances(graph, u)
        for v in range(u + 1, graph.num_vertices):
            if dist[v] == INF and not include_disconnected:
                continue
            _check_pair(report, u, v, dist[v], labeling, max_violations)
    return report


def _check_pair(
    report: CoverReport,
    u: int,
    v: int,
    true_distance: float,
    labeling: HubLabeling,
    max_violations: int,
) -> None:
    report.num_pairs += 1
    estimate = labeling.query(u, v)
    if estimate == true_distance:
        report.num_covered += 1
    elif len(report.violations) < max_violations:
        report.violations.append((u, v, true_distance, estimate))


def verify_cover_sampled(
    graph: Graph,
    labeling: HubLabeling,
    *,
    num_sources: int = 32,
    seed: int = 0,
    max_violations: int = 100,
    include_disconnected: bool = False,
) -> CoverReport:
    """Cover check from a random sample of source vertices.

    For graphs beyond full-APSP reach: runs one traversal per sampled
    source and checks every pair it roots.  A passing report certifies
    exactly the sampled rows; a failing one is a genuine counterexample.
    """
    import random

    if labeling.num_vertices != graph.num_vertices:
        raise DomainError(
            "labeling does not match the graph's vertex count"
        )
    n = graph.num_vertices
    rng = random.Random(seed)
    sources = (
        list(graph.vertices())
        if num_sources >= n
        else rng.sample(range(n), num_sources)
    )
    report = CoverReport(
        num_pairs=0, num_covered=0, violation_cap=max_violations
    )
    for u in sources:
        dist, _ = shortest_path_distances(graph, u)
        for v in graph.vertices():
            if v == u or (dist[v] == INF and not include_disconnected):
                continue
            _check_pair(report, u, v, dist[v], labeling, max_violations)
    return report


def is_valid_cover(graph: Graph, labeling: HubLabeling) -> bool:
    """True iff the labeling is a correct exact-distance 2-hop cover."""
    return verify_cover(graph, labeling, max_violations=1).ok


def coverage_fraction(graph: Graph, labeling: HubLabeling) -> float:
    """The fraction of connected pairs answered exactly (1.0 = correct)."""
    return verify_cover(graph, labeling, max_violations=0).fraction_covered
