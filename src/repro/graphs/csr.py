"""Compressed sparse row (CSR) adjacency for tight traversal loops.

The list-of-tuples :class:`~repro.graphs.Graph` is convenient; for the
big hard instances (10^4-10^5 vertices) the labeling algorithms want a
flat layout: ``offsets[v] : offsets[v+1]`` slices ``targets`` (and
``weights``) -- no per-edge tuple objects, no dict lookups.

:class:`CSRGraph` is a read-only view built from a :class:`Graph`;
the bit-parallel builder (:mod:`repro.perf.build`) and the parallel
per-root traversals (:mod:`repro.perf.parallel`) consume it.
"""

from __future__ import annotations

from itertools import accumulate
from typing import List, Tuple

from .graph import Graph

__all__ = ["CSRGraph"]


class CSRGraph:
    """Read-only CSR adjacency built from a :class:`Graph`."""

    __slots__ = (
        "num_vertices",
        "offsets",
        "targets",
        "weights",
        "is_weighted",
        "_num_edges",
    )

    def __init__(self, graph: Graph) -> None:
        self.num_vertices = graph.num_vertices
        self._num_edges = graph.num_edges
        self.offsets = list(accumulate(graph.degrees(), initial=0))
        pairs = [pair for v in graph.vertices() for pair in graph.neighbors(v)]
        self.targets = [u for u, _ in pairs]
        self.weights = [w for _, w in pairs]
        self.is_weighted = graph.is_weighted

    @property
    def num_edges(self) -> int:
        """Edge count carried over from the source :class:`Graph`.

        Counting ``len(self.targets) // 2`` would silently halve
        odd-length adjacency (self-loops or digraph-style builds store
        one slot per direction); the builder knows the true count, so
        it is recorded instead of re-derived.
        """
        return self._num_edges

    def __repr__(self) -> str:
        kind = "weighted" if self.is_weighted else "unweighted"
        return (
            f"CSRGraph(n={self.num_vertices}, m={self.num_edges}, {kind})"
        )

    def neighbor_slice(self, v: int) -> Tuple[int, int]:
        """The [start, end) range of ``v``'s neighbors in ``targets``."""
        return self.offsets[v], self.offsets[v + 1]

    def neighbor_ids(self, v: int) -> List[int]:
        start, end = self.neighbor_slice(v)
        return self.targets[start:end]
