"""Compressed sparse row (CSR) adjacency for tight traversal loops.

The list-of-tuples :class:`~repro.graphs.Graph` is convenient; for the
big hard instances (10^4-10^5 vertices) the labeling algorithms want a
flat layout: ``offsets[v] : offsets[v+1]`` slices ``targets`` (and
``weights``) -- no per-edge tuple objects, no dict lookups.

:class:`CSRGraph` is a read-only view built from a :class:`Graph`, its
three arrays int64 NumPy arrays; the bit-parallel builder
(:mod:`repro.perf.build`) reads them as they are.
"""

from __future__ import annotations

from itertools import chain
from typing import Tuple

import numpy as np

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
        n = graph.num_vertices
        self.num_vertices = n
        self._num_edges = graph.num_edges
        self.is_weighted = graph.is_weighted
        self.offsets = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(graph.degrees(), out=self.offsets[1:])
        arcs = int(self.offsets[-1])
        # Every (neighbor, weight) pair flattened into one int64 run,
        # iterated in C over the adjacency rows themselves: no per-edge
        # Python objects, no per-vertex range check.
        pairs = np.fromiter(
            chain.from_iterable(chain.from_iterable(graph._adj)),
            dtype=np.int64,
            count=2 * arcs,
        ).reshape(arcs, 2)
        self.targets = pairs[:, 0].copy()
        self.weights = pairs[:, 1].copy()

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
        return int(self.offsets[v]), int(self.offsets[v + 1])

    def neighbor_ids(self, v: int) -> np.ndarray:
        """``v``'s neighbor ids, a view into ``targets``."""
        start, end = self.neighbor_slice(v)
        return self.targets[start:end]
