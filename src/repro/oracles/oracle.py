"""Centralized distance oracles with space/time accounting (Section 1).

The paper frames its result as precluding hub-label-based oracles on the
``S * T = O~(n^2)`` trade-off curve for sparse graphs.  This module
provides the concrete endpoints and middle of that spectrum so the
benchmarks can chart measured (space, query-time) points:

* :class:`MatrixOracle` -- ``S = O(n^2)`` words, ``T = O(1)``;
* :class:`HubLabelOracle` -- ``S = sum |S_v|`` words, ``T = O(|S_u| +
  |S_v|)``;
* :class:`LandmarkOracle` -- ``S = O(n^2 / T)`` words: distances to a
  ``k``-vertex landmark set are stored, plus a ball of radius bounded by
  the landmark separation is searched at query time (exact, because
  every long path hits a landmark).

Space is counted in stored machine words (ids + distances), time in
elementary operations reported by each query.
"""

from __future__ import annotations

import heapq
import operator
import random
import threading
from dataclasses import dataclass
from time import perf_counter
from typing import Dict, List, Optional, Tuple

from ..core.hublabel import HubLabeling
from ..graphs.graph import Graph
from ..graphs.shortest_paths import all_pairs_distances
from ..graphs.traversal import INF, shortest_path_distances
from ..obs.catalog import (
    ORACLE_BATCHES,
    ORACLE_BATCH_LATENCY_SECONDS,
    ORACLE_QUERIES,
    ORACLE_QUERY_LATENCY_SECONDS,
)
from ..obs.registry import get_registry as _get_registry
from ..runtime.errors import DomainError

__all__ = [
    "QueryOutcome",
    "MatrixOracle",
    "HubLabelOracle",
    "LandmarkOracle",
    "LATENCY_SAMPLE",
]

#: Scalar queries are timed deterministically 1-in-``LATENCY_SAMPLE``
#: (the ``oracle.queries`` counter stays exact); full per-query timing
#: would cost two clock reads per microsecond-scale merge and blow the
#: <= 10% instrumentation-overhead budget the bench gate enforces.
LATENCY_SAMPLE = 16


@dataclass(frozen=True)
class QueryOutcome:
    """An exact distance plus the work the oracle did to produce it.

    ``source`` records which engine produced the answer: ``"oracle"``
    for the plain oracles here, ``"label"`` / ``"fallback"`` for the
    resilient runtime's two paths.  Disconnected pairs uniformly get
    ``distance == INF`` (never an exception).
    """

    distance: float
    operations: int
    source: str = "oracle"


def _check_query_domain(num_vertices: int, u: int, v: int) -> None:
    """Shared vertex-id validation: every oracle rejects ids outside
    ``0..n-1``, and ids that are not integers (``1.5``, ``'3'``), with
    :class:`DomainError` instead of wrapping around (negative ids),
    truncating, or raising a raw IndexError."""
    for vertex in (u, v):
        try:
            inside = 0 <= operator.index(vertex) < num_vertices
        except TypeError:
            raise DomainError(
                f"vertex {vertex!r} is not an integer vertex id"
            ) from None
        if not inside:
            raise DomainError(
                f"vertex {vertex} outside 0..{num_vertices - 1}"
            )


class MatrixOracle:
    """Full APSP matrix: maximal space, constant-time queries."""

    name = "matrix"

    def __init__(self, graph: Graph) -> None:
        self._rows: List[List[float]] = all_pairs_distances(graph)

    def space_words(self) -> int:
        return sum(len(row) for row in self._rows)

    def query(self, u: int, v: int) -> QueryOutcome:
        _check_query_domain(len(self._rows), u, v)
        return QueryOutcome(distance=self._rows[u][v], operations=1)


class HubLabelOracle:
    """A hub labeling used as a centralized oracle.

    ``backend`` selects the label store: ``"dict"`` keeps the mutable
    per-vertex dictionaries of :class:`HubLabeling`; ``"flat"`` freezes
    them into a :class:`~repro.perf.flat.FlatHubLabeling` (immutable
    CSR arrays, pointer-merge queries, vectorized :meth:`batch_query`).
    Either store answers every query identically; only speed and
    memory layout change.
    """

    name = "hub-label"

    def __init__(self, labeling, *, backend: str = "dict") -> None:
        if backend not in ("dict", "flat"):
            raise ValueError(
                f"backend must be 'dict' or 'flat', got {backend!r}"
            )
        # Imported lazily: repro.perf sits above the oracles layer.
        from ..perf.flat import FlatHubLabeling

        if backend == "flat" and not isinstance(labeling, FlatHubLabeling):
            labeling = FlatHubLabeling.from_labeling(labeling)
        elif backend == "dict" and isinstance(labeling, FlatHubLabeling):
            labeling = labeling.to_labeling()
        self._labeling = labeling
        self._backend = backend
        # Metrics bind lazily against the active registry and rebind if
        # it is swapped (tests isolate themselves that way); under a
        # disabled registry the query path skips all metric work.  The
        # scalar path additionally caches per-thread state (the calling
        # thread's counter cell + the latency histogram) in a
        # threading.local, so concurrent clients count exactly without
        # a lock on the hottest line in the codebase.
        self._obs_registry = None
        self._obs: Optional[tuple] = None
        self._tlocal = threading.local()

    @classmethod
    def from_graph(
        cls,
        graph: Graph,
        *,
        order: Optional[List[int]] = None,
        backend: str = "flat",
        cache_dir=None,
    ) -> "HubLabelOracle":
        """Build an oracle straight from a graph, labels included.

        The construction end-to-end path: the canonical hierarchical
        labeling is produced by the bit-parallel direct-to-flat builder
        (:func:`repro.perf.build.build_flat_labels`) -- no dict
        intermediate, no conversion pass -- and served through the
        requested ``backend``.  With ``cache_dir`` the labels go
        through :class:`repro.perf.cache.LabelCache`, so repeat runs
        skip construction entirely.
        """
        # Imported lazily: repro.perf sits above the oracles layer.
        if cache_dir is not None:
            from ..perf.cache import LabelCache

            flat = LabelCache(cache_dir).load_or_build(graph, order)
        else:
            from ..perf.build import build_flat_labels

            flat = build_flat_labels(graph, order)
        return cls(flat, backend=backend)

    def _rebind_obs(self, registry) -> Optional[tuple]:
        if registry.enabled:
            backend = self._backend
            obs = (
                registry.counter(ORACLE_QUERIES, backend=backend),
                registry.histogram(
                    ORACLE_QUERY_LATENCY_SECONDS, backend=backend
                ),
                registry.counter(ORACLE_BATCHES, backend=backend),
                registry.histogram(
                    ORACLE_BATCH_LATENCY_SECONDS, backend=backend
                ),
            )
        else:
            obs = None
        # Publish the tuple before the registry marker: a concurrent
        # reader that sees the marker match must never pick up a stale
        # (possibly None) tuple and silently skip counting.
        self._obs = obs
        self._obs_registry = registry
        return obs

    @property
    def backend(self) -> str:
        return self._backend

    @property
    def labeling(self):
        """The underlying label store (dict or flat, per ``backend``)."""
        return self._labeling

    @property
    def accepts_pair_arrays(self) -> bool:
        """True when :meth:`batch_query` natively consumes an ``(m, 2)``
        int64 ndarray (the flat backend's kernels do; the dict backend
        would only iterate it slowly).  Batch producers such as
        :class:`~repro.serve.server.QueryServer` use this to skip the
        array -> tuple-list -> array round trip on the hot path --
        answers are byte-identical either way."""
        return self._backend == "flat"

    def space_words(self) -> int:
        # One (hub, distance) pair per entry.
        return 2 * self._labeling.total_size()

    def _bind_thread_obs(self, registry) -> tuple:
        """The calling thread's cached scalar-path instrumentation:
        ``(registry, counter cell, latency histogram)`` -- or ``(registry,
        None, None)`` under a disabled registry."""
        obs = (
            self._obs
            if registry is self._obs_registry
            else self._rebind_obs(registry)
        )
        if obs is None:
            state = (registry, None, None)
        else:
            state = (registry, obs[0].cell(), obs[1])
        self._tlocal.state = state
        return state

    def query(self, u: int, v: int) -> QueryOutcome:
        """:meth:`_serve` plus metrics: an exact per-backend query
        counter and a 1-in-``LATENCY_SAMPLE`` latency histogram sample
        (see the module constant for why sampling)."""
        registry = _get_registry()
        state = getattr(self._tlocal, "state", None)
        if state is None or state[0] is not registry:
            state = self._bind_thread_obs(registry)
        cell = state[1]
        if cell is None:
            return self._serve(u, v)
        # The cell is this thread's shard of the query counter: bumping
        # it inline is exact under any concurrency (single writer) and
        # as cheap as the attribute write it replaces.  The sampling
        # cadence keys off the same per-thread count, so each thread
        # times 1-in-LATENCY_SAMPLE of its own queries -- exactly the
        # global cadence when single-threaded, the same sampling *rate*
        # when not.  A query that raises is never counted.
        count = cell[0] + 1
        if count % LATENCY_SAMPLE:
            outcome = self._serve(u, v)
            cell[0] = count
            return outcome
        start = perf_counter()
        outcome = self._serve(u, v)
        elapsed = perf_counter() - start
        cell[0] = count
        state[2].observe(elapsed)
        return outcome

    def _serve(self, u: int, v: int) -> QueryOutcome:
        _check_query_domain(self._labeling.num_vertices, u, v)
        operations = min(
            self._labeling.label_size(u), self._labeling.label_size(v)
        )
        return QueryOutcome(
            distance=self._labeling.query(u, v), operations=operations
        )

    def batch_query(self, pairs) -> List[float]:
        """Distances for a list of pairs (no per-query accounting).

        The flat backend dispatches to its vectorized kernels; the dict
        backend loops the scalar query.  Answers are identical either
        way -- this is the oracle surface the benchmark gate compares.
        Metrics: the query counter grows by ``len(pairs)``, the batch
        latency histogram gets the batch wall time, and the scalar
        latency histogram gets the batch's per-pair mean once.
        """
        registry = _get_registry()
        obs = (
            self._obs
            if registry is self._obs_registry
            else self._rebind_obs(registry)
        )
        if obs is None:
            return self._serve_batch(pairs)
        start = perf_counter()
        answers = self._serve_batch(pairs)
        elapsed = perf_counter() - start
        obs[0].inc(len(answers))
        obs[2].inc()
        obs[3].observe(elapsed)
        if answers:
            obs[1].observe(elapsed / len(answers))
        return answers

    def _serve_batch(self, pairs) -> List[float]:
        n = self._labeling.num_vertices
        if self._backend == "flat":
            return self._labeling.batch_query(pairs)
        for u, v in pairs:
            _check_query_domain(n, u, v)
        query = self._labeling.query
        return [query(u, v) for u, v in pairs]


class LandmarkOracle:
    """Landmark distances plus bounded bidirectional search.

    ``k`` landmarks are sampled (plus a deterministic degree-based
    seed); every vertex stores its distance to each landmark
    (``S = O(n k)``).  A query runs Dijkstra from both endpoints but
    *prunes* any vertex whose best landmark route cannot be improved --
    and, crucially, first computes the landmark upper bound
    ``min_l d(u, l) + d(l, v)`` and stops the searches at radius
    ``bound / 2``.  Exactness: the true shortest path either stays
    within the two balls (found by the search) or leaves them, in which
    case it has length >= bound and the landmark route is tight enough.
    """

    name = "landmark"

    def __init__(
        self,
        graph: Graph,
        num_landmarks: int,
        *,
        seed: int = 0,
    ) -> None:
        if num_landmarks < 1:
            raise ValueError("need at least one landmark")
        self._graph = graph
        n = graph.num_vertices
        rng = random.Random(seed)
        chosen = set()
        # Highest-degree vertex anchors the set; the rest are random.
        if n:
            chosen.add(max(graph.vertices(), key=graph.degree))
        while len(chosen) < min(num_landmarks, n):
            chosen.add(rng.randrange(n))
        self._landmarks = sorted(chosen)
        self._to_landmark: List[List[float]] = [
            shortest_path_distances(graph, landmark)[0]
            for landmark in self._landmarks
        ]

    def space_words(self) -> int:
        return len(self._landmarks) * self._graph.num_vertices

    def landmark_upper_bound(self, u: int, v: int) -> float:
        best = INF
        for row in self._to_landmark:
            candidate = row[u] + row[v]
            if candidate < best:
                best = candidate
        return best

    def query(self, u: int, v: int) -> QueryOutcome:
        _check_query_domain(self._graph.num_vertices, u, v)
        if u == v:
            return QueryOutcome(distance=0, operations=1)
        bound = self.landmark_upper_bound(u, v)
        operations = len(self._landmarks)
        # Bidirectional Dijkstra capped at the landmark bound.
        n = self._graph.num_vertices
        dist_f: Dict[int, float] = {u: 0}
        dist_b: Dict[int, float] = {v: 0}
        heap_f: List[Tuple[float, int]] = [(0, u)]
        heap_b: List[Tuple[float, int]] = [(0, v)]
        best = bound
        while heap_f or heap_b:
            if heap_f and heap_b:
                if heap_f[0][0] + heap_b[0][0] >= best:
                    break
            elif heap_f:
                if heap_f[0][0] >= best:
                    break
            elif heap_b[0][0] >= best:
                break
            if not heap_b or (heap_f and heap_f[0][0] <= heap_b[0][0]):
                heap, dist, other = heap_f, dist_f, dist_b
            else:
                heap, dist, other = heap_b, dist_b, dist_f
            d, x = heapq.heappop(heap)
            if d > dist.get(x, INF):
                continue
            operations += 1
            other_d = other.get(x)
            if other_d is not None and d + other_d < best:
                best = d + other_d
            for y, w in self._graph.neighbors(x):
                nd = d + w
                if nd < dist.get(y, INF) and nd < best:
                    dist[y] = nd
                    heapq.heappush(heap, (nd, y))
                    operations += 1
                    other_d = other.get(y)
                    if other_d is not None and nd + other_d < best:
                        best = nd + other_d
        return QueryOutcome(distance=best, operations=operations)
