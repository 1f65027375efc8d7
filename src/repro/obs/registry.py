"""The metrics registry: counters, gauges, and latency histograms.

Dependency-free observability primitives for the oracle runtime.  The
design follows the usual exposition model (Prometheus-style counters /
gauges / fixed-bucket histograms) but stays deliberately tiny so the
instrumented hot paths -- :meth:`repro.oracles.oracle.HubLabelOracle.query`
above all -- pay nanoseconds, not microseconds:

* instruments are plain objects with a ``value`` attribute (counters,
  gauges) or a short bucket array (histograms); increments are attribute
  writes, not method-call chains;
* the registry interns instruments by ``(name, labels)`` so callers can
  cache the returned object and skip the lookup on every event;
* everything hangs off a process-global but *swappable*
  :func:`get_registry` handle, so tests isolate themselves by swapping
  in a fresh :class:`Registry` (see :func:`use_registry` and the autouse
  fixture in ``tests/conftest.py``).

Thread-safety: a plain ``counter.value += 1`` is a read-modify-write
that the GIL does *not* make atomic, so every mutation path is safe by
construction instead.  :class:`Counter` shards its count per thread
(lock-free striped cells; :meth:`Counter.inc` is exact under any
concurrency, and hot paths can inline a cell bump -- see the class
docstring); :class:`Gauge` and :class:`Histogram` mutate under a
per-instrument lock.  Direct attribute writes (``counter.value = 7``)
remain legal only on paths that are single-threaded by construction.
Instrument *creation* takes the registry lock.  Process pools do not
share a registry -- workers observe into their own (empty) one.
"""

from __future__ import annotations

import threading
from bisect import bisect_left
from contextlib import contextmanager
from math import ceil, inf
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "Registry",
    "NullRegistry",
    "get_registry",
    "set_registry",
    "use_registry",
    "DEFAULT_LATENCY_BUCKETS",
]

#: Bucket upper edges (seconds) for latency histograms: 1-2.5-5 decades
#: from a microsecond to ten seconds, which brackets every query and
#: build phase in this codebase.  The implicit final bucket is +inf.
DEFAULT_LATENCY_BUCKETS: Tuple[float, ...] = (
    1e-6, 2.5e-6, 5e-6,
    1e-5, 2.5e-5, 5e-5,
    1e-4, 2.5e-4, 5e-4,
    1e-3, 2.5e-3, 5e-3,
    1e-2, 2.5e-2, 5e-2,
    1e-1, 2.5e-1, 5e-1,
    1.0, 2.5, 5.0, 10.0,
)

LabelItems = Tuple[Tuple[str, str], ...]

#: Serializes :meth:`Counter.feed` (rare: once per owner and registry).
_feed_lock = threading.Lock()


def _label_key(labels: Dict[str, str]) -> LabelItems:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


class Counter:
    """A monotonically increasing count, exact under concurrency.

    The count is sharded per thread: every thread owns one mutable
    *cell* (a one-element list) and bumps only that, so concurrent
    :meth:`inc` calls never race on shared state and never need a lock
    -- the classic striped-counter design, at Python speed.  Reading
    :attr:`value` sums the cells; after writer threads are joined the
    sum is exact (mid-flight it is a consistent monotone approximation).

    Hot paths that bump the same counter millions of times can skip the
    method-call overhead entirely: fetch the calling thread's cell once
    with :meth:`cell` and do ``cell[0] += 1`` inline -- single-writer,
    still exact, and as cheap as a bare attribute bump.  A cell must
    never be shared across threads.

    A component that keeps its own per-thread tallies can :meth:`feed`
    them to a counter instead of bumping it: the counter then reads
    those cells as well, so one bump counts in both places.

    Assigning :attr:`value` directly (``counter.value = 7``,
    ``counter.value += 2``) resets the shards and is legal only on
    single-threaded paths -- tests and legacy call sites.
    """

    __slots__ = ("name", "labels", "_cells", "_base", "_feeds")
    kind = "counter"

    def __init__(self, name: str, labels: LabelItems) -> None:
        self.name = name
        self.labels = labels
        self._cells: Dict[int, List[int]] = {}
        self._base = 0
        # (cells, slot) pairs summed by value; the first is our own.
        self._feeds: Tuple[Tuple[Dict[int, List[int]], int], ...] = (
            (self._cells, 0),
        )

    def cell(self) -> List[int]:
        """The calling thread's count cell (created on first use)."""
        ident = threading.get_ident()
        found = self._cells.get(ident)
        if found is None:
            # Only this thread inserts this key: no lock needed.
            found = self._cells[ident] = [0]
        return found

    def inc(self, amount: int = 1) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        self.cell()[0] += amount

    def feed(self, cells: Dict[int, List[int]], slot: int) -> None:
        """Also count ``cell[slot]`` of every cell in ``cells`` (a
        thread-ident -> list map its owner bumps one thread per cell).

        Idempotent per ``cells`` object.  The counter keeps the map, so
        the counts stay in after their owner is gone.  The counter
        reads the whole map, counts made before this call included, and
        goes on reading it after its registry stops being the current
        one: an owner fed to several registries rises in all of them.
        """
        with _feed_lock:  # owners bind from several threads at once
            if not any(fed is cells for fed, _ in self._feeds):
                self._feeds = self._feeds + ((cells, slot),)

    @property
    def value(self) -> int:
        while True:
            try:
                return self._base + sum(
                    cell[slot]
                    for cells, slot in self._feeds
                    for cell in cells.values()
                )
            except RuntimeError:
                # A new thread registered its cell mid-sum; retry (the
                # sum is only exact after writers are joined anyway).
                continue

    @value.setter
    def value(self, total: int) -> None:
        self._cells.clear()
        self._base = 0
        self._base = total - self.value

    def snapshot(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "type": self.kind,
            "labels": dict(self.labels),
            "value": self.value,
        }


class Gauge:
    """A value that can go up and down (a rate, a set size, ...).

    ``set`` / ``inc`` / ``dec`` are atomic; see :class:`Counter`.
    """

    __slots__ = ("name", "labels", "value", "_lock")
    kind = "gauge"

    def __init__(self, name: str, labels: LabelItems) -> None:
        self.name = name
        self.labels = labels
        self.value = 0.0
        self._lock = threading.Lock()

    def set(self, value: float) -> None:
        with self._lock:
            self.value = value

    def inc(self, amount: float = 1) -> None:
        with self._lock:
            self.value += amount

    def dec(self, amount: float = 1) -> None:
        with self._lock:
            self.value -= amount

    def snapshot(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "type": self.kind,
            "labels": dict(self.labels),
            "value": self.value,
        }


class Histogram:
    """A fixed-bucket histogram with exact count/sum/min/max.

    ``buckets`` are the finite upper edges, ascending; an implicit
    ``+inf`` bucket catches the overflow.  An observation ``x`` lands in
    the first bucket with ``x <= edge`` (edges are inclusive upper
    bounds, the Prometheus ``le`` convention -- an observation exactly
    on an edge belongs to that edge's bucket).

    Quantiles (:meth:`percentile`) are estimated by linear interpolation
    inside the owning bucket and clamped to the exact observed
    ``[min, max]``, so they are never wilder than the data.
    """

    __slots__ = ("name", "labels", "buckets", "counts", "count", "sum",
                 "min", "max", "_lock")
    kind = "histogram"

    def __init__(
        self,
        name: str,
        labels: LabelItems,
        buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS,
    ) -> None:
        edges = tuple(float(edge) for edge in buckets)
        if not edges:
            raise ValueError("histogram needs at least one bucket edge")
        if any(a >= b for a, b in zip(edges, edges[1:])):
            raise ValueError("bucket edges must be strictly ascending")
        self.name = name
        self.labels = labels
        self.buckets = edges
        self.counts = [0] * (len(edges) + 1)  # last one is +inf
        self.count = 0
        self.sum = 0.0
        self.min = inf
        self.max = -inf
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        # One lock guards the five correlated fields: concurrent
        # observers must never leave count and counts disagreeing.
        with self._lock:
            self.counts[bisect_left(self.buckets, value)] += 1
            self.count += 1
            self.sum += value
            if value < self.min:
                self.min = value
            if value > self.max:
                self.max = value

    def percentile(self, p: float) -> Optional[float]:
        """The estimated ``p``-quantile (``p`` in ``[0, 1]``), or None."""
        if not 0 <= p <= 1:
            raise ValueError("p must be within [0, 1]")
        if self.count == 0:
            return None
        rank = max(1, ceil(p * self.count))
        cumulative = 0
        for index, bucket_count in enumerate(self.counts):
            if bucket_count == 0:
                continue
            if cumulative + bucket_count >= rank:
                low = self.buckets[index - 1] if index > 0 else self.min
                high = (
                    self.buckets[index]
                    if index < len(self.buckets)
                    else self.max
                )
                low = max(low, self.min)
                high = min(high, self.max)
                if high <= low:
                    return low
                fraction = (rank - cumulative) / bucket_count
                return low + fraction * (high - low)
            cumulative += bucket_count
        return self.max  # unreachable unless counts drifted

    @property
    def mean(self) -> Optional[float]:
        return self.sum / self.count if self.count else None

    def snapshot(self) -> Dict[str, object]:
        edges: List[Optional[float]] = list(self.buckets) + [None]
        return {
            "name": self.name,
            "type": self.kind,
            "labels": dict(self.labels),
            "count": self.count,
            "sum": self.sum,
            "min": self.min if self.count else None,
            "max": self.max if self.count else None,
            "buckets": [
                [edge, count] for edge, count in zip(edges, self.counts)
            ],
            "p50": self.percentile(0.50),
            "p95": self.percentile(0.95),
            "p99": self.percentile(0.99),
        }


class Registry:
    """Interns instruments by ``(name, sorted labels)`` and snapshots them.

    ``enabled`` is True for real registries; instrumented code checks it
    once when (re)binding its cached instruments and skips all metric
    work when serving under a :class:`NullRegistry`.
    """

    enabled = True

    def __init__(self) -> None:
        self._instruments: Dict[Tuple[str, LabelItems], object] = {}
        self._lock = threading.Lock()
        self._traces: List[Tuple[str, int, float]] = []

    # ------------------------------------------------------------------
    # Instrument factories (get-or-create)
    # ------------------------------------------------------------------
    def _intern(self, cls, name: str, labels: Dict[str, str], *args):
        key = (name, _label_key(labels))
        instrument = self._instruments.get(key)
        if instrument is None:
            with self._lock:
                instrument = self._instruments.get(key)
                if instrument is None:
                    instrument = cls(name, key[1], *args)
                    self._instruments[key] = instrument
        if not isinstance(instrument, cls):
            raise TypeError(
                f"metric {name!r} already registered as "
                f"{type(instrument).__name__}, not {cls.__name__}"
            )
        return instrument

    def counter(self, name: str, **labels: str) -> Counter:
        return self._intern(Counter, name, labels)

    def gauge(self, name: str, **labels: str) -> Gauge:
        return self._intern(Gauge, name, labels)

    def histogram(
        self,
        name: str,
        *,
        buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS,
        **labels: str,
    ) -> Histogram:
        histogram = self._intern(Histogram, name, labels, buckets)
        if histogram.buckets != tuple(float(edge) for edge in buckets):
            raise ValueError(
                f"histogram {name!r} already registered with different "
                "bucket edges"
            )
        return histogram

    # ------------------------------------------------------------------
    # Trace log (completed spans; see repro.obs.spans)
    # ------------------------------------------------------------------
    #: Completed spans kept per registry; old entries rotate out so a
    #: long-lived process cannot grow without bound.
    MAX_TRACES = 4096

    def record_trace(self, path: str, depth: int, duration: float) -> None:
        # Spans complete on whatever thread ran them; the rotation is a
        # read-modify-write, so it shares the registry lock.
        with self._lock:
            traces = self._traces
            traces.append((path, depth, duration))
            if len(traces) > self.MAX_TRACES:
                del traces[: len(traces) - self.MAX_TRACES]

    def traces(self) -> List[Tuple[str, int, float]]:
        """Completed spans as ``(path, depth, duration)``, oldest first."""
        with self._lock:
            return list(self._traces)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def metrics(self) -> List[object]:
        """Every registered instrument, sorted by (name, labels)."""
        return [
            self._instruments[key] for key in sorted(self._instruments)
        ]

    def metric_names(self) -> List[str]:
        return sorted({name for name, _ in self._instruments})

    def get(self, name: str, **labels: str):
        """The instrument registered under ``(name, labels)``, or None."""
        return self._instruments.get((name, _label_key(labels)))

    def snapshot(self) -> Dict[str, object]:
        """A JSON-serializable view of every instrument (schema v1)."""
        return {
            "version": 1,
            "metrics": [
                instrument.snapshot() for instrument in self.metrics()
            ],
        }

    def __len__(self) -> int:
        return len(self._instruments)

    def __repr__(self) -> str:
        return f"{type(self).__name__}(instruments={len(self)})"


class NullRegistry(Registry):
    """A disabled registry: instrumented code sees ``enabled == False``
    and skips metric work entirely (the bench overhead suite serves its
    uninstrumented side under one).  Instruments can still be created --
    they just never reach an exporter by default."""

    enabled = False


_active: Registry = Registry()
_swap_lock = threading.Lock()


def get_registry() -> Registry:
    """The process-global registry every instrumented path reports to."""
    return _active


def set_registry(registry: Registry) -> Registry:
    """Swap the process-global registry; returns the previous one."""
    global _active
    if not isinstance(registry, Registry):
        raise TypeError("set_registry needs a Registry")
    with _swap_lock:
        previous = _active
        _active = registry
    return previous


@contextmanager
def use_registry(registry: Optional[Registry] = None) -> Iterator[Registry]:
    """Temporarily serve metrics into ``registry`` (default: a fresh one).

    The previous global registry is restored on exit even when the body
    raises -- the isolation primitive behind every obs test.
    """
    registry = registry if registry is not None else Registry()
    previous = set_registry(registry)
    try:
        yield registry
    finally:
        set_registry(previous)
