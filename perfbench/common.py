"""Shared pieces of the benchmark: seeded inputs, digests, ground truth,
memory accounting, tracing and the run record every workload fills in.

The inputs, the BFS ground truth and the spans are the benchmark's own
code, so a change to the program cannot change what is asked of it or
how it is graded.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import statistics
import threading
from contextlib import contextmanager
from time import perf_counter
from typing import Dict, List, Sequence

import numpy as np

INF = float("inf")

#: Where a run leaves its scratch files and trace dumps: inside the
#: checkout, ignored by git.
OUT_DIR = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), ".perfbench_out"
)

#: Prefix of the shared-memory segments the label stores publish.
SHM_PREFIX = "repro_labels_"


# ----------------------------------------------------------------------
# Seeded inputs
# ----------------------------------------------------------------------
class Stream:
    """A seeded source of integers and uniforms.

    Draws come straight from the PCG64 bit generator's raw 64-bit
    output, whose sequence for a given seed is fixed, rather than from
    ``Generator`` methods whose algorithms may change between NumPy
    releases.  The modulo bias is below 2**-40 for every vertex count
    used here.
    """

    def __init__(self, seed: int, lane: int) -> None:
        self._bits = np.random.PCG64([lane, seed])

    def ints(self, size: int, bound: int) -> np.ndarray:
        raw = self._bits.random_raw(size)
        return (raw % np.uint64(bound)).astype(np.int64)

    def uniform(self, size: int) -> np.ndarray:
        raw = self._bits.random_raw(size)
        return (raw >> np.uint64(11)).astype(np.float64) * (1.0 / (1 << 53))

    def choice(self, bound: int) -> int:
        return int(self.ints(1, bound)[0])


class Digest:
    """A running sha256 over the arrays and tuples a workload generates."""

    def __init__(self) -> None:
        self._hash = hashlib.sha256()

    def add(self, *parts) -> None:
        for part in parts:
            if isinstance(part, np.ndarray):
                self._hash.update(np.ascontiguousarray(part, "<i8").tobytes())
            else:
                self._hash.update(repr(part).encode())

    def hexdigest(self) -> str:
        return self._hash.hexdigest()


def graph_digest(graph) -> str:
    """sha256 of a graph's sorted weighted edge list."""
    edges = sorted(
        (min(u, v), max(u, v), w) for u, v, w in graph.edges()
    )
    digest = Digest()
    digest.add(graph.num_vertices, np.array(edges, dtype=np.int64))
    return digest.hexdigest()


class PinError(Exception):
    """A generated input no longer matches its recorded digest."""


def check_pin(pins: Dict[str, str], key: str, actual: str) -> None:
    expected = pins.get(key)
    if expected != actual:
        raise PinError(
            f"input {key!r} changed: recorded {expected}, generated {actual}"
        )


# ----------------------------------------------------------------------
# Ground truth
# ----------------------------------------------------------------------
def adjacency(graph) -> List[set]:
    return [set(graph.neighbor_ids(v)) for v in graph.vertices()]


def bfs(adj: Sequence[Sequence[int]], source: int) -> List[object]:
    """Hop distances from ``source``: ``int``, or ``INF`` if unreachable."""
    dist: List[object] = [INF] * len(adj)
    dist[source] = 0
    frontier = [source]
    level = 0
    while frontier:
        level += 1
        nxt = []
        for x in frontier:
            for y in adj[x]:
                if dist[y] is INF:
                    dist[y] = level
                    nxt.append(y)
        frontier = nxt
    return dist


def same_answer(answer, expected) -> bool:
    """Equal in value *and* type (``int`` hops, ``float`` INF)."""
    return type(answer) is type(expected) and answer == expected


def apply_edit(adj, edit) -> None:
    """Apply ``(op, u, v)`` to a list-of-sets adjacency."""
    op, u, v = edit
    if op == "insert":
        adj[u].add(v)
        adj[v].add(u)
    else:
        adj[u].discard(v)
        adj[v].discard(u)


# ----------------------------------------------------------------------
# Memory and segments
# ----------------------------------------------------------------------
def pin_allocator() -> None:
    """Pin glibc malloc's mmap and trim thresholds.

    Left alone, glibc starts the mmap threshold at 128 KiB and raises
    it (up to 32 MiB, with the trim threshold at twice that) each time a
    large mapped block is freed.  When that happens during a run
    depends on the history of frees, so runs landed in different
    allocator states about 30 MB apart in memory.  Setting the
    thresholds to the values the adjustment converges to for
    array-heavy programs, 32 MiB and 64 MiB, turns the adjustment off
    without moving the program off its usual steady state.  Forked
    workers inherit the setting.  Memory samples trim this process's
    heap first (:func:`trim_heap`), so the higher trim threshold does
    not leave freed heap in ``mem_mb``.  No-op off glibc.
    """
    import ctypes

    try:
        mallopt = ctypes.CDLL("libc.so.6").mallopt
    except (OSError, AttributeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD
    mallopt(-1, 64 << 20)  # M_TRIM_THRESHOLD


#: The CPUs the process may use, as they were before :func:`pin_cpu`.
_ALLOWED_CPUS: set = set()


def pin_cpu() -> None:
    """Run this process, and every thread it starts, on one CPU: the
    lowest it may use.

    The in-process workloads hand the interpreter lock between a client
    thread and the server's dispatcher for every read call; with the two
    threads on different CPUs each handoff is a cross-CPU wakeup, whose
    cost moved with the machine's state from run to run.  No-op where
    affinity cannot be set.
    """
    if hasattr(os, "sched_setaffinity"):
        _ALLOWED_CPUS.update(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {min(_ALLOWED_CPUS)})


@contextmanager
def unpinned():
    """Lift :func:`pin_cpu` inside the block for the calling thread and
    the threads and processes it starts there."""
    if not _ALLOWED_CPUS:
        yield
        return
    pinned = os.sched_getaffinity(0)
    os.sched_setaffinity(0, _ALLOWED_CPUS)
    try:
        yield
    finally:
        os.sched_setaffinity(0, pinned)


def _children(pid: int) -> List[int]:
    kids: List[int] = []
    try:
        tids = os.listdir(f"/proc/{pid}/task")
    except FileNotFoundError:
        return kids
    for tid in tids:
        try:
            with open(f"/proc/{pid}/task/{tid}/children") as handle:
                kids.extend(int(tok) for tok in handle.read().split())
        except FileNotFoundError:
            continue
    return kids


def descendants(pid: int) -> List[int]:
    out: List[int] = []
    stack = _children(pid)
    while stack:
        child = stack.pop()
        out.append(child)
        stack.extend(_children(child))
    return out


def pss_mb(pid: int) -> float:
    """Proportional set size of one process's anonymous and shared-memory
    pages, in MB (0 if the process is gone).

    File-backed pages (interpreter, NumPy, shared libraries) are left
    out: their proportional share depends on how many unrelated
    processes on the machine map the same files.
    """
    kb = 0
    try:
        with open(f"/proc/{pid}/smaps_rollup") as handle:
            for line in handle:
                if line.startswith(("Pss_Anon:", "Pss_Shmem:")):
                    kb += int(line.split()[1])
    except (FileNotFoundError, ProcessLookupError):
        pass
    return kb / 1024.0


def trim_heap() -> None:
    """Hand this process's free heap back to the OS (``malloc_trim``),
    so memory samples count live data rather than freed blocks the
    allocator kept.  No-op off glibc."""
    import ctypes

    try:
        ctypes.CDLL("libc.so.6").malloc_trim(0)
    except (OSError, AttributeError):
        pass


def tree_pss_mb() -> float:
    """:func:`pss_mb` of this process plus every live descendant; pages
    shared between them are split, so a shared segment counts once.
    This process's heap is trimmed first (:func:`trim_heap`)."""
    trim_heap()
    me = os.getpid()
    return pss_mb(me) + sum(pss_mb(pid) for pid in descendants(me))


def own_segments() -> List[str]:
    """Label segments this process published and has not unlinked."""
    prefix = f"{SHM_PREFIX}{os.getpid()}_"
    try:
        return sorted(n for n in os.listdir("/dev/shm") if n.startswith(prefix))
    except FileNotFoundError:
        return []


# ----------------------------------------------------------------------
# Tracing
# ----------------------------------------------------------------------
class Tracer:
    """In-memory spans: (id, parent, trace, name, start, end).

    Spans are recorded around the benchmark's own calls into each
    layer; a span opened inside another on the same thread is its
    child and shares its trace id.  A root span starts a new trace
    unless given one (a replay joins the trace of the read it
    replays).  The context yields the trace id.  A disabled tracer, or
    a span opened with ``on=False``, records nothing and yields 0.
    """

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.spans: List[tuple] = []
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()

    @contextmanager
    def span(self, name: str, trace: int = 0, on: bool = True):
        if not (self.enabled and on):
            yield 0
            return
        stack = self._local.__dict__.setdefault("stack", [])
        parent, parent_trace = stack[-1] if stack else (0, 0)
        with self._lock:
            sid = next(self._ids)
        trace = trace or parent_trace or sid
        stack.append((sid, trace))
        start = perf_counter()
        try:
            yield trace
        finally:
            end = perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append((sid, parent, trace, name, start, end))

    def summary(self) -> Dict[str, Dict[str, float]]:
        """Per span name: count, total seconds, and self seconds (the
        span's duration minus what its child spans cover)."""
        child_time: Dict[int, float] = {}
        for _sid, parent, _trace, _name, start, end in self.spans:
            if parent:
                child_time[parent] = child_time.get(parent, 0.0) + end - start
        out: Dict[str, Dict[str, float]] = {}
        for sid, _parent, _trace, name, start, end in self.spans:
            row = out.setdefault(name, {"count": 0, "total_s": 0.0, "self_s": 0.0})
            row["count"] += 1
            row["total_s"] += end - start
            row["self_s"] += end - start - child_time.get(sid, 0.0)
        return out

    def write(self, path: str, **extra) -> None:
        spans = [
            {"id": s[0], "parent": s[1], "trace": s[2], "name": s[3],
             "start": s[4], "end": s[5]}
            for s in self.spans
        ]
        with open(path, "w") as handle:
            json.dump({**extra, "summary": self.summary(), "spans": spans}, handle)


class TimedCache:
    """A ``LabelCache`` stand-in that times every ``load_or_build`` the
    dynamic layer makes (its full rebuilds)."""

    def __init__(self, cache, tracer) -> None:
        self._cache = cache
        self._tracer = tracer
        self.calls: List[float] = []

    def load_or_build(self, graph, order=None):
        with self._tracer.span("repro.perf.cache.LabelCache.load_or_build"):
            start = perf_counter()
            flat = self._cache.load_or_build(graph, order)
            self.calls.append(perf_counter() - start)
        return flat


# ----------------------------------------------------------------------
# Run record
# ----------------------------------------------------------------------
class Run:
    """Operations attempted and failed, plus the samples behind metrics."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.errors: List[str] = []
        self.lock = threading.Lock()

    def fail(self, count: int, why: str) -> None:
        with self.lock:
            self.failed += count
            if len(self.errors) < 20:
                self.errors.append(why)

    def attempt(self, count: int) -> None:
        with self.lock:
            self.attempted += count


def busy_seconds(calls) -> float:
    """Wall time with at least one read call in flight; ``calls`` holds
    ``(start, end, pairs, traced)`` tuples."""
    total = 0.0
    cur_start = cur_end = None
    for start, end, _pairs, _traced in sorted(calls):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def throughput(calls) -> float:
    """Pairs answered per second of read-call wall time."""
    busy = busy_seconds(calls)
    return sum(c[2] for c in calls) / busy if busy else 0.0


#: Read calls are cut into this many chunks for the read metrics.
CHUNKS = 10


def read_stats(calls) -> tuple:
    """``(pairs/s, p90 ms)`` of read calls, steady under drift.

    The calls, in start order, are cut into ``CHUNKS`` runs of equal
    count; each statistic is taken per chunk and the mean across chunks
    is reported.  The machine switches between a fast and a slow speed
    state every few seconds, so a chunk's p90 sits in one state or the
    other; the mean moves in proportion to the share of slow chunks,
    where a median would jump between the two states.
    """
    ordered = sorted(calls)
    size = len(ordered)
    parts = [ordered[size * k // CHUNKS:size * (k + 1) // CHUNKS] for k in range(CHUNKS)]
    parts = [p for p in parts if p]
    rates = [throughput(p) for p in parts]
    lat = [[(c[1] - c[0]) * 1e3 for c in p] for p in parts]
    return float(np.mean(rates)), float(np.mean([pct(x, 90) for x in lat]))


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values)) if len(values) else 0.0


def pct(values: Sequence[float], q: float) -> float:
    return float(np.percentile(np.asarray(values), q)) if len(values) else 0.0


def replay(flat, us, vs, latency, source, tracer, trace=0) -> tuple:
    """Send one traced read call's pairs through each read-path layer
    in turn: the oracle, the pair kernel and the row kernel (``source``
    to every ``v``).  Returns ``(call latency, oracle s, kernel s, row
    kernel s, merge entries)``; merge entries are the paper-side query
    cost, the sum of |S(u)| + |S(v)| over the pairs."""
    from repro.oracles.oracle import HubLabelOracle

    oracle = HubLabelOracle(flat, backend="flat")
    pairs = np.stack([us, vs], axis=1)
    with tracer.span("bench.replay", trace=trace):
        with tracer.span("repro.oracles.HubLabelOracle.batch_query"):
            t0 = perf_counter()
            oracle.batch_query(pairs)
            t1 = perf_counter()
        with tracer.span("repro.perf.kernels.batch_query"):
            t2 = perf_counter()
            flat.batch_query(pairs)
            t3 = perf_counter()
        with tracer.span("repro.perf.kernels.query_row"):
            t4 = perf_counter()
            flat.batch_query_from(source, vs)
            t5 = perf_counter()
    merge = sum(flat.label_size(x) for x in us.tolist() + vs.tolist())
    return latency, t1 - t0, t3 - t2, t5 - t4, merge


def layer_metrics(replays) -> Dict[str, float]:
    """Read-path layer costs from replays of traced read calls.

    Each replay is ``(call latency, oracle s, kernel s, row kernel s,
    merge entries)``: the same pairs sent through the oracle, the pair
    kernel and the row kernel one at a time.  The differences between
    adjacent layers are their self times.
    """
    if not replays:
        return {}
    lat, orc, ker, row, merge = (np.asarray(col, dtype=float) for col in zip(*replays))
    return {
        "kernel.ticket_ms": median(ker) * 1e3,
        "kernel.ns_per_merge_entry": ker.sum() / merge.sum() * 1e9,
        "kernel.row_ms": median(row) * 1e3,
        "oracle.overhead_ms": median(orc - ker) * 1e3,
        "serve.ticket_overhead_ms": median(lat - orc) * 1e3,
    }
