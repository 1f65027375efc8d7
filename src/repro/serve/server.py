"""``QueryServer``: concurrent request serving over any distance oracle.

Every oracle in this repository answers one caller at a time; the
ROADMAP's north star is a system serving heavy traffic.  This module is
the bridge: a thread-based server that accepts a stream of concurrent
requests and turns them into the shapes the oracles are fast at, while
degrading *predictably* -- never silently -- under load.

Two front doors feed one pipeline:

* :meth:`QueryServer.submit` -- one ``(u, v)`` pair, one
  ``concurrent.futures.Future``.  The future itself is what queues: it
  carries the pair's packed key and is admitted directly, with no
  ticket, no per-pair lists and no numpy call.  A pair future builds
  its condition only if someone waits on it while it is pending (see
  :class:`_PairFuture`), so a submit builds no lock.
* :meth:`QueryServer.submit_batch` -- whole ``us`` / ``vs`` pair
  arrays, one :class:`BatchTicket`.  The batch is deduplicated
  *vectorized* at submit time, travels the admission path as a single
  item, and completes one future -- results scatter back through a
  fancy-indexed inverse map.  This is the fast path ``run_loadgen``,
  the CLIs, and the serving benchmarks use.

Every pair goes to the oracle: there is no result cache.  On the
paper's instances every hub labeling has large hub sets, so a served
query's cost is the merge over two large labels and repeated pairs are
rare; what repeats within one dispatched group is asked once.

The pipeline, item by item:

1. **Admission** -- the bounded queue is *sharded*: ``shards`` striped
   lists, each with its own lock and capacity slice of ``max_queue``,
   and per-thread shard affinity so concurrent clients rarely contend
   on the same lock.  When every shard is full the submit is rejected
   with :class:`~repro.runtime.errors.ServerOverloadError`
   (backpressure -- the caller backs off, nothing is dropped
   silently).
2. **Dispatch** -- ``dispatchers`` threads (default one) partition the
   shards and drain everything queued on them.  The pairs of every
   drained item are merged into one dedup and one ``batch_query``
   call.  There is no size or deadline trigger: whatever arrived while
   the last call ran is the next group.  If the merged call raises, the
   items are retried one by one, so a bad pair fails only its own
   future (and a ``submit_batch`` ticket fails as a whole).
3. **Completion** -- each pair future is resolved straight from the
   merged answers and each ticket gets its slice.
4. **Shutdown** -- :meth:`stop` (or leaving the context manager) stops
   admissions, then *drains*: everything already accepted is served
   before the dispatchers exit.  ``drain=False`` cancels the backlog
   instead (pending futures report cancelled, pending tickets raise
   ``CancelledError``) and counts it in ``ServerStats.cancelled``, so
   ``requests == responses + errors + cancelled`` once stopped.

The oracle is only ever invoked under the swap lock, so stateful
oracles such as :class:`~repro.runtime.resilient.ResilientOracle` need
no internal locking even with several dispatchers.  :meth:`set_oracle`
swaps the oracle atomically.  Keys are packed integers ``u * n + v``
-- cheap to compute vectorized and cheap to hash -- so each queued
item remembers the ``n`` it was packed with, and the dispatcher merges
only items keyed like the current oracle; the rest (queued before a
swap to another vertex count) are answered alone, from their pairs.

One set of books: every tally is counted once, in per-thread cells
that only their own thread bumps (no lock).  :meth:`QueryServer.stats`
sums them, and the ``serve.*`` counters of ``repro.obs.catalog`` are
fed the same cells (:meth:`~repro.obs.registry.Counter.feed`), so the
two always agree.  The queue-depth gauges are sampled when a
dispatcher drains its shards and when a submit is refused, never on an
ordinary submit; a coalesce-width histogram and a submit-to-response
latency histogram take one observation per dispatched group.
"""

from __future__ import annotations

import itertools
import operator
import threading
from concurrent.futures import Future, InvalidStateError
from concurrent.futures._base import (
    CANCELLED,
    CANCELLED_AND_NOTIFIED,
    FINISHED,
    PENDING,
)
from dataclasses import dataclass
from math import inf
from time import perf_counter
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..obs.catalog import (
    SERVE_BATCH_SUBMISSIONS,
    SERVE_BATCHES,
    SERVE_COALESCE_WIDTH,
    SERVE_GENERATION,
    SERVE_OVERLOADS,
    SERVE_QUEUE_DEPTH,
    SERVE_REQUESTS,
    SERVE_REQUEST_LATENCY_SECONDS,
    SERVE_SHARD_DEPTH,
)
from ..obs.registry import Histogram
from ..obs.registry import get_registry as _get_registry
from ..perf.kernels import vertex_ids
from ..runtime.errors import DomainError, ServerOverloadError

__all__ = [
    "BatchTicket",
    "QueryServer",
    "ServerStats",
    "DEFAULT_SHARDS",
    "WIDTH_BUCKETS",
]

#: Bucket upper edges for the coalesce-width histogram (requests per
#: dispatched group, not seconds).
WIDTH_BUCKETS: Tuple[float, ...] = (
    1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0, 512.0, 1024.0,
)

#: Admission shards when the caller does not choose (capped at
#: ``max_queue`` so every shard keeps a positive capacity slice).
DEFAULT_SHARDS = 4

#: The slots of a books cell; the first seven are ServerStats' fields.
_STATS_FIELDS = (
    "requests", "responses", "errors", "cancelled",
    "overloads", "batches", "coalesced",
)
(
    _REQUESTS, _RESPONSES, _ERRORS, _CANCELLED,
    _OVERLOADS, _BATCHES, _COALESCED, _BATCH_SUBMISSIONS,
) = range(8)
_SLOTS = 8

#: The ``serve.*`` counters and the books slot each one reads.
_FED_COUNTERS = (
    (SERVE_REQUESTS, _REQUESTS),
    (SERVE_OVERLOADS, _OVERLOADS),
    (SERVE_BATCHES, _BATCHES),
    (SERVE_BATCH_SUBMISSIONS, _BATCH_SUBMISSIONS),
)


class _Books:
    """The server's tallies: one list of ``_SLOTS`` counts per thread.

    A thread bumps only its own cell, without a lock; readers sum the
    cells, exactly once the writers are quiet.  A thread id reused
    after its thread died takes over the dead thread's cell.
    """

    __slots__ = ("cells",)

    def __init__(self) -> None:
        self.cells: Dict[int, List[int]] = {}

    def cell(self) -> List[int]:
        """The calling thread's cell (created on first use)."""
        ident = threading.get_ident()
        found = self.cells.get(ident)
        if found is None:
            # Only this thread inserts this key: no lock needed.
            found = self.cells[ident] = [0] * _SLOTS
        return found

    def totals(self) -> List[int]:
        while True:
            try:
                cells = list(self.cells.values())
            except RuntimeError:
                continue  # a thread registered its cell mid-copy
            return [sum(cell[slot] for cell in cells) for slot in range(_SLOTS)]


#: Serializes building a pair future's condition against resolving a
#: future that has none (see :func:`_settle`).
_CONDITION_LOCK = threading.Lock()
_DONE_STATES = (CANCELLED, CANCELLED_AND_NOTIFIED, FINISHED)


class _PairFuture(Future):
    """The future :meth:`QueryServer.submit` returns, and what queues.

    A stdlib ``Future`` builds a ``Condition`` and an ``RLock`` in its
    constructor.  A pair future builds its own condition only when a
    caller first needs it -- to wait on it while pending, add a
    callback, cancel it, or pass it to ``concurrent.futures.wait`` /
    ``as_completed`` -- and most pair futures are answered before
    anyone asks.  The dispatcher resolves a future that has no
    condition by setting its fields alone, since no waiter can exist
    for it (:func:`_settle`).  Each future has its own lock, so
    ``wait`` and ``as_completed`` take them in their usual ``id``
    order, and pair futures mix freely with any other futures there.

    ``_key`` is the pair's key, packed ``u * _base + v`` or the
    ``(u, v)`` tuple when ``_base`` is None.
    """

    width = 1  # queued pairs, like BatchTicket.width

    def __init__(self, key, base) -> None:
        # Future.__init__'s attributes but the condition (a test pins
        # the set).
        self._cond: Optional[threading.Condition] = None
        self._state = PENDING
        self._result = None
        self._exception = None
        self._waiters = []
        self._done_callbacks = []
        self._key = key
        self._base = base

    @property
    def _condition(self) -> threading.Condition:
        condition = self._cond
        if condition is None:
            with _CONDITION_LOCK:
                condition = self._cond
                if condition is None:
                    condition = self._cond = threading.Condition()
        return condition

    def _pair(self) -> Tuple[int, int]:
        if self._base is None:
            return self._key
        return divmod(self._key, self._base)

    def done(self) -> bool:
        return self._state in _DONE_STATES

    def result(self, timeout: Optional[float] = None):
        if self._state == FINISHED and self._exception is None:
            return self._result  # set before the state: no lock needed
        return Future.result(self, timeout)

    _cancel = Future.cancel

    def _fail(self, exc: BaseException) -> None:
        _settle([self], [exc], failed=True)


def _settle(futures, outcomes, failed: bool = False) -> None:
    """Resolve each pair future in ``futures`` with its outcome (its
    exception if ``failed``, else its value).

    A future nobody has built a condition for is resolved by setting
    its fields, under the lock that builds conditions: a caller that
    builds one afterwards finds the future done.  The rest take the
    stdlib's path, which notifies their waiters and runs callbacks.
    """
    slow = []
    with _CONDITION_LOCK:
        for future, outcome in zip(futures, outcomes):
            if future._cond is None:
                if failed:
                    future._exception = outcome
                else:
                    future._result = outcome
                future._state = FINISHED
            else:
                slow.append((future, outcome))
    for future, outcome in slow:
        if failed:
            _resolve(future, exc=outcome)
        else:
            _resolve(future, value=outcome)


class BatchTicket:
    """One waitable unit of submitted pairs, backed by one ``Future``.

    Returned by :meth:`QueryServer.submit_batch`; :meth:`result` blocks
    and returns the distances in submission order (duplicates included
    -- deduplication is internal).  Error granularity is the ticket: an
    oracle failure fails the whole batch (use :meth:`QueryServer.submit`
    when per-pair isolation matters), and a non-draining stop raises
    ``CancelledError``.
    """

    __slots__ = ("width", "_future", "_base", "_keys", "_pairs", "_scatter")

    def __init__(self, width, keys, pairs, scatter, base):
        self.width = width
        self._future: Future = Future()
        self._base = base        # n the keys were packed with (None: tuples)
        self._keys = keys        # keys of the unique pairs
        self._pairs = pairs      # those pairs: an (m, 2) int64 array
        self._scatter = scatter  # submission -> unique index

    def done(self) -> bool:
        return self._future.done()

    def result(self, timeout: Optional[float] = None) -> List[object]:
        """The distances, in submission order (blocks until served)."""
        return self._future.result(timeout)

    def _answer(self, answers) -> None:
        """Complete with the oracle's ``answers`` to ``_keys``."""
        # Fancy-indexed scatter over an object array keeps every
        # answer's Python type intact (int vs float, inf included).
        _resolve(
            self._future,
            value=np.asarray(answers, dtype=object)[self._scatter].tolist(),
        )

    def _fail(self, exc: BaseException) -> None:
        _resolve(self._future, exc=exc)

    def _cancel(self) -> None:
        self._future.cancel()

    def __repr__(self) -> str:
        state = "done" if self.done() else "pending"
        return f"BatchTicket(width={self.width}, {state})"


class _Shard:
    """One admission stripe: a lock, a swap-out list, a pair count, and
    when its oldest queued item arrived."""

    __slots__ = ("index", "lock", "items", "pairs", "capacity", "event", "since")

    def __init__(self, index: int, capacity: int, event) -> None:
        self.index = index
        self.lock = threading.Lock()
        self.items: List[object] = []
        self.pairs = 0
        self.capacity = capacity
        self.event = event
        self.since = 0.0


@dataclass(frozen=True)
class ServerStats:
    """A snapshot of the server's books.

    ``responses`` counts answered pairs and ``cancelled`` the pairs a
    non-draining stop dropped, so ``requests - responses - errors -
    cancelled`` pairs are pending (0 once stopped).  ``coalesced`` is
    the number of pairs in dispatched groups, so ``coalesced /
    batches`` is the realized mean group width -- ``batch_width_p50`` /
    ``batch_width_p95`` report the width *distribution* from the
    server's own histogram, which a mean alone cannot (one giant ticket
    hides a thousand singleton groups).

    The fields are read without a lock: each is exact once the server
    is quiet (stopped, or every accepted request answered), and the
    ``serve.*`` counters read the same numbers.
    """

    requests: int = 0
    responses: int = 0
    errors: int = 0
    cancelled: int = 0
    #: Always 0.  Kept only for the benchmark scripts that read it; it
    #: goes in the benchmark change that drops those reads.
    cache_hits: int = 0
    overloads: int = 0
    batches: int = 0
    coalesced: int = 0
    batch_width_p50: float = 0.0
    batch_width_p95: float = 0.0

    @property
    def mean_batch_width(self) -> float:
        return self.coalesced / self.batches if self.batches else 0.0


def _snapshot(books: _Books, width_hist: Histogram) -> ServerStats:
    """The :class:`ServerStats` of one set of books and width histogram."""
    totals = books.totals()
    return ServerStats(
        **dict(zip(_STATS_FIELDS, totals)),
        batch_width_p50=width_hist.percentile(0.50) or 0.0,
        batch_width_p95=width_hist.percentile(0.95) or 0.0,
    )


def _refuse_cache(cache_size: int) -> None:
    """Reject a ``cache_size`` other than 0: the result cache is gone."""
    if cache_size != 0:
        raise ValueError(
            f"cache_size={cache_size!r}: the result cache was removed; "
            "every pair is answered by the oracle (omit cache_size)"
        )


def _key_base_for(oracle) -> Optional[int]:
    """``n`` for packed ``u * n + v`` keys, or None (tuple keys)."""
    store = getattr(oracle, "labeling", None)
    n = getattr(store, "num_vertices", None) if store is not None else None
    return n if isinstance(n, int) and n > 0 else None


def _merge(
    futures: List[_PairFuture], tickets: List[BatchTicket], base: Optional[int]
):
    """One dedup over the pairs ``futures`` and ``tickets`` ask, all
    keyed with ``base``: ``(pairs, inverse)`` -- the unique pairs and
    each asked pair's index into them (the futures' pairs first, then
    each ticket's in turn)."""
    keys = [future._key for future in futures]
    for ticket in tickets:
        keys.extend(ticket._keys)
    if base is None:
        # Tuple keys are the pairs themselves.
        unique = list(dict.fromkeys(keys))
        slot = {key: index for index, key in enumerate(unique)}
        return unique, [slot[key] for key in keys]
    packed, inverse = np.unique(
        np.array(keys, dtype=np.int64), return_inverse=True
    )
    us, vs = np.divmod(packed, base)
    return np.column_stack((us, vs)), inverse.reshape(-1)


def _for_oracle(pairs, arrays: bool):
    """``pairs`` as the oracle takes them: a pair array only when it
    advertises ``accepts_pair_arrays``, else a list of tuples."""
    if arrays or not isinstance(pairs, np.ndarray):
        return pairs
    return list(zip(pairs[:, 0].tolist(), pairs[:, 1].tolist()))


def _ask(oracle, pairs) -> List[object]:
    """The oracle's answers for ``pairs``: one ``batch_query`` call,
    pair by pair when it has none or the call fails (the first scalar
    failure propagates)."""
    batch_fn = getattr(oracle, "batch_query", None)
    if batch_fn is not None:
        try:
            return batch_fn(pairs)
        except Exception:
            pass  # the scalar path below decides which pair is bad
    answers = []
    for u, v in _for_oracle(pairs, False):
        outcome = oracle.query(u, v)
        answers.append(getattr(outcome, "distance", outcome))
    return answers


class QueryServer:
    """A bounded, coalescing front-end over a distance oracle.

    ``oracle`` needs ``query(u, v)`` returning an outcome with a
    ``.distance`` (or the distance itself); a ``batch_query(pairs)``
    method is used when present.  Answers are exactly the oracle's --
    the server adds concurrency, never arithmetic.

    ``shards`` stripes the admission queue (default ``min(4,
    max_queue)``); ``dispatchers`` fans the stripes out over that many
    dispatcher threads (default 1 -- oracle calls are serialized under
    the swap lock either way).

    ``cache_size`` accepts only 0: the result cache was removed.  The
    keyword exists only for the benchmark scripts that still pass
    ``cache_size=0``, and goes in the benchmark change that drops them.
    """

    def __init__(
        self,
        oracle,
        *,
        max_queue: int = 1024,
        cache_size: int = 0,
        shards: Optional[int] = None,
        dispatchers: int = 1,
    ) -> None:
        _refuse_cache(cache_size)
        if max_queue < 1:
            raise ValueError("max_queue must be at least 1")
        if shards is not None and shards < 1:
            raise ValueError("shards must be at least 1")
        if dispatchers < 1:
            raise ValueError("dispatchers must be at least 1")
        self.max_queue = max_queue
        # Every shard must own a positive slice of max_queue, or a
        # thread pinned to a zero-capacity stripe could never submit.
        self.shards = min(shards or DEFAULT_SHARDS, max_queue)
        self.dispatchers = min(dispatchers, self.shards)
        self._events = [threading.Event() for _ in range(self.dispatchers)]
        base, extra = divmod(max_queue, self.shards)
        self._shards = [
            _Shard(
                index,
                base + (1 if index < extra else 0),
                self._events[index % self.dispatchers],
            )
            for index in range(self.shards)
        ]
        self._local = threading.local()
        self._spin = itertools.count()
        self._oracle_lock = threading.Lock()
        self._oracle = oracle
        self._key_base = _key_base_for(oracle)
        self._generation_seq = 0
        self._accepting = False
        self._stopping = False
        self._drain_requested = True
        self._threads: Optional[List[threading.Thread]] = None
        self._lifecycle = threading.Lock()
        self._books = _Books()
        self._width_hist = Histogram(SERVE_COALESCE_WIDTH, (), WIDTH_BUCKETS)
        self._obs_registry = None
        self._obs: Optional["_ServeInstruments"] = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "QueryServer":
        with self._lifecycle:
            if self._threads is not None:
                return self
            self._accepting = True
            self._stopping = False
            self._threads = [
                threading.Thread(
                    target=self._run,
                    args=(index,),
                    name=f"repro-query-server-{index}",
                    daemon=True,
                )
                for index in range(self.dispatchers)
            ]
            for thread in self._threads:
                thread.start()
            obs = self._bind_obs()
            if obs is not None:
                obs.generation.set(self._generation_seq)
        return self

    def stop(self, *, drain: bool = True) -> None:
        """Stop admissions, then drain (default) or cancel the backlog.

        Idempotent.  After it returns every accepted request has been
        resolved (``drain=True``) or cancelled (``drain=False``).
        """
        with self._lifecycle:
            self._accepting = False
            threads = self._threads
            if threads is not None:
                self._drain_requested = drain
                self._stopping = True
                for event in self._events:
                    event.set()
                for thread in threads:
                    thread.join()
                self._threads = None
                self._stopping = False
            # Catch submits that raced the accepting flag: with the
            # dispatchers gone, serve (or cancel) them inline.
            leftovers, oldest = self._take(self._shards)
            if leftovers:
                if drain:
                    self._serve(leftovers, oldest)
                else:
                    self._cancel(leftovers)

    @property
    def running(self) -> bool:
        return self._accepting and self._threads is not None

    def __enter__(self) -> "QueryServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # ------------------------------------------------------------------
    # Submission
    # ------------------------------------------------------------------
    def _slot(self) -> Tuple[_Shard, List[int]]:
        """The calling thread's home shard and books cell."""
        try:
            return self._local.slot
        except AttributeError:
            slot = (
                self._shards[next(self._spin) % self.shards],
                self._books.cell(),
            )
            self._local.slot = slot
            return slot

    def _admit(self, item, pairs: int, home: _Shard) -> bool:
        """Enqueue ``item`` (``pairs`` queued pairs) on ``home``,
        overflowing to the other stripes when it is full -- a submit is
        rejected only when *every* shard is at capacity, so total
        admission capacity stays ``max_queue`` under any client mix (a
        single bursty client is not confined to one stripe).
        """
        shards = self._shards
        for attempt in range(self.shards):
            shard = shards[(home.index + attempt) % self.shards]
            with shard.lock:
                if shard.pairs < shard.capacity:
                    if not shard.items:
                        shard.since = perf_counter()
                    shard.items.append(item)
                    shard.pairs += pairs
                    event = shard.event
                    if not event.is_set():
                        event.set()
                    return True
        return False

    def _refuse(self, cell: List[int], what: str) -> ServerOverloadError:
        """Count an overload, sample the depth gauges, and return the
        error to raise."""
        cell[_OVERLOADS] += 1
        obs = self._bind_obs()
        if obs is not None:
            obs.queue_depth.set(self.queue_depth())
            for shard in self._shards:
                obs.shard_depth(shard.index).set(shard.pairs)
        return ServerOverloadError(
            f"admission queue is full; {what} rejected",
            capacity=self.max_queue,
        )

    def submit(self, u: int, v: int) -> Future:
        """Enqueue one query; returns a future resolving to its distance.

        Raises :class:`ServerOverloadError` when every admission shard
        is full -- the request was *not* accepted, back off and retry.
        Raises :class:`RuntimeError` when the server is not running.
        An oracle failure (an out-of-domain pair or a vertex id that is
        not an integer, say: :class:`DomainError`) fails only this
        future.
        """
        if not self._accepting:
            raise RuntimeError("QueryServer is not running (call start())")
        home, cell = self._slot()
        base = self._key_base
        # Out-of-domain or non-integer coordinates must never pack
        # (they could alias a valid pair's integer): a tuple key, never
        # merged with packed ones, whose oracle call fails the future
        # with DomainError.
        try:
            if base is not None and 0 <= u < base and 0 <= v < base:
                key = u * base + v
                if key.__class__ is not int:
                    # NumPy integers pack; a float raises TypeError.
                    key = operator.index(u) * base + operator.index(v)
            else:
                key, base = (u, v), None
        except TypeError:  # a float or a string
            key, base = (u, v), None
        future = _PairFuture(key, base)
        if not self._admit(future, 1, home):
            raise self._refuse(cell, f"request {(u, v)}")
        cell[_REQUESTS] += 1
        return future

    def submit_batch(self, us, vs) -> BatchTicket:
        """Enqueue a whole pair batch; returns one :class:`BatchTicket`.

        ``us`` / ``vs`` are equal-length sequences (numpy arrays ride
        the vectorized path with no conversion).  The batch is admitted
        whole or rejected whole with :class:`ServerOverloadError`;
        vertex ids that are not integers, and out-of-domain vertices
        when the oracle's vertex count is known, are rejected up front
        with :class:`DomainError`.
        """
        if not self._accepting:
            raise RuntimeError("QueryServer is not running (call start())")
        ticket = self._ticket(us, vs)
        self._enqueue(ticket)
        return ticket

    def _ticket(self, us, vs) -> BatchTicket:
        """A batch ticket: unique keys + pairs and the submission ->
        unique scatter map, all vectorized."""
        us_arr = vertex_ids(us).reshape(-1)
        vs_arr = vertex_ids(vs).reshape(-1)
        if us_arr.shape != vs_arr.shape:
            raise ValueError("us and vs must be the same length")
        base = self._key_base
        if base is None:
            pairs, scatter = np.unique(
                np.column_stack((us_arr, vs_arr)),
                axis=0,
                return_inverse=True,
            )
            keys = list(map(tuple, pairs.tolist()))
        else:
            if us_arr.size and (
                int(us_arr.min()) < 0
                or int(us_arr.max()) >= base
                or int(vs_arr.min()) < 0
                or int(vs_arr.max()) >= base
            ):
                raise DomainError(
                    f"batch contains a vertex outside [0, {base})"
                )
            packed, first, scatter = np.unique(
                us_arr * base + vs_arr, return_index=True, return_inverse=True
            )
            keys = packed.tolist()
            pairs = np.column_stack((us_arr[first], vs_arr[first]))
        return BatchTicket(
            us_arr.size, keys, pairs, scatter.reshape(-1), base
        )

    def _enqueue(self, ticket: BatchTicket, *, inline: bool = False) -> None:
        """A batch ticket's way in: admission (or, with ``inline``,
        service in the calling thread), overload, and the books.  An
        empty ticket resolves here and never enqueues."""
        arrived = perf_counter()
        home, cell = self._slot()
        width = ticket.width
        if not width:
            ticket._answer(())
            return
        if not inline and not self._admit(ticket, len(ticket._keys), home):
            raise self._refuse(cell, f"batch of {width} pair(s)")
        cell[_REQUESTS] += width
        cell[_BATCH_SUBMISSIONS] += 1
        if inline:
            self._serve([ticket], arrived)

    def query(self, u: int, v: int, timeout: Optional[float] = None):
        """Blocking convenience: submit and wait for the distance."""
        return self.submit(u, v).result(timeout=timeout)

    def batch(
        self, pairs: Sequence[Tuple[int, int]], timeout: Optional[float] = None
    ) -> List[float]:
        """Submit many pairs and gather their answers, in order."""
        futures = [self.submit(u, v) for u, v in pairs]
        return [future.result(timeout=timeout) for future in futures]

    # ------------------------------------------------------------------
    # Oracle management
    # ------------------------------------------------------------------
    @property
    def oracle(self):
        return self._oracle

    @property
    def generation_seq(self) -> int:
        """Monotone swap counter: 0 at construction, +1 per set_oracle."""
        return self._generation_seq

    def set_oracle(self, oracle) -> None:
        """Swap the serving oracle.

        A group in flight finishes on the oracle it started with; every
        group dispatched after the swap is answered by the new one.
        Items queued before a swap to another vertex count are answered
        alone, never merged under the new key space.  Every swap bumps
        the monotone ``serve.generation`` gauge (hot swaps are
        observable and provably ordered).
        """
        key_base = _key_base_for(oracle)
        with self._oracle_lock:
            # Freeing the outgoing store can take milliseconds; keep the
            # last reference past the lock so dispatchers do not wait.
            outgoing = self._oracle
            self._oracle = oracle
            self._key_base = key_base
            self._generation_seq += 1
            seq = self._generation_seq
        del outgoing
        obs = self._bind_obs()
        if obs is not None:
            obs.generation.set(seq)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def stats(self) -> ServerStats:
        return _snapshot(self._books, self._width_hist)

    def queue_depth(self) -> int:
        """Queued pairs across every admission shard."""
        return sum(shard.pairs for shard in self._shards)

    def shard_depths(self) -> Tuple[int, ...]:
        """Per-shard queued pair counts, in shard order."""
        return tuple(shard.pairs for shard in self._shards)

    def __repr__(self) -> str:
        state = "running" if self.running else "stopped"
        return (
            f"QueryServer({state}, oracle={type(self._oracle).__name__}, "
            f"queue={self.queue_depth()}/{self.max_queue}, "
            f"shards={list(self.shard_depths())}, "
            f"dispatchers={self.dispatchers})"
        )

    # ------------------------------------------------------------------
    # Dispatcher internals
    # ------------------------------------------------------------------
    def _bind_obs(self) -> Optional["_ServeInstruments"]:
        registry = _get_registry()
        if registry is not self._obs_registry:
            obs = (
                _ServeInstruments(registry, self.shards, self._books)
                if registry.enabled
                else None
            )
            # Publish instruments before the registry marker (binding
            # runs on several threads; a reader seeing the marker match
            # must never pick up a stale instrument set).
            self._obs = obs
            self._obs_registry = registry
            return obs
        return self._obs

    def _run(self, index: int) -> None:
        event = self._events[index]
        shards = self._shards[index :: self.dispatchers]
        while True:
            event.clear()
            stopping = self._stopping
            items, oldest = self._take(shards)
            if items:
                # New work may land while this group is served; the
                # loop drains it as the next group.
                if stopping and not self._drain_requested:
                    self._cancel(items)
                else:
                    self._serve(items, oldest)
            elif stopping:
                return
            else:
                event.wait()  # park until a submit or stop() wakes us

    def _take(self, shards: List[_Shard]) -> Tuple[List[object], float]:
        """Drain ``shards``: their queued items and when the oldest of
        them arrived.  A drain that finds work samples the depth
        gauges: each drained shard's backlog, and the queue's."""
        items: List[object] = []
        oldest = inf
        depths = []
        for shard in shards:
            if shard.items:
                with shard.lock:
                    items.extend(shard.items)
                    depths.append((shard.index, shard.pairs))
                    oldest = min(oldest, shard.since)
                    shard.items = []
                    shard.pairs = 0
            else:
                depths.append((shard.index, 0))
        if items:
            obs = self._bind_obs()
            if obs is not None:
                drained = 0
                for index, pairs in depths:
                    obs.shard_depth(index).set(pairs)
                    drained += pairs
                obs.queue_depth.set(drained + self.queue_depth())
        return items, oldest

    def _cancel(self, items: List[object]) -> None:
        for item in items:
            item._cancel()
        self._books.cell()[_CANCELLED] += sum(item.width for item in items)

    def _serve(self, items: List[object], oldest: float) -> None:
        """Answer one drained group: resolve each pair future and
        scatter each ticket's slice.

        Items keyed like the current oracle share one dedup and one
        ``batch_query`` call; the rest (keys packed for a swapped-out
        oracle, out-of-domain tuple keys) and every item of a failed
        merged call are answered one at a time.
        """
        obs = self._bind_obs()
        futures: List[_PairFuture] = []
        values: List[object] = []  # futures[i] answers values[i]
        tickets: List[Tuple[BatchTicket, object]] = []
        failed: List[Tuple[object, BaseException]] = []
        width = 0
        with self._oracle_lock:
            oracle = self._oracle
            base = self._key_base
            arrays = bool(getattr(oracle, "accepts_pair_arrays", False))
            pair_group: List[_PairFuture] = []
            ticket_group: List[BatchTicket] = []
            alone: List[object] = []
            for item in items:
                width += item.width
                if item._base != base:
                    alone.append(item)
                elif type(item) is _PairFuture:
                    pair_group.append(item)
                else:
                    ticket_group.append(item)
            if len(pair_group) + len(ticket_group) > 1:
                batch_fn = getattr(oracle, "batch_query", None)
                try:
                    pairs, inverse = _merge(pair_group, ticket_group, base)
                    pairs = _for_oracle(pairs, arrays)
                    # A failed merged call goes straight to the per-item
                    # retry, which owns the scalar fallback.
                    answers = (
                        batch_fn(pairs)
                        if batch_fn is not None
                        else _ask(oracle, pairs)
                    )
                except Exception:
                    alone = items  # isolate the bad item below
                else:
                    ordered = np.asarray(answers, dtype=object)[
                        inverse
                    ].tolist()
                    offset = len(pair_group)
                    futures.extend(pair_group)
                    values.extend(ordered[:offset])
                    for ticket in ticket_group:
                        end = offset + len(ticket._keys)
                        tickets.append((ticket, ordered[offset:end]))
                        offset = end
            else:
                alone = items
            for item in alone:
                single = type(item) is _PairFuture
                try:
                    answers = _ask(
                        oracle,
                        [item._pair()]
                        if single
                        else _for_oracle(item._pairs, arrays),
                    )
                except Exception as exc:
                    failed.append((item, exc))
                    continue
                if single:
                    futures.append(item)
                    values.append(answers[0])
                else:
                    tickets.append((item, answers))
        done = perf_counter()
        errors = sum(item.width for item, _ in failed)
        # The books first: whoever sees an answer sees it counted.
        cell = self._books.cell()
        cell[_BATCHES] += 1
        cell[_COALESCED] += width
        cell[_RESPONSES] += width - errors
        cell[_ERRORS] += errors
        self._width_hist.observe(float(width))
        _settle(futures, values)
        for ticket, answers in tickets:
            ticket._answer(answers)
        for item, exc in failed:
            item._fail(exc)
        if obs is not None:
            obs.coalesce_width.observe(float(width))
            # One amortized observation per group: the oldest waiter's
            # submit-to-response time bounds its group-mates'.
            obs.request_latency.observe(done - oldest)


class _ServeInstruments:
    """The ``serve.*`` instruments, pre-bound against one registry.

    The counters are fed the server's books at bind time and need no
    handle here; what remains is set or observed by the server.
    """

    __slots__ = (
        "request_latency",
        "queue_depth",
        "coalesce_width",
        "generation",
        "_shard_gauges",
    )

    def __init__(self, registry, num_shards: int, books: _Books) -> None:
        for name, slot in _FED_COUNTERS:
            registry.counter(name).feed(books.cells, slot)
        self.request_latency = registry.histogram(
            SERVE_REQUEST_LATENCY_SECONDS
        )
        self.queue_depth = registry.gauge(SERVE_QUEUE_DEPTH)
        self.coalesce_width = registry.histogram(
            SERVE_COALESCE_WIDTH, buckets=WIDTH_BUCKETS
        )
        self.generation = registry.gauge(SERVE_GENERATION)
        self._shard_gauges = tuple(
            registry.gauge(SERVE_SHARD_DEPTH, shard=str(index))
            for index in range(num_shards)
        )

    def shard_depth(self, index: int):
        return self._shard_gauges[index]


def _resolve(future: Future, value=None, exc=None) -> None:
    """Resolve a future, tolerating a concurrent cancellation."""
    try:
        if exc is not None:
            future.set_exception(exc)
        else:
            future.set_result(value)
    except InvalidStateError:
        pass  # cancelled by a non-draining stop; nothing to deliver
