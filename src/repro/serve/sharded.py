"""``ShardedQueryServer``: N worker processes over one shared label store.

:class:`~repro.serve.server.QueryServer` made one Python process fast;
the GIL makes one process the ceiling.  This module lifts the ceiling
the way the hub-labeling serving literature does -- the label store is
immutable, so shard the *compute*, not the data:

* the parent copies the flat store's artifact envelope into **one**
  ``multiprocessing.shared_memory`` segment, via :mod:`repro.perf.shm`;
* each of ``processes`` forked workers attaches zero-copy and serves
  every frame synchronously through the in-process pipeline -- an
  unstarted :class:`~repro.serve.server.QueryServer` with its own
  generation-keyed result cache -- over the shared pages;
* the parent speaks a **pair-array IPC protocol** to the fleet: raw
  length-prefixed numpy frames (int64 pairs out, float64 distances
  back) over ``multiprocessing`` pipes.  No pickle anywhere on the hot
  path, so a frame costs two ``memcpy``-class writes, not a
  serializer.

Answers keep the byte-identical contract: the float64 wire format is
re-narrowed through the same ``_dedouble`` the flat store uses, so
``int`` distances come back ``int`` and disconnection comes back as
``INF`` -- indistinguishable from the dict store.

Operationally the fleet degrades loudly, like the in-process server:
admission is bounded (:class:`~repro.runtime.errors.ServerOverloadError`
when ``max_queue`` pairs are in flight), a worker that dies is
respawned transparently (the interrupted frame is retried once against
the fresh worker) and surfaced through :meth:`ShardedQueryServer.health`
-- a :class:`~repro.runtime.resilient.HealthReport`-style snapshot --
and shutdown is drain-then-stop: in-flight frames finish, workers get
an explicit shutdown handshake, stragglers are terminated, and the
owned segment is unlinked (nothing left under ``/dev/shm``).

One set of books, kept parent-side: the parent sees every pair and
every frame, and each answer frame carries how many of its pairs the
worker's cache answered, so :meth:`ShardedQueryServer.stats` is a sum
over the same per-thread books cells the in-process server keeps.  It
touches no pipe and no slot lock, and a respawned or terminated worker
takes none of the tallies with it.  The six ``serve.*`` counters read
those cells; ``serve.worker_batches`` per frame (labelled by worker
slot), ``serve.worker_restarts`` per respawn, and the
``serve.workers_alive`` gauge are emitted parent-side too (worker-process
registries are invisible to the parent).
"""

from __future__ import annotations

import itertools
import multiprocessing
import threading
from concurrent.futures import Future
from typing import List, Optional, Tuple

import numpy as np

from ..obs.catalog import (
    SERVE_COALESCE_WIDTH,
    SERVE_GENERATION,
    SERVE_WORKER_BATCHES,
    SERVE_WORKER_RESTARTS,
    SERVE_WORKERS_ALIVE,
)
from ..obs.registry import Histogram
from ..obs.registry import get_registry as _get_registry
from ..perf.kernels import vertex_ids
from ..runtime.errors import DomainError, ServerOverloadError
from .server import (
    _BATCH_SUBMISSIONS,
    _BATCHES,
    _CACHE_HITS,
    _CACHE_MISSES,
    _COALESCED,
    _ERRORS,
    _FED_COUNTERS,
    _OVERLOADS,
    _REQUESTS,
    _RESPONSES,
    WIDTH_BUCKETS,
    ServerStats,
    _Books,
    _snapshot,
)

__all__ = ["ShardedQueryServer", "ShardedTicket", "FleetHealth"]

# Wire protocol opcodes (first byte of every request frame).
_OP_QUERY = 0
_OP_SHUTDOWN = 1

# Response status (first byte of every response frame).
_ST_OK = 0
_ST_ERROR = 1

# Error kinds inside an error response (second byte).
_ERR_GENERIC = 0
_ERR_DOMAIN = 1

#: Patience for lifecycle handshakes (shutdown ack, worker join).
_LIFECYCLE_TIMEOUT = 5.0


def _encode_query(us, vs) -> bytes:
    """One request frame: opcode, count, then raw int64 pair arrays."""
    m = us.size
    return b"".join((
        bytes((_OP_QUERY,)),
        m.to_bytes(8, "big"),
        us.astype("<i8", copy=False).tobytes(),
        vs.astype("<i8", copy=False).tobytes(),
    ))


def _encode_error(kind: int, message: str) -> bytes:
    return bytes((_ST_ERROR, kind)) + message.encode("utf-8", "replace")


def _worker_main(conn, segment: str, cache_size: int):
    """One worker process: attach the shared store, serve frames forever.

    Each frame goes through the in-process pipeline synchronously: a
    private, never-started :class:`~repro.serve.server.QueryServer`
    whose oracle views the shared pages dedups it, probes its own
    generation-keyed result cache, and serves the rest in this thread
    -- no dispatcher thread, no event hop.  An answer frame is status,
    pair count, the frame's cache-hit count, then the float64
    distances.  Top-level (and with picklable arguments) so the fleet
    also works under the ``spawn`` start method.
    """
    from ..oracles.oracle import HubLabelOracle
    from ..perf.shm import SharedLabelStore
    from .server import QueryServer

    store = SharedLabelStore.attach(segment)
    # Admission is the parent's job; the worker's pipeline is never
    # started and serves each frame inline.
    server = QueryServer(
        HubLabelOracle(store.flat, backend="flat"), cache_size=cache_size
    )
    books = server._books.cell()  # this thread's: the frame's hits
    try:
        while True:
            try:
                frame = conn.recv_bytes()
            except (EOFError, OSError):
                break  # parent went away; nothing left to serve
            if frame[0] == _OP_SHUTDOWN:
                try:
                    conn.send_bytes(bytes((_OP_SHUTDOWN,)))
                except (BrokenPipeError, OSError):
                    pass
                break
            m = int.from_bytes(frame[1:9], "big")
            us = np.frombuffer(frame, dtype="<i8", count=m, offset=9)
            vs = np.frombuffer(frame, dtype="<i8", count=m, offset=9 + 8 * m)
            hits = books[_CACHE_HITS]
            try:
                ticket, generation = server._ticket(us, vs)
                server._enqueue(ticket, generation, inline=True)
                values = ticket.result()
                payload = np.asarray(values, dtype=np.float64)
            except DomainError as exc:
                conn.send_bytes(_encode_error(_ERR_DOMAIN, str(exc)))
                continue
            except Exception as exc:  # pragma: no cover - defensive
                conn.send_bytes(_encode_error(_ERR_GENERIC, str(exc)))
                continue
            hits = books[_CACHE_HITS] - hits
            conn.send_bytes(
                bytes((_ST_OK,))
                + m.to_bytes(8, "big")
                + hits.to_bytes(8, "big")
                + payload.astype("<f8", copy=False).tobytes()
            )
    finally:
        # The server's oracle holds the last views over the shared
        # pages; release it first or close() cannot drop the mapping
        # (and SharedMemory.__del__ would warn at interpreter exit).
        del server
        store.close()
        conn.close()


class ShardedTicket:
    """A resolved batch ticket from the sharded door.

    The pair-array roundtrip is synchronous in the submitting thread
    (concurrency comes from many client threads fanning over many
    workers), so by the time :meth:`ShardedQueryServer.submit_batch`
    returns, the answers -- or the failure -- are already here.  The
    interface still matches :class:`~repro.serve.server.BatchTicket`
    so ``run_loadgen`` and callers are door-agnostic.
    """

    __slots__ = ("width", "_results")

    def __init__(self, width, results):
        self.width = width
        self._results = results

    def done(self) -> bool:
        return True

    def result(self, timeout: Optional[float] = None) -> List[object]:
        return self._results

    def __repr__(self) -> str:
        return f"ShardedTicket(width={self.width}, done)"


class FleetHealth:
    """A point-in-time health snapshot of the worker fleet.

    The multi-process sibling of
    :class:`~repro.runtime.resilient.HealthReport`: ``ok`` is the one
    bit monitoring alerts on, the counters say why.
    """

    __slots__ = ("processes", "alive", "restarts", "frames")

    def __init__(
        self,
        processes: int,
        alive: int,
        restarts: int,
        frames: Tuple[int, ...],
    ) -> None:
        self.processes = processes
        self.alive = alive
        self.restarts = restarts
        self.frames = frames

    @property
    def ok(self) -> bool:
        """True while every configured worker slot has a live process."""
        return self.alive == self.processes

    def __repr__(self) -> str:
        status = "ok" if self.ok else "degraded"
        return (
            f"FleetHealth({status}, alive={self.alive}/{self.processes}, "
            f"restarts={self.restarts}, frames={list(self.frames)})"
        )


class _Worker:
    """One worker slot: process + pipe + the lock serializing its use."""

    __slots__ = ("process", "conn", "lock")

    def __init__(self, process, conn) -> None:
        self.process = process
        self.conn = conn
        self.lock = threading.Lock()


def _flat_store_of(source):
    """The :class:`FlatHubLabeling` behind an oracle / labeling / store."""
    from ..perf.flat import FlatHubLabeling

    if isinstance(source, FlatHubLabeling):
        return source
    labeling = getattr(source, "labeling", None)
    if labeling is not None:  # an oracle
        if isinstance(labeling, FlatHubLabeling):
            return labeling
        return FlatHubLabeling.from_labeling(labeling)
    return FlatHubLabeling.from_labeling(source)


class ShardedQueryServer:
    """N worker processes answering pair batches over one label store.

    ``source`` is an oracle, a labeling, or a
    :class:`~repro.perf.flat.FlatHubLabeling`; whatever it is, the flat
    store is extracted once and copied into a fresh shared-memory
    segment that every worker attaches zero-copy.

    ``max_queue`` bounds in-flight pairs fleet-wide (admission mirrors
    the in-process server: a batch is admitted whole into remaining
    capacity, so one oversized batch cannot livelock).  ``cache_size``
    sizes each worker's result cache.
    """

    def __init__(
        self,
        source,
        *,
        processes: int = 4,
        max_queue: int = 1024,
        cache_size: int = 4096,
    ) -> None:
        if processes < 1:
            raise ValueError("processes must be at least 1")
        if max_queue < 1:
            raise ValueError("max_queue must be at least 1")
        self.processes = processes
        self.max_queue = max_queue
        self._cache_size = cache_size
        self._flat = _flat_store_of(source)
        self._oracle = (
            source
            if getattr(source, "labeling", None) is not None
            else None
        )
        self._n = self._flat.num_vertices
        try:
            self._ctx = multiprocessing.get_context("fork")
        except ValueError:  # pragma: no cover - non-POSIX
            self._ctx = multiprocessing.get_context()
        self._store = None  # the owned SharedLabelStore while running
        self._segment: Optional[str] = None  # its name, for respawns
        self._workers: List[_Worker] = []
        self._running = False
        self._lifecycle = threading.Lock()
        self._admission = threading.Lock()
        self._inflight = 0
        self._spin = itertools.count()
        self._books = _Books()
        # Per slot; each entry is bumped only under its slot's lock.
        self._frames = [0] * processes
        self._restarts = [0] * processes
        self._generation_seq = 0
        self._width_hist = Histogram(
            SERVE_COALESCE_WIDTH, (), WIDTH_BUCKETS
        )
        self._obs_registry = None
        self._obs: Optional[tuple] = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "ShardedQueryServer":
        with self._lifecycle:
            if self._running:
                return self
            from ..perf.shm import SharedLabelStore

            self._store = SharedLabelStore.create(self._flat)
            self._segment = self._store.name
            self._workers = [self._spawn() for _ in range(self.processes)]
            self._running = True
            obs = self._bind_obs()
            if obs is not None:
                obs[1].inc(0)  # restarts visible at 0 from the start
                obs[2].set(self.processes)
                obs[3].set(self._generation_seq)
        return self

    def _spawn(self) -> _Worker:
        parent_conn, child_conn = self._ctx.Pipe(duplex=True)
        process = self._ctx.Process(
            target=_worker_main,
            args=(child_conn, self._segment, self._cache_size),
            name="repro-shard-worker",
            daemon=True,
        )
        process.start()
        child_conn.close()
        return _Worker(process, parent_conn)

    def stop(self, *, drain: bool = True) -> None:
        """Shut the fleet down; ``drain`` (default) finishes in-flight
        frames first.

        Every worker whose slot is free gets a shutdown handshake (it
        serves frames synchronously, so nothing is left to drain when
        it acks); a worker that does not ack in time is terminated.
        With ``drain=False`` a slot busy with another thread's frame is
        not waited for: its worker is terminated without a word on the
        pipe, which that thread owns, and the frame fails with
        ``RuntimeError``, its pairs booked as errors.  ``stats()`` stays
        exact either way: the books are the parent's, so no worker
        takes its share with it.  The owned shared-memory segment is
        closed and unlinked last, so ``/dev/shm`` ends clean.
        """
        with self._lifecycle:
            if not self._running:
                return
            self._running = False
            for worker in self._workers:
                # The slot lock serializes behind any in-flight
                # roundtrip: acquiring it *is* the drain.
                if worker.lock.acquire(blocking=drain):
                    try:
                        self._retire(worker)
                    finally:
                        worker.lock.release()
                else:
                    # The frame's thread reads EOF, fails the frame in
                    # _respawn and closes the pipe there.
                    worker.process.terminate()
                    worker.process.join(_LIFECYCLE_TIMEOUT)
            self._workers = []
            if self._store is not None:
                self._store.close()
                self._store = None
            obs = self._bind_obs()
            if obs is not None:
                obs[2].set(0)

    def set_oracle(self, source) -> None:
        """Hot-swap the fleet onto a new labeling without stale answers.

        ``source`` is anything the constructor accepts (an oracle, a
        labeling, or a flat store).  The new flat store is copied into
        a **fresh** shared-memory segment, then each worker slot is
        replaced one at a time: acquiring the slot lock drains any
        frame in flight on it, the old worker gets the shutdown
        handshake, and a new worker attaches the new segment (the
        slot's lock object survives, so concurrent submitters simply
        queue behind the swap).  The old segment is unlinked last.

        Consistency matches the in-process door: a frame is answered
        entirely by whichever labeling its worker held -- never a mix
        -- and every call admitted after ``set_oracle`` returns is
        answered by the new labeling (each worker's result cache is
        generation-keyed, so no cached answer crosses the swap).  The
        monotone ``serve.generation`` gauge bumps once per swap.

        When the fleet is not running, the swap just replaces the
        pending store; the next ``start()`` serves it.
        """
        flat = _flat_store_of(source)
        with self._lifecycle:
            self._flat = flat
            self._oracle = (
                source
                if getattr(source, "labeling", None) is not None
                else None
            )
            self._n = flat.num_vertices
            self._generation_seq += 1
            if not self._running:
                return
            from ..perf.shm import SharedLabelStore

            old_store = self._store
            self._store = SharedLabelStore.create(flat)
            self._segment = self._store.name
            for slot in range(len(self._workers)):
                worker = self._workers[slot]
                with worker.lock:  # serializes behind in-flight frames
                    self._retire(worker)
                    fresh = self._spawn()
                    fresh.lock = worker.lock  # held right now, on purpose
                    self._workers[slot] = fresh
            old_store.close()
            obs = self._bind_obs()
            if obs is not None:
                obs[3].set(self._generation_seq)

    @property
    def generation_seq(self) -> int:
        """Monotone swap counter: 0 at construction, +1 per set_oracle."""
        return self._generation_seq

    @property
    def running(self) -> bool:
        return self._running

    def __enter__(self) -> "ShardedQueryServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # ------------------------------------------------------------------
    # Submission
    # ------------------------------------------------------------------
    def submit(self, u: int, v: int) -> Future:
        """One pair through the sharded door; the future is already
        resolved when it returns (the roundtrip is synchronous)."""
        if not self._running:
            raise RuntimeError(
                "ShardedQueryServer is not running (call start())"
            )
        future: Future = Future()
        try:
            values = self._submit_arrays(vertex_ids([u]), vertex_ids([v]))
        except ServerOverloadError:
            # Contract-matching: overload raises at submit, like the
            # in-process door...
            raise
        except Exception as exc:
            # ...while per-pair failures (DomainError, a worker error)
            # resolve through the future, where QueryServer puts them.
            future.set_exception(exc)
            return future
        future.set_result(values[0])
        return future

    def submit_batch(self, us, vs) -> ShardedTicket:
        """A whole pair batch through one worker roundtrip."""
        if not self._running:
            raise RuntimeError(
                "ShardedQueryServer is not running (call start())"
            )
        us_arr = vertex_ids(us).reshape(-1)
        vs_arr = vertex_ids(vs).reshape(-1)
        if us_arr.shape != vs_arr.shape:
            raise ValueError("us and vs must be the same length")
        if us_arr.size == 0:
            return ShardedTicket(0, [])
        values = self._submit_arrays(us_arr, vs_arr)
        return ShardedTicket(us_arr.size, values)

    def query(self, u: int, v: int, timeout: Optional[float] = None):
        """Blocking convenience: submit one pair, return its distance."""
        return self.submit(u, v).result(timeout=timeout)

    def _submit_arrays(self, us, vs) -> List[object]:
        if not self._running:
            raise RuntimeError(
                "ShardedQueryServer is not running (call start())"
            )
        # Domain-check parent-side: a bad vertex must reject the batch
        # before it costs a worker roundtrip (and DomainError from
        # submit_batch matches the in-process door's contract).
        if us.size and (
            int(us.min()) < 0 or int(us.max()) >= self._n
            or int(vs.min()) < 0 or int(vs.max()) >= self._n
        ):
            raise DomainError(
                f"batch contains a vertex outside [0, {self._n})"
            )
        width = us.size
        cell = self._books.cell()
        with self._admission:
            # Mirror the in-process shards: admit while *any* capacity
            # remains (an oversized batch still lands when the fleet is
            # idle -- overshoot-by-one, never livelock).
            if self._inflight >= self.max_queue:
                cell[_OVERLOADS] += 1
                raise ServerOverloadError(
                    f"sharded admission is full; batch of {width} "
                    f"pair(s) rejected",
                    capacity=self.max_queue,
                )
            self._inflight += width
        cell[_REQUESTS] += width
        try:
            slot, response = self._roundtrip(_encode_query(us, vs))
            values, hits = self._decode_response(response, width)
        except Exception:
            # No cache answered these pairs: requests == hits + misses.
            cell[_CACHE_MISSES] += width
            cell[_ERRORS] += width
            raise
        finally:
            with self._admission:
                self._inflight -= width
        # Booked as the worker's pipeline books it: a frame its cache
        # did not answer whole is one dispatched group.
        cell[_CACHE_HITS] += hits
        cell[_CACHE_MISSES] += width - hits
        if hits < width:
            cell[_BATCH_SUBMISSIONS] += 1
            cell[_BATCHES] += 1
            cell[_COALESCED] += width
            self._width_hist.observe(float(width))
        cell[_RESPONSES] += width
        obs = self._bind_obs()
        if obs is not None:
            obs[0](slot).inc()
        return values

    def _decode_response(
        self, frame: bytes, width: int
    ) -> Tuple[List[object], int]:
        """An answer frame's distances and cache-hit count."""
        from ..perf.flat import _dedouble

        if frame[0] == _ST_ERROR:
            message = frame[2:].decode("utf-8", "replace")
            if frame[1] == _ERR_DOMAIN:
                raise DomainError(message)
            raise RuntimeError(f"worker failed a pair batch: {message}")
        m = int.from_bytes(frame[1:9], "big")
        if m != width:  # pragma: no cover - protocol invariant
            raise RuntimeError(
                f"worker answered {m} pair(s) for a {width}-pair frame"
            )
        hits = int.from_bytes(frame[9:17], "big")
        dists = np.frombuffer(frame, dtype="<f8", count=m, offset=17)
        # Same narrowing the flat store applies: integral distances come
        # back as Python ints, disconnection as INF -- byte-identical to
        # the dict store even across the float64 wire.
        return [_dedouble(value) for value in dists.tolist()], hits

    # ------------------------------------------------------------------
    # Worker fan-out + respawn
    # ------------------------------------------------------------------
    def _roundtrip(self, payload: bytes) -> Tuple[int, bytes]:
        """Send one frame to a free worker; respawn-and-retry once if
        the chosen worker turns out to be dead."""
        workers = self._workers
        count = len(workers)
        home = next(self._spin) % count
        slot = None
        for attempt in range(count):
            candidate = (home + attempt) % count
            if workers[candidate].lock.acquire(blocking=False):
                slot = candidate
                break
        if slot is None:
            slot = home
            workers[slot].lock.acquire()
        try:
            worker = workers[slot]
            try:
                worker.conn.send_bytes(payload)
                response = worker.conn.recv_bytes()
            except (EOFError, BrokenPipeError, ConnectionResetError,
                    OSError):
                worker = self._respawn(workers, slot)
                worker.conn.send_bytes(payload)
                response = worker.conn.recv_bytes()
            self._frames[slot] += 1
            return slot, response
        finally:
            workers[slot].lock.release()

    def _respawn(self, workers: List[_Worker], slot: int) -> _Worker:
        """Replace the (dead) worker in ``workers[slot]``; the caller
        holds its lock.  Raises ``RuntimeError`` once the fleet is
        stopped, so no worker outlives ``stop()``."""
        old = workers[slot]
        self._retire(old, handshake=False)
        if not self._running:
            raise RuntimeError("ShardedQueryServer stopped mid-frame")
        fresh = self._spawn()
        fresh.lock = old.lock  # the caller already holds this slot's lock
        workers[slot] = fresh
        if not self._running:
            # stop() raced the spawn and may have missed ``fresh``.
            self._retire(fresh, handshake=False)
            raise RuntimeError("ShardedQueryServer stopped mid-frame")
        self._restarts[slot] += 1
        obs = self._bind_obs()
        if obs is not None:
            obs[1].inc()
            obs[2].set(self.workers_alive())
        return fresh

    def _retire(self, worker: _Worker, *, handshake: bool = True) -> None:
        """End one worker and close its pipe; the caller holds its slot
        lock.

        With ``handshake`` it is asked to shut down first; a worker
        still alive after that is terminated.
        """
        if handshake:
            try:
                worker.conn.send_bytes(bytes((_OP_SHUTDOWN,)))
                if worker.conn.poll(_LIFECYCLE_TIMEOUT):
                    worker.conn.recv_bytes()
            except (BrokenPipeError, EOFError, OSError):
                pass  # already dead; join below
            worker.process.join(_LIFECYCLE_TIMEOUT)
        if worker.process.is_alive():
            worker.process.terminate()
        worker.process.join(_LIFECYCLE_TIMEOUT)
        worker.conn.close()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def oracle(self):
        """A parent-side oracle over the same flat store (for display
        and differential checks; queries go to the workers)."""
        if self._oracle is None:
            from ..oracles.oracle import HubLabelOracle

            self._oracle = HubLabelOracle(self._flat, backend="flat")
        return self._oracle

    def workers_alive(self) -> int:
        return sum(
            1 for worker in self._workers if worker.process.is_alive()
        )

    def health(self) -> FleetHealth:
        """Fleet liveness: slot count, live processes, and per-slot
        respawns and frames since construction."""
        return FleetHealth(
            self.processes,
            self.workers_alive(),
            sum(self._restarts),
            tuple(self._frames),
        )

    def stats(self) -> ServerStats:
        """Fleet-wide :class:`ServerStats`, summed from the parent's
        books without a lock, a pipe or a slot lock.

        Exact once the fleet is quiet, across respawns and a
        non-draining stop alike.  ``cancelled`` stays 0: a frame cut
        short by ``stop(drain=False)`` fails and counts as errors.
        """
        return _snapshot(self._books, self._width_hist)

    def queue_depth(self) -> int:
        """Pairs currently in flight across the fleet."""
        with self._admission:
            return self._inflight

    def _bind_obs(self) -> Optional[tuple]:
        registry = _get_registry()
        if registry is not self._obs_registry:
            if registry.enabled:
                for name, slot in _FED_COUNTERS:
                    registry.counter(name).feed(self._books.cells, slot)
                gauges = {}

                def worker_counter(slot: int):
                    counter = gauges.get(slot)
                    if counter is None:
                        counter = registry.counter(
                            SERVE_WORKER_BATCHES, worker=str(slot)
                        )
                        gauges[slot] = counter
                    return counter

                obs = (
                    worker_counter,
                    registry.counter(SERVE_WORKER_RESTARTS),
                    registry.gauge(SERVE_WORKERS_ALIVE),
                    registry.gauge(SERVE_GENERATION),
                )
            else:
                obs = None
            self._obs = obs
            self._obs_registry = registry
            return obs
        return self._obs

    def __repr__(self) -> str:
        state = "running" if self._running else "stopped"
        return (
            f"ShardedQueryServer({state}, processes={self.processes}, "
            f"alive={self.workers_alive()}, "
            f"inflight={self.queue_depth()}/{self.max_queue})"
        )
