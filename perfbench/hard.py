"""``hard-batch``: the paper's max-degree-3 instance G(2,2).

One client thread sends uniform 4096-pair tickets through the
in-process batch door (``QueryServer.submit_batch``, result cache off).
Every 16th pair is a probe pair ``(u, s)`` with the probe source ``s``
on the ``v`` side, graded against BFS from ``s``.

Edits are served the way ``loadgen --churn`` serves them: a
``DynamicHubLabeling`` (started from the set-up's labeling through a
``LabelCache``) applies the edit, ``flat()`` freezes it and
``set_oracle`` swaps it in; one read then ends the update, so the new
store's lazy kernel build is paid there and not by the next ticket.
The measured phase is read segments around the pinned edit pair made
``EDIT_ROUNDS`` times: delete edge ``e``, then insert it back.  On
G(2,2) nearly every root is affected, so every edit rebuilds in full
through the cache: the first delete builds G - e, every later edit
finds its graph cached.

A traced run ends with a fleet phase for the sharded door's layer
metrics (:func:`_fleet_phase`); it is not part of the measured phase.
"""

from __future__ import annotations

import os
import shutil
import threading
from time import perf_counter
from typing import List

import numpy as np

from common import (
    INF,
    OUT_DIR,
    Digest,
    Stream,
    TimedCache,
    adjacency,
    apply_edit,
    bfs,
    check_pin,
    descendants,
    graph_digest,
    layer_metrics,
    median,
    pss_mb,
    read_stats,
    replay,
    same_answer,
    throughput,
    tree_pss_mb,
    unpinned,
)

TICKET = 4096
#: Every STRIDE-th pair of a ticket is graded.
STRIDE = 16
#: Set-ups per run; setup_s is their median.
SETUP_REPS = 2
PROBES = 8
#: The edit pair is pinned, and made EDIT_ROUNDS times, so every run
#: makes the same edits: one full build, then cache hits.  Their mean
#: is taken over a window long enough to span several of the machine's
#: speed states (see README.md).
SCRIPT_SEED = 0
EDIT_ROUNDS = 6
#: The fleet phase of a traced run: worker processes (and client
#: threads), and how long the clients send tickets.
FLEET_PROCESSES = 2
FLEET_SECONDS = 4.0
#: Traced tickets kept per client and segment for layer replays.
KEEP = 12
#: Admission bound large enough that no client ticket is ever refused.
MAX_QUEUE = 1 << 16
DIGEST_TICKETS = 8


class Tickets:
    """Seeded ticket stream: ``(us, vs, sources, targets)`` where
    ``sources[i]`` / ``targets[i]`` name the probe source and the other
    endpoint of graded pair ``i`` (pair ``i * STRIDE``)."""

    def __init__(self, seed: int, lane: int, n: int, probes, rooted: bool):
        self._stream = Stream(seed, lane)
        self._n = n
        self._probes = np.asarray(probes, dtype=np.int64)
        self._rooted = rooted

    def next(self):
        stream = self._stream
        if self._rooted:
            which = stream.choice(len(self._probes))
            vs = stream.ints(TICKET, self._n)
            us = np.full(TICKET, self._probes[which], dtype=np.int64)
            sources = np.full(TICKET // STRIDE, which, dtype=np.int64)
            return us, vs, sources, vs[::STRIDE].copy()
        us = stream.ints(TICKET, self._n)
        vs = stream.ints(TICKET, self._n)
        sources = stream.ints(TICKET // STRIDE, len(self._probes))
        vs[::STRIDE] = self._probes[sources]
        return us, vs, sources, us[::STRIDE].copy()


def edit_pair(graph) -> tuple:
    """``(("delete", u, v), ("insert", u, v))`` for a seeded edge whose
    removal keeps the graph connected."""
    stream = Stream(SCRIPT_SEED, 5)
    adj = adjacency(graph)
    edges = sorted((min(u, v), max(u, v)) for u, v, _w in graph.edges())
    while True:
        u, v = edges[stream.choice(len(edges))]
        apply_edit(adj, ("delete", u, v))
        if bfs(adj, u)[v] is not INF:
            return ("delete", u, v), ("insert", u, v)
        apply_edit(adj, ("insert", u, v))


def stream_digest(seed: int, n: int, rooted: bool, edits) -> str:
    probes = Stream(seed, 2).ints(PROBES, n)
    digest = Digest()
    digest.add(probes, *edits)
    tickets = Tickets(seed, 10, n, probes, rooted)
    for _ in range(DIGEST_TICKETS):
        digest.add(*tickets.next())
    return digest.hexdigest()


class Client:
    """One closed-loop client: next ticket only after the last answered."""

    def __init__(self, tickets: Tickets, server, run, tracer, door: str):
        self.tickets = tickets
        self.server = server
        self.run = run
        self.tracer = tracer
        self.span = door + ".submit_batch"
        self.calls: List[tuple] = []  # (start, end, pairs, traced)
        self.gen = 0  # edits applied before the current segment
        self.graded: List[tuple] = []  # (gen, sources, targets, answers)
        self.kept: List[tuple] = []  # (us, vs, latency, trace) of traced tickets
        self.replayed = 0

    def segment(self, until: float, traced: bool) -> None:
        kept = 0
        while perf_counter() < until:
            us, vs, sources, targets = self.tickets.next()
            self.run.attempt(TICKET)
            with self.tracer.span(self.span, on=traced) as trace:
                start = perf_counter()
                try:
                    answers = self.server.submit_batch(us, vs).result()
                except Exception as exc:  # every refusal is a failed op
                    self.run.fail(TICKET, f"ticket: {exc!r}")
                    continue
                end = perf_counter()
            self.calls.append((start, end, TICKET, traced))
            self.graded.append((self.gen, sources, targets, answers[::STRIDE]))
            if traced and kept < KEEP:
                self.kept.append((us, vs, end - start, trace))
                kept += 1


def run_hard(args, pins, run, tracer) -> dict:
    from repro.core.orders import degree_order
    from repro.dynamic import DynamicHubLabeling
    from repro.lowerbound.degree3 import build_degree3_instance
    from repro.oracles.oracle import HubLabelOracle
    from repro.perf.build import build_flat_labels
    from repro.perf.cache import LabelCache
    from repro.serve.server import QueryServer

    graph = build_degree3_instance(2, 2).graph
    n = graph.num_vertices
    pair = edit_pair(graph)
    edits = pair * EDIT_ROUNDS
    inputs = {
        "graph": graph_digest(graph),
        "stream": stream_digest(args.seed, n, False, pair),
    }
    check_pin(pins, "graph.G(2,2)", inputs["graph"])
    check_pin(pins, "stream.hard-batch", stream_digest(0, n, False, pair))
    check_pin(pins, "stream.hard-batch.fleet", stream_digest(0, n, True, pair))
    probes = Stream(args.seed, 2).ints(PROBES, n)
    adj = adjacency(graph)
    # BFS from every probe on G and on G - e; generation g (edits
    # applied) serves G when g is even.
    truth = []
    for edit in (None, pair[0]):
        if edit is not None:
            apply_edit(adj, edit)
        truth.append([bfs(adj, int(s)) for s in probes])
    del adj
    traced_run = tracer.enabled
    door = "repro.serve.server.QueryServer"

    def warm(server, gen, workers=1):
        # One answer per worker, so every lazy kernel build lands here.
        for i in range(workers):
            run.attempt(1)
            got = server.submit_batch([int(probes[1 + i])], [int(probes[0])]).result()
            if not same_answer(got[0], truth[gen % 2][0][int(probes[1 + i])]):
                run.fail(1, f"warm read {got[0]!r}")

    setups, builds, first_calls = [], [], []
    updates, repairs, freezes, swaps = [], [], [], []
    mem = None
    counts = {"affected": 0, "rebuilds": 0, "rewritten": 0}
    replays = []  # (latency, oracle s, kernel s, row s, merge entries)
    scratch = os.path.join(OUT_DIR, f"cache-{os.getpid()}")
    server = None
    try:
        for _rep in range(SETUP_REPS):
            if server is not None:
                server.stop()
                server = flat = None
            with tracer.span("bench.setup"):
                t0 = perf_counter()
                with tracer.span("repro.perf.build.build_flat_labels"):
                    flat = build_flat_labels(graph)
                t1 = perf_counter()
                if traced_run:
                    with tracer.span("repro.perf.kernels.first_call"):
                        flat.batch_query([(int(probes[1]), int(probes[0]))])
                t2 = perf_counter()
                with tracer.span(door + ".start"):
                    server = QueryServer(
                        HubLabelOracle(flat, backend="flat"),
                        cache_size=0, max_queue=MAX_QUEUE,
                    ).start()
                    warm(server, 0)
                t3 = perf_counter()
            builds.append(t1 - t0)
            first_calls.append(t2 - t1)
            setups.append(t3 - t0 - (t2 - t1))
        entries = flat.total_size()
        bytes_per_entry = flat.space_bytes() / entries

        # The edit path starts from the labeling being served: it is
        # stored under the key a rebuild of this graph would use.
        cache = LabelCache(scratch)
        cache.store(graph, degree_order(graph), flat)
        if traced_run:
            cache = TimedCache(cache, tracer)
        t0 = perf_counter()
        with tracer.span("repro.dynamic.DynamicHubLabeling.__init__"):
            dyn = DynamicHubLabeling(graph.copy(), cache=cache)
        init_s = perf_counter() - t0
        if traced_run:
            cache.calls.clear()  # the initial cache hit is not a rebuild

        client = Client(Tickets(args.seed, 10, n, probes, False), server, run, tracer, door)
        segment_s = args.seconds / (len(edits) + 1)
        for seg, edit in enumerate(edits + (None,)):
            client.gen = seg
            client.segment(perf_counter() + segment_s, traced_run and seg % 2 == 1)
            if mem is None:  # before any edit; see README.md on memory
                mem = tree_pss_mb()
            if traced_run and seg % 2 == 1:
                replays.extend(_replay(client, flat, probes, tracer))
            if edit is None:
                break
            op, u, v = edit
            run.attempt(1)
            try:
                with tracer.span("bench.update"):
                    t0 = perf_counter()
                    with tracer.span(f"repro.dynamic.DynamicHubLabeling.{op}_edge"):
                        report = dyn.insert_edge(u, v) if op == "insert" else dyn.delete_edge(u, v)
                    t1 = perf_counter()
                    with tracer.span("repro.dynamic.DynamicHubLabeling.flat"):
                        flat = dyn.flat()
                    t2 = perf_counter()
                    with tracer.span(door + ".set_oracle"):
                        server.set_oracle(HubLabelOracle(flat, backend="flat"))
                    t3 = perf_counter()
                    warm(server, seg + 1)
                    t4 = perf_counter()
            except Exception as exc:
                run.fail(1, f"edit {edit}: {exc!r}")
                break
            updates.append(t4 - t0)
            repairs.append(t1 - t0)
            freezes.append(t2 - t1)
            swaps.append(t3 - t2)
            counts["affected"] += report.affected_roots
            counts["rebuilds"] += int(report.rebuilt)
            counts["rewritten"] += report.labels_removed + report.labels_added
        stats = server.stats()
        server.stop()
        server = None
        clients = [client]
        if traced_run:
            fleet, fleet_clients = _fleet_phase(
                args, flat, probes, len(edits), run, tracer, warm
            )
            clients += fleet_clients
    finally:
        if server is not None:
            server.stop()
        shutil.rmtree(scratch, ignore_errors=True)

    untraced_calls = [c for c in client.calls if not c[3]]
    traced_calls = [c for c in client.calls if c[3]]
    rate, p90 = read_stats(untraced_calls)
    for c in clients:
        for gen, sources, targets, answers in c.graded:
            for s, t, got in zip(sources.tolist(), targets.tolist(), answers):
                if not same_answer(got, truth[gen % 2][s][t]):
                    run.fail(1, f"gen {gen} pair ({int(probes[s])},{t}) -> {got!r}")

    out = {
        "inputs": inputs,
        "e2e": {
            "setup_s": median(setups),
            "pairs_per_s": rate,
            "read_p90_ms": p90,
            "update_mean_ms": float(np.mean(updates)) * 1e3 if updates else 0.0,
            "mem_mb": mem,
        },
    }
    if traced_run:
        layers = layer_metrics(replays)
        layers.update(fleet)
        layers.update({
            "build.labels_s": median(builds),
            "build.entries": entries,
            "store.bytes_per_entry": bytes_per_entry,
            "kernel.first_call_ms": median(first_calls) * 1e3,
            "serve.cache_hit_ratio": stats.cache_hits / stats.requests if stats.requests else 0.0,
            "serve.mean_batch_width": stats.mean_batch_width,
            "serve.swap_ms": median(swaps) * 1e3,
            "trace.overhead": throughput(traced_calls) / throughput(untraced_calls),
            "dynamic.init_s": init_s,
            "dynamic.repair_ms": median(repairs) * 1e3,
            "dynamic.freeze_ms": median(freezes) * 1e3,
            "dynamic.rebuild_ms": float(np.mean(cache.calls)) * 1e3 if cache.calls else 0.0,
            "dynamic.affected_roots": counts["affected"],
            "dynamic.rebuilds": counts["rebuilds"],
            "dynamic.labels_rewritten": counts["rewritten"],
        })
        out["layers"] = layers
    return out


def _fleet_phase(args, flat, probes, gen, run, tracer, warm):
    """The sharded door's layer metrics, after the measured phase.

    The store last served goes behind a ``FLEET_PROCESSES``-process
    ``ShardedQueryServer`` over the shared-memory store, and as many
    client threads send source-rooted tickets (one probe source x 4096
    uniform targets) for ``FLEET_SECONDS``.  The same tickets then go
    through one in-process batch door with the same client threads, the
    base of ``fleet.speedup``.  Both run on every CPU the process may
    use.  Returns the ``fleet.*`` metrics and the clients, whose answers
    are graded with the rest.
    """
    from repro.serve.sharded import ShardedQueryServer

    door = "repro.serve.sharded.ShardedQueryServer"
    with unpinned():
        t0 = perf_counter()
        with tracer.span(door + ".start"):
            fleet = ShardedQueryServer(
                flat, processes=FLEET_PROCESSES, cache_size=0, max_queue=MAX_QUEUE
            ).start()
        try:
            warm(fleet, gen, FLEET_PROCESSES)
            start_s = perf_counter() - t0
            clients = [
                Client(Tickets(args.seed, 10 + i, flat.num_vertices, probes, True),
                       fleet, run, tracer, door)
                for i in range(FLEET_PROCESSES)
            ]
            for c in clients:
                c.gen = gen
            until = perf_counter() + FLEET_SECONDS
            threads = [
                threading.Thread(target=c.segment, args=(until, True)) for c in clients
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            worker_pss = sum(
                pss_mb(pid) for pid in descendants(os.getpid()) if not _is_tracker(pid)
            )
        finally:
            fleet.stop()
        base = _inprocess_base(clients, flat, tracer)
    calls = [call for c in clients for call in c.calls]
    fleet_lat = median([k[2] for c in clients for k in c.kept])
    return {
        "fleet.start_s": start_s,
        "fleet.ticket_overhead_ms": (fleet_lat - base[1]) * 1e3,
        "fleet.speedup": throughput(calls) / base[0],
        "fleet.inprocess_pairs_per_s": base[0],
        "fleet.worker_pss_mb": worker_pss,
    }, clients


def _is_tracker(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/cmdline", "rb") as handle:
            return b"resource_tracker" in handle.read()
    except FileNotFoundError:
        return True


def _replay(client, flat, probes, tracer):
    """Replay the kept tickets of a traced segment layer by layer; the
    row kernel runs from a probe source over each ticket's targets."""
    flat.batch_query([(0, 0)])  # the lazy kernel build is not a replay cost
    out = [
        replay(flat, us, vs, latency, int(probes[0]), tracer, trace)
        for us, vs, latency, trace in client.kept[client.replayed:]
    ]
    client.replayed = len(client.kept)
    return out


def _inprocess_base(clients, flat, tracer):
    """The fleet's kept tickets again, through one in-process batch door
    with the same two client threads: ``(pairs/s, median latency s)``."""
    from repro.oracles.oracle import HubLabelOracle
    from repro.serve.server import QueryServer

    server = QueryServer(
        HubLabelOracle(flat, backend="flat"), cache_size=0, max_queue=MAX_QUEUE
    ).start()
    calls: List[tuple] = []

    def send(client):
        for us, vs, _latency, _trace in client.kept:
            with tracer.span("repro.serve.server.QueryServer.submit_batch"):
                start = perf_counter()
                server.submit_batch(us, vs).result()
                calls.append((start, perf_counter(), len(us), True))

    try:
        server.submit_batch([0], [0]).result()
        threads = [threading.Thread(target=send, args=(c,)) for c in clients]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
    finally:
        server.stop()
    return throughput(calls), median([c[1] - c[0] for c in calls])
