"""``ba-churn``: edits and reads taking turns on one dynamic labeling.

A preferential-attachment graph lives under ``DynamicHubLabeling``
(default budgets, a ``LabelCache`` in a scratch directory) and is
served by an in-process ``QueryServer`` with its default result cache.
One thread alternates two steps and never overlaps them:

* ``WINDOWS_PER_EDIT`` windows of ``WINDOW`` per-pair ``submit`` calls,
  both endpoints Zipf(1.1) over a seeded vertex ranking, every 16th pair
  a probe pair graded against BFS on that generation's graph;
* one edit from the pinned, kept-connected insert/delete script; the
  first ``TIMED_EDITS`` are timed from the call to the first answer the
  new labeling serves:
  ``insert_edge`` or ``delete_edge``, then ``flat()``, then
  ``set_oracle``, then one read.
"""

from __future__ import annotations

import os
import shutil
import tempfile
from time import perf_counter

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
    graph_digest,
    layer_metrics,
    median,
    read_stats,
    replay,
    same_answer,
    throughput,
    tree_pss_mb,
)

BA_N = 4000
BA_ATTACH = 2
#: The graph and the edit script are pinned, so every run makes the same
#: edits and update costs compare like with like; the workload seed
#: drives the reads, the Zipf ranking and the probes.
GRAPH_SEED = 0
SCRIPT_SEED = 0
WINDOW = 256
WINDOWS_PER_EDIT = 16
ZIPF_S = 1.1
STRIDE = 16
#: Set-ups per run; setup_s is their median.
SETUP_REPS = 9
SETUP_EVERY = 10
PROBES = 4
#: Every run makes at least TIMED_EDITS edits, and the update metrics
#: cover exactly those, so every run times the same edits.  The exact
#: counts cover the first COUNTED_EDITS.
TIMED_EDITS = 80
COUNTED_EDITS = 12
DIGEST_EDITS = 16
DIGEST_WINDOWS = 8
#: Pairs compared between the repaired labeling and a full rebuild.
CHECK_PAIRS = 4096


class Windows:
    """Seeded per-pair read windows: ``(us, vs, sources, targets)``."""

    def __init__(self, seed: int, n: int, probes) -> None:
        self._vertex_of_rank = np.argsort(Stream(seed, 3).uniform(n), kind="stable")
        weights = 1.0 / np.arange(1, n + 1, dtype=np.float64) ** ZIPF_S
        self._cdf = np.cumsum(weights) / weights.sum()
        self._stream = Stream(seed, 4)
        self._probes = np.asarray(probes, dtype=np.int64)

    def next(self):
        ranks = np.searchsorted(self._cdf, self._stream.uniform(2 * WINDOW), side="right")
        verts = self._vertex_of_rank[np.minimum(ranks, len(self._cdf) - 1)]
        us = verts[:WINDOW].copy()
        vs = verts[WINDOW:].copy()
        sources = self._stream.ints(WINDOW // STRIDE, len(self._probes))
        vs[::STRIDE] = self._probes[sources]
        return us, vs, sources, us[::STRIDE].copy()


class EditScript:
    """Seeded insert/delete script that keeps the graph connected.

    Two inserts, then one delete, repeated.  An insert joins two random
    non-adjacent vertices; a delete removes a random edge whose
    endpoints stay connected without it.  Deletes mostly force a full
    rebuild and inserts mostly repair, so the uneven mix keeps the
    median edit inside one of the two cost classes.  Edits are drawn on demand
    against the script's own copy of the graph.
    """

    def __init__(self, graph, seed: int) -> None:
        self._stream = Stream(seed, 5)
        self._n = graph.num_vertices
        self.adj = adjacency(graph)
        self._edges = sorted((min(u, v), max(u, v)) for u, v, _w in graph.edges())
        self._index = {edge: i for i, edge in enumerate(self._edges)}
        self._count = 0

    def next(self):
        stream = self._stream
        if self._count % 3 != 2:
            while True:
                u, v = (int(x) for x in stream.ints(2, self._n))
                if u != v and v not in self.adj[u]:
                    break
            edit = ("insert", min(u, v), max(u, v))
            apply_edit(self.adj, edit)
            self._add(edit[1], edit[2])
        else:
            while True:
                u, v = self._edges[stream.choice(len(self._edges))]
                apply_edit(self.adj, ("delete", u, v))
                if bfs(self.adj, u)[v] is not INF:
                    break
                apply_edit(self.adj, ("insert", u, v))
            edit = ("delete", u, v)
            self._remove(u, v)
        self._count += 1
        return edit

    def _add(self, u: int, v: int) -> None:
        self._index[(u, v)] = len(self._edges)
        self._edges.append((u, v))

    def _remove(self, u: int, v: int) -> None:
        i = self._index.pop((u, v))
        last = self._edges.pop()
        if i < len(self._edges):
            self._edges[i] = last
            self._index[last] = i


def stream_digest(graph, seed: int) -> str:
    n = graph.num_vertices
    probes = Stream(seed, 2).ints(PROBES, n)
    digest = Digest()
    digest.add(probes)
    windows = Windows(seed, n, probes)
    for _ in range(DIGEST_WINDOWS):
        digest.add(*windows.next())
    script = EditScript(graph, SCRIPT_SEED)
    for _ in range(DIGEST_EDITS):
        digest.add(script.next())
    return digest.hexdigest()


def _entries(labeling) -> set:
    return {
        (v, h, d)
        for v in range(labeling.num_vertices)
        for h, d in labeling.hubs(v).items()
    }


def run_churn(args, pins, run, tracer) -> dict:
    from repro.dynamic import DynamicHubLabeling
    from repro.graphs.generators import barabasi_albert
    from repro.oracles.oracle import HubLabelOracle
    from repro.perf.build import build_flat_labels
    from repro.perf.cache import LabelCache
    from repro.serve.server import QueryServer

    graph = barabasi_albert(BA_N, BA_ATTACH, seed=GRAPH_SEED)
    n = graph.num_vertices
    inputs = {"graph": graph_digest(graph), "stream": stream_digest(graph, args.seed)}
    check_pin(pins, "graph.ba", inputs["graph"])
    check_pin(pins, "stream.ba-churn", stream_digest(graph, 0))
    probes = Stream(args.seed, 2).ints(PROBES, n)
    windows = Windows(args.seed, n, probes)
    script = EditScript(graph, SCRIPT_SEED)
    traced_run = tracer.enabled
    scratch = os.path.join(OUT_DIR, f"cache-{os.getpid()}")
    os.makedirs(scratch, exist_ok=True)

    calls, graded, replays, applied = [], [], [], []
    setups, inits, builds, first_calls = [], [], [], []
    updates, repairs, freezes, swaps = [], [], [], []
    mem = None
    counts = {"affected": 0, "rebuilds": 0, "rewritten": 0, "useful": 0}

    def set_up():
        """One timed set-up on a fresh copy of the graph: the dynamic
        labeling, its flat store and a started server, which has served
        its first answer."""
        cache = LabelCache(tempfile.mkdtemp(dir=scratch))
        if traced_run:
            cache = TimedCache(cache, tracer)
        with tracer.span("bench.setup"):
            t0 = perf_counter()
            with tracer.span("repro.dynamic.DynamicHubLabeling.__init__"):
                dyn = DynamicHubLabeling(graph.copy(), cache=cache)
            t1 = perf_counter()
            with tracer.span("repro.dynamic.DynamicHubLabeling.flat"):
                flat = dyn.flat()
            t2 = perf_counter()
            if traced_run:
                with tracer.span("repro.perf.kernels.first_call"):
                    flat.batch_query([(int(probes[1]), int(probes[0]))])
            t3 = perf_counter()
            with tracer.span("repro.serve.server.QueryServer.start"):
                server = QueryServer(HubLabelOracle(flat, backend="flat")).start()
                run.attempt(1)
                got = server.submit(int(probes[1]), int(probes[0])).result()
            t4 = perf_counter()
        graded.append((0, [0], [int(probes[1])], [got]))
        inits.append(t1 - t0)
        first_calls.append(t3 - t2)
        setups.append(t4 - t0 - (t3 - t2))
        if traced_run:
            builds.append(cache.calls[-1])
            cache.calls.clear()
        return dyn, flat, server, cache

    server = None
    try:
        # The first set-up serves the run; the others are spread over the
        # measured phase, one every SETUP_EVERY cycles, so that setup_s
        # samples the machine at several points of the run.
        dyn, flat, server, cache = set_up()
        entries = flat.total_size()
        bytes_per_entry = flat.space_bytes() / entries
        before = _entries(dyn.labeling) if traced_run else None

        end = perf_counter() + args.seconds
        cycle = 0
        while True:
            traced = traced_run and cycle % 2 == 1
            for w in range(WINDOWS_PER_EDIT):
                us, vs, sources, targets = windows.next()
                run.attempt(WINDOW)
                with tracer.span("repro.serve.server.QueryServer.submit", on=traced) as trace:
                    start = perf_counter()
                    try:
                        futures = [server.submit(u, v) for u, v in zip(us.tolist(), vs.tolist())]
                        answers = [f.result() for f in futures]
                    except Exception as exc:  # every refusal is a failed op
                        run.fail(WINDOW, f"window: {exc!r}")
                        continue
                    stop = perf_counter()
                calls.append((start, stop, WINDOW, traced))
                graded.append((len(applied), sources, targets, answers[::STRIDE]))
                if traced and w < 2:
                    replays.append(replay(flat, us, vs, stop - start, int(probes[0]), tracer, trace))
            if mem is None:  # before any edit; see README.md on memory
                mem = tree_pss_mb()
            if len(applied) >= TIMED_EDITS and perf_counter() >= end:
                break
            if cycle % SETUP_EVERY == SETUP_EVERY - 1 and len(setups) < SETUP_REPS:
                set_up()[2].stop()
            edit = script.next()
            op, u, v = edit
            run.attempt(1)
            try:
                with tracer.span("bench.update", on=traced):
                    t0 = perf_counter()
                    with tracer.span(f"repro.dynamic.DynamicHubLabeling.{op}_edge"):
                        report = dyn.insert_edge(u, v) if op == "insert" else dyn.delete_edge(u, v)
                    t1 = perf_counter()
                    with tracer.span("repro.dynamic.DynamicHubLabeling.flat"):
                        flat = dyn.flat()
                    t2 = perf_counter()
                    with tracer.span("repro.serve.server.QueryServer.set_oracle"):
                        server.set_oracle(HubLabelOracle(flat, backend="flat"))
                    t3 = perf_counter()
                    # The first answer of the new labeling ends the
                    # update, so its lazy kernel build lands here.
                    run.attempt(1)
                    got = server.submit(int(probes[1]), int(probes[0])).result()
                    t4 = perf_counter()
            except Exception as exc:
                run.fail(1, f"edit {edit}: {exc!r}")
                break
            applied.append(edit)
            graded.append((len(applied), [0], [int(probes[1])], [got]))
            if len(applied) <= TIMED_EDITS:
                updates.append(t4 - t0)
            if traced:
                repairs.append(t1 - t0)
                freezes.append(t2 - t1)
                swaps.append(t3 - t2)
            if traced_run and len(applied) <= COUNTED_EDITS:
                after = _entries(dyn.labeling)
                counts["affected"] += report.affected_roots
                counts["rebuilds"] += int(report.rebuilt)
                counts["rewritten"] += report.labels_removed + report.labels_added
                counts["useful"] += len(before ^ after)
                before = after
            cycle += 1
        stats = server.stats()
        server.stop()
        _grade(graph, applied, graded, probes, run)
        _check_rebuild(dyn, flat, build_flat_labels, args.seed, run)
    finally:
        if server is not None:
            server.stop()
        shutil.rmtree(scratch, ignore_errors=True)

    untraced = [c for c in calls if not c[3]]
    rate, p90 = read_stats(untraced)
    out = {
        "inputs": inputs,
        "e2e": {
            "setup_s": median(setups),
            "pairs_per_s": rate,
            "read_p90_ms": p90,
            "update_mean_ms": float(np.mean(updates)) * 1e3,
            "mem_mb": mem,
        }
    }
    if traced_run:
        rebuild_s = cache.calls
        layers = layer_metrics(replays)
        layers.update({
            "build.labels_s": median(builds),
            "build.entries": entries,
            "store.bytes_per_entry": bytes_per_entry,
            "kernel.first_call_ms": median(first_calls) * 1e3,
            "serve.cache_hit_ratio": stats.cache_hits / stats.requests,
            "serve.mean_batch_width": stats.mean_batch_width,
            "serve.swap_ms": median(swaps) * 1e3,
            "trace.overhead": throughput([c for c in calls if c[3]]) / throughput(untraced),
            "dynamic.init_s": median(inits),
            "dynamic.repair_ms": median(repairs) * 1e3,
            "dynamic.freeze_ms": median(freezes) * 1e3,
            "dynamic.rebuild_ms": float(np.mean(rebuild_s)) * 1e3 if rebuild_s else 0.0,
            "dynamic.affected_roots": counts["affected"],
            "dynamic.rebuilds": counts["rebuilds"],
            "dynamic.labels_rewritten": counts["rewritten"],
            "dynamic.useful_frac": counts["useful"] / counts["rewritten"],
        })
        out["layers"] = layers
    return out


def _grade(graph, applied, graded, probes, run) -> None:
    """Check every graded answer against BFS on its generation's graph."""
    adj = adjacency(graph)
    generation = 0
    truth = {}
    for gen, sources, targets, answers in sorted(graded, key=lambda g: g[0]):
        while generation < gen:
            apply_edit(adj, applied[generation])
            generation += 1
            truth = {}
        for s, t, got in zip(list(sources), list(targets), answers):
            s, t = int(s), int(t)
            if s not in truth:
                truth[s] = bfs(adj, int(probes[s]))
            if not same_answer(got, truth[s][t]):
                run.fail(1, f"gen {gen} pair ({int(probes[s])},{t}) -> {got!r}")


def _check_rebuild(dyn, flat, build_flat_labels, seed, run) -> None:
    """The repaired labeling answers a sample exactly as a full rebuild."""
    ref = build_flat_labels(dyn.graph, dyn.order)
    pairs = Stream(seed, 6).ints(2 * CHECK_PAIRS, flat.num_vertices).reshape(-1, 2)
    run.attempt(CHECK_PAIRS)
    for (u, v), got, want in zip(pairs.tolist(), flat.batch_query(pairs), ref.batch_query(pairs)):
        if not same_answer(got, want):
            run.fail(1, f"repair vs rebuild ({u},{v}): {got!r} != {want!r}")
