"""The ``repro bench`` suite: pinned instances, machine-readable results.

Runs a fixed set of performance suites on a pinned hard instance
``G_{b,l}`` (the paper's degree-3 lower-bound graph) and writes
``BENCH_perf.json`` with the schema ``suite -> {metric, value, unit,
instance, seed}``.  The suites:

* ``pll_construction``      -- reference PLL build time on the pinned
  instance;
* ``build_throughput``      -- label entries/s of the direct-to-flat
  bit-parallel builder (:func:`repro.perf.build.build_flat_labels`);
* ``build_speedup``         -- reference PLL build time / direct build
  time, the median over ``repeats`` back-to-back pairs (the acceptance
  gate wants >= 3.0x on ``G(2,2)``);
* ``build_consistency``     -- vertices whose direct-built label rows
  differ from the reference labeling's (must be 0: the fast builder
  reproduces the canonical hierarchical labeling exactly);
* ``flat_conversion``       -- dict -> :class:`FlatHubLabeling` time
  (the entry also carries ``direct_s``, the direct-to-flat build time,
  so the conversion detour and the direct path can be compared);
* ``cache_store`` / ``cache_hit_latency`` -- persisting a built
  labeling through :class:`repro.perf.cache.LabelCache` and reloading
  it on a warm hit: a map of the artifact plus its CRC, no copy
  (``cache_dir`` pins the directory; default is a temp dir);
* ``batch_throughput_dict`` -- scalar ``query`` loop throughput on a
  subsample of the workload (the dict store has no batch engine to
  amortize with -- that is the point of the comparison);
* ``batch_throughput_flat`` -- ``batch_query`` throughput over the full
  workload through the public oracle API;
* ``batch_speedup``         -- flat / dict throughput ratio;
* ``backend_consistency``   -- mismatching answers between the two
  backends over the *full* workload (must be 0);
* ``serving_throughput``    -- the subsampled workload fired through a
  :class:`~repro.serve.server.QueryServer` by concurrent client
  threads using per-pair ``submit`` (admission + coalescing + batch
  dispatch, result cache off);
* ``serving_batch_throughput`` -- the *full* workload fired through
  the batch-native ``submit_batch`` door by the same client count, one
  :class:`~repro.serve.server.BatchTicket` per window (the fast path
  ``run_loadgen`` and the CLIs default to);
* ``serving_speedup``       -- served batch-native throughput / dict
  scalar-loop throughput (the ratio committed to the baseline;
  ``tools/bench_gate.py`` enforces a hard >= 5.0 floor on ``G(2,2)``);
* ``serving_consistency``   -- every answer of the last per-pair round
  AND the last batch round graded against the dict store, value AND
  type (must be 0; ``tools/bench_gate.py`` fails on any mismatch);
* ``serving_throughput_sharded`` -- the same batch windows through a
  :class:`~repro.serve.sharded.ShardedQueryServer`: four worker
  processes, each running the batch door over one zero-copy
  shared-memory label store, raw pair-array frames over pipes.  The
  fleet starts outside the timed region (process spawn is cold-start
  cost); ``tools/bench_gate.py`` requires the sharded rate to be at
  least 2x ``serving_batch_throughput`` on ``G(2,2)``.  The entry
  records the CPU cores the run could actually use (``cores``) --
  process fan-out cannot beat one process on a one-core box, so the
  gate applies the floor only when ``cores >= workers``;
* ``sharded_consistency``   -- every sharded answer graded against the
  dict store, value AND type (must be 0: the byte-identical contract
  has to survive the cross-process float64 frame round trip);
* ``label_memory_dict`` / ``label_memory_flat`` -- store sizes in words;
* ``sssp_rows``             -- serial per-root traversal throughput of
  :func:`repro.graphs.traversal.shortest_path_distances`;
* ``obs_overhead``          -- instrumented / uninstrumented CPU-time
  ratio of the dict-backend ``HubLabelOracle.query`` loop (the
  uninstrumented side runs under a disabled
  :class:`~repro.obs.registry.NullRegistry`; median ratio over 15
  interleaved pairs, held on one CPU); ``tools/bench_gate.py`` fails
  the gate above 1.10;
* ``update_latency``         -- insert/delete round trips through
  :class:`~repro.dynamic.DynamicHubLabeling`'s incremental repair on a
  scratch copy of the instance (budgets opened wide, so the number is
  pure repair, never the rebuild fallback);
* ``qps_under_churn``        -- a concurrent loadgen round against a
  ``QueryServer`` while a churn thread mutates the graph and hot-swaps
  the repaired labeling in via ``set_oracle`` (the row carries the
  mutation count that landed inside the timed window);
* ``churn_consistency``      -- after the churn traffic, the
  incrementally maintained labeling graded against a from-scratch
  ``build_flat_labels`` rebuild over the full workload, value AND type
  (must be 0; ``tools/bench_gate.py`` fails on any mismatch).

The workload is source-rooted -- ``num_sources`` sampled roots paired
with every vertex -- matching how verification and construction actually
consume queries.  Timings take the best of ``repeats`` runs so a noisy
neighbor cannot fail the gate; the consistency check runs once and is
exact.  ``tools/bench_gate.py`` compares two result files and fails on
throughput regressions.

Every timing is measured through a ``bench.<suite>`` tracing span, and
the number written to BENCH_perf.json is copied into the
``bench.suite_duration_seconds{suite=...}`` gauge -- the JSON file and
the metrics registry report the *same* measurement, so the two views
cannot drift (``tests/test_perf_bench.py`` asserts it).

:func:`run_zoo_bench` is the second suite family: instead of one
pinned hard instance it sweeps the graph zoo (Barabasi-Albert,
power-law configuration, Watts-Strogatz small-world, road-network
grid, Erdos-Renyi ``G(n, 3/n)``, and the sparse reference family)
and emits per-family entries
keyed ``graph_zoo.<family>.<suite>`` -- ``label_memory``,
``batch_speedup``, ``serving_batch_throughput``, and ``consistency``
(dict vs flat vs served answers; must be 0) -- into the same result
file, so ``tools/bench_gate.py`` ratio-gates each family
independently.  ``python -m repro bench --suite graph_zoo`` merges
these entries into an existing ``BENCH_perf.json`` without disturbing
the core ``G(b,l)`` rows.
"""

from __future__ import annotations

import json
import os
import random
import statistics
import tempfile
import threading
import time
from contextlib import contextmanager
from typing import Dict, List, Optional, Sequence, Tuple

from ..obs.catalog import BENCH_SUITE_DURATION_SECONDS
from ..obs.registry import NullRegistry, get_registry, set_registry
from ..obs.spans import span

__all__ = [
    "run_bench",
    "run_zoo_bench",
    "render_results",
    "write_results",
    "DEFAULT_OUT",
    "ZOO_FAMILIES",
]

#: Default output path for the machine-readable results.
DEFAULT_OUT = "BENCH_perf.json"

#: Pinned instances: the acceptance instance and the CI-sized one.
FULL_INSTANCE = (2, 2)  # n = 24400
QUICK_INSTANCE = (2, 1)  # n = 1516

#: The zoo families ``run_zoo_bench`` sweeps, in emission order.
ZOO_FAMILIES = ("ba", "powerlaw", "smallworld", "road", "erdos", "sparse")

#: Vertex-count targets for the zoo (road uses the nearest square).
ZOO_FULL_SCALE = 2000
ZOO_QUICK_SCALE = 240


def _instance_name(b: int, ell: int) -> str:
    return f"G({b},{ell})"


def _available_cores() -> int:
    """CPU cores this process may schedule on (cgroup/affinity aware)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


@contextmanager
def _on_one_cpu():
    """Hold the calling thread on one of its allowed CPUs in the block.

    The previous affinity is restored on exit; a no-op where affinity
    cannot be read or set.
    """
    allowed = None
    if hasattr(os, "sched_setaffinity"):
        try:
            allowed = os.sched_getaffinity(0)
            os.sched_setaffinity(0, {min(allowed)})
        except OSError:
            allowed = None
    try:
        yield
    finally:
        if allowed is not None:
            os.sched_setaffinity(0, allowed)


def _best_time(fn, repeats: int, suite: Optional[str] = None) -> float:
    """Best-of-``repeats`` wall time of ``fn()`` (noise-robust).

    With ``suite`` set, every repeat is measured through a
    ``bench.<suite>`` span, so the returned best is exactly the minimum
    of that span's duration histogram.
    """
    best = float("inf")
    for _ in range(max(1, repeats)):
        if suite is None:
            start = time.perf_counter()
            fn()
            best = min(best, time.perf_counter() - start)
        else:
            with span(f"bench.{suite}") as timer:
                fn()
            best = min(best, timer.duration)
    return best


def _workload(
    n: int, num_sources: int, seed: int
) -> Tuple[List[int], List[Tuple[int, int]]]:
    """Source-rooted pairs: sampled roots x every vertex."""
    rng = random.Random(seed)
    k = min(num_sources, n)
    sources = sorted(rng.sample(range(n), k))
    pairs = [(s, t) for s in sources for t in range(n)]
    return sources, pairs


def run_bench(
    *,
    quick: bool = False,
    seed: int = 7,
    num_sources: int = 64,
    repeats: int = 3,
    cache_dir: Optional[str] = None,
) -> Dict[str, Dict[str, object]]:
    """Run every suite and return ``suite -> entry`` (the JSON schema).

    ``quick`` swaps the acceptance instance ``G(2,2)`` for the small
    ``G(2,1)`` (seconds instead of minutes -- what CI runs).  ``seed``
    pins the workload sample; ``cache_dir`` pins where the cache suites
    store their artifact (default: a throwaway temp directory).
    """
    from ..core import pruned_landmark_labeling
    from ..core.orders import degree_order
    from ..graphs.traversal import shortest_path_distances
    from ..lowerbound import build_degree3_instance
    from ..oracles.oracle import HubLabelOracle
    from .build import build_flat_labels
    from .cache import LabelCache
    from .flat import FlatHubLabeling

    b, ell = QUICK_INSTANCE if quick else FULL_INSTANCE
    instance = _instance_name(b, ell)

    def entry(metric: str, value, unit: str, **extra):
        row = {
            "metric": metric,
            "value": value,
            "unit": unit,
            "instance": instance,
            "seed": seed,
        }
        row.update(extra)
        return row

    results: Dict[str, Dict[str, object]] = {}

    graph = build_degree3_instance(b, ell).graph
    n = graph.num_vertices

    # The reference builder and the direct-to-flat bit-parallel builder
    # (same canonical labeling, emitted straight into CSR arrays) are
    # timed the same way: ``repeats`` pairs, each pair back to back, so
    # both sides of a pair's ratio see the host at the same speed.
    # ``build_speedup`` is the median ratio; the two suites report each
    # builder's best time.
    order = degree_order(graph)
    build_times: List[float] = []
    direct_times: List[float] = []
    for _ in range(max(1, repeats)):
        with span("bench.pll_construction") as timer:
            labeling = pruned_landmark_labeling(graph)
        build_times.append(timer.duration)
        with span("bench.build_throughput") as timer:
            direct_flat = build_flat_labels(graph, order)
        direct_times.append(timer.duration)
    build_time, direct_time = min(build_times), min(direct_times)
    results["pll_construction"] = entry(
        "build_time", round(build_time, 6), "s", n=n
    )
    direct_rate = (
        direct_flat.total_size() / direct_time if direct_time > 0 else 0.0
    )
    results["build_throughput"] = entry(
        "throughput",
        round(direct_rate, 1),
        "labels/s",
        entries=direct_flat.total_size(),
    )
    speedup = (
        statistics.median(r / d for r, d in zip(build_times, direct_times))
        if direct_time > 0
        else 0.0
    )
    results["build_speedup"] = entry("speedup", round(speedup, 2), "x")

    convert_time = _best_time(
        lambda: FlatHubLabeling.from_labeling(labeling),
        repeats,
        suite="flat_conversion",
    )
    flat = FlatHubLabeling.from_labeling(labeling)
    results["flat_conversion"] = entry(
        "convert_time",
        round(convert_time, 6),
        "s",
        entries=flat.total_size(),
        direct_s=round(direct_time, 6),
    )

    # Exact agreement with the reference labeling, per vertex: the
    # direct builder must reproduce the canonical hierarchical label
    # rows byte for byte.
    mismatch_vertices = sum(
        1 for v in range(n) if direct_flat.hubs(v) != flat.hubs(v)
    )
    results["build_consistency"] = entry(
        "mismatches", mismatch_vertices, "vertices", vertices=n
    )

    # Persistent cache round trip: store the built labeling, then time
    # a warm hit (map + checksum, no copy, no construction).
    tmp_ctx = None
    cache_root = cache_dir
    if cache_root is None:
        tmp_ctx = tempfile.TemporaryDirectory(prefix="repro-bench-cache-")
        cache_root = tmp_ctx.name
    try:
        cache = LabelCache(cache_root)
        store_time = _best_time(
            lambda: cache.store(graph, order, direct_flat),
            repeats,
            suite="cache_store",
        )
        hit_holder: Dict[str, Optional[FlatHubLabeling]] = {}

        def cache_hit():
            hit_holder["flat"] = cache.load(graph, order)

        hit_time = _best_time(cache_hit, repeats, suite="cache_hit_latency")
        hit_ok = hit_holder["flat"] is not None
    finally:
        if tmp_ctx is not None:
            tmp_ctx.cleanup()
    results["cache_store"] = entry("time", round(store_time, 6), "s")
    results["cache_hit_latency"] = entry(
        "time", round(hit_time, 6), "s", hit=int(hit_ok)
    )

    dict_oracle = HubLabelOracle(labeling, backend="dict")
    flat_oracle = HubLabelOracle(labeling, backend="flat")
    # Dict store: logical words (one id + one distance per entry).  Flat
    # store: the actual backing-array footprint in 8-byte words (arrays
    # carry no per-entry object overhead, unlike the dicts).
    results["label_memory_dict"] = entry(
        "space", dict_oracle.space_words(), "words"
    )
    results["label_memory_flat"] = entry(
        "space",
        flat.space_bytes() // 8,
        "words",
        bytes=flat.space_bytes(),
    )

    sources, pairs = _workload(n, num_sources, seed)

    # Dict throughput: scalar loop on a strided subsample (cost per query
    # is ordering-independent, so the stride keeps it representative).
    dict_target = 20_000
    stride = max(1, len(pairs) // dict_target)
    dict_pairs = pairs[::stride]

    def dict_loop():
        query = labeling.query
        for u, v in dict_pairs:
            query(u, v)

    dict_time = _best_time(dict_loop, repeats, suite="batch_throughput_dict")
    dict_qps = len(dict_pairs) / dict_time if dict_time > 0 else 0.0
    results["batch_throughput_dict"] = entry(
        "throughput", round(dict_qps, 1), "queries/s", pairs=len(dict_pairs)
    )

    flat_time = _best_time(
        lambda: flat_oracle.batch_query(pairs),
        repeats,
        suite="batch_throughput_flat",
    )
    flat_qps = len(pairs) / flat_time if flat_time > 0 else 0.0
    results["batch_throughput_flat"] = entry(
        "throughput", round(flat_qps, 1), "queries/s", pairs=len(pairs)
    )

    speedup = flat_qps / dict_qps if dict_qps > 0 else 0.0
    results["batch_speedup"] = entry("speedup", round(speedup, 2), "x")

    # Consistency: the full workload, once, exact equality (INF included).
    flat_answers = flat_oracle.batch_query(pairs)
    query = labeling.query
    mismatches = sum(
        1
        for (u, v), got in zip(pairs, flat_answers)
        if query(u, v) != got
    )
    results["backend_consistency"] = entry(
        "mismatches", mismatches, "pairs", pairs=len(pairs)
    )

    # Serving throughput: the same subsampled workload fired through
    # the QueryServer by concurrent client threads -- admission,
    # coalescing, and batch dispatch included, result cache disabled so
    # every request pays the full path.  Clients submit in bounded
    # windows (well under max_queue) so the benchmark measures
    # throughput, not backpressure.
    from ..serve import QueryServer

    serve_clients = 4
    serve_window = 256
    serve_slices = [dict_pairs[i::serve_clients] for i in range(serve_clients)]
    serve_holder: Dict[str, List[List[float]]] = {}

    def serving_round():
        collected: List[List[float]] = [[] for _ in range(serve_clients)]

        def client(index: int) -> None:
            chunk = serve_slices[index]
            out = collected[index]
            for begin in range(0, len(chunk), serve_window):
                futures = [
                    server.submit(u, v)
                    for u, v in chunk[begin : begin + serve_window]
                ]
                out.extend(future.result() for future in futures)

        with QueryServer(
            flat_oracle,
            max_queue=4 * serve_clients * serve_window,
            cache_size=0,
        ) as server:
            threads = [
                threading.Thread(target=client, args=(index,))
                for index in range(serve_clients)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        serve_holder["answers"] = collected

    serve_time = _best_time(serving_round, repeats, suite="serving_throughput")
    serve_qps = len(dict_pairs) / serve_time if serve_time > 0 else 0.0
    results["serving_throughput"] = entry(
        "throughput",
        round(serve_qps, 1),
        "queries/s",
        pairs=len(dict_pairs),
        clients=serve_clients,
    )
    # Batch-native serving: the full workload through submit_batch, one
    # BatchTicket per window per client -- the amortized fast path.
    # Windows (numpy us/vs arrays) are cut outside the timed region;
    # the timed region is admission, dedup, one kernel call per ticket,
    # and the fancy-indexed result scatter.
    import numpy as np

    batch_window = 4096
    batch_slices: List[List[Tuple[object, object, List[Tuple[int, int]]]]] = []
    for index in range(serve_clients):
        chunk = pairs[index::serve_clients]
        windows = []
        for begin in range(0, len(chunk), batch_window):
            part = chunk[begin : begin + batch_window]
            us = np.asarray([u for u, _ in part], dtype=np.int64)
            vs = np.asarray([v for _, v in part], dtype=np.int64)
            windows.append((us, vs, part))
        batch_slices.append(windows)
    batch_holder: Dict[str, List[List[float]]] = {}

    def serving_batch_round():
        collected: List[List[float]] = [[] for _ in range(serve_clients)]

        def client(index: int) -> None:
            out = collected[index]
            for us, vs, _ in batch_slices[index]:
                out.extend(server.submit_batch(us, vs).result())

        with QueryServer(
            flat_oracle,
            max_queue=4 * serve_clients * batch_window,
            cache_size=0,
        ) as server:
            threads = [
                threading.Thread(target=client, args=(index,))
                for index in range(serve_clients)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        batch_holder["answers"] = collected

    serve_batch_time = _best_time(
        serving_batch_round, repeats, suite="serving_batch_throughput"
    )
    serve_batch_qps = (
        len(pairs) / serve_batch_time if serve_batch_time > 0 else 0.0
    )
    results["serving_batch_throughput"] = entry(
        "throughput",
        round(serve_batch_qps, 1),
        "queries/s",
        pairs=len(pairs),
        clients=serve_clients,
    )
    # The headline serving ratio is the batch-native door -- the path
    # production clients take; the per-pair rate stays reported above.
    results["serving_speedup"] = entry(
        "speedup",
        round(serve_batch_qps / dict_qps, 2) if dict_qps > 0 else 0.0,
        "x",
    )

    # Consistency: every answer of the last per-pair round AND the last
    # batch round, graded against the dict store serially (value AND
    # type -- the byte-identical contract survives the concurrent path
    # or the gate fails).
    served_wrong = 0
    for index, chunk in enumerate(serve_slices):
        for (u, v), got in zip(chunk, serve_holder["answers"][index]):
            want = query(u, v)
            if got != want or type(got) is not type(want):
                served_wrong += 1
    for index, windows in enumerate(batch_slices):
        answers = iter(batch_holder["answers"][index])
        for _, _, part in windows:
            for (u, v), got in zip(part, answers):
                want = query(u, v)
                if got != want or type(got) is not type(want):
                    served_wrong += 1
    results["serving_consistency"] = entry(
        "mismatches",
        served_wrong,
        "pairs",
        pairs=len(dict_pairs) + len(pairs),
    )

    # Multi-process sharded serving: the same batch windows through a
    # ShardedQueryServer -- worker processes each running the batch
    # door over one zero-copy shared-memory label store, raw
    # pair-array frames over pipes.  The fleet starts outside the
    # timed region (process spawn + segment export is cold-start cost,
    # accounted by the cache suites); the timed region is admission,
    # frame encode, the IPC round trips, and the parent-side decode
    # back to Python values.
    from ..serve import ShardedQueryServer

    sharded_workers = 4
    sharded_holder: Dict[str, List[List[float]]] = {}
    sharded_server = ShardedQueryServer(
        flat_oracle,
        processes=sharded_workers,
        max_queue=4 * serve_clients * batch_window,
        cache_size=0,
    )
    sharded_server.start()
    try:

        def sharded_round():
            collected: List[List[float]] = [
                [] for _ in range(serve_clients)
            ]

            def client(index: int) -> None:
                out = collected[index]
                for us, vs, _ in batch_slices[index]:
                    out.extend(
                        sharded_server.submit_batch(us, vs).result()
                    )

            threads = [
                threading.Thread(target=client, args=(index,))
                for index in range(serve_clients)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            sharded_holder["answers"] = collected

        sharded_time = _best_time(
            sharded_round, repeats, suite="serving_throughput_sharded"
        )
    finally:
        sharded_server.stop()
    sharded_qps = len(pairs) / sharded_time if sharded_time > 0 else 0.0
    results["serving_throughput_sharded"] = entry(
        "throughput",
        round(sharded_qps, 1),
        "queries/s",
        pairs=len(pairs),
        clients=serve_clients,
        workers=sharded_workers,
        cores=_available_cores(),
        single_process_qps=round(serve_batch_qps, 1),
    )

    # Sharded consistency: every answer of the last sharded round
    # graded against the dict store -- value AND type.  The answers
    # crossed a process boundary as raw float64 frames; the
    # byte-identical contract must survive that round trip.
    sharded_wrong = 0
    for index, windows in enumerate(batch_slices):
        answers = iter(sharded_holder["answers"][index])
        for _, _, part in windows:
            for (u, v), got in zip(part, answers):
                want = query(u, v)
                if got != want or type(got) is not type(want):
                    sharded_wrong += 1
    results["sharded_consistency"] = entry(
        "mismatches", sharded_wrong, "pairs", pairs=len(pairs)
    )

    roots = sources[: max(1, min(len(sources), 8 if quick else 16))]
    rows_time = _best_time(
        lambda: [shortest_path_distances(graph, root) for root in roots],
        1 if not quick else repeats,
        suite="sssp_rows",
    )
    rows_rps = len(roots) / rows_time if rows_time > 0 else 0.0
    results["sssp_rows"] = entry(
        "throughput",
        round(rows_rps, 3),
        "rows/s",
        roots=len(roots),
    )

    # Observability overhead: the same scalar loop through the public
    # oracle (instrumented) vs under a disabled NullRegistry.  The gate
    # in tools/bench_gate.py caps the ratio at 1.10.  Both sides get a
    # warm-up pass first (instrument binding, caches, branch history) --
    # this suite is the first to drive the oracle's scalar path, and a
    # cold first side would be charged as instrumentation cost.
    def oracle_loop():
        query = dict_oracle.query
        for u, v in dict_pairs:
            query(u, v)

    # Repeats are interleaved (instrumented, bare, instrumented, ...)
    # and the overhead is the median of the per-pair ratios.  A host
    # can switch speed states within one series (on a 2-core host the
    # same loop read ~11 ms and ~18 ms a few pairs apart); the two sides
    # of one pair share a state, so a load spike or a slow state hits
    # both sides instead of masquerading as instrumentation cost.
    # Comparing each series' best instead read from 0.69x to 1.13x in
    # full test runs.  The comparison also runs on one CPU, so the
    # thread does not migrate mid-series.  Each ratio is of thread CPU
    # time, not wall time: another process contending for the CPU
    # (1.139x was read while a benchmark shared the host) stretches
    # wall time, not this thread's own work.
    overhead_repeats = max(repeats, 15)
    null_registry = NullRegistry()
    ratios = []
    instrumented_time = float("inf")
    with _on_one_cpu():
        oracle_loop()
        for _ in range(overhead_repeats):
            with span("bench.obs_overhead") as timer:
                start = time.thread_time()
                oracle_loop()
                instrumented = time.thread_time() - start
            instrumented_time = min(instrumented_time, timer.duration)
            previous = set_registry(null_registry)
            try:
                start = time.thread_time()
                oracle_loop()
                bare = time.thread_time() - start
            finally:
                set_registry(previous)
            if bare > 0:
                ratios.append(instrumented / bare)
    overhead = statistics.median(ratios) if ratios else 1.0
    results["obs_overhead"] = entry(
        "overhead", round(overhead, 4), "x", pairs=len(dict_pairs)
    )

    # Dynamic label repair: an insert/delete round trip on a scratch
    # copy of the pinned instance through DynamicHubLabeling.  The
    # edge is a distance-2 shortcut (so the affected-root set is
    # realistic, not the whole graph) and deleting it restores the
    # original graph, which makes the round trip repeatable.  The
    # budgets are opened wide so the suite times *incremental repair*,
    # never the full-rebuild fallback.
    from ..dynamic import DynamicHubLabeling
    from ..serve import run_loadgen

    dyn = DynamicHubLabeling(
        graph.copy(),
        order=order,
        rebuild_fraction=1.0,
        staleness_budget=float("inf"),
    )
    cu, cv = next(
        (u, b)
        for u in range(n)
        for a, _ in graph.neighbors(u)
        for b, _ in graph.neighbors(a)
        if b != u and graph.edge_weight(u, b) is None
    )

    def update_round_trip():
        dyn.insert_edge(cu, cv)
        dyn.delete_edge(cu, cv)

    update_time = _best_time(update_round_trip, repeats, suite="update_latency")
    update_rate = 2.0 / update_time if update_time > 0 else 0.0
    results["update_latency"] = entry(
        "throughput",
        round(update_rate, 1),
        "updates/s",
        ops=2,
        edge=[cu, cv],
    )

    # Serving throughput while the graph churns underneath: a loadgen
    # round against a QueryServer whose labeling is mutated and
    # hot-swapped (set_oracle) by the churn thread -- admission,
    # batching, generation-keyed cache rekeying, and the swap cost all
    # land inside the timed region.
    churn_state = {"present": False}
    churn_holder: Dict[str, object] = {}

    def serving_churn_round():
        with QueryServer(
            HubLabelOracle(dyn.flat(), backend="flat"),
            max_queue=4 * serve_clients * serve_window,
            cache_size=0,
        ) as churn_server:

            def churn():
                if churn_state["present"]:
                    dyn.delete_edge(cu, cv)
                else:
                    dyn.insert_edge(cu, cv)
                churn_state["present"] = not churn_state["present"]
                churn_server.set_oracle(
                    HubLabelOracle(dyn.flat(), backend="flat")
                )
                return True

            churn_holder["report"] = run_loadgen(
                churn_server,
                n,
                clients=serve_clients,
                requests_per_client=max(1, len(dict_pairs) // serve_clients),
                seed=seed,
                batch_size=serve_window,
                churn=churn,
                churn_interval=0.0,
            )

    churn_time = _best_time(serving_churn_round, 1, suite="qps_under_churn")
    churn_report = churn_holder["report"]
    churn_qps = churn_report.requests / churn_time if churn_time > 0 else 0.0
    results["qps_under_churn"] = entry(
        "throughput",
        round(churn_qps, 1),
        "queries/s",
        pairs=churn_report.requests,
        clients=serve_clients,
        mutations=churn_report.mutations,
        dropped=churn_report.dropped,
    )
    if churn_state["present"]:  # leave the scratch graph at the original
        dyn.delete_edge(cu, cv)

    # Churn consistency: after all that repair traffic, the
    # incrementally maintained labeling must still answer the full
    # workload identically (value AND type) to a from-scratch rebuild
    # on the same pinned order -- tools/bench_gate.py fails on any
    # mismatch, exactly like the other consistency rows.
    rebuilt = build_flat_labels(dyn.graph, list(order))
    dyn_query = dyn.query
    churn_wrong = sum(
        1
        for u, v in pairs
        if dyn_query(u, v) != rebuilt.query(u, v)
        or type(dyn_query(u, v)) is not type(rebuilt.query(u, v))
    )
    results["churn_consistency"] = entry(
        "mismatches",
        churn_wrong,
        "pairs",
        pairs=len(pairs),
        mutations=dyn.mutations,
    )

    # Mirror every timing that backs a JSON value into the registry --
    # same floats, so the two views cannot disagree.
    registry = get_registry()
    if registry.enabled:
        durations = {
            "pll_construction": build_time,
            "build_throughput": direct_time,
            "flat_conversion": convert_time,
            "cache_store": store_time,
            "cache_hit_latency": hit_time,
            "batch_throughput_dict": dict_time,
            "batch_throughput_flat": flat_time,
            "serving_throughput": serve_time,
            "serving_batch_throughput": serve_batch_time,
            "serving_throughput_sharded": sharded_time,
            "sssp_rows": rows_time,
            "obs_overhead": instrumented_time,
            "update_latency": update_time,
            "qps_under_churn": churn_time,
        }
        for suite_name, duration in durations.items():
            registry.gauge(
                BENCH_SUITE_DURATION_SECONDS, suite=suite_name
            ).set(duration)
    return results


def run_zoo_bench(
    *,
    quick: bool = False,
    seed: int = 7,
    num_sources: int = 64,
    repeats: int = 3,
    scale: Optional[int] = None,
) -> Dict[str, Dict[str, object]]:
    """Sweep the graph zoo; return ``graph_zoo.<family>.<suite>`` entries.

    Each family in :data:`ZOO_FAMILIES` is generated at ``scale``
    vertices (default :data:`ZOO_FULL_SCALE`, or :data:`ZOO_QUICK_SCALE`
    with ``quick``; the road family rounds to the nearest square grid),
    labeled with the reference PLL, and measured on the same
    source-rooted workload shape as :func:`run_bench`:

    * ``label_memory``  -- flat-store footprint in 8-byte words (the
      entry also carries ``bytes``, ``dict_words``, and ``edges`` so
      the family's sparsity can be read off the row);
    * ``batch_speedup`` -- flat ``batch_query`` throughput over the
      dict scalar loop (``dict_qps`` / ``flat_qps`` ride along);
    * ``serving_batch_throughput`` -- the full workload through a
      :class:`~repro.serve.server.QueryServer`'s batch-native
      ``submit_batch`` door, concurrent clients, result cache off;
    * ``consistency``   -- every flat batch answer AND every served
      answer graded against the dict store, value and type (must be 0;
      disconnected families make this exercise the ``inf`` contract).

    Entries carry ``family`` and ``n`` fields and an instance name like
    ``ba(n=2000)``, so :mod:`tools.bench_gate` ratio-compares each
    family against its committed baseline and skips nothing silently.
    Timings run through ``bench.graph_zoo.<family>.<suite>`` spans and
    are mirrored into ``bench.suite_duration_seconds`` gauges exactly
    like the core suites.
    """
    from math import isqrt

    from ..core import pruned_landmark_labeling
    from ..graphs import (
        barabasi_albert,
        erdos_renyi,
        powerlaw_configuration,
        random_sparse_graph,
        road_network,
        watts_strogatz,
    )
    from ..oracles.oracle import HubLabelOracle
    from ..serve import QueryServer
    from .flat import FlatHubLabeling

    if scale is None:
        scale = ZOO_QUICK_SCALE if quick else ZOO_FULL_SCALE
    if scale < 16:
        raise ValueError("scale must be at least 16")
    side = max(2, isqrt(scale))
    builders = {
        "ba": lambda: barabasi_albert(scale, 2, seed=seed),
        "powerlaw": lambda: powerlaw_configuration(scale, seed=seed),
        "smallworld": lambda: watts_strogatz(scale, 4, 0.1, seed=seed),
        "road": lambda: road_network(side, side, seed=seed),
        "erdos": lambda: erdos_renyi(scale, 3.0 / scale, seed=seed),
        "sparse": lambda: random_sparse_graph(scale, seed=seed),
    }

    results: Dict[str, Dict[str, object]] = {}
    registry = get_registry()
    for family in ZOO_FAMILIES:
        graph = builders[family]()
        n = graph.num_vertices
        instance = f"{family}(n={n})"

        def entry(metric: str, value, unit: str, **extra):
            row = {
                "metric": metric,
                "value": value,
                "unit": unit,
                "instance": instance,
                "seed": seed,
                "family": family,
                "n": n,
            }
            row.update(extra)
            return row

        labeling = pruned_landmark_labeling(graph)
        flat = FlatHubLabeling.from_labeling(labeling)
        dict_oracle = HubLabelOracle(labeling, backend="dict")
        flat_oracle = HubLabelOracle(labeling, backend="flat")
        results[f"graph_zoo.{family}.label_memory"] = entry(
            "space",
            flat.space_bytes() // 8,
            "words",
            bytes=flat.space_bytes(),
            dict_words=dict_oracle.space_words(),
            edges=graph.num_edges,
        )

        _, pairs = _workload(n, num_sources, seed)
        stride = max(1, len(pairs) // 20_000)
        dict_pairs = pairs[::stride]

        def dict_loop():
            query = labeling.query
            for u, v in dict_pairs:
                query(u, v)

        dict_time = _best_time(
            dict_loop,
            repeats,
            suite=f"graph_zoo.{family}.batch_throughput_dict",
        )
        dict_qps = len(dict_pairs) / dict_time if dict_time > 0 else 0.0
        flat_time = _best_time(
            lambda: flat_oracle.batch_query(pairs),
            repeats,
            suite=f"graph_zoo.{family}.batch_throughput_flat",
        )
        flat_qps = len(pairs) / flat_time if flat_time > 0 else 0.0
        results[f"graph_zoo.{family}.batch_speedup"] = entry(
            "speedup",
            round(flat_qps / dict_qps, 2) if dict_qps > 0 else 0.0,
            "x",
            dict_qps=round(dict_qps, 1),
            flat_qps=round(flat_qps, 1),
            pairs=len(pairs),
        )

        # Batch-native serving: the full workload split across client
        # threads, one submit_batch ticket per window, cache off.
        clients = 2
        window = min(1024, max(1, len(pairs) // clients))
        slices: List[List[List[Tuple[int, int]]]] = []
        for index in range(clients):
            chunk = pairs[index::clients]
            slices.append(
                [
                    chunk[begin : begin + window]
                    for begin in range(0, len(chunk), window)
                ]
            )
        served_holder: Dict[str, List[List[float]]] = {}

        def serving_batch_round():
            collected: List[List[float]] = [[] for _ in range(clients)]

            def client(index: int) -> None:
                out = collected[index]
                for part in slices[index]:
                    us = [u for u, _ in part]
                    vs = [v for _, v in part]
                    out.extend(server.submit_batch(us, vs).result())

            with QueryServer(
                flat_oracle,
                max_queue=4 * clients * window,
                cache_size=0,
            ) as server:
                threads = [
                    threading.Thread(target=client, args=(index,))
                    for index in range(clients)
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join()
            served_holder["answers"] = collected

        serve_time = _best_time(
            serving_batch_round,
            repeats,
            suite=f"graph_zoo.{family}.serving_batch_throughput",
        )
        serve_qps = len(pairs) / serve_time if serve_time > 0 else 0.0
        results[f"graph_zoo.{family}.serving_batch_throughput"] = entry(
            "throughput",
            round(serve_qps, 1),
            "queries/s",
            pairs=len(pairs),
            clients=clients,
        )

        # Consistency: the full flat batch AND the last served round,
        # graded against the dict store -- value and type, inf included.
        query = labeling.query
        wrong = 0
        for (u, v), got in zip(pairs, flat_oracle.batch_query(pairs)):
            want = query(u, v)
            if got != want or type(got) is not type(want):
                wrong += 1
        for index in range(clients):
            answers = iter(served_holder["answers"][index])
            for part in slices[index]:
                for (u, v), got in zip(part, answers):
                    want = query(u, v)
                    if got != want or type(got) is not type(want):
                        wrong += 1
        results[f"graph_zoo.{family}.consistency"] = entry(
            "mismatches", wrong, "pairs", pairs=2 * len(pairs)
        )

        if registry.enabled:
            for suite_name, duration in (
                (f"graph_zoo.{family}.batch_throughput_dict", dict_time),
                (f"graph_zoo.{family}.batch_throughput_flat", flat_time),
                (f"graph_zoo.{family}.serving_batch_throughput", serve_time),
            ):
                registry.gauge(
                    BENCH_SUITE_DURATION_SECONDS, suite=suite_name
                ).set(duration)
    return results


def render_results(results: Dict[str, Dict[str, object]]) -> str:
    """Human-readable table of a result mapping."""
    width = max(len(name) for name in results)
    lines = [f"{'suite':<{width}}  {'metric':<12} {'value':>14} unit"]
    lines.append("-" * len(lines[0]))
    for name, row in results.items():
        lines.append(
            f"{name:<{width}}  {row['metric']:<12} "
            f"{row['value']:>14} {row['unit']}"
        )
    return "\n".join(lines)


def write_results(
    results: Dict[str, Dict[str, object]], path: str = DEFAULT_OUT
) -> None:
    """Write the ``suite -> entry`` mapping as pretty-printed JSON."""
    with open(path, "w") as handle:
        json.dump(results, handle, indent=2, sort_keys=True)
        handle.write("\n")
