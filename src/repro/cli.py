"""Command-line interface: ``python -m repro.cli <command>``.

Commands:

* ``experiments`` -- run every experiment runner and print its table
  (``--only E1,E4`` to filter; ``--fast`` to skip the heavy ones);
* ``label``       -- build a hub labeling for a graph given as an
  edge-list file (or a named generator) and report sizes / save it;
* ``build``       -- run the fast flat-label builder
  (:func:`repro.perf.build.build_flat_labels`) and report throughput;
  with ``--cache-dir DIR`` the result is persisted and later runs are
  served from the cache (the line ``cache: hit|miss|off`` says which);
* ``query``       -- load a saved labeling and answer distance queries,
  optionally through the resilient runtime (``--graph`` +
  ``--fallback`` / ``--verify-sample``);
* ``instance``    -- build a hard instance ``G_{b,l}`` and print its
  anatomy and certificate;
* ``chaos``       -- run the seeded fault-injection sweep and report
  how every fault was detected or degraded;
* ``bench``       -- run the pinned performance suites (construction,
  flat vs dict batch throughput, label memory, traversal fan-out,
  instrumentation overhead) and write machine-readable
  ``BENCH_perf.json``;
* ``serve``       -- self-test the concurrent serving layer: stand up
  a :class:`~repro.serve.server.QueryServer` over the flat oracle (or
  the resilient runtime with ``--resilient``), fire a threaded
  workload at it, and grade **every** answer against the dict-backend
  ground truth; exits non-zero on any wrong, dropped, or errored
  request;
* ``loadgen``     -- throughput-focused load generation against the
  same serving stack (``--clients`` / ``--requests`` / ``--duration``
  knobs; ``--validate`` opts into grading);
* ``stats``       -- run an instrumented query workload (or load a
  snapshot written by ``--metrics-out``) and print the metrics
  registry as a table, JSON, or Prometheus text exposition.

The ``query``, ``chaos``, ``bench``, ``serve``, and ``loadgen``
commands accept ``--metrics-out FILE`` to dump the final registry
snapshot as JSON -- the file ``stats`` can read back.

Examples::

    python -m repro.cli experiments --only E1,E8
    python -m repro.cli label --generator sparse:200 --method pll --save labels.bin
    python -m repro.cli build --generator sparse:200 --cache-dir .labelcache
    python -m repro.cli query 0 42 --generator sparse:200 --cache-dir .labelcache
    python -m repro.cli query labels.bin 0 42 7 199
    python -m repro.cli query labels.bin 0 42 --graph g.txt --verify-sample 8
    python -m repro.cli instance --b 2 --l 1
    python -m repro.cli chaos --generator sparse:30 --trials 25
    python -m repro.cli serve --generator sparse:200 --clients 8
    python -m repro.cli loadgen --generator sparse:500 --duration 2
    python -m repro.cli bench --quick --out BENCH_perf.json
    python -m repro.cli stats --generator sparse:100 --pairs 10000 --json
    python -m repro.cli stats snapshot.json --prom

User errors never print tracebacks: every
:class:`~repro.runtime.errors.ReproError` is reported as a one-line
diagnostic on stderr and mapped to that error class's distinct exit
code (64-69; missing files exit 74).
"""

import argparse
import json
import os
import random
import sys
from typing import List, Optional

from .core import (
    greedy_hub_labeling,
    is_valid_cover,
    labeling_from_bytes,
    labeling_to_bytes,
    pruned_landmark_labeling,
    rs_hub_labeling,
    sparse_hub_labeling,
    graph_from_edgelist,
)
from .graphs import (
    Graph,
    barabasi_albert,
    erdos_renyi,
    grid_2d,
    powerlaw_configuration,
    random_bounded_degree_graph,
    random_sparse_graph,
    random_tree,
    road_network,
    watts_strogatz,
)
from .runtime import FAULT_KINDS, DomainError, ReproError, ResilientOracle, chaos_sweep

__all__ = ["main"]


def _load_graph(args) -> Graph:
    if args.generator:
        kind, _, size = args.generator.partition(":")
        n = int(size or 100)
        if kind == "sparse":
            return random_sparse_graph(n, seed=args.seed)
        if kind == "tree":
            return random_tree(n, seed=args.seed)
        if kind == "grid":
            side = max(2, int(round(n ** 0.5)))
            return grid_2d(side, side)
        if kind == "degree3":
            return random_bounded_degree_graph(n, 3, seed=args.seed)
        if kind == "ba":
            return barabasi_albert(n, 2, seed=args.seed)
        if kind == "powerlaw":
            return powerlaw_configuration(n, seed=args.seed)
        if kind == "smallworld":
            return watts_strogatz(n, 4, 0.1, seed=args.seed)
        if kind == "road":
            side = max(2, int(round(n ** 0.5)))
            return road_network(side, side, seed=args.seed)
        if kind == "erdos":
            # Sparse regime G(n, c/n) with expected degree c = 3.
            return erdos_renyi(n, min(1.0, 3.0 / n), seed=args.seed)
        raise SystemExit(f"unknown generator {kind!r}")
    if args.graph:
        with open(args.graph) as handle:
            return graph_from_edgelist(handle.read())
    raise SystemExit("provide --graph FILE or --generator KIND:N")


def _build_labeling(graph: Graph, method: str, seed: int):
    if method == "pll":
        return pruned_landmark_labeling(graph)
    if method == "greedy":
        return greedy_hub_labeling(graph)
    if method == "sparse":
        return sparse_hub_labeling(graph, seed=seed).labeling
    if method == "rs":
        return rs_hub_labeling(graph, seed=seed).labeling
    raise SystemExit(f"unknown method {method!r}")


def _maybe_write_metrics(args) -> None:
    """Honor ``--metrics-out FILE`` on the commands that offer it."""
    path = getattr(args, "metrics_out", None)
    if path:
        from .obs.export import write_snapshot
        from .obs.registry import get_registry

        write_snapshot(get_registry(), path)
        print(f"wrote metrics snapshot to {path}")


def _cmd_label(args) -> int:
    graph = _load_graph(args)
    labeling = _build_labeling(graph, args.method, args.seed)
    print(f"graph:    {graph}")
    print(f"labeling: {labeling}")
    if args.verify:
        ok = is_valid_cover(graph, labeling)
        print(f"valid 2-hop cover: {ok}")
        if not ok:
            return 1
    if args.save:
        blob = labeling_to_bytes(labeling)
        with open(args.save, "wb") as handle:
            handle.write(blob)
        print(f"saved {len(blob)} bytes to {args.save}")
    return 0


def _cmd_query(args) -> int:
    vertices = list(args.vertices)
    cached_flat = None
    if args.cache_dir:
        if not (args.graph or args.generator):
            raise SystemExit(
                "--cache-dir needs the graph: add --graph FILE or "
                "--generator KIND:N"
            )
        if args.labeling is not None:
            # The labeling comes from the cache, so every positional
            # argument is a query vertex.
            try:
                vertices.insert(0, int(args.labeling))
            except ValueError:
                raise SystemExit(
                    "--cache-dir builds the labeling from the graph; "
                    f"drop the labeling file argument {args.labeling!r}"
                )
        from .perf.cache import LabelCache

        graph = _load_graph(args)
        cached_flat = LabelCache(args.cache_dir).load_or_build(graph)
        labeling = cached_flat
    else:
        if args.labeling is None:
            raise SystemExit(
                "provide a labeling file (or --cache-dir DIR with a "
                "graph source)"
            )
        with open(args.labeling, "rb") as handle:
            labeling = labeling_from_bytes(handle.read())
    if not vertices:
        raise SystemExit("provide query vertices: u1 v1 u2 v2 ...")
    if len(vertices) % 2:
        raise SystemExit("provide an even number of vertices (pairs)")
    pairs = list(zip(vertices[::2], vertices[1::2]))
    if cached_flat is not None:
        wants_runtime = bool(args.fallback) or bool(args.verify_sample)
        if not wants_runtime:
            # Serve straight from the flat store: a warm cache run does
            # no construction at all (no build.flat span is emitted).
            from .oracles.oracle import HubLabelOracle

            oracle = HubLabelOracle(cached_flat, backend="flat")
            for u, v in pairs:
                for vertex in (u, v):
                    if not 0 <= vertex < cached_flat.num_vertices:
                        raise DomainError(
                            f"vertex {vertex} outside "
                            f"0..{cached_flat.num_vertices - 1}"
                        )
                print(f"dist({u}, {v}) = {oracle.query(u, v).distance}")
            _maybe_write_metrics(args)
            return 0
        # The resilient runtime consumes the dict store.
        labeling = cached_flat.to_labeling()
    has_graph = bool(args.graph or args.generator)
    if not has_graph:
        if args.fallback:
            raise SystemExit(
                "--fallback needs the graph: add --graph FILE or "
                "--generator KIND:N"
            )
        if args.verify_sample:
            raise SystemExit(
                "--verify-sample needs the graph: add --graph FILE or "
                "--generator KIND:N"
            )
        from .oracles.oracle import HubLabelOracle

        # Serve through the instrumented oracle (not labeling.query
        # directly) so --metrics-out captures the served queries.
        oracle = HubLabelOracle(labeling)
        for u, v in pairs:
            for vertex in (u, v):
                if not 0 <= vertex < labeling.num_vertices:
                    raise DomainError(
                        f"vertex {vertex} outside "
                        f"0..{labeling.num_vertices - 1}"
                    )
            print(f"dist({u}, {v}) = {oracle.query(u, v).distance}")
        _maybe_write_metrics(args)
        return 0
    graph = _load_graph(args)
    fallback = True if args.fallback is None else args.fallback
    oracle = ResilientOracle(
        graph,
        labeling,
        fallback=fallback,
        verify_sample=args.verify_sample,
        seed=args.seed,
    )
    for u, v in pairs:
        outcome = oracle.query(u, v)
        marker = "  [exact fallback]" if outcome.source == "fallback" else ""
        print(f"dist({u}, {v}) = {outcome.distance}{marker}")
    if not oracle.health.healthy:
        print(f"health: {oracle.health!r}", file=sys.stderr)
    _maybe_write_metrics(args)
    return 0


def _cmd_build(args) -> int:
    import time

    from .core.orders import degree_order
    from .perf.build import build_flat_labels

    graph = _load_graph(args)
    order = degree_order(graph)
    start = time.perf_counter()
    if args.cache_dir:
        from .perf.cache import LabelCache, cache_key

        cache = LabelCache(args.cache_dir)
        # One key walk serves the lookup, the store and the printout.
        artifact = cache.path_for(cache_key(graph, order))
        flat = cache._load(artifact, graph)
        if flat is None:
            status = "miss"
            flat = build_flat_labels(graph, order)
            cache._store(artifact, flat)
        else:
            status = "hit"
    else:
        status = "off"
        artifact = None
        flat = build_flat_labels(graph, order)
    elapsed = time.perf_counter() - start
    print(f"graph:    {graph}")
    print(f"labeling: {flat}")
    print(
        f"built {flat.total_size()} label entries in {elapsed:.3f}s "
        f"({flat.total_size() / elapsed:,.0f} entries/s)"
        if elapsed > 0
        else f"built {flat.total_size()} label entries"
    )
    print(f"cache: {status}")
    if artifact is not None:
        print(f"artifact: {artifact}")
    if args.save:
        from .core.io import flat_labeling_to_bytes

        blob = flat_labeling_to_bytes(flat)
        with open(args.save, "wb") as handle:
            handle.write(blob)
        print(f"saved {len(blob)} bytes to {args.save}")
    _maybe_write_metrics(args)
    return 0


def _cmd_chaos(args) -> int:
    graph = _load_graph(args)
    if args.cache_dir:
        if args.method != "pll":
            raise SystemExit(
                "--cache-dir caches the canonical PLL labeling; "
                f"it cannot serve --method {args.method}"
            )
        from .perf.cache import LabelCache

        labeling = LabelCache(args.cache_dir).load_or_build(
            graph
        ).to_labeling()
    else:
        labeling = _build_labeling(graph, args.method, args.seed)
    kinds = args.faults.split(",") if args.faults else list(FAULT_KINDS)
    for kind in kinds:
        if kind not in FAULT_KINDS:
            raise SystemExit(
                f"unknown fault kind {kind!r}; pick from "
                f"{','.join(FAULT_KINDS)}"
            )
    report = chaos_sweep(
        graph,
        labeling,
        kinds=kinds,
        trials_per_kind=args.trials,
        queries_per_trial=args.queries,
        seed=args.seed,
    )
    print(report.render())
    _maybe_write_metrics(args)
    return 0 if report.ok else 1


def _serve_labels(args):
    """The (graph, flat labeling) pair the serving commands run over.

    ``--cache-dir`` reuses (or seeds) the persistent label cache, so a
    warm run skips construction entirely -- the same contract as the
    ``build`` and ``query`` commands.
    """
    from .core.orders import degree_order
    from .perf.build import build_flat_labels

    graph = _load_graph(args)
    if args.cache_dir:
        from .perf.cache import LabelCache

        flat = LabelCache(args.cache_dir).load_or_build(graph)
    else:
        flat = build_flat_labels(graph, degree_order(graph))
    return graph, flat


def _make_server(args, graph, flat):
    from .oracles.oracle import HubLabelOracle
    from .serve import QueryServer

    processes = getattr(args, "processes", 0) or 0
    if processes > 0:
        if getattr(args, "resilient", False):
            raise SystemExit(
                "--processes serves the immutable flat store across "
                "worker processes; it cannot host the stateful "
                "--resilient runtime"
            )
        from .serve import ShardedQueryServer

        return ShardedQueryServer(
            HubLabelOracle(flat, backend="flat"),
            processes=processes,
            max_queue=args.max_queue,
        )
    if getattr(args, "resilient", False):
        oracle = ResilientOracle(
            graph,
            flat.to_labeling(),
            fallback=True,
            verify_sample=getattr(args, "verify_sample", 0),
            seed=args.seed,
        )
    else:
        oracle = HubLabelOracle(flat, backend="flat")
    return QueryServer(
        oracle,
        max_queue=args.max_queue,
        shards=getattr(args, "shards", None),
        dispatchers=getattr(args, "dispatchers", 1) or 1,
    )


def _print_server_summary(server, report) -> None:
    stats = server.stats()
    print(report.render())
    print(
        f"batches:    {stats.batches} "
        f"(mean width {stats.mean_batch_width:.1f}, "
        f"p50 {stats.batch_width_p50:.0f}, p95 {stats.batch_width_p95:.0f})"
    )
    print(f"overloads:  {stats.overloads}")


def _cmd_serve(args) -> int:
    """Self-test mode: every served answer graded against ground truth."""
    return _serve_and_report(args, grade=True, describe=True)


def _serve_and_report(args, *, grade, mutations=0, describe=False) -> int:
    """Stand a server up over the command's labels, run the load
    generator against it (graded with ``grade``, churned by
    ``mutations`` hot-swapped edits), and print the summary; exit 0
    iff the run is OK.  ``describe`` adds the labeling and server
    header lines."""
    from .oracles.oracle import HubLabelOracle
    from .serve import run_loadgen

    graph, flat = _serve_labels(args)
    expected = None
    if grade:
        ground = HubLabelOracle(flat.to_labeling(), backend="dict")
        expected = lambda u, v: ground.query(u, v).distance  # noqa: E731
    server = _make_server(args, graph, flat)
    print(f"graph:    {graph}")
    if describe:
        print(f"labeling: {flat}")
        fanout = (
            f"processes={server.processes}"
            if hasattr(server, "processes")
            else f"shards={server.shards}x{server.dispatchers}"
        )
        print(
            f"server:   {type(server.oracle).__name__}, "
            f"queue<={args.max_queue}, {fanout}"
        )
    churn = {}
    if mutations:
        churn = {
            "churn": _make_churn(
                server, graph, mutations=mutations, seed=args.seed
            ),
            "churn_interval": args.churn_interval,
        }
    with server:
        report = run_loadgen(
            server,
            graph.num_vertices,
            clients=args.clients,
            requests_per_client=args.requests,
            duration=args.duration,
            seed=args.seed,
            expected=expected,
            batch_size=args.batch or None,
            distribution=args.distribution,
            zipf_s=args.zipf_s,
            hot_pairs=args.hot_pairs,
            hot_fraction=args.hot_fraction,
            **churn,
        )
    _print_server_summary(server, report)
    _maybe_write_metrics(args)
    return 0 if report.ok else 1


def _make_churn(server, graph, *, mutations, seed):
    """A one-mutation-per-call closure for ``run_loadgen(churn=...)``.

    Each call applies the next edit of a seeded kept-connected
    :class:`MutationScript` through incremental repair, hot-swaps the
    repaired labeling into ``server`` via ``set_oracle``, then grades a
    handful of post-swap probes against the repaired labeling -- a
    probe submitted after the swap is answered by the new oracle, so a
    probe mismatch is a stale or wrong answer and fails the run loudly.
    """
    import random as random_module

    from .dynamic import DynamicHubLabeling, mutation_script
    from .oracles.oracle import HubLabelOracle
    from .runtime.errors import ServerOverloadError

    script = list(
        mutation_script(graph, mutations, seed=seed, keep_connected=True)
    )
    dyn = DynamicHubLabeling(graph)
    probe_rng = random_module.Random(seed ^ 0x5EED)
    n = graph.num_vertices
    cursor = iter(script)

    def churn():
        try:
            op, u, v, w = next(cursor)
        except StopIteration:
            return False
        if op == "insert":
            dyn.insert_edge(u, v, w)
        else:
            dyn.delete_edge(u, v)
        server.set_oracle(HubLabelOracle(dyn.flat(), backend="flat"))
        for _ in range(8):
            a, b = probe_rng.randrange(n), probe_rng.randrange(n)
            try:
                got = server.query(a, b)
            except ServerOverloadError:
                continue  # saturated; the next probe retries admission
            want = dyn.query(a, b)
            if got != want or type(got) is not type(want):
                raise RuntimeError(
                    f"stale or wrong answer after hot swap "
                    f"{dyn.mutations}: dist({a},{b}) = {got!r}, "
                    f"want {want!r}"
                )
        return True

    return churn


def _cmd_loadgen(args) -> int:
    """Throughput mode: grading is opt-in (``--validate``)."""
    if args.churn and args.validate:
        raise SystemExit(
            "--validate grades against the initial labeling, which "
            "--churn mutates away; churn runs grade their own "
            "post-swap probes instead"
        )
    return _serve_and_report(
        args, grade=args.validate, mutations=args.churn
    )


def _cmd_mutate(args) -> int:
    """Churn a graph through incremental label repair, graded."""
    import random as random_module

    from .core.orders import degree_order
    from .dynamic import DynamicHubLabeling, mutation_script
    from .perf.build import build_flat_labels

    graph = _load_graph(args)
    order = degree_order(graph)
    cache = None
    if args.cache_dir:
        from .perf.cache import LabelCache

        cache = LabelCache(args.cache_dir)
    try:
        dyn = DynamicHubLabeling(
            graph,
            order=order,
            cache=cache,
            rebuild_fraction=args.rebuild_fraction,
            staleness_budget=args.staleness_budget,
        )
    except ValueError as exc:
        raise SystemExit(str(exc))
    script = mutation_script(
        graph,
        args.ops,
        seed=args.seed,
        keep_connected=not args.allow_disconnect,
    )
    inserts, deletes = script.counts()
    print(f"graph:  {graph}")
    print(
        f"script: {len(script)} ops ({inserts} inserts, {deletes} "
        f"deletes), seed={args.seed}, "
        f"{'kept-connected' if not args.allow_disconnect else 'may disconnect'}"
    )

    def grade() -> int:
        """Repaired answers vs a from-scratch rebuild, value AND type."""
        reference = build_flat_labels(dyn.graph, list(order))
        rng = random_module.Random(args.seed ^ 0xD15C0)
        n = dyn.graph.num_vertices
        pairs = [
            (rng.randrange(n), rng.randrange(n))
            for _ in range(args.verify_sample)
        ]
        bad = 0
        for u, v in pairs:
            got, want = dyn.query(u, v), reference.query(u, v)
            if got != want or type(got) is not type(want):
                bad += 1
                if bad <= 5:
                    print(
                        f"  MISMATCH dist({u},{v}) = {got!r}, "
                        f"want {want!r}"
                    )
        return bad

    mismatches = 0
    for report in dyn.apply(script):
        print(report.render())
        if args.verify_each:
            mismatches += grade()
    if not args.verify_each:
        mismatches += grade()
    print(f"graph after churn: {dyn.graph}")
    print(f"staleness: {dyn.staleness:.3f} (budget {args.staleness_budget})")
    verdict = "OK" if mismatches == 0 else "FAILED"
    print(
        f"repair vs rebuild: {mismatches} mismatch(es) over "
        f"{args.verify_sample} sampled pair(s) -- {verdict}"
    )
    _maybe_write_metrics(args)
    return 0 if mismatches == 0 else 1


def _cmd_instance(args) -> int:
    from .lowerbound import build_degree3_instance, certificate_for

    inst = build_degree3_instance(args.b, args.ell)
    cert = certificate_for(inst)
    print(inst)
    print(
        f"anatomy: {inst.num_core_vertices} cores, "
        f"{inst.num_tree_vertices} tree nodes, "
        f"{inst.num_path_vertices} path nodes"
    )
    print(
        f"certificate: sum|S_v| >= {cert.hub_sum_lower_bound:.6f} "
        f"(avg >= {cert.average_lower_bound:.3e})"
    )
    return 0


def _cmd_bench(args) -> int:
    from .perf.bench import (
        render_results,
        run_bench,
        run_zoo_bench,
        write_results,
    )

    results = {}
    if args.suite in ("core", "all"):
        results.update(
            run_bench(
                quick=args.quick,
                seed=args.seed,
                num_sources=args.sources,
                repeats=args.repeats,
                cache_dir=args.cache_dir,
            )
        )
    if args.suite in ("graph_zoo", "all"):
        results.update(
            run_zoo_bench(
                quick=args.quick,
                seed=args.seed,
                num_sources=args.sources,
                repeats=args.repeats,
            )
        )
    print(render_results(results))
    write_results(_merge_bench_results(args, results), args.out)
    print(f"\nwrote {args.out}")
    _maybe_write_metrics(args)
    mismatches = sum(
        int(row["value"])
        for row in results.values()
        if row.get("metric") == "mismatches" and row.get("value")
    )
    if mismatches:
        print(
            f"error: backends disagree on {mismatches} answer(s) "
            "across the consistency suites",
            file=sys.stderr,
        )
        return 1
    return 0


def _merge_bench_results(args, results):
    """Merge fresh bench entries over the out-file's other half.

    A ``--suite graph_zoo`` run must not discard the committed core
    ``G(b,l)`` rows (and vice versa), so the half that was *not* re-run
    is carried over from the existing file; the re-run half is replaced
    wholesale, so removed suites cannot linger as stale rows.
    """
    if args.suite == "all" or not os.path.exists(args.out):
        return results
    try:
        with open(args.out) as handle:
            previous = json.load(handle)
    except (OSError, ValueError):
        return results
    if not isinstance(previous, dict):
        return results
    keep_zoo = args.suite == "core"
    kept = {
        name: row
        for name, row in previous.items()
        if isinstance(row, dict)
        and name.startswith("graph_zoo.") == keep_zoo
    }
    kept.update(results)
    return kept


def _run_stats_workload(args) -> None:
    """Drive an instrumented batch workload through both oracle backends."""
    from .oracles.oracle import HubLabelOracle

    graph = _load_graph(args)
    labeling = _build_labeling(graph, args.method, args.seed)
    n = graph.num_vertices
    rng = random.Random(args.seed)
    pairs = [
        (rng.randrange(n), rng.randrange(n)) for _ in range(args.pairs)
    ]
    for backend in ("dict", "flat"):
        HubLabelOracle(labeling, backend=backend).batch_query(pairs)


def _cmd_stats(args) -> int:
    from .obs.export import load_snapshot, render_prometheus, render_table
    from .obs.registry import get_registry

    if args.snapshot:
        try:
            snapshot = load_snapshot(args.snapshot)
        except ValueError as exc:
            raise SystemExit(f"error: {exc}")
    else:
        _run_stats_workload(args)
        snapshot = get_registry().snapshot()
    if args.json:
        print(json.dumps(snapshot, indent=2, sort_keys=True))
    elif args.prom:
        sys.stdout.write(render_prometheus(snapshot))
    else:
        print(render_table(snapshot))
    return 0


_EXPERIMENTS = {
    "E1": ("figure 1", "fast"),
    "E2": ("construction claims", "fast"),
    "E4": ("lower bound", "slow"),
    "E5": ("sum-index", "slow"),
    "E6": ("upper bound", "fast"),
    "E7": ("hitting sets", "fast"),
    "E8": ("RS landscape", "fast"),
    "E9": ("baselines", "fast"),
    "E10": ("degree reduction", "fast"),
    "E11": ("oracles", "fast"),
    "E12": ("monotone", "fast"),
    "E13": ("approximation recipe", "fast"),
    "E14": ("bit sizes", "fast"),
    "AB": ("ablations", "fast"),
}


def _cmd_experiments(args) -> int:
    from . import experiments as exp

    wanted = set(args.only.split(",")) if args.only else set(_EXPERIMENTS)
    tables = []
    if "E1" in wanted:
        tables.append(exp.figure1_table(exp.run_figure1()))
    if "E2" in wanted:
        audits = [exp.audit_construction(1, 1)]
        if not args.fast:
            audits.append(exp.audit_construction(2, 1))
        tables.append(exp.construction_table(audits))
    if "E4" in wanted and not args.fast:
        tables.append(
            exp.lower_bound_table(exp.run_lower_bound([(1, 1), (2, 1)]))
        )
    if "E5" in wanted and not args.fast:
        tables.append(exp.sum_index_table(exp.run_sum_index([(2, 1)])))
    if "E6" in wanted:
        tables.append(
            exp.upper_bound_table(exp.run_upper_bound([60, 120]))
        )
    if "E7" in wanted:
        tables.append(exp.hitting_table(exp.run_hitting([60, 120])))
    if "E8" in wanted:
        tables.append(exp.ap_free_table(exp.run_ap_free([100, 1000])))
        tables.append(exp.rs_graph_table(exp.run_rs_graphs([51, 101])))
    if "E9" in wanted:
        tables.append(exp.baseline_table(exp.run_baselines()))
    if "E10" in wanted:
        tables.append(
            exp.degree_reduction_table([exp.audit_degree_reduction()])
        )
    if "E11" in wanted:
        tables.append(exp.oracle_table(exp.run_oracles()))
    if "E12" in wanted:
        tables.append(exp.monotone_table(exp.run_monotone()))
    if "E13" in wanted:
        tables.append(
            exp.approximation_table(exp.run_approximation([40, 80]))
        )
    if "E14" in wanted:
        tables.append(exp.bit_size_table(exp.run_bit_sizes([60, 120])))
    if "AB" in wanted:
        tables.append(exp.threshold_table(exp.run_threshold_sweep(n=60)))
        tables.append(exp.cover_rule_table(exp.run_cover_rule(n=60)))
        tables.append(exp.order_table(exp.run_order_ablation(scale=36)))
        tables.append(
            exp.sample_factor_table(exp.run_sample_factor(n=80))
        )
        tables.append(exp.pruning_table(exp.run_pruning_slack(n=50)))
    rendered = "\n\n".join(table.render() for table in tables)
    print(rendered)
    if args.write:
        pathlib_path = args.write
        with open(pathlib_path, "w") as handle:
            handle.write("# Experiment tables (generated by "
                         "`python -m repro experiments`)\n\n```\n")
            handle.write(rendered)
            handle.write("\n```\n")
        print(f"\nwrote {pathlib_path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction toolkit for Kosowski-Uznanski-Viennot "
        "(PODC 2019): hub labeling hardness in sparse graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_exp = sub.add_parser("experiments", help="run experiment tables")
    p_exp.add_argument(
        "--only", help="comma-separated ids, e.g. E1,E8,E14,AB"
    )
    p_exp.add_argument(
        "--fast", action="store_true", help="skip the slow experiments"
    )
    p_exp.add_argument(
        "--write", metavar="FILE", help="also write the tables to FILE"
    )
    p_exp.set_defaults(func=_cmd_experiments)

    p_label = sub.add_parser("label", help="build a hub labeling")
    p_label.add_argument("--graph", help="edge-list file (n m, then u v w)")
    p_label.add_argument(
        "--generator", help="KIND:N with KIND in sparse|tree|grid|degree3|ba|powerlaw|smallworld|road|erdos"
    )
    p_label.add_argument(
        "--method",
        default="pll",
        choices=["pll", "greedy", "sparse", "rs"],
    )
    p_label.add_argument("--seed", type=int, default=0)
    p_label.add_argument("--save", help="write the labeling (binary)")
    p_label.add_argument(
        "--verify", action="store_true", help="check the cover property"
    )
    p_label.set_defaults(func=_cmd_label)

    p_build = sub.add_parser(
        "build", help="fast flat-label build (optionally cached)"
    )
    p_build.add_argument("--graph", help="edge-list file (n m, then u v w)")
    p_build.add_argument(
        "--generator", help="KIND:N with KIND in sparse|tree|grid|degree3|ba|powerlaw|smallworld|road|erdos"
    )
    p_build.add_argument("--seed", type=int, default=0)
    p_build.add_argument(
        "--cache-dir",
        metavar="DIR",
        help="persist the labels; later runs reload instead of building",
    )
    p_build.add_argument(
        "--save", help="also write the flat artifact to this file"
    )
    p_build.add_argument(
        "--metrics-out",
        metavar="FILE",
        help="dump the final metrics registry snapshot as JSON",
    )
    p_build.set_defaults(func=_cmd_build)

    p_query = sub.add_parser("query", help="query a saved labeling")
    p_query.add_argument(
        "labeling",
        nargs="?",
        help="binary labeling file (omit when --cache-dir builds the "
        "labels from a graph source)",
    )
    p_query.add_argument(
        "vertices", nargs="*", type=int, help="pairs: u1 v1 u2 v2 ..."
    )
    p_query.add_argument(
        "--graph", help="edge-list file (enables the resilient runtime)"
    )
    p_query.add_argument(
        "--generator", help="KIND:N graph source (alternative to --graph)"
    )
    p_query.add_argument("--seed", type=int, default=0)
    p_query.add_argument(
        "--fallback",
        action=argparse.BooleanOptionalAction,
        default=None,
        help="degrade to exact search on integrity/budget trouble "
        "(default: on when a graph is given); --no-fallback raises "
        "typed errors instead",
    )
    p_query.add_argument(
        "--verify-sample",
        type=int,
        default=0,
        metavar="N",
        help="admission-check the labeling from N sampled sources "
        "(N >= n verifies exhaustively) before answering",
    )
    p_query.add_argument(
        "--cache-dir",
        metavar="DIR",
        help="serve labels from this cache (needs a graph source); "
        "builds and persists them on the first run",
    )
    p_query.add_argument(
        "--metrics-out",
        metavar="FILE",
        help="dump the final metrics registry snapshot as JSON",
    )
    p_query.set_defaults(func=_cmd_query)

    p_inst = sub.add_parser("instance", help="build a hard instance")
    p_inst.add_argument("--b", type=int, default=1)
    p_inst.add_argument("--l", dest="ell", type=int, default=1)
    p_inst.set_defaults(func=_cmd_instance)

    p_chaos = sub.add_parser(
        "chaos", help="seeded fault-injection sweep over the runtime"
    )
    p_chaos.add_argument("--graph", help="edge-list file")
    p_chaos.add_argument(
        "--generator",
        default="sparse:30",
        help="KIND:N graph source (default sparse:30)",
    )
    p_chaos.add_argument(
        "--method",
        default="pll",
        choices=["pll", "greedy", "sparse", "rs"],
    )
    p_chaos.add_argument("--seed", type=int, default=0)
    p_chaos.add_argument(
        "--trials", type=int, default=25, help="injections per fault kind"
    )
    p_chaos.add_argument(
        "--queries", type=int, default=10, help="graded queries per injection"
    )
    p_chaos.add_argument(
        "--faults",
        help=f"comma-separated subset of {','.join(FAULT_KINDS)}",
    )
    p_chaos.add_argument(
        "--cache-dir",
        metavar="DIR",
        help="reuse cached canonical labels (--method pll only)",
    )
    p_chaos.add_argument(
        "--metrics-out",
        metavar="FILE",
        help="dump the final metrics registry snapshot as JSON",
    )
    p_chaos.set_defaults(func=_cmd_chaos)

    def add_serving_args(p, *, clients, requests):
        p.add_argument("--graph", help="edge-list file (n m, then u v w)")
        p.add_argument(
            "--generator",
            default="sparse:200",
            help="KIND:N graph source (default sparse:200)",
        )
        p.add_argument("--seed", type=int, default=0)
        p.add_argument(
            "--cache-dir",
            metavar="DIR",
            help="serve labels from this cache; builds and persists "
            "them on the first run",
        )
        p.add_argument(
            "--clients", type=int, default=clients,
            help=f"worker threads firing queries (default {clients})",
        )
        p.add_argument(
            "--requests", type=int, default=requests, metavar="N",
            help=f"queries per client (default {requests})",
        )
        p.add_argument(
            "--duration", type=float, default=None, metavar="SECONDS",
            help="run each client for this long instead of a fixed "
            "request count",
        )
        p.add_argument(
            "--max-queue", type=int, default=1024,
            help="admission-queue bound; beyond it requests are "
            "rejected with ServerOverloadError (default 1024)",
        )
        p.add_argument(
            "--batch", type=int, default=64, metavar="WIDTH",
            help="pairs per submit_batch ticket; 0 switches the "
            "clients back to per-pair submit (default 64)",
        )
        p.add_argument(
            "--distribution",
            default="uniform",
            choices=["uniform", "zipf", "hotspot"],
            help="query-pair skew: uniform endpoints, zipf-ranked "
            "endpoints, or a few hot pairs (default uniform)",
        )
        p.add_argument(
            "--zipf-s", type=float, default=1.1, metavar="S",
            help="zipf exponent for --distribution zipf (default 1.1)",
        )
        p.add_argument(
            "--hot-pairs", type=int, default=16, metavar="K",
            help="hot-pair count for --distribution hotspot (default 16)",
        )
        p.add_argument(
            "--hot-fraction", type=float, default=0.9, metavar="F",
            help="traffic share of the hot pairs for --distribution "
            "hotspot (default 0.9)",
        )
        p.add_argument(
            "--shards", type=int, default=None,
            help="admission-queue stripes (default: min(4, max-queue))",
        )
        p.add_argument(
            "--dispatchers", type=int, default=1,
            help="dispatcher threads partitioning the shards (default 1)",
        )
        p.add_argument(
            "--processes", type=int, default=0, metavar="N",
            help="serve through N worker processes sharing one "
            "zero-copy label store (the sharded door); 0 keeps the "
            "in-process server (default 0)",
        )
        p.add_argument(
            "--metrics-out",
            metavar="FILE",
            help="dump the final metrics registry snapshot as JSON",
        )

    p_serve = sub.add_parser(
        "serve",
        help="self-test the concurrent serving layer (graded workload)",
    )
    add_serving_args(p_serve, clients=8, requests=250)
    p_serve.add_argument(
        "--resilient",
        action="store_true",
        help="serve through the resilient runtime instead of the raw "
        "flat oracle",
    )
    p_serve.add_argument(
        "--verify-sample",
        type=int,
        default=0,
        metavar="N",
        help="with --resilient: admission-check from N sampled sources",
    )
    p_serve.set_defaults(func=_cmd_serve)

    p_loadgen = sub.add_parser(
        "loadgen", help="throughput-focused load generation"
    )
    add_serving_args(p_loadgen, clients=4, requests=2000)
    p_loadgen.add_argument(
        "--validate",
        action="store_true",
        help="also grade every answer against dict-backend ground truth",
    )
    p_loadgen.add_argument(
        "--churn", type=int, default=0, metavar="N",
        help="mutate the served graph N times during the run, "
        "hot-swapping the incrementally repaired labeling into the "
        "live server and grading post-swap probes (incompatible "
        "with --validate)",
    )
    p_loadgen.add_argument(
        "--churn-interval", type=float, default=0.01, metavar="SECONDS",
        help="pause between churn mutations (default 0.01)",
    )
    p_loadgen.set_defaults(func=_cmd_loadgen)

    p_mutate = sub.add_parser(
        "mutate",
        help="churn a graph through incremental label repair, graded "
        "against a from-scratch rebuild",
    )
    p_mutate.add_argument("--graph", help="edge-list file (n m, then u v w)")
    p_mutate.add_argument(
        "--generator",
        default="sparse:100",
        help="KIND:N graph source (default sparse:100)",
    )
    p_mutate.add_argument("--seed", type=int, default=0)
    p_mutate.add_argument(
        "--ops", type=int, default=16, metavar="N",
        help="mutations to apply (default 16)",
    )
    p_mutate.add_argument(
        "--allow-disconnect",
        action="store_true",
        help="let deletions disconnect the graph (INF answers are "
        "then graded too)",
    )
    p_mutate.add_argument(
        "--rebuild-fraction", type=float, default=0.5, metavar="F",
        help="fall back to a full rebuild when one mutation affects "
        "more than this fraction of roots (default 0.5)",
    )
    p_mutate.add_argument(
        "--staleness-budget", type=float, default=4.0, metavar="B",
        help="accumulated affected-root fraction plus net label growth "
        "that forces a full rebuild (default 4.0)",
    )
    p_mutate.add_argument(
        "--cache-dir",
        metavar="DIR",
        help="serve full rebuilds from this label cache",
    )
    p_mutate.add_argument(
        "--verify-sample", type=int, default=400, metavar="N",
        help="sampled pairs graded against the rebuild (default 400)",
    )
    p_mutate.add_argument(
        "--verify-each",
        action="store_true",
        help="grade after every mutation instead of once at the end",
    )
    p_mutate.add_argument(
        "--metrics-out",
        metavar="FILE",
        help="dump the final metrics registry snapshot as JSON",
    )
    p_mutate.set_defaults(func=_cmd_mutate)

    p_bench = sub.add_parser(
        "bench", help="run the pinned performance suites"
    )
    p_bench.add_argument(
        "--quick",
        action="store_true",
        help="benchmark G(2,1) instead of the acceptance instance G(2,2) "
        "(and the small graph-zoo scale instead of the full one)",
    )
    p_bench.add_argument(
        "--suite",
        default="core",
        choices=["core", "graph_zoo", "all"],
        help="core runs the pinned G(b,l) suites, graph_zoo sweeps the "
        "generator zoo per family; either half merges into --out "
        "without disturbing the other (default core)",
    )
    p_bench.add_argument(
        "--out",
        default="BENCH_perf.json",
        help="result file (default BENCH_perf.json)",
    )
    p_bench.add_argument("--seed", type=int, default=7)
    p_bench.add_argument(
        "--sources",
        type=int,
        default=64,
        metavar="N",
        help="workload roots: N sampled sources x every vertex",
    )
    p_bench.add_argument(
        "--repeats", type=int, default=3, help="timings take the best of R"
    )
    p_bench.add_argument(
        "--cache-dir",
        metavar="DIR",
        help="directory for the cache suites (default: a temp dir)",
    )
    p_bench.add_argument(
        "--metrics-out",
        metavar="FILE",
        help="dump the final metrics registry snapshot as JSON",
    )
    p_bench.set_defaults(func=_cmd_bench)

    p_stats = sub.add_parser(
        "stats", help="print the observability metrics registry"
    )
    p_stats.add_argument(
        "snapshot",
        nargs="?",
        help="snapshot file written by --metrics-out (default: run a "
        "fresh instrumented workload instead)",
    )
    p_stats.add_argument("--graph", help="edge-list file for the workload")
    p_stats.add_argument(
        "--generator",
        default="sparse:100",
        help="KIND:N graph source (default sparse:100)",
    )
    p_stats.add_argument(
        "--method",
        default="pll",
        choices=["pll", "greedy", "sparse", "rs"],
    )
    p_stats.add_argument("--seed", type=int, default=0)
    p_stats.add_argument(
        "--pairs",
        type=int,
        default=10_000,
        help="batch workload size per backend (default 10000)",
    )
    fmt = p_stats.add_mutually_exclusive_group()
    fmt.add_argument(
        "--json", action="store_true", help="print the snapshot as JSON"
    )
    fmt.add_argument(
        "--prom",
        action="store_true",
        help="print Prometheus text exposition",
    )
    p_stats.set_defaults(func=_cmd_stats)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ReproError as exc:
        # User/data errors are diagnosed in one line, never a traceback;
        # the exit code identifies the error class (see runtime.errors).
        print(f"error: {exc.diagnostic()}", file=sys.stderr)
        return exc.exit_code
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 74  # EX_IOERR


if __name__ == "__main__":
    sys.exit(main())
