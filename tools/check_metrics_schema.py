#!/usr/bin/env python3
"""Gate against metric-name drift: catalogue vs schema vs emission.

Three checks, any failure exits non-zero:

1. the in-code catalogue (``repro.obs.catalog.CATALOG``) matches the
   committed ``docs/metrics_schema.json`` -- names, instrument kinds,
   and label keys (rename a metric without regenerating the schema and
   CI fails);
2. a workload touching every instrumented subsystem (labeling builds,
   both oracle backends, the resilient runtime, a chaos sweep, the
   concurrent query server, dynamic label repair with a hot swap)
   emits only catalogued names -- stray string literals cannot sneak
   in;
3. every catalogued name is actually emitted by that workload, except
   for an explicit allowlist of bench-only metrics -- the catalogue
   cannot grow dead entries.

Regenerate the schema after an intentional catalogue change with::

    python tools/check_metrics_schema.py --write

CI's bench job and ``tests/test_obs_integration.py`` both run this.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
)

SCHEMA_PATH = os.path.join(
    os.path.dirname(os.path.abspath(__file__)),
    "..",
    "docs",
    "metrics_schema.json",
)

#: Catalogued names the check workload does not emit (bench-only).
BENCH_ONLY = {"bench.suite_duration_seconds"}


def build_schema() -> dict:
    """The schema document derived from the in-code catalogue."""
    from repro.obs.catalog import CATALOG

    return {
        "version": 1,
        "metrics": {
            name: {"kind": spec.kind, "labels": list(spec.labels)}
            for name, spec in sorted(CATALOG.items())
        },
    }


def run_workload() -> set:
    """Emit metrics from every instrumented subsystem; return the names."""
    import tempfile
    import threading

    from repro.core import pruned_landmark_labeling
    from repro.core.hitting import build_hitting_set
    from repro.core.orders import degree_order
    from repro.graphs import random_sparse_graph
    from repro.obs.registry import Registry, use_registry
    from repro.oracles.oracle import HubLabelOracle
    from repro.perf.cache import LabelCache, cache_key
    from repro.runtime import ResilientOracle, chaos_sweep
    from repro.runtime.errors import ServerOverloadError
    from repro.serve import QueryServer

    registry = Registry()
    with use_registry(registry):
        graph = random_sparse_graph(24, seed=3)
        labeling = pruned_landmark_labeling(graph)
        build_hitting_set(graph, 3)
        # Fast builder + persistent cache: cold miss (build + store),
        # warm hit, then a corrupted artifact (invalidation + rebuild).
        with tempfile.TemporaryDirectory() as tmp:
            cache = LabelCache(tmp)
            cache.load_or_build(graph)
            cache.load_or_build(graph)
            artifact = cache.path_for(cache_key(graph, degree_order(graph)))
            blob = bytearray(artifact.read_bytes())
            blob[-1] ^= 0xFF
            artifact.write_bytes(bytes(blob))
            cache.load_or_build(graph)
        pairs = [(u, v) for u in range(8) for v in range(8)]
        for backend in ("dict", "flat"):
            oracle = HubLabelOracle(labeling, backend=backend)
            for u, v in pairs[:20]:
                oracle.query(u, v)
            oracle.batch_query(pairs)
        resilient = ResilientOracle(
            graph, labeling, fallback=True, verify_sample=4
        )
        resilient.query(0, 5)
        resilient.batch_query(pairs[:6])
        chaos_sweep(
            graph, labeling, trials_per_kind=1, queries_per_trial=2, seed=0
        )

        # Serving layer: stall the oracle so submissions back the tiny
        # admission queue up until one overflows (serve.overloads),
        # then release the gate so the drain emits the batch / latency
        # metrics.
        class _Stall:
            def __init__(self, inner):
                self.inner = inner
                self.gate = threading.Event()

            @property
            def labeling(self):
                return self.inner.labeling

            def query(self, u, v):
                self.gate.wait()
                return self.inner.query(u, v)

        stalled = _Stall(HubLabelOracle(labeling))
        server = QueryServer(stalled, max_queue=2)
        server.start()
        futures = []
        try:
            for u in range(16):
                try:
                    futures.append(server.submit(u, (u + 1) % 24))
                except ServerOverloadError:
                    break
            else:
                raise RuntimeError(
                    "serve workload never overflowed the admission queue"
                )
        finally:
            stalled.gate.set()
        for future in futures:
            future.result(timeout=10)
        # The batch-native door: one ticket -> serve.batch_submissions.
        server.submit_batch([0, 2], [2, 3]).result(timeout=10)

        # Dynamic churn: one insert, one delete, and a forced full
        # rebuild (rebuild_fraction=0) emit the dynamic.* family; the
        # hot swap through set_oracle bumps serve.generation past the
        # zero the server start emitted.
        from repro.dynamic import DynamicHubLabeling

        def non_edge(g):
            return next(
                (u, v)
                for u in range(g.num_vertices)
                for v in range(u + 1, g.num_vertices)
                if g.edge_weight(u, v) is None
            )

        dyn = DynamicHubLabeling(random_sparse_graph(16, seed=5))
        u, v = non_edge(dyn.graph)
        dyn.insert_edge(u, v)
        dyn.delete_edge(u, v)
        forced = DynamicHubLabeling(
            random_sparse_graph(16, seed=6), rebuild_fraction=0.01
        )
        forced.insert_edge(*non_edge(forced.graph))
        server.set_oracle(HubLabelOracle(dyn.flat(), backend="flat"))
        server.query(0, 9)
        server.stop()

        # Zero-copy label stores: export the flat store into a shared
        # memory segment, attach a second reader, and verify it
        # (shm.attaches / shm.bytes_mapped / shm.crc_checks with
        # source=shm), then mmap the same envelope from disk
        # (source=mmap).
        from repro.core.io import flat_labeling_to_bytes
        from repro.perf.flat import FlatHubLabeling
        from repro.perf.shm import MappedLabelStore, SharedLabelStore
        from repro.serve import ShardedQueryServer

        flat = FlatHubLabeling.from_labeling(labeling)
        store = SharedLabelStore.create(flat)
        try:
            reader = SharedLabelStore.attach(store.name)
            reader.verify()
            reader.close()
        finally:
            store.close()
        with tempfile.TemporaryDirectory() as tmp:
            artifact = os.path.join(tmp, "labels.bin")
            with open(artifact, "wb") as handle:
                handle.write(flat_labeling_to_bytes(flat))
            mapped = MappedLabelStore(artifact)
            mapped.verify()
            mapped.close()

        # The sharded door: one batch through a one-worker fleet emits
        # serve.worker_batches / serve.workers_alive in the parent
        # (serve.worker_restarts is pre-created at zero on start).
        sharded = ShardedQueryServer(
            HubLabelOracle(flat, backend="flat"), processes=1
        )
        sharded.start()
        try:
            sharded.submit_batch([0, 2], [2, 3]).result(timeout=10)
        finally:
            sharded.stop()
    return {metric.name for metric in registry.metrics()}


def check(schema_path: str = SCHEMA_PATH) -> list:
    """Return a list of human-readable failure strings."""
    from repro.obs.catalog import CATALOG

    failures = []
    expected = build_schema()
    try:
        with open(schema_path) as handle:
            committed = json.load(handle)
    except (OSError, ValueError) as exc:
        return [f"cannot read {schema_path}: {exc}"]
    if committed != expected:
        committed_names = set(committed.get("metrics", {}))
        catalog_names_set = set(expected["metrics"])
        for name in sorted(catalog_names_set - committed_names):
            failures.append(f"catalogued but missing from schema: {name}")
        for name in sorted(committed_names - catalog_names_set):
            failures.append(f"in schema but not catalogued: {name}")
        for name in sorted(committed_names & catalog_names_set):
            if committed["metrics"][name] != expected["metrics"][name]:
                failures.append(
                    f"schema disagrees with catalogue for {name}: "
                    f"{committed['metrics'][name]} != "
                    f"{expected['metrics'][name]}"
                )
        if not failures:
            failures.append(
                "schema file differs from the catalogue "
                "(regenerate with --write)"
            )
    emitted = run_workload()
    for name in sorted(emitted - set(CATALOG)):
        failures.append(f"emitted but not catalogued: {name}")
    silent = set(CATALOG) - emitted - BENCH_ONLY
    for name in sorted(silent):
        failures.append(
            f"catalogued but never emitted by the check workload: {name}"
        )
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--write",
        action="store_true",
        help="regenerate docs/metrics_schema.json from the catalogue",
    )
    parser.add_argument("--schema", default=SCHEMA_PATH)
    args = parser.parse_args(argv)
    if args.write:
        with open(args.schema, "w") as handle:
            json.dump(build_schema(), handle, indent=2)
            handle.write("\n")
        print(f"wrote {args.schema}")
        return 0
    failures = check(args.schema)
    if failures:
        print("metrics schema check FAILED:")
        for failure in failures:
            print(f"  - {failure}")
        return 1
    print(
        "metrics schema check OK "
        f"({len(json.load(open(args.schema))['metrics'])} metrics)"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
