"""The metric catalogue: every name the instrumentation may emit.

Instrumented code imports its metric names from here instead of using
string literals, so a rename is a one-line change that automatically
propagates -- and anything *not* routed through this module is caught:

* ``tools/check_metrics_schema.py`` (run by CI's bench job and by
  ``tests/test_obs_integration.py``) runs a workload touching every
  subsystem and fails if an emitted metric name is absent from this
  catalogue, or if the catalogue drifts from the committed
  ``docs/metrics_schema.json``;
* ``docs/observability.md`` documents exactly these entries (a docs
  test keeps the two aligned).

``labels`` lists the label *keys* an instrument is emitted with; the
label values are unconstrained (backends, builders, span paths...).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

__all__ = ["MetricSpec", "CATALOG", "catalog_names"]

# ---------------------------------------------------------------------------
# Metric name constants (the only strings instrumentation sites may use)
# ---------------------------------------------------------------------------
ORACLE_QUERIES = "oracle.queries"
ORACLE_QUERY_LATENCY_SECONDS = "oracle.query_latency_seconds"
ORACLE_BATCHES = "oracle.batches"
ORACLE_BATCH_LATENCY_SECONDS = "oracle.batch_latency_seconds"

RESILIENT_QUERIES = "resilient.queries"
RESILIENT_LABEL_ANSWERS = "resilient.label_answers"
RESILIENT_FALLBACKS = "resilient.fallbacks"
RESILIENT_BUDGET_EXHAUSTIONS = "resilient.budget_exhaustions"
RESILIENT_INTEGRITY_FAILURES = "resilient.integrity_failures"
RESILIENT_ADMISSION_VIOLATIONS = "resilient.admission_violations"
RESILIENT_QUARANTINED_VERTICES = "resilient.quarantined_vertices"

BUILD_LABELS_PER_SECOND = "build.labels_per_second"
BUILD_PAIRS_PER_SECOND = "build.pairs_per_second"
BUILD_DURATION_SECONDS = "build.duration_seconds"
BUILD_BITPARALLEL_PASSES = "build.bitparallel_passes"
BUILD_CACHE_HITS = "build.cache_hits"
BUILD_CACHE_MISSES = "build.cache_misses"
BUILD_CACHE_INVALIDATIONS = "build.cache_invalidations"

CHAOS_INJECTIONS = "chaos.injections"
CHAOS_DETECTED_AT_LOAD = "chaos.detected_at_load"
CHAOS_FALLBACKS = "chaos.fallbacks"
CHAOS_WRONG_ANSWERS = "chaos.wrong_answers"

SERVE_REQUESTS = "serve.requests"
SERVE_REQUEST_LATENCY_SECONDS = "serve.request_latency_seconds"
SERVE_QUEUE_DEPTH = "serve.queue_depth"
SERVE_SHARD_DEPTH = "serve.shard_depth"
SERVE_BATCHES = "serve.batches"
SERVE_BATCH_SUBMISSIONS = "serve.batch_submissions"
SERVE_COALESCE_WIDTH = "serve.coalesce_width"
SERVE_CACHE_HITS = "serve.cache_hits"
SERVE_CACHE_MISSES = "serve.cache_misses"
SERVE_OVERLOADS = "serve.overloads"
SERVE_WORKER_BATCHES = "serve.worker_batches"
SERVE_WORKER_RESTARTS = "serve.worker_restarts"
SERVE_WORKERS_ALIVE = "serve.workers_alive"
SERVE_GENERATION = "serve.generation"

DYNAMIC_INSERTS = "dynamic.inserts"
DYNAMIC_DELETES = "dynamic.deletes"
DYNAMIC_REBUILDS = "dynamic.rebuilds"
DYNAMIC_AFFECTED_ROOTS = "dynamic.affected_roots"
DYNAMIC_LABELS_REPAIRED = "dynamic.labels_repaired"
DYNAMIC_REPAIR_LATENCY_SECONDS = "dynamic.repair_latency_seconds"
DYNAMIC_STAGE_SECONDS = "dynamic.stage_seconds"

SHM_ATTACHES = "shm.attaches"
SHM_BYTES_MAPPED = "shm.bytes_mapped"
SHM_CRC_CHECKS = "shm.crc_checks"

SPAN_DURATION_SECONDS = "span.duration_seconds"
SPAN_COUNT = "span.count"

BENCH_SUITE_DURATION_SECONDS = "bench.suite_duration_seconds"


@dataclass(frozen=True)
class MetricSpec:
    """One catalogued metric: name, instrument type, label keys, firing."""

    name: str
    kind: str  # "counter" | "gauge" | "histogram"
    labels: Tuple[str, ...]
    fires: str


_SPECS = (
    MetricSpec(
        ORACLE_QUERIES, "counter", ("backend",),
        "per pair answered by HubLabelOracle.query / batch_query",
    ),
    MetricSpec(
        ORACLE_QUERY_LATENCY_SECONDS, "histogram", ("backend",),
        "scalar query wall time, deterministically sampled 1-in-"
        "LATENCY_SAMPLE; batches contribute their per-pair mean once",
    ),
    MetricSpec(
        ORACLE_BATCHES, "counter", ("backend",),
        "per HubLabelOracle.batch_query call",
    ),
    MetricSpec(
        ORACLE_BATCH_LATENCY_SECONDS, "histogram", ("backend",),
        "wall time of each batch_query call",
    ),
    MetricSpec(
        RESILIENT_QUERIES, "counter", (),
        "per ResilientOracle query (batch pairs included)",
    ),
    MetricSpec(
        RESILIENT_LABEL_ANSWERS, "counter", (),
        "per query answered from trusted labels",
    ),
    MetricSpec(
        RESILIENT_FALLBACKS, "counter", (),
        "per query degraded to exact bidirectional search",
    ),
    MetricSpec(
        RESILIENT_BUDGET_EXHAUSTIONS, "counter", (),
        "per query whose label cost exceeded operation_budget",
    ),
    MetricSpec(
        RESILIENT_INTEGRITY_FAILURES, "counter", (),
        "per cross-check catching labels wrongly claiming disconnection",
    ),
    MetricSpec(
        RESILIENT_ADMISSION_VIOLATIONS, "counter", (),
        "per violating pair found by the admission verification gate",
    ),
    MetricSpec(
        RESILIENT_QUARANTINED_VERTICES, "gauge", (),
        "current quarantine size, updated whenever it changes",
    ),
    MetricSpec(
        BUILD_LABELS_PER_SECOND, "gauge", ("builder",),
        "label entries produced per second by the last labeling build "
        "(builder = pll | greedy | flat-bitparallel | flat-fallback)",
    ),
    MetricSpec(
        BUILD_PAIRS_PER_SECOND, "gauge", ("builder",),
        "vertex pairs classified per second by the last hitting-set "
        "build (builder = hitting-set)",
    ),
    MetricSpec(
        BUILD_DURATION_SECONDS, "gauge", ("builder",),
        "wall time of the last flat-label construction "
        "(builder = bitparallel | fallback)",
    ),
    MetricSpec(
        BUILD_BITPARALLEL_PASSES, "counter", (),
        "per multi-root batch pass of the bit-parallel builder "
        "(created at 0 when the pure-Python fallback runs instead)",
    ),
    MetricSpec(
        BUILD_CACHE_HITS, "counter", (),
        "per label-cache lookup answered from a stored artifact",
    ),
    MetricSpec(
        BUILD_CACHE_MISSES, "counter", (),
        "per label-cache lookup that found no stored artifact",
    ),
    MetricSpec(
        BUILD_CACHE_INVALIDATIONS, "counter", (),
        "per stored artifact discarded as corrupt or mismatched "
        "(the entry is deleted and rebuilt)",
    ),
    MetricSpec(
        CHAOS_INJECTIONS, "counter", ("kind",),
        "per fault injected by chaos_sweep",
    ),
    MetricSpec(
        CHAOS_DETECTED_AT_LOAD, "counter", ("kind",),
        "per injection rejected by the artifact envelope at load time",
    ),
    MetricSpec(
        CHAOS_FALLBACKS, "counter", ("kind",),
        "per graded chaos query served by exact fallback",
    ),
    MetricSpec(
        CHAOS_WRONG_ANSWERS, "counter", ("kind",),
        "per graded chaos query answered wrong (must stay 0)",
    ),
    MetricSpec(
        SERVE_REQUESTS, "counter", (),
        "per pair accepted by QueryServer.submit / submit_batch "
        "(cache hits included; overload rejections are not); read "
        "from the same books as ServerStats.requests",
    ),
    MetricSpec(
        SERVE_REQUEST_LATENCY_SECONDS, "histogram", (),
        "submit-to-response wall time, one amortized observation per "
        "dispatched group (the oldest waiter's; cache hits answer "
        "inline and are not timed)",
    ),
    MetricSpec(
        SERVE_QUEUE_DEPTH, "gauge", (),
        "queued pairs across every admission shard, sampled when a "
        "dispatcher drains work (the backlog it found) and when a "
        "submit is refused; never on an ordinary submit",
    ),
    MetricSpec(
        SERVE_SHARD_DEPTH, "gauge", ("shard",),
        "queued pairs in one admission shard (shard = stripe index), "
        "sampled when its dispatcher drains work (the backlog it found) "
        "and when a submit is refused",
    ),
    MetricSpec(
        SERVE_BATCHES, "counter", (),
        "per dispatched group of tickets (one merged oracle call)",
    ),
    MetricSpec(
        SERVE_BATCH_SUBMISSIONS, "counter", (),
        "per QueryServer.submit_batch call admitted to a shard "
        "(all-cache-hit batches resolve inline and are not counted)",
    ),
    MetricSpec(
        SERVE_COALESCE_WIDTH, "histogram", (),
        "pairs per dispatched group (width buckets, not seconds)",
    ),
    MetricSpec(
        SERVE_CACHE_HITS, "counter", (),
        "per request answered from the LRU result cache",
    ),
    MetricSpec(
        SERVE_CACHE_MISSES, "counter", (),
        "per request that missed the result cache and was enqueued",
    ),
    MetricSpec(
        SERVE_OVERLOADS, "counter", (),
        "per request rejected with ServerOverloadError (queue full)",
    ),
    MetricSpec(
        SERVE_WORKER_BATCHES, "counter", ("worker",),
        "per pair-array frame a ShardedQueryServer round-tripped to "
        "one worker process (worker = process slot index)",
    ),
    MetricSpec(
        SERVE_WORKER_RESTARTS, "counter", (),
        "per dead worker process respawned by ShardedQueryServer",
    ),
    MetricSpec(
        SERVE_WORKERS_ALIVE, "gauge", (),
        "live worker processes behind ShardedQueryServer, updated on "
        "start, respawn, death, and stop",
    ),
    MetricSpec(
        SERVE_GENERATION, "gauge", (),
        "monotone oracle-swap sequence number of a query server "
        "(0 at start, +1 per set_oracle; hot-swap tests assert it "
        "only ever grows)",
    ),
    MetricSpec(
        DYNAMIC_INSERTS, "counter", (),
        "per DynamicHubLabeling.insert_edge call",
    ),
    MetricSpec(
        DYNAMIC_DELETES, "counter", (),
        "per DynamicHubLabeling.delete_edge call",
    ),
    MetricSpec(
        DYNAMIC_REBUILDS, "counter", (),
        "per mutation escalated to a full rebuild by the staleness/"
        "work budget (created at 0 at construction)",
    ),
    MetricSpec(
        DYNAMIC_AFFECTED_ROOTS, "gauge", (),
        "hub roots the most recent mutation swept (an insert resumes its "
        "endpoints' hubs, a delete re-sweeps the roots it invalidated); "
        "for a rebuild, the roots its detection flagged",
    ),
    MetricSpec(
        DYNAMIC_LABELS_REPAIRED, "counter", (),
        "label entries removed, overwritten or added across incremental "
        "repairs (an overwrite counts as one removed and one added)",
    ),
    MetricSpec(
        DYNAMIC_REPAIR_LATENCY_SECONDS, "histogram", (),
        "wall time of each mutation's repair (rebuild fallbacks "
        "included)",
    ),
    MetricSpec(
        DYNAMIC_STAGE_SECONDS, "histogram", ("stage",),
        "wall time of one write-path stage of a mutation, observed once "
        "per stage per edit (stage = detect, resweep, splice for an "
        "insert repair; detect, invalidate, resweep, splice for a delete "
        "repair; detect, rebuild for a rebuild)",
    ),
    MetricSpec(
        SHM_ATTACHES, "counter", ("source",),
        "per zero-copy label store opened (source = shm for "
        "shared-memory segments, mmap for mapped artifact files)",
    ),
    MetricSpec(
        SHM_BYTES_MAPPED, "gauge", ("source",),
        "bytes of label-artifact envelope behind the most recently "
        "opened zero-copy store of each source",
    ),
    MetricSpec(
        SHM_CRC_CHECKS, "counter", ("outcome",),
        "per deferred envelope CRC verification over a shared or "
        "mapped store (outcome = ok | corrupt)",
    ),
    MetricSpec(
        SPAN_DURATION_SECONDS, "histogram", ("span",),
        "wall time of every completed tracing span, keyed by nested path",
    ),
    MetricSpec(
        SPAN_COUNT, "counter", ("span",),
        "completions of every tracing span, keyed by nested path",
    ),
    MetricSpec(
        BENCH_SUITE_DURATION_SECONDS, "gauge", ("suite",),
        "the exact timing each repro-bench suite wrote to "
        "BENCH_perf.json (derived from the same span measurements)",
    ),
)

#: name -> spec for every metric the instrumentation may emit.
CATALOG: Dict[str, MetricSpec] = {spec.name: spec for spec in _SPECS}


def catalog_names() -> Tuple[str, ...]:
    """Every catalogued metric name, sorted (the committed schema)."""
    return tuple(sorted(CATALOG))
