"""End-to-end observability: real workloads, exact counter math.

Runs the instrumented subsystems (oracles, resilient runtime, builders,
chaos sweep) against real graphs and asserts the registry holds exactly
the counts the workload implies, that the CLI surfaces (``repro stats``,
``--metrics-out``) work, and that the metrics-schema drift gate passes
in-process.
"""

import importlib.util
import json
import pathlib
import random

import pytest

from repro.cli import main as cli_main
from repro.core import pruned_landmark_labeling
from repro.core.hitting import build_hitting_set
from repro.obs.catalog import (
    BUILD_LABELS_PER_SECOND,
    BUILD_PAIRS_PER_SECOND,
    CHAOS_INJECTIONS,
    CHAOS_WRONG_ANSWERS,
    ORACLE_BATCH_LATENCY_SECONDS,
    ORACLE_BATCHES,
    ORACLE_QUERIES,
    ORACLE_QUERY_LATENCY_SECONDS,
    RESILIENT_FALLBACKS,
    RESILIENT_LABEL_ANSWERS,
    RESILIENT_QUARANTINED_VERTICES,
    RESILIENT_QUERIES,
    SPAN_COUNT,
)
from repro.obs.registry import NullRegistry, use_registry
from repro.oracles.oracle import LATENCY_SAMPLE, HubLabelOracle
from repro.runtime import ResilientOracle, chaos_sweep

ROOT = pathlib.Path(__file__).parent.parent

_spec = importlib.util.spec_from_file_location(
    "check_metrics_schema", ROOT / "tools" / "check_metrics_schema.py"
)
check_metrics_schema = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(check_metrics_schema)


@pytest.fixture
def labeled(sparse_graph):
    return sparse_graph, pruned_landmark_labeling(sparse_graph)


class TestOracleCounters:
    def test_ten_k_batch_per_backend(self, labeled, metrics_registry):
        """The acceptance workload: 10k pairs -> 10k per-backend counts."""
        graph, labeling = labeled
        rng = random.Random(0)
        n = graph.num_vertices
        pairs = [
            (rng.randrange(n), rng.randrange(n)) for _ in range(10_000)
        ]
        for backend in ("dict", "flat"):
            HubLabelOracle(labeling, backend=backend).batch_query(pairs)
        for backend in ("dict", "flat"):
            queries = metrics_registry.get(ORACLE_QUERIES, backend=backend)
            assert queries.value == 10_000
            latency = metrics_registry.get(
                ORACLE_QUERY_LATENCY_SECONDS, backend=backend
            )
            assert latency.count > 0
            assert metrics_registry.get(
                ORACLE_BATCHES, backend=backend
            ).value == 1
            assert metrics_registry.get(
                ORACLE_BATCH_LATENCY_SECONDS, backend=backend
            ).count == 1

    def test_scalar_queries_counted_exactly(self, labeled, metrics_registry):
        graph, labeling = labeled
        oracle = HubLabelOracle(labeling, backend="dict")
        total = 100
        for u in range(total):
            oracle.query(u % graph.num_vertices, 0)
        counter = metrics_registry.get(ORACLE_QUERIES, backend="dict")
        assert counter.value == total
        # Latency is sampled deterministically 1-in-LATENCY_SAMPLE.
        latency = metrics_registry.get(
            ORACLE_QUERY_LATENCY_SECONDS, backend="dict"
        )
        assert latency.count == total // LATENCY_SAMPLE

    def test_instruments_rebind_after_registry_swap(self, labeled):
        _, labeling = labeled
        oracle = HubLabelOracle(labeling, backend="dict")
        with use_registry() as first:
            oracle.query(0, 1)
        with use_registry() as second:
            oracle.query(0, 1)
            oracle.query(1, 2)
        assert first.get(ORACLE_QUERIES, backend="dict").value == 1
        assert second.get(ORACLE_QUERIES, backend="dict").value == 2

    def test_null_registry_records_nothing(self, labeled):
        _, labeling = labeled
        oracle = HubLabelOracle(labeling, backend="dict")
        null = NullRegistry()
        with use_registry(null):
            for _ in range(40):
                oracle.query(0, 1)
        assert len(null) == 0


class TestResilientCounters:
    def test_counters_mirror_health_report(self, labeled, metrics_registry):
        graph, labeling = labeled
        oracle = ResilientOracle(graph, labeling, fallback=True)
        rng = random.Random(1)
        n = graph.num_vertices
        for _ in range(50):
            oracle.query(rng.randrange(n), rng.randrange(n))
        oracle.batch_query([(0, 1), (2, 3), (4, 5)])
        health = oracle.health
        assert (
            metrics_registry.get(RESILIENT_QUERIES).value == health.queries
        )
        assert (
            metrics_registry.get(RESILIENT_LABEL_ANSWERS).value
            == health.label_answers
        )
        fallbacks = metrics_registry.get(RESILIENT_FALLBACKS)
        assert (fallbacks.value if fallbacks else 0) == health.fallbacks

    def test_quarantine_gauge_tracks_set(self, labeled, metrics_registry):
        graph, labeling = labeled
        mangled = labeling.copy()
        victim = 3
        for hub in list(mangled.hubs(victim)):
            mangled.discard_hub(victim, hub)
        oracle = ResilientOracle(
            graph,
            mangled,
            fallback=True,
            verify_sample=graph.num_vertices,
        )
        gauge = metrics_registry.get(RESILIENT_QUARANTINED_VERTICES)
        assert gauge is not None
        assert gauge.value == len(oracle.health.quarantined)
        assert gauge.value > 0


class TestBuilderInstrumentation:
    def test_pll_build_reports_span_and_rate(
        self, sparse_graph, metrics_registry
    ):
        labeling = pruned_landmark_labeling(sparse_graph)
        assert metrics_registry.get(SPAN_COUNT, span="pll.build").value == 1
        assert (
            metrics_registry.get(
                SPAN_COUNT, span="pll.build/pll.sweeps"
            ).value
            == 1
        )
        gauge = metrics_registry.get(BUILD_LABELS_PER_SECOND, builder="pll")
        assert gauge is not None and gauge.value > 0
        # Rate is labels / span duration, so it implies the label count.
        assert labeling.total_size() > 0

    def test_hitting_set_reports_pair_rate(
        self, small_grid, metrics_registry
    ):
        build_hitting_set(small_grid, 3)
        assert (
            metrics_registry.get(SPAN_COUNT, span="hitting.build").value
            == 1
        )
        gauge = metrics_registry.get(
            BUILD_PAIRS_PER_SECOND, builder="hitting-set"
        )
        assert gauge is not None and gauge.value > 0


class TestChaosCounters:
    def test_counters_match_report(self, metrics_registry):
        from repro.graphs import random_sparse_graph

        graph = random_sparse_graph(20, seed=5)
        labeling = pruned_landmark_labeling(graph)
        report = chaos_sweep(
            graph, labeling, trials_per_kind=3, queries_per_trial=4, seed=2
        )
        summary = report.by_kind()
        total_injections = 0
        for kind, row in summary.items():
            injections = metrics_registry.get(CHAOS_INJECTIONS, kind=kind)
            assert injections.value == row["injections"]
            wrong = metrics_registry.get(CHAOS_WRONG_ANSWERS, kind=kind)
            # Created even at zero, so a healthy run still exposes it.
            assert wrong is not None
            assert wrong.value == row["wrong"] == 0
            total_injections += injections.value
        assert total_injections == report.num_injections


class TestCli:
    def test_stats_json_reports_both_backends(self, capsys):
        code = cli_main(
            [
                "stats",
                "--generator",
                "sparse:40",
                "--pairs",
                "500",
                "--json",
            ]
        )
        assert code == 0
        snapshot = json.loads(capsys.readouterr().out)
        counts = {
            m["labels"]["backend"]: m["value"]
            for m in snapshot["metrics"]
            if m["name"] == ORACLE_QUERIES
        }
        assert counts == {"dict": 500, "flat": 500}

    def test_stats_prom_output(self, capsys):
        code = cli_main(
            ["stats", "--generator", "sparse:30", "--pairs", "64", "--prom"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "# TYPE repro_oracle_queries_total counter" in out

    def test_metrics_out_round_trips_through_stats(self, tmp_path, capsys):
        labels = tmp_path / "labels.bin"
        assert (
            cli_main(
                [
                    "label",
                    "--generator",
                    "sparse:40",
                    "--save",
                    str(labels),
                ]
            )
            == 0
        )
        out_file = tmp_path / "metrics.json"
        code = cli_main(
            [
                "query",
                str(labels),
                "0",
                "5",
                "--generator",
                "sparse:40",
                "--metrics-out",
                str(out_file),
            ]
        )
        assert code == 0
        assert out_file.exists()
        capsys.readouterr()
        assert cli_main(["stats", str(out_file)]) == 0
        table = capsys.readouterr().out
        assert RESILIENT_QUERIES in table

    def test_plain_query_metrics_out_counts_queries(self, tmp_path, capsys):
        # The graph-less query path must still serve through the
        # instrumented oracle, not labeling.query directly -- otherwise
        # --metrics-out writes an empty snapshot.
        labels = tmp_path / "labels.bin"
        assert (
            cli_main(
                [
                    "label",
                    "--generator",
                    "sparse:40",
                    "--save",
                    str(labels),
                ]
            )
            == 0
        )
        out_file = tmp_path / "metrics.json"
        code = cli_main(
            [
                "query",
                str(labels),
                "0",
                "5",
                "3",
                "7",
                "--metrics-out",
                str(out_file),
            ]
        )
        assert code == 0
        snapshot = json.loads(out_file.read_text())
        counts = {
            m["labels"]["backend"]: m["value"]
            for m in snapshot["metrics"]
            if m["name"] == ORACLE_QUERIES
        }
        assert counts == {"dict": 2}

    def test_chaos_metrics_out(self, tmp_path, capsys):
        out_file = tmp_path / "chaos-metrics.json"
        code = cli_main(
            [
                "chaos",
                "--generator",
                "sparse:20",
                "--trials",
                "2",
                "--metrics-out",
                str(out_file),
            ]
        )
        assert code == 0
        snapshot = json.loads(out_file.read_text())
        names = {m["name"] for m in snapshot["metrics"]}
        assert CHAOS_INJECTIONS in names

    def test_stats_rejects_foreign_snapshot(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"not": "a snapshot"}\n')
        with pytest.raises(SystemExit):
            cli_main(["stats", str(bad)])


class TestSchemaGate:
    def test_drift_check_passes_in_process(self):
        assert check_metrics_schema.check() == []

    def test_workload_emits_only_catalogued_names(self):
        from repro.obs.catalog import CATALOG

        emitted = check_metrics_schema.run_workload()
        assert emitted
        assert emitted <= set(CATALOG)
