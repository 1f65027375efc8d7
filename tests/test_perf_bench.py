"""The benchmark suite and its regression gate.

Runs the real suites on the small pinned instance (tiny workload, one
repeat) and checks the machine-readable contract: the JSON schema
``suite -> {metric, value, unit, instance, seed}``, backend consistency,
the gate's pass/fail/skip behavior that CI relies on, and that the
timings written to JSON agree with the ``bench.*`` spans and gauges the
run reports to the metrics registry (the no-drift guarantee).
"""

import importlib.util
import json
import pathlib

import pytest

from repro.obs.catalog import (
    BENCH_SUITE_DURATION_SECONDS,
    SPAN_DURATION_SECONDS,
)
from repro.obs.registry import Registry, use_registry
from repro.perf.bench import (
    ZOO_FAMILIES,
    render_results,
    run_bench,
    run_zoo_bench,
    write_results,
)

ROOT = pathlib.Path(__file__).parent.parent

_spec = importlib.util.spec_from_file_location(
    "bench_gate", ROOT / "tools" / "bench_gate.py"
)
bench_gate = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_gate)

REQUIRED_SUITES = (
    "pll_construction",
    "build_throughput",
    "build_speedup",
    "build_consistency",
    "flat_conversion",
    "cache_store",
    "cache_hit_latency",
    "batch_throughput_dict",
    "batch_throughput_flat",
    "batch_speedup",
    "backend_consistency",
    "label_memory_dict",
    "label_memory_flat",
    "serving_throughput",
    "serving_batch_throughput",
    "serving_speedup",
    "serving_consistency",
    "serving_throughput_sharded",
    "sharded_consistency",
    "sssp_rows",
    "obs_overhead",
    "update_latency",
    "qps_under_churn",
    "churn_consistency",
)

#: Suites whose gauge records the duration behind a JSON value.
TIMED_SUITES = (
    "pll_construction",
    "build_throughput",
    "flat_conversion",
    "cache_store",
    "cache_hit_latency",
    "batch_throughput_dict",
    "batch_throughput_flat",
    "sssp_rows",
    "obs_overhead",
)


@pytest.fixture(scope="module")
def bench_run():
    # Module-scoped fixtures are created before the function-scoped
    # autouse registry swap in conftest, so isolate explicitly here and
    # hand the registry to the agreement tests alongside the results.
    registry = Registry()
    with use_registry(registry):
        results = run_bench(quick=True, num_sources=4, repeats=1)
    return results, registry


@pytest.fixture(scope="module")
def results(bench_run):
    return bench_run[0]


class TestBenchSchema:
    def test_every_suite_present(self, results):
        for suite in REQUIRED_SUITES:
            assert suite in results, suite

    def test_entry_schema(self, results):
        for suite, row in results.items():
            for key in ("metric", "value", "unit", "instance", "seed"):
                assert key in row, (suite, key)
            assert row["instance"] == "G(2,1)"
            assert row["seed"] == 7
            assert isinstance(row["value"], (int, float))

    def test_backends_consistent(self, results):
        assert results["backend_consistency"]["value"] == 0
        assert results["backend_consistency"]["pairs"] > 0

    def test_direct_builder_consistent(self, results):
        assert results["build_consistency"]["value"] == 0
        assert results["build_consistency"]["vertices"] > 0

    def test_build_suites(self, results):
        assert results["build_throughput"]["value"] > 0
        assert results["build_speedup"]["value"] > 0
        assert results["flat_conversion"]["direct_s"] > 0

    def test_cache_suites(self, results):
        assert results["cache_store"]["value"] > 0
        assert results["cache_hit_latency"]["value"] > 0
        assert results["cache_hit_latency"]["hit"] == 1

    def test_cache_hit_reports_both_doors(self, results):
        # The mmap and deserialize doors are one now (a map plus its
        # CRC): the entry value is that one timing, and neither retired
        # door's field is reported beside it.
        row = results["cache_hit_latency"]
        assert row["value"] > 0
        assert not {"mmap_s", "mmap_hit", "deserialize_s"} & set(row)
        assert set(row) == {"metric", "value", "unit", "instance", "seed", "hit"}

    def test_sharded_suites(self, results):
        sharded = results["serving_throughput_sharded"]
        assert sharded["value"] > 0
        assert sharded["workers"] == 4
        assert sharded["single_process_qps"] > 0
        consistency = results["sharded_consistency"]
        assert consistency["value"] == 0
        assert consistency["pairs"] > 0

    def test_throughputs_positive(self, results):
        assert results["batch_throughput_dict"]["value"] > 0
        assert results["batch_throughput_flat"]["value"] > 0
        assert results["batch_speedup"]["value"] > 0

    def test_dynamic_suites(self, results):
        # The repair path must both move (positive rates, mutations
        # actually landed inside the churn window) and stay exact
        # (zero repair-vs-rebuild mismatches).
        assert results["update_latency"]["value"] > 0
        assert results["update_latency"]["ops"] == 2
        churn = results["qps_under_churn"]
        assert churn["value"] > 0
        assert churn["mutations"] >= 1
        consistency = results["churn_consistency"]
        assert consistency["value"] == 0
        assert consistency["pairs"] > 0
        assert consistency["mutations"] >= 1

    def test_render_lists_every_suite(self, results):
        text = render_results(results)
        for suite in REQUIRED_SUITES:
            assert suite in text

    def test_write_results_round_trips(self, results, tmp_path):
        out = tmp_path / "BENCH_perf.json"
        write_results(results, str(out))
        assert json.loads(out.read_text()) == json.loads(
            json.dumps(results)
        )


def _entry(metric, value, instance="G(2,1)"):
    return {
        "metric": metric,
        "value": value,
        "unit": "queries/s",
        "instance": instance,
        "seed": 7,
    }


class TestGateLogic:
    def test_within_bounds_passes(self):
        current = {"t": _entry("throughput", 95.0)}
        baseline = {"t": _entry("throughput", 100.0)}
        assert bench_gate.compare(current, baseline, 0.20) == []

    def test_regression_fails(self):
        current = {"t": _entry("throughput", 70.0)}
        baseline = {"t": _entry("throughput", 100.0)}
        failures = bench_gate.compare(current, baseline, 0.20)
        assert len(failures) == 1
        assert "below baseline" in failures[0]

    def test_non_throughput_metrics_not_gated(self):
        current = {"m": _entry("build_time", 900.0)}
        baseline = {"m": _entry("build_time", 1.0)}
        assert bench_gate.compare(current, baseline, 0.20) == []

    def test_instance_mismatch_skipped(self, capsys):
        current = {"t": _entry("throughput", 1.0, instance="G(2,2)")}
        baseline = {"t": _entry("throughput", 100.0)}
        assert bench_gate.compare(current, baseline, 0.20) == []

    def test_backend_mismatch_fails(self):
        current = {"backend_consistency": _entry("mismatches", 3)}
        assert bench_gate.self_check(current, 0.10)

    def test_build_mismatch_fails(self):
        current = {"build_consistency": _entry("mismatches", 2)}
        failures = bench_gate.self_check(current, 0.10)
        assert len(failures) == 1
        assert "build_consistency" in failures[0]

    def test_build_consistency_zero_passes(self):
        current = {"build_consistency": _entry("mismatches", 0)}
        assert bench_gate.self_check(current, 0.10) == []

    def test_sharded_mismatch_fails(self):
        current = {"sharded_consistency": _entry("mismatches", 1)}
        failures = bench_gate.self_check(current, 0.10)
        assert len(failures) == 1
        assert "sharded_consistency" in failures[0]

    def test_churn_mismatch_fails(self):
        current = {"churn_consistency": _entry("mismatches", 1)}
        failures = bench_gate.self_check(current, 0.10)
        assert len(failures) == 1
        assert "churn_consistency" in failures[0]

    def test_churn_consistency_zero_passes(self):
        current = {"churn_consistency": _entry("mismatches", 0)}
        assert bench_gate.self_check(current, 0.10) == []

    def test_sharded_ratio_floor_on_full_instance(self):
        current = {
            "serving_throughput_sharded": _entry(
                "throughput", 250.0, instance="G(2,2)"
            ),
            "serving_batch_throughput": _entry(
                "throughput", 100.0, instance="G(2,2)"
            ),
        }
        assert bench_gate.self_check(current, 0.10) == []
        current["serving_throughput_sharded"]["value"] = 120.0
        failures = bench_gate.self_check(current, 0.10)
        assert len(failures) == 1
        assert "serving_throughput_sharded" in failures[0]
        assert "1.20x" in failures[0]

    def test_sharded_ratio_core_starved_exempt(self, capsys):
        # Fan-out cannot beat one process without cores to fan out
        # onto; such runs record the honest rate but are not floored.
        current = {
            "serving_throughput_sharded": dict(
                _entry("throughput", 50.0, instance="G(2,2)"),
                workers=4,
                cores=1,
            ),
            "serving_batch_throughput": _entry(
                "throughput", 100.0, instance="G(2,2)"
            ),
        }
        assert bench_gate.self_check(current, 0.10) == []
        assert "core" in capsys.readouterr().out

    def test_sharded_ratio_quick_instance_exempt(self):
        current = {
            "serving_throughput_sharded": _entry("throughput", 50.0),
            "serving_batch_throughput": _entry("throughput", 100.0),
        }
        assert bench_gate.self_check(current, 0.10) == []

    def test_overhead_within_budget_passes(self):
        current = {"obs_overhead": _entry("overhead", 1.07)}
        assert bench_gate.self_check(current, 0.10) == []

    def test_overhead_above_budget_fails(self):
        current = {"obs_overhead": _entry("overhead", 1.23)}
        failures = bench_gate.self_check(current, 0.10)
        assert len(failures) == 1
        assert "obs_overhead" in failures[0]

    def test_real_run_overhead_within_gate(self, results):
        assert bench_gate.self_check(results, 0.10) == []

    def test_speedup_is_gated(self):
        current = {"s": _entry("speedup", 2.0)}
        baseline = {"s": _entry("speedup", 3.0)}
        assert bench_gate.compare(current, baseline, 0.20)

    def test_missing_baseline_runs_self_checks_only(self, tmp_path, capsys):
        current = tmp_path / "cur.json"
        current.write_text("{}")
        code = bench_gate.main(
            [
                "--current",
                str(current),
                "--baseline",
                str(tmp_path / "missing.json"),
            ]
        )
        assert code == 0
        assert "self-checks only" in capsys.readouterr().out

    def test_missing_baseline_still_gates_overhead(self, tmp_path):
        current = tmp_path / "cur.json"
        current.write_text(json.dumps({"obs_overhead": _entry("overhead", 1.5)}))
        code = bench_gate.main(
            [
                "--current",
                str(current),
                "--baseline",
                str(tmp_path / "missing.json"),
            ]
        )
        assert code == 1

    def test_missing_current_file_skips(self, tmp_path, capsys):
        code = bench_gate.main(
            [
                "--current",
                str(tmp_path / "missing.json"),
                "--baseline",
                str(tmp_path / "also-missing.json"),
            ]
        )
        assert code == 0
        assert "skipping" in capsys.readouterr().out

    def test_main_pass_and_fail(self, tmp_path):
        cur = tmp_path / "cur.json"
        base = tmp_path / "base.json"
        base.write_text(json.dumps({"t": _entry("throughput", 100.0)}))
        cur.write_text(json.dumps({"t": _entry("throughput", 99.0)}))
        assert (
            bench_gate.main(
                ["--current", str(cur), "--baseline", str(base)]
            )
            == 0
        )
        cur.write_text(json.dumps({"t": _entry("throughput", 9.0)}))
        assert (
            bench_gate.main(
                ["--current", str(cur), "--baseline", str(base)]
            )
            == 1
        )

    def test_committed_baseline_is_machine_portable(self):
        """The repo's baseline gates ratios, never absolute rates."""
        path = ROOT / "benchmarks" / "baselines" / "BENCH_quick.json"
        baseline = json.loads(path.read_text())
        for suite, row in baseline.items():
            assert row["unit"] in ("x", "pairs", "vertices"), suite


class TestMetricsAgreement:
    """BENCH_perf.json and the registry must report the same timings."""

    def test_every_timed_suite_has_a_duration_gauge(self, bench_run):
        _, registry = bench_run
        for suite in TIMED_SUITES:
            gauge = registry.get(BENCH_SUITE_DURATION_SECONDS, suite=suite)
            assert gauge is not None, suite
            assert gauge.value > 0, suite

    def test_gauge_is_the_best_span_duration(self, bench_run):
        # The gauge is set to the exact float returned by the timing
        # loop, which is the minimum of the per-repeat span durations --
        # identity, not approximation.
        _, registry = bench_run
        for suite in TIMED_SUITES:
            gauge = registry.get(BENCH_SUITE_DURATION_SECONDS, suite=suite)
            hist = registry.get(
                SPAN_DURATION_SECONDS, span=f"bench.{suite}"
            )
            assert hist is not None, suite
            assert hist.count >= 1
            assert gauge.value == hist.min

    def test_pll_construction_gauge_matches_span(self, bench_run):
        # The reference build is timed like the direct build it is
        # compared with: best of the same number of repeats.
        _, registry = bench_run
        gauge = registry.get(
            BENCH_SUITE_DURATION_SECONDS, suite="pll_construction"
        )
        hist = registry.get(
            SPAN_DURATION_SECONDS, span="bench.pll_construction"
        )
        direct = registry.get(
            SPAN_DURATION_SECONDS, span="bench.build_throughput"
        )
        assert hist is not None and hist.count == direct.count
        assert gauge.value == hist.min

    def test_json_values_derive_from_gauge_durations(self, bench_run):
        results, registry = bench_run
        checks = {
            "pll_construction": lambda row, d: row["value"]
            == round(d, 6),
            "batch_throughput_dict": lambda row, d: row["value"]
            == round(row["pairs"] / d, 1),
            "batch_throughput_flat": lambda row, d: row["value"]
            == round(row["pairs"] / d, 1),
            "sssp_rows": lambda row, d: row["value"]
            == round(row["roots"] / d, 3),
        }
        for suite, check in checks.items():
            gauge = registry.get(BENCH_SUITE_DURATION_SECONDS, suite=suite)
            assert check(results[suite], gauge.value), suite


class TestZooBench:
    """The per-family zoo sweep: schema, agreement, gate acceptance."""

    ZOO_METRIC_SUITES = (
        "label_memory",
        "batch_speedup",
        "serving_batch_throughput",
        "consistency",
    )

    @pytest.fixture(scope="class")
    def zoo_run(self):
        registry = Registry()
        with use_registry(registry):
            results = run_zoo_bench(
                quick=True, num_sources=4, repeats=1, scale=64
            )
        return results, registry

    @pytest.fixture(scope="class")
    def zoo_results(self, zoo_run):
        return zoo_run[0]

    def test_every_family_emits_every_suite(self, zoo_results):
        for family in ZOO_FAMILIES:
            for metric_suite in self.ZOO_METRIC_SUITES:
                assert f"graph_zoo.{family}.{metric_suite}" in zoo_results

    def test_entry_schema_carries_family(self, zoo_results):
        for suite, row in zoo_results.items():
            assert suite.startswith("graph_zoo.")
            for key in ("metric", "value", "unit", "instance", "seed",
                        "family", "n"):
                assert key in row, (suite, key)
            assert row["instance"] == f"{row['family']}(n={row['n']})"
            assert isinstance(row["value"], (int, float))

    def test_all_families_consistent(self, zoo_results):
        for family in ZOO_FAMILIES:
            row = zoo_results[f"graph_zoo.{family}.consistency"]
            assert row["value"] == 0, family
            assert row["pairs"] > 0

    def test_memory_and_throughput_positive(self, zoo_results):
        for family in ZOO_FAMILIES:
            assert zoo_results[f"graph_zoo.{family}.label_memory"]["value"] > 0
            serving = zoo_results[
                f"graph_zoo.{family}.serving_batch_throughput"
            ]
            assert serving["value"] > 0
            assert serving["pairs"] > 0

    def test_gate_accepts_a_clean_zoo_run(self, zoo_results):
        assert bench_gate.self_check(zoo_results, 0.10) == []

    def test_gate_fails_any_family_mismatch(self, zoo_results):
        poisoned = json.loads(json.dumps(zoo_results))
        poisoned["graph_zoo.road.consistency"]["value"] = 2
        failures = bench_gate.self_check(poisoned, 0.10)
        assert len(failures) == 1
        assert "graph_zoo.road.consistency" in failures[0]
        assert "road" in failures[0]

    def test_zoo_timings_mirrored_into_gauges(self, zoo_run):
        zoo_results, registry = zoo_run
        for family in ZOO_FAMILIES:
            suite = f"graph_zoo.{family}.serving_batch_throughput"
            gauge = registry.get(BENCH_SUITE_DURATION_SECONDS, suite=suite)
            hist = registry.get(SPAN_DURATION_SECONDS, span=f"bench.{suite}")
            assert gauge is not None and hist is not None, suite
            assert gauge.value == hist.min
            row = zoo_results[suite]
            assert row["value"] == round(row["pairs"] / gauge.value, 1)

    def test_ratio_gate_compares_per_family(self):
        current = {
            "graph_zoo.ba.batch_speedup": {
                "metric": "speedup", "value": 1.0, "unit": "x",
                "instance": "ba(n=64)", "seed": 7, "family": "ba", "n": 64,
            }
        }
        baseline = json.loads(json.dumps(current))
        baseline["graph_zoo.ba.batch_speedup"]["value"] = 2.0
        failures = bench_gate.compare(current, baseline, 0.20)
        assert len(failures) == 1
        assert "graph_zoo.ba.batch_speedup" in failures[0]
