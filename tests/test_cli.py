"""The command-line interface."""

import pytest

from repro.cli import main


class TestInstance:
    def test_instance_command(self, capsys):
        assert main(["instance", "--b", "1", "--l", "1"]) == 0
        out = capsys.readouterr().out
        assert "Degree3Instance" in out
        assert "certificate" in out


class TestLabelAndQuery:
    def test_label_generator_verify(self, capsys):
        assert (
            main(
                [
                    "label",
                    "--generator",
                    "sparse:40",
                    "--method",
                    "pll",
                    "--verify",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "valid 2-hop cover: True" in out

    def test_label_save_and_query(self, tmp_path, capsys):
        target = tmp_path / "labels.bin"
        assert (
            main(
                [
                    "label",
                    "--generator",
                    "grid:36",
                    "--save",
                    str(target),
                ]
            )
            == 0
        )
        assert target.exists()
        capsys.readouterr()
        assert main(["query", str(target), "0", "35"]) == 0
        out = capsys.readouterr().out
        assert "dist(0, 35) = 10" in out

    def test_label_from_edgelist_file(self, tmp_path, capsys):
        graph_file = tmp_path / "g.txt"
        graph_file.write_text("3 2\n0 1 1\n1 2 1\n")
        assert main(["label", "--graph", str(graph_file), "--verify"]) == 0
        assert "True" in capsys.readouterr().out

    def test_unknown_generator(self):
        with pytest.raises(SystemExit):
            main(["label", "--generator", "nope:10"])

    def test_no_graph_source(self):
        with pytest.raises(SystemExit):
            main(["label"])

    def test_odd_query_vertices(self, tmp_path):
        target = tmp_path / "labels.bin"
        main(["label", "--generator", "tree:10", "--save", str(target)])
        with pytest.raises(SystemExit):
            main(["query", str(target), "0", "1", "2"])

    @pytest.mark.parametrize("method", ["greedy", "sparse", "rs"])
    def test_all_methods(self, method, capsys):
        assert (
            main(
                [
                    "label",
                    "--generator",
                    "tree:20",
                    "--method",
                    method,
                    "--verify",
                ]
            )
            == 0
        )
        assert "valid 2-hop cover: True" in capsys.readouterr().out


class TestBuildCommand:
    def test_build_without_cache(self, capsys):
        assert main(["build", "--generator", "grid:36"]) == 0
        out = capsys.readouterr().out
        assert "cache: off" in out
        assert "label entries" in out

    def test_build_miss_then_hit(self, tmp_path, capsys):
        cache = str(tmp_path / "cache")
        assert main(
            ["build", "--generator", "grid:36", "--cache-dir", cache]
        ) == 0
        assert "cache: miss" in capsys.readouterr().out
        assert main(
            ["build", "--generator", "grid:36", "--cache-dir", cache]
        ) == 0
        assert "cache: hit" in capsys.readouterr().out

    @pytest.mark.parametrize("status", ["miss", "hit"])
    def test_build_derives_the_cache_key_once(
        self, tmp_path, capsys, monkeypatch, status
    ):
        # One key walk serves the lookup, the store of a miss and the
        # printed artifact path.
        from repro.perf import cache as cache_module

        cache = tmp_path / "cache"
        argv = ["build", "--generator", "grid:36", "--cache-dir", str(cache)]
        if status == "hit":
            assert main(argv) == 0
            capsys.readouterr()
        calls = []
        real = cache_module.cache_key

        def spy(graph, order):
            calls.append(graph.num_vertices)
            return real(graph, order)

        monkeypatch.setattr(cache_module, "cache_key", spy)
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert f"cache: {status}" in out
        assert calls == [36]
        artifact = out.split("artifact: ")[1].splitlines()[0]
        assert [str(path) for path in cache.iterdir()] == [artifact]

    def test_build_save_artifact(self, tmp_path, capsys):
        target = tmp_path / "labels.rhl"
        assert main(
            ["build", "--generator", "tree:12", "--save", str(target)]
        ) == 0
        assert target.exists()
        capsys.readouterr()
        # The saved flat artifact is queryable like any labeling file.
        assert main(["query", str(target), "0", "0"]) == 0
        assert "dist(0, 0) = 0" in capsys.readouterr().out

    def test_build_needs_graph_source(self):
        with pytest.raises(SystemExit):
            main(["build"])


class TestQueryFromCache:
    def test_warm_query_skips_construction(self, tmp_path, capsys):
        import json

        from repro.obs.registry import Registry, use_registry

        cache = str(tmp_path / "cache")
        # Run the cold build under a throwaway registry so the warm
        # query's snapshot below starts clean.
        with use_registry(Registry()):
            assert main(
                ["build", "--generator", "grid:36", "--cache-dir", cache]
            ) == 0
        capsys.readouterr()
        metrics = tmp_path / "metrics.json"
        assert (
            main(
                [
                    "query",
                    "0",
                    "35",
                    "--generator",
                    "grid:36",
                    "--cache-dir",
                    cache,
                    "--metrics-out",
                    str(metrics),
                ]
            )
            == 0
        )
        assert "dist(0, 35) = 10" in capsys.readouterr().out
        snapshot = json.loads(metrics.read_text())
        by_name = {}
        for metric in snapshot["metrics"]:
            by_name.setdefault(metric["name"], []).append(metric)
        assert by_name["build.cache_hits"][0]["value"] == 1
        assert by_name["build.cache_misses"][0]["value"] == 0
        # The warm run did no construction: no build.flat span at all.
        spans = {
            tuple(sorted(m.get("labels", {}).items()))
            for m in by_name.get("span.duration_seconds", [])
        }
        assert (("span", "build.flat"),) not in spans

    def test_cache_dir_needs_graph(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["query", "0", "1", "--cache-dir", str(tmp_path)])

    def test_cache_dir_rejects_labeling_file(self, tmp_path):
        with pytest.raises(SystemExit):
            main(
                [
                    "query",
                    "labels.bin",
                    "0",
                    "1",
                    "--generator",
                    "grid:36",
                    "--cache-dir",
                    str(tmp_path),
                ]
            )

    def test_query_without_labeling_or_cache(self, capsys):
        # Without --cache-dir the first positional is the labeling file.
        assert main(["query", "0", "1"]) == 74
        assert "error:" in capsys.readouterr().err
        with pytest.raises(SystemExit):
            main(["query"])

    def test_cached_query_through_runtime(self, tmp_path, capsys):
        cache = str(tmp_path / "cache")
        assert (
            main(
                [
                    "query",
                    "0",
                    "35",
                    "--generator",
                    "grid:36",
                    "--cache-dir",
                    cache,
                    "--verify-sample",
                    "8",
                ]
            )
            == 0
        )
        assert "dist(0, 35) = 10" in capsys.readouterr().out


class TestChaosFromCache:
    def test_chaos_reuses_cache(self, tmp_path, capsys):
        cache = str(tmp_path / "cache")
        args = [
            "chaos",
            "--generator",
            "tree:15",
            "--trials",
            "2",
            "--queries",
            "3",
            "--cache-dir",
            cache,
        ]
        assert main(args) == 0
        assert main(args) == 0
        assert "zero wrong answers" in capsys.readouterr().out

    def test_chaos_cache_requires_pll(self, tmp_path):
        with pytest.raises(SystemExit):
            main(
                [
                    "chaos",
                    "--generator",
                    "tree:15",
                    "--method",
                    "greedy",
                    "--cache-dir",
                    str(tmp_path),
                ]
            )


class TestExperiments:
    def test_fast_subset(self, capsys):
        assert main(["experiments", "--only", "E1,E8", "--fast"]) == 0
        out = capsys.readouterr().out
        assert "Figure 1" in out
        assert "RS graphs" in out

    def test_e10(self, capsys):
        assert main(["experiments", "--only", "E10"]) == 0
        assert "degree reduction" in capsys.readouterr().out


class TestExperimentsWrite:
    def test_write_file(self, tmp_path, capsys):
        target = tmp_path / "tables.md"
        assert (
            main(
                [
                    "experiments",
                    "--only",
                    "E1,E10",
                    "--fast",
                    "--write",
                    str(target),
                ]
            )
            == 0
        )
        content = target.read_text()
        assert "Figure 1" in content
        assert "degree reduction" in content

    def test_new_experiment_ids(self, capsys):
        assert main(["experiments", "--only", "E14", "--fast"]) == 0
        assert "bits per label" in capsys.readouterr().out


class TestResilientQuery:
    def _save(self, tmp_path, generator="grid:36"):
        target = tmp_path / "labels.bin"
        assert main(
            ["label", "--generator", generator, "--save", str(target)]
        ) == 0
        return target

    def test_query_through_runtime(self, tmp_path, capsys):
        target = self._save(tmp_path)
        capsys.readouterr()
        assert (
            main(
                [
                    "query",
                    str(target),
                    "0",
                    "35",
                    "--generator",
                    "grid:36",
                    "--verify-sample",
                    "36",
                ]
            )
            == 0
        )
        assert "dist(0, 35) = 10" in capsys.readouterr().out

    def test_fallback_needs_graph(self, tmp_path):
        target = self._save(tmp_path)
        with pytest.raises(SystemExit):
            main(["query", str(target), "0", "1", "--fallback"])
        with pytest.raises(SystemExit):
            main(["query", str(target), "0", "1", "--verify-sample", "4"])

    def test_mismatched_graph_is_integrity_error(self, tmp_path, capsys):
        target = self._save(tmp_path, generator="tree:10")
        assert (
            main(
                ["query", str(target), "0", "1", "--generator", "grid:36"]
            )
            == 67
        )
        assert "IntegrityError" in capsys.readouterr().err


class TestErrorExitCodes:
    def test_corrupt_artifact_exits_65(self, tmp_path, capsys):
        target = tmp_path / "labels.bin"
        main(["label", "--generator", "tree:12", "--save", str(target)])
        blob = bytearray(target.read_bytes())
        blob[-2] ^= 0xFF
        target.write_bytes(bytes(blob))
        capsys.readouterr()
        assert main(["query", str(target), "0", "1"]) == 65
        err = capsys.readouterr().err
        assert "ArtifactCorruptError" in err
        assert "\n" not in err.strip()  # one-line diagnostic, no traceback

    def test_malformed_edgelist_exits_66(self, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text("2 1\n0 nope 1\n")
        assert main(["label", "--graph", str(bad)]) == 66
        assert "line 2" in capsys.readouterr().err

    def test_out_of_range_query_exits_69(self, tmp_path, capsys):
        target = tmp_path / "labels.bin"
        main(["label", "--generator", "tree:12", "--save", str(target)])
        capsys.readouterr()
        assert main(["query", str(target), "0", "99"]) == 69
        assert "DomainError" in capsys.readouterr().err

    def test_missing_file_exits_74(self, tmp_path, capsys):
        assert main(["query", str(tmp_path / "nope.bin"), "0", "1"]) == 74
        assert "error:" in capsys.readouterr().err


class TestChaosCommand:
    def test_sweep_reports_zero_wrong(self, capsys):
        assert (
            main(
                [
                    "chaos",
                    "--generator",
                    "sparse:20",
                    "--trials",
                    "4",
                    "--queries",
                    "4",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "zero wrong answers" in out
        for kind in ("bit-flip", "truncate", "drop-hub", "perturb"):
            assert kind in out

    def test_fault_subset(self, capsys):
        assert (
            main(
                [
                    "chaos",
                    "--generator",
                    "tree:15",
                    "--trials",
                    "3",
                    "--faults",
                    "bit-flip,truncate",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "bit-flip" in out
        assert "drop-hub" not in out

    def test_unknown_fault_rejected(self):
        with pytest.raises(SystemExit):
            main(["chaos", "--faults", "cosmic-ray"])


class TestBench:
    def test_quick_bench_writes_json(self, tmp_path, capsys):
        import json

        out = tmp_path / "BENCH_perf.json"
        assert (
            main(
                [
                    "bench",
                    "--quick",
                    "--out",
                    str(out),
                    "--sources",
                    "2",
                    "--repeats",
                    "1",
                ]
            )
            == 0
        )
        text = capsys.readouterr().out
        assert "batch_speedup" in text
        assert str(out) in text
        results = json.loads(out.read_text())
        assert results["backend_consistency"]["value"] == 0
        for row in results.values():
            assert {"metric", "value", "unit", "instance", "seed"} <= set(
                row
            )


class TestServeCommand:
    def test_serve_self_test_grades_clean(self, capsys):
        assert (
            main(
                [
                    "serve",
                    "--generator",
                    "sparse:60",
                    "--clients",
                    "4",
                    "--requests",
                    "50",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "wrong:      0" in out
        assert "verdict:    OK" in out
        assert "batches:" in out

    def test_serve_resilient_path(self, capsys):
        assert (
            main(
                [
                    "serve",
                    "--generator",
                    "sparse:40",
                    "--clients",
                    "2",
                    "--requests",
                    "25",
                    "--resilient",
                    "--verify-sample",
                    "8",
                ]
            )
            == 0
        )
        assert "ResilientOracle" in capsys.readouterr().out

    def test_serve_reuses_label_cache(self, tmp_path, capsys):
        cache_dir = str(tmp_path / "labels")
        assert main(["build", "--generator", "sparse:60", "--cache-dir", cache_dir]) == 0
        capsys.readouterr()
        assert (
            main(
                [
                    "serve",
                    "--generator",
                    "sparse:60",
                    "--cache-dir",
                    cache_dir,
                    "--clients",
                    "2",
                    "--requests",
                    "20",
                ]
            )
            == 0
        )
        assert "verdict:    OK" in capsys.readouterr().out

    def test_serve_writes_metrics_dump(self, tmp_path, capsys):
        import json

        dump = tmp_path / "serve_metrics.json"
        assert (
            main(
                [
                    "serve",
                    "--generator",
                    "sparse:40",
                    "--clients",
                    "2",
                    "--requests",
                    "20",
                    "--metrics-out",
                    str(dump),
                ]
            )
            == 0
        )
        names = {m["name"] for m in json.loads(dump.read_text())["metrics"]}
        assert "serve.requests" in names
        assert "serve.batches" in names


class TestLoadgenCommand:
    def test_loadgen_throughput_mode(self, capsys):
        assert (
            main(
                [
                    "loadgen",
                    "--generator",
                    "sparse:60",
                    "--clients",
                    "2",
                    "--requests",
                    "100",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "throughput:" in out
        assert "verdict:    OK" in out

    def test_loadgen_validate_grades(self, capsys):
        assert (
            main(
                [
                    "loadgen",
                    "--generator",
                    "sparse:40",
                    "--clients",
                    "2",
                    "--requests",
                    "50",
                    "--validate",
                ]
            )
            == 0
        )
        assert "wrong:      0" in capsys.readouterr().out


class TestZooGeneratorKinds:
    @pytest.mark.parametrize("kind", ["ba", "powerlaw", "smallworld", "road"])
    def test_label_accepts_zoo_kind(self, kind, capsys):
        assert (
            main(
                ["label", "--generator", f"{kind}:40", "--verify"]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "valid 2-hop cover: True" in out

    def test_unknown_kind_still_rejected(self):
        with pytest.raises(SystemExit):
            main(["label", "--generator", "smallwrld:40"])


class TestLoadgenDistributions:
    @pytest.mark.parametrize("distribution", ["zipf", "hotspot"])
    def test_skewed_loadgen_grades_clean(self, distribution, capsys):
        assert (
            main(
                [
                    "loadgen",
                    "--generator",
                    "sparse:50",
                    "--clients",
                    "2",
                    "--requests",
                    "40",
                    "--distribution",
                    distribution,
                    "--validate",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "wrong:      0" in out
        assert "verdict:    OK" in out

    def test_hotspot_flags_accepted_by_serve(self, capsys):
        assert (
            main(
                [
                    "serve",
                    "--generator",
                    "smallworld:40",
                    "--clients",
                    "2",
                    "--requests",
                    "30",
                    "--distribution",
                    "hotspot",
                    "--hot-pairs",
                    "4",
                    "--hot-fraction",
                    "0.8",
                ]
            )
            == 0
        )
        assert "verdict:    OK" in capsys.readouterr().out

    def test_unknown_distribution_rejected(self):
        with pytest.raises(SystemExit):
            main(
                [
                    "loadgen",
                    "--generator",
                    "sparse:30",
                    "--distribution",
                    "pareto",
                ]
            )


class TestBenchZooSuite:
    def test_zoo_suite_merges_without_clobbering_core(self, tmp_path,
                                                      capsys):
        import json

        out = tmp_path / "BENCH_perf.json"
        # Seed the file with a fake committed core entry...
        core_row = {
            "metric": "speedup",
            "value": 2.8,
            "unit": "x",
            "instance": "G(2,1)",
            "seed": 7,
        }
        out.write_text(json.dumps({"batch_speedup": core_row}))
        assert (
            main(
                [
                    "bench",
                    "--quick",
                    "--suite",
                    "graph_zoo",
                    "--sources",
                    "2",
                    "--repeats",
                    "1",
                    "--out",
                    str(out),
                ]
            )
            == 0
        )
        text = capsys.readouterr().out
        assert "graph_zoo.road.consistency" in text
        results = json.loads(out.read_text())
        # ...the zoo merge keeps it byte-identical.
        assert results["batch_speedup"] == core_row
        zoo = [k for k in results if k.startswith("graph_zoo.")]
        assert len(zoo) >= 4 * 4  # >= 4 suites for >= 4 families
        for name in zoo:
            assert {"metric", "value", "unit", "instance", "seed",
                    "family", "n"} <= set(results[name])
        for family in ("ba", "powerlaw", "smallworld", "road"):
            assert results[f"graph_zoo.{family}.consistency"]["value"] == 0
