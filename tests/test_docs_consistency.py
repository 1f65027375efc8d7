"""Documentation consistency: the docs track the code.

These meta-tests keep DESIGN.md's experiment index, the benchmark
files, and the generated API reference from drifting apart.
"""

import pathlib
import re
import subprocess
import sys

ROOT = pathlib.Path(__file__).parent.parent


class TestExperimentIndex:
    def test_every_bench_target_exists(self):
        design = (ROOT / "DESIGN.md").read_text()
        targets = set(re.findall(r"benchmarks/(test_bench_\w+\.py)", design))
        assert targets, "no bench targets found in DESIGN.md"
        for target in targets:
            assert (ROOT / "benchmarks" / target).exists(), target

    def test_every_bench_file_documented(self):
        readme = (ROOT / "benchmarks" / "README.md").read_text()
        for path in (ROOT / "benchmarks").glob("test_bench_*.py"):
            assert path.name in readme, f"{path.name} missing from benchmarks/README.md"

    def test_experiments_md_references_real_results(self):
        text = (ROOT / "EXPERIMENTS.md").read_text()
        for ref in re.findall(r"benchmarks/results/(\S+\.txt)", text):
            # Result files are produced by the harness; the name must at
            # least correspond to a record_table call in some bench.
            stem = ref[: -len(".txt")]
            found = any(
                stem in path.read_text()
                for path in (ROOT / "benchmarks").glob("test_bench_*.py")
            )
            assert found, f"{ref} not generated by any benchmark"


class TestApiReference:
    def test_api_doc_is_current(self, tmp_path):
        """Regenerating the API reference must reproduce docs/API.md."""
        committed = (ROOT / "docs" / "API.md").read_text()
        result = subprocess.run(
            [sys.executable, str(ROOT / "tools" / "gen_api_reference.py")],
            capture_output=True,
            text=True,
            cwd=ROOT,
        )
        assert result.returncode == 0, result.stderr
        regenerated = (ROOT / "docs" / "API.md").read_text()
        assert regenerated == committed or committed in regenerated
        # (gen writes in place; equality means it was already current.)

    def test_api_doc_covers_all_packages(self):
        text = (ROOT / "docs" / "API.md").read_text()
        for package in (
            "repro.graphs",
            "repro.core",
            "repro.lowerbound",
            "repro.sumindex",
            "repro.rs",
            "repro.labeling",
            "repro.oracles",
            "repro.reachability",
            "repro.experiments",
            "repro.obs",
            "repro.serve",
        ):
            assert f"`{package}" in text, package


class TestObservabilityDoc:
    def test_every_catalogued_metric_documented(self):
        from repro.obs.catalog import catalog_names

        text = (ROOT / "docs" / "observability.md").read_text()
        for name in catalog_names():
            assert f"`{name}`" in text, f"{name} missing from observability.md"

    def test_readme_and_design_link_the_doc(self):
        assert "docs/observability.md" in (ROOT / "README.md").read_text()
        assert "docs/observability.md" in (ROOT / "DESIGN.md").read_text()


class TestServingDoc:
    def test_serving_doc_exists_and_is_linked(self):
        doc = ROOT / "docs" / "serving.md"
        assert doc.exists()
        assert "docs/serving.md" in (ROOT / "README.md").read_text()
        assert "docs/serving.md" in (ROOT / "DESIGN.md").read_text()

    def test_serving_doc_covers_the_surface(self):
        text = (ROOT / "docs" / "serving.md").read_text()
        for needle in (
            "QueryServer",
            "BatchTicket",
            "labeling_digest",
            "ServerOverloadError",
            "repro serve",
            "repro loadgen",
            "serving_throughput",
        ):
            assert needle in text, f"{needle} missing from docs/serving.md"


class TestReadme:
    def test_examples_listed_and_present(self):
        readme = (ROOT / "README.md").read_text()
        examples = list((ROOT / "examples").glob("*.py"))
        assert len(examples) >= 4
        for path in examples:
            assert path.name in readme, f"{path.name} missing from README"

    def test_install_commands_match_reality(self):
        readme = (ROOT / "README.md").read_text()
        assert "pip install -e ." in readme
        assert (ROOT / "setup.cfg").exists()
        assert (ROOT / "setup.py").exists()
