# Convenience targets.  The environment is offline: editable installs go
# through setup.cfg (legacy path), never an isolated PEP-517 build.

.PHONY: install test test-slow soak bench bench-full bench-tables build-bench serve-smoke shm-bench churn-bench perfbench-smoke experiments examples coverage chaos stats schema corpus-check zoo-bench clean

install:
	pip install -e .

test:
	pytest tests/

test-slow:
	pytest tests/ --run-slow

# Long-running mixed-load soak against a chaos-corrupted resilient
# oracle behind the query server; excluded from tier-1.  Trim the
# budget with REPRO_SOAK_SECONDS=5 for a quick pass.
REPRO_SOAK_SECONDS ?= 60
soak:
	REPRO_SOAK_SECONDS=$(REPRO_SOAK_SECONDS) pytest tests/test_soak.py --run-soak

bench:
	python -m repro bench --quick
	python tools/bench_gate.py --current BENCH_perf.json

bench-full:
	python -m repro bench

# Per-family graph-zoo sweep at the quick scale; merges into
# BENCH_perf.json next to the core suites and re-runs the gate.
zoo-bench:
	python -m repro bench --quick --suite graph_zoo
	python tools/bench_gate.py --current BENCH_perf.json

# Full-scale zoo sweep (what the committed BENCH_perf.json carries).
zoo-bench-full:
	python -m repro bench --suite graph_zoo
	python tools/bench_gate.py --current BENCH_perf.json

build-bench:
	python -m repro build --generator sparse:200 --cache-dir .labelcache
	python -m repro build --generator sparse:200 --cache-dir .labelcache | tee build-warm.log
	grep -q "cache: hit" build-warm.log
	rm -f build-warm.log

serve-smoke:
	python -m repro serve --generator sparse:200 --clients 8 --requests 100
	python -m repro loadgen --generator sparse:200 --clients 4 --requests 500 --validate

# Sharded serving over the zero-copy shared-memory store: a validated
# multi-process loadgen run, then the shm/sharded test files and a
# /dev/shm leak check (the grep must find nothing).
shm-bench:
	python -m repro loadgen --generator sparse:300 --processes 2 --batch 64 --validate
	pytest tests/test_shm.py tests/test_sharded.py
	@if ls /dev/shm 2>/dev/null | grep -q '^repro_labels_'; then \
		echo "leaked repro_labels_* segments in /dev/shm"; exit 1; \
	else echo "/dev/shm clean"; fi

bench-tables:
	pytest benchmarks/ --benchmark-only

experiments:
	python -m repro experiments

chaos:
	python -m repro chaos --generator sparse:40 --trials 50

coverage:
	pytest tests/ --cov=repro --cov-report=term-missing --cov-fail-under=75

stats:
	python -m repro stats --generator sparse:100 --pairs 10000

schema:
	python tools/check_metrics_schema.py

# The committed differential corpus must match its generators exactly.
corpus-check:
	python tools/gen_differential_corpus.py --check
	python tools/gen_mutation_corpus.py --check

# Dynamic-labeling churn: incremental repair graded against a full
# rebuild (offline and per-op; the ba:400 run turns both budgets off,
# so every edit repairs), then mutations hot-swapped into a sharded
# server under live load, then the dynamic test file.
churn-bench:
	python -m repro mutate --generator sparse:100 --ops 16 --verify-each
	python -m repro mutate --generator ba:400 --ops 200 --verify-each --allow-disconnect --rebuild-fraction 1.0 --staleness-budget 1e9
	python -m repro loadgen --generator sparse:200 --clients 4 --requests 400 --churn 16 --processes 2
	pytest tests/test_dynamic.py

# Repository-benchmark smoke: one short traced ba-churn run and one
# short hard-batch run on the paper's G(2,2).  Every answer is graded
# against BFS and the repaired labeling against a rebuild; exit 0 only
# if all of them agree.
perfbench-smoke:
	python3 perfbench/run.py --workload ba-churn --seed 1 --seconds 1 --trace 1
	python3 perfbench/run.py --workload hard-batch --seed 1 --seconds 1 --trace 0

examples:
	python examples/quickstart.py
	python examples/road_network.py
	python examples/sumindex_protocol.py
	python examples/hardness_explorer.py
	python examples/build_dependencies.py

artifacts:
	pytest tests/ 2>&1 | tee test_output.txt
	pytest benchmarks/ --benchmark-only 2>&1 | tee bench_output.txt

clean:
	rm -rf build dist src/*.egg-info .pytest_cache
	find . -name __pycache__ -type d -exec rm -rf {} +
