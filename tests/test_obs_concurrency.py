"""Thread-safety regression tests for the metrics registry.

``counter.value += 1`` is a read-modify-write the GIL does **not** make
atomic -- before the serving layer arrived every instrument was bumped
from one thread and nobody could tell.  These tests hammer each
instrument from many threads with a tiny switch interval (forcing the
interpreter to preempt mid-bump) and demand *exact* final counts: a
single lost update is a failure, not noise.
"""

import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.core import pruned_landmark_labeling
from repro.graphs import random_sparse_graph
from repro.obs.registry import Registry
from repro.oracles.oracle import HubLabelOracle
from repro.runtime import ServerOverloadError
from repro.serve import QueryServer

THREADS = 16
BUMPS = 2_000


@pytest.fixture(autouse=True)
def aggressive_preemption():
    """Force thread switches every ~10us so lost updates actually occur."""
    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    yield
    sys.setswitchinterval(previous)


def _hammer(worker, threads=THREADS):
    barrier = threading.Barrier(threads)

    def run(index):
        barrier.wait()  # maximal contention: everyone starts together
        worker(index)

    pool = [
        threading.Thread(target=run, args=(i,)) for i in range(threads)
    ]
    for thread in pool:
        thread.start()
    for thread in pool:
        thread.join()


class TestCounterConcurrency:
    def test_sixteen_threads_exact_count(self):
        counter = Registry().counter("test.hammer")
        _hammer(lambda i: [counter.inc() for _ in range(BUMPS)])
        assert counter.value == THREADS * BUMPS

    def test_amount_increments_exact(self):
        counter = Registry().counter("test.amounts")
        _hammer(lambda i: [counter.inc(3) for _ in range(BUMPS)])
        assert counter.value == THREADS * BUMPS * 3

    def test_mixed_amounts_exact(self):
        # Threads bump by different amounts; the striped cells must
        # account for every unit regardless of interleaving.
        counter = Registry().counter("test.mixed")
        _hammer(
            lambda i: [counter.inc(1 + i % 3) for _ in range(BUMPS)]
        )
        expected = BUMPS * sum(1 + i % 3 for i in range(THREADS))
        assert counter.value == expected

    def test_inline_cell_bumps_exact(self):
        # The hot-path contract: each thread caches its cell once and
        # bumps it inline; value sums every thread's cell exactly.
        counter = Registry().counter("test.cells")
        def worker(_):
            cell = counter.cell()
            for _ in range(BUMPS):
                cell[0] += 1
        _hammer(worker)
        assert counter.value == THREADS * BUMPS

    def test_value_readable_while_cells_register(self):
        # Concurrent first-touch cell registration grows the shard dict
        # while readers sum it; reads must never crash and the final
        # sum must be exact.
        counter = Registry().counter("test.grow")
        stop = threading.Event()
        observed = []
        def reader():
            while not stop.is_set():
                observed.append(counter.value)
        watcher = threading.Thread(target=reader)
        watcher.start()
        try:
            _hammer(lambda i: [counter.inc() for _ in range(BUMPS)])
        finally:
            stop.set()
            watcher.join()
        assert counter.value == THREADS * BUMPS
        assert all(
            0 <= count <= THREADS * BUMPS for count in observed
        )


class TestGaugeConcurrency:
    def test_inc_dec_balance_to_zero(self):
        gauge = Registry().gauge("test.balance")
        def worker(_):
            for _ in range(BUMPS):
                gauge.inc()
                gauge.dec()
        _hammer(worker)
        assert gauge.value == 0

    def test_asymmetric_amounts(self):
        gauge = Registry().gauge("test.asym")
        def worker(_):
            for _ in range(BUMPS):
                gauge.inc(5)
                gauge.dec(2)
        _hammer(worker)
        assert gauge.value == THREADS * BUMPS * 3


class TestHistogramConcurrency:
    def test_count_sum_and_buckets_stay_consistent(self):
        histogram = Registry().histogram(
            "test.hist", buckets=(1.0, 2.0, 4.0)
        )
        spread = (0.5, 1.5, 2.5, 4.5)  # one value per bucket incl +inf
        def worker(index):
            value = spread[index % 4]
            for _ in range(BUMPS):
                histogram.observe(value)
        _hammer(worker)
        total = THREADS * BUMPS
        assert histogram.count == total
        assert sum(histogram.counts) == total
        # 16 threads cycle the four values evenly: 4 threads per bucket.
        assert histogram.counts == [
            total // 4, total // 4, total // 4, total // 4
        ]
        assert histogram.sum == pytest.approx(BUMPS * 4 * sum(spread))
        assert histogram.min == 0.5 and histogram.max == 4.5


class TestRegistryConcurrency:
    def test_interning_race_yields_one_instrument(self):
        registry = Registry()
        with ThreadPoolExecutor(max_workers=THREADS) as pool:
            counters = list(
                pool.map(
                    lambda _: registry.counter("test.interned"),
                    range(THREADS * 4),
                )
            )
        first = counters[0]
        assert all(counter is first for counter in counters)
        assert len(registry) == 1

    def test_trace_log_loses_nothing(self):
        registry = Registry()
        per_thread = 100
        _hammer(
            lambda i: [
                registry.record_trace(f"t{i}", 0, 0.0)
                for _ in range(per_thread)
            ]
        )
        assert len(registry.traces()) == THREADS * per_thread


class TestInstrumentedOracleConcurrency:
    def test_oracle_query_counter_is_exact_across_threads(
        self, metrics_registry
    ):
        graph = random_sparse_graph(40, seed=9)
        oracle = HubLabelOracle(pruned_landmark_labeling(graph))
        per_thread = 500
        def worker(index):
            for k in range(per_thread):
                oracle.query((index + k) % 40, (index * 7 + k) % 40)
        _hammer(worker, threads=8)
        queries = metrics_registry.get("oracle.queries", backend="dict")
        assert queries.value == 8 * per_thread


class _GatedOracle:
    """Stalls every query behind an event so admission queues stay full."""

    def __init__(self):
        self.release = threading.Event()

    def query(self, u, v):
        self.release.wait()
        return float(u + v)

    def batch_query(self, pairs):
        self.release.wait()
        return [float(u + v) for u, v in pairs]


class TestShardedAdmissionConcurrency:
    def test_sixteen_threads_exact_admission_accounting(
        self, metrics_registry
    ):
        # 16 threads flood a tiny sharded admission queue while the
        # dispatchers are stalled behind a gate.  No retries: every
        # submit either lands (tallied locally as accepted pairs) or
        # raises ServerOverloadError (tallied as one rejection).  The
        # server's books must agree with the threads' books *exactly* --
        # a single double-count or lost bump under preemption fails.
        oracle = _GatedOracle()
        server = QueryServer(
            oracle,
            max_queue=48,
            cache_size=0,
            shards=4,
            dispatchers=2,
        )
        server.start()
        rounds = 60
        accepted = [0] * THREADS
        rejected = [0] * THREADS
        handles = [[] for _ in range(THREADS)]

        def worker(index):
            for k in range(rounds):
                base = (index * rounds + k) * 8
                try:
                    if k % 2:
                        ticket = server.submit_batch(
                            [base, base + 1, base + 2],
                            [base + 3, base + 4, base + 5],
                        )
                        handles[index].append(
                            (ticket, [base + base + 3 + 2 * j for j in range(3)])
                        )
                        accepted[index] += 3
                    else:
                        future = server.submit(base, base + 1)
                        handles[index].append((future, base + base + 1))
                        accepted[index] += 1
                except ServerOverloadError:
                    rejected[index] += 1

        try:
            _hammer(worker)
        finally:
            oracle.release.set()
            server.stop(drain=True)

        total_accepted = sum(accepted)
        total_rejected = sum(rejected)
        # The gate keeps the dispatchers stuck, so the flood must both
        # land some work and overflow the 48-slot queue.
        assert total_accepted > 0
        assert total_rejected > 0

        stats = server.stats()
        assert stats.requests == total_accepted
        assert stats.overloads == total_rejected
        assert stats.responses == total_accepted
        assert stats.errors == 0

        requests = metrics_registry.get("serve.requests")
        overloads = metrics_registry.get("serve.overloads")
        assert requests.value == total_accepted
        assert overloads.value == total_rejected

        # drain=True promised an answer for everything admitted.
        for per_thread in handles:
            for handle, want in per_thread:
                if isinstance(want, list):
                    assert handle.result(timeout=5) == [
                        float(value) for value in want
                    ]
                else:
                    assert handle.result(timeout=5) == float(want)
