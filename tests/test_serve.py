"""The serving layer: QueryServer.

The concurrency contract under test is the one the whole repo is built
around: the server adds threads, queues and batching -- and changes
**nothing** about the answers.  Every distance that comes back
through a future must be byte-identical (value and type, ``inf``
included) to what the dict-backend oracle says serially.
"""

import math
import sys
import threading
import time
import weakref
from concurrent.futures import (
    FIRST_COMPLETED,
    CancelledError,
    Future,
    as_completed,
    wait,
)
from concurrent.futures import TimeoutError as FutureTimeoutError

import pytest

from repro.core import pruned_landmark_labeling
from repro.graphs import Graph, random_sparse_graph
from repro.obs.catalog import (
    SERVE_BATCHES,
    SERVE_OVERLOADS,
    SERVE_QUEUE_DEPTH,
    SERVE_REQUESTS,
    SERVE_SHARD_DEPTH,
)
from repro.obs.registry import NullRegistry, use_registry
from repro.oracles.oracle import HubLabelOracle
from repro.perf.flat import FlatHubLabeling
from repro.runtime import DomainError, ResilientOracle, ServerOverloadError
from repro.serve import QueryServer, labeling_digest, run_loadgen


@pytest.fixture
def served_graph():
    return random_sparse_graph(60, seed=5)


@pytest.fixture
def served_labeling(served_graph):
    return pruned_landmark_labeling(served_graph)


@pytest.fixture
def flat_oracle(served_labeling):
    flat = FlatHubLabeling.from_labeling(served_labeling)
    return HubLabelOracle(flat, backend="flat")


@pytest.fixture
def ground(served_labeling):
    oracle = HubLabelOracle(served_labeling, backend="dict")
    return lambda u, v: oracle.query(u, v).distance


class _StallOracle:
    """Blocks every query until released -- fills queues on demand.

    ``entered`` is set once a dispatcher is inside the oracle, so a test
    can stage "one call in flight, the rest queued" without sleeping.
    """

    def __init__(self):
        self.release = threading.Event()
        self.entered = threading.Event()
        self.served = []

    def query(self, u, v):
        self.entered.set()
        self.release.wait()
        self.served.append((u, v))
        return float(u + v)

    def batch_query(self, pairs):
        self.entered.set()
        self.release.wait()
        self.served.extend(pairs)
        return [float(u + v) for u, v in pairs]


class _GatedOracle:
    """A labeled oracle whose batch calls wait for ``release``.

    It keeps the inner oracle's packed keys and array hand-off, so the
    dispatcher's numpy merge path is the one under test.
    """

    def __init__(self, inner):
        self.inner = inner
        self.release = threading.Event()
        self.entered = threading.Event()
        self.calls = []

    @property
    def labeling(self):
        return self.inner.labeling

    @property
    def accepts_pair_arrays(self):
        return self.inner.accepts_pair_arrays

    def query(self, u, v):
        return self.inner.query(u, v)

    def batch_query(self, pairs):
        self.entered.set()
        self.release.wait()
        rows = pairs.tolist() if hasattr(pairs, "tolist") else pairs
        self.calls.append([tuple(row) for row in rows])
        return self.inner.batch_query(pairs)


class TestLabelingDigest:
    def test_dict_and_flat_layouts_share_digest(self, served_labeling):
        flat = FlatHubLabeling.from_labeling(served_labeling)
        assert labeling_digest(served_labeling) == labeling_digest(flat)

    def test_every_view_of_one_labeling_shares_digest(
        self, served_labeling, tmp_path
    ):
        # The digest hashes one CSR triple of every entry, so a dict
        # store, its flat freeze, an mmap view and a shm view agree.
        from repro.core.io import flat_labeling_to_bytes
        from repro.perf.shm import MappedLabelStore, SharedLabelStore

        flat = FlatHubLabeling.from_labeling(served_labeling)
        path = tmp_path / "labels.rhl"
        path.write_bytes(flat_labeling_to_bytes(flat))
        with MappedLabelStore(path) as mapped, SharedLabelStore.create(
            flat
        ) as shared:
            digests = {
                labeling_digest(store)
                for store in (served_labeling, flat, mapped.flat, shared.flat)
            }
            assert len(digests) == 1

    def test_split_store_views_share_the_dict_digest(self, tmp_path):
        # With a dense part: the dict store, its freeze, the version-5
        # views and a store holding the same entries with no dense part
        # agree.
        from repro.core.io import flat_labeling_to_bytes
        from repro.perf import kernels
        from repro.perf.shm import MappedLabelStore, SharedLabelStore

        labeling = pruned_landmark_labeling(random_sparse_graph(60, seed=3))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(kernels, "_MIN_DENSE", 1)
            flat = FlatHubLabeling.from_labeling(labeling)
        assert flat.dense_width > 0
        csr_only = FlatHubLabeling.from_labeling(labeling)
        assert csr_only.dense_width == 0
        path = tmp_path / "labels.rhl"
        path.write_bytes(flat_labeling_to_bytes(flat))
        with MappedLabelStore(path) as mapped, SharedLabelStore.create(
            flat
        ) as shared:
            assert mapped.flat.dense_width == shared.flat.dense_width > 0
            digests = {
                labeling_digest(store)
                for store in (labeling, flat, csr_only, mapped.flat, shared.flat)
            }
            assert len(digests) == 1

    def test_different_labelings_differ(self, served_labeling):
        other = pruned_landmark_labeling(random_sparse_graph(60, seed=6))
        assert labeling_digest(served_labeling) != labeling_digest(other)


class TestQueryServer:
    def test_answers_match_ground_truth(self, flat_oracle, ground):
        n = 60
        pairs = [(u, v) for u in range(0, n, 3) for v in range(0, n, 4)]
        with QueryServer(flat_oracle) as server:
            got = server.batch(pairs)
        for (u, v), answer in zip(pairs, got):
            want = ground(u, v)
            assert type(answer) is type(want), (u, v, answer, want)
            if isinstance(want, float) and math.isinf(want):
                assert math.isinf(answer)
            else:
                assert answer == want

    def test_submit_requires_running_server(self, flat_oracle):
        server = QueryServer(flat_oracle)
        with pytest.raises(RuntimeError):
            server.submit(0, 1)
        server.start()
        assert server.query(0, 1) == server.query(0, 1)
        server.stop()
        with pytest.raises(RuntimeError):
            server.submit(0, 1)

    def test_stop_drains_pending_requests(self):
        # The dispatcher is held inside the oracle while 25 requests
        # queue, and stop() starts before it is let go: only the drain
        # in stop() can answer them.
        stalled = _StallOracle()
        server = QueryServer(stalled)
        server.start()
        first = server.submit(1, 2)
        assert stalled.entered.wait(5)
        futures = [server.submit(0, v) for v in range(25)]
        stopper = threading.Thread(target=server.stop)
        stopper.start()
        while server.running:
            time.sleep(0.001)
        assert not any(f.done() for f in futures)
        stalled.release.set()
        stopper.join(timeout=5)
        assert not stopper.is_alive()
        assert first.result(timeout=0) == 3.0
        assert all(f.done() for f in futures)
        assert [f.exception() for f in futures] == [None] * 25
        assert [f.result() for f in futures] == [float(v) for v in range(25)]

    def test_stop_without_drain_cancels(self):
        stalled = _StallOracle()
        server = QueryServer(stalled)
        server.start()
        # The dispatcher blocks inside the first query; the rest queue.
        first = server.submit(1, 2)
        assert stalled.entered.wait(5)
        backlog = [server.submit(3, v) for v in range(5)]
        stopper = threading.Thread(
            target=server.stop, kwargs={"drain": False}
        )
        stopper.start()
        time.sleep(0.05)
        stalled.release.set()
        stopper.join(timeout=5)
        assert not stopper.is_alive()
        assert first.result(timeout=1) == 3.0
        for future in backlog:
            assert future.cancelled() or future.done()

    def test_overload_raises_typed_error(self, metrics_registry):
        stalled = _StallOracle()
        server = QueryServer(stalled, max_queue=2)
        server.start()
        try:
            overloaded = None
            futures = []
            for k in range(16):
                try:
                    futures.append(server.submit(k, k + 1))
                except ServerOverloadError as exc:
                    overloaded = exc
                    break
            assert overloaded is not None, "queue of 2 never overflowed"
            assert overloaded.exit_code == 70
            assert "capacity 2" in str(overloaded)
            counter = metrics_registry.get(SERVE_OVERLOADS)
            assert counter is not None and counter.value == 1
            assert server.stats().overloads == 1
        finally:
            stalled.release.set()
            server.stop()
        for future in futures:
            assert future.exception(timeout=1) is None

    def test_cache_disabled_with_zero_capacity(self, flat_oracle):
        with QueryServer(flat_oracle, cache_size=0) as server:
            server.query(1, 2)
            server.query(1, 2)
            assert server.stats().cache_hits == 0

    def test_duplicate_pairs_coalesce_to_one_backend_query(self):
        stalled = _StallOracle()
        server = QueryServer(stalled, cache_size=0)
        server.start()
        server.submit(0, 1)  # holds the dispatcher while the rest queue
        assert stalled.entered.wait(5)
        futures = [server.submit(4, 5) for _ in range(8)]
        stalled.release.set()
        server.stop()
        assert [f.result() for f in futures] == [9.0] * 8
        assert stalled.served.count((4, 5)) == 1

    def test_scalar_only_oracle_is_served(self, served_labeling, ground):
        class ScalarOnly:
            def __init__(self, labeling):
                self._labeling = labeling

            def query(self, u, v):
                return self._labeling.query(u, v)

        with QueryServer(ScalarOnly(served_labeling)) as server:
            assert server.query(0, 7) == ground(0, 7)

    def test_per_pair_error_isolation(self, flat_oracle, ground):
        # One out-of-domain pair is drained in the same group as six
        # good ones.  Its key is a tuple, never merged with the packed
        # keys, so it is asked on its own: its group-mates still get
        # answers, and only it carries the error.
        gated = _GatedOracle(flat_oracle)
        server = QueryServer(gated)
        server.start()
        try:
            server.submit(7, 8)
            assert gated.entered.wait(5)
            good = [server.submit(v, v + 1) for v in range(6)]
            bad = server.submit(0, 10_000)
        finally:
            gated.release.set()
            server.stop()
        assert server.stats().batches == 2
        for v, future in enumerate(good):
            assert future.result(timeout=1) == ground(v, v + 1)
        with pytest.raises(DomainError):
            bad.result(timeout=1)

    def test_set_oracle_frees_old_oracle_outside_lock(self, served_labeling):
        # Freeing a large store takes milliseconds; dispatchers waiting
        # on the oracle lock must not pay for it.
        server = QueryServer(HubLabelOracle(served_labeling, backend="flat"))
        lock_free_at_release = []

        def probe():
            acquired = server._oracle_lock.acquire(blocking=False)
            if acquired:
                server._oracle_lock.release()
            lock_free_at_release.append(acquired)

        weakref.finalize(server.oracle, probe)
        server.set_oracle(HubLabelOracle(served_labeling, backend="dict"))
        assert lock_free_at_release == [True]

    def test_resilient_oracle_swap_changes_generation(
        self, served_graph, served_labeling, flat_oracle, ground
    ):
        # Same labels behind a different wrapper class: the swap still
        # bumps the generation, and the new oracle answers.
        resilient = ResilientOracle(served_graph, served_labeling)
        with QueryServer(flat_oracle) as server:
            before = server.generation_seq
            assert server.set_oracle(resilient) is None
            assert server.generation_seq == before + 1
            assert server.oracle is resilient
            assert server.query(0, 7) == ground(0, 7)

    def test_request_counters_add_up(self, flat_oracle, metrics_registry):
        with QueryServer(flat_oracle) as server:
            pairs = [(u, u + 1) for u in range(10)]
            for _ in range(3):  # repeats are asked again, never cached
                server.batch(pairs)
        stats = server.stats()
        requests = metrics_registry.get(SERVE_REQUESTS).value
        batches = metrics_registry.get(SERVE_BATCHES).value
        assert requests == stats.requests == stats.responses == 30
        assert stats.cache_hits == 0
        assert batches == stats.batches >= 3

    def test_context_manager_restarts(self, flat_oracle):
        server = QueryServer(flat_oracle)
        with server:
            a = server.query(0, 1)
        with server:
            assert server.query(0, 1) == a

    def test_repr_mentions_state(self, flat_oracle):
        server = QueryServer(flat_oracle)
        assert "stopped" in repr(server)
        with server:
            assert "running" in repr(server)

    def test_invalid_queue_bound_rejected(self, flat_oracle):
        with pytest.raises(ValueError):
            QueryServer(flat_oracle, max_queue=0)

    def test_distinct_submits_behind_a_stall_share_one_call(
        self, flat_oracle, ground
    ):
        gated = _GatedOracle(flat_oracle)
        pairs = [(u, (3 * u + 1) % 60) for u in range(40)]
        server = QueryServer(gated, cache_size=0)
        server.start()
        try:
            first = server.submit(7, 8)
            assert gated.entered.wait(5)
            futures = [server.submit(u, v) for u, v in pairs]
        finally:
            gated.release.set()
            server.stop()
        assert first.result(timeout=5) == ground(7, 8)
        for (u, v), future in zip(pairs, futures):
            answer = future.result(timeout=5)
            assert answer == ground(u, v)
            assert type(answer) is type(ground(u, v))
        # The stalled call, then every queued submit in one merged call.
        assert len(gated.calls) == 2
        assert sorted(gated.calls[1]) == sorted(pairs)

    def test_mixed_dispatch_fails_only_the_bad_future(
        self, flat_oracle, ground
    ):
        gated = _GatedOracle(flat_oracle)
        server = QueryServer(gated, cache_size=0)
        server.start()
        try:
            server.submit(7, 8)
            assert gated.entered.wait(5)
            good = [server.submit(v, v + 2) for v in range(5)]
            bad = server.submit(0, 10_000)
            ticket = server.submit_batch([1, 2, 3], [10, 20, 30])
        finally:
            gated.release.set()
            server.stop()
        for v, future in enumerate(good):
            assert future.result(timeout=5) == ground(v, v + 2)
        with pytest.raises(DomainError):
            bad.result(timeout=5)
        assert ticket.result(timeout=5) == [
            ground(1, 10), ground(2, 20), ground(3, 30)
        ]
        stats = server.stats()
        assert stats.errors == 1
        assert stats.requests == stats.responses + stats.errors == 10

    def test_failed_merged_call_is_retried_ticket_by_ticket(self):
        class _Picky(_StallOracle):
            """Rejects one pair, in batch and scalar calls alike."""

            def query(self, u, v):
                if (u, v) == (9, 9):
                    raise ValueError("bad pair")
                return super().query(u, v)

            def batch_query(self, pairs):
                if (9, 9) in pairs:
                    raise ValueError("bad pair")
                return super().batch_query(pairs)

        picky = _Picky()
        server = QueryServer(picky, cache_size=0)
        server.start()
        try:
            server.submit(0, 1)
            assert picky.entered.wait(5)
            good = [server.submit(v, 1) for v in range(4)]
            bad = server.submit(9, 9)
            ticket = server.submit_batch([2, 3], [5, 5])
        finally:
            picky.release.set()
            server.stop()
        assert [f.result(timeout=5) for f in good] == [1.0, 2.0, 3.0, 4.0]
        with pytest.raises(ValueError):
            bad.result(timeout=5)
        assert ticket.result(timeout=5) == [7.0, 8.0]

    def test_swap_to_a_new_vertex_count_never_aliases_keys(
        self, flat_oracle
    ):
        # Requests queued under n = 60 are served after a swap to an
        # n = 30 oracle: their packed keys (60u + v) must neither merge
        # nor cache under the new key space, where 60u + v means the
        # pair (2u, v).
        small = pruned_landmark_labeling(random_sparse_graph(30, seed=7))
        truth = HubLabelOracle(small, backend="dict")
        gated = _GatedOracle(flat_oracle)
        held, gate = threading.Event(), threading.Event()

        def hold(_):
            held.set()
            gate.wait(5)

        pairs = [(u, (7 * u) % 30) for u in range(1, 15)]
        server = QueryServer(gated)
        server.start()
        try:
            first = server.submit(0, 1)
            assert gated.entered.wait(5)
            first.add_done_callback(hold)  # parks the dispatcher unlocked
            gated.release.set()
            assert held.wait(5)
            futures = [server.submit(u, v) for u, v in pairs]
            server.set_oracle(truth)
        finally:
            gate.set()
        try:
            for (u, v), future in zip(pairs, futures):
                assert future.result(timeout=5) == truth.query(u, v).distance
            for u, v in pairs:
                want = truth.query(2 * u, v).distance
                assert server.query(2 * u, v, timeout=5) == want, (u, v)
        finally:
            server.stop()

    def test_books_balance_after_cancelling_stop(self):
        stalled = _StallOracle()
        server = QueryServer(stalled, cache_size=0)
        server.start()
        first = server.submit(1, 2)
        assert stalled.entered.wait(5)
        backlog = [server.submit(3, v) for v in range(10)]
        ticket = server.submit_batch([4, 5, 6], [7, 8, 9])
        stopper = threading.Thread(
            target=server.stop, kwargs={"drain": False}
        )
        stopper.start()
        time.sleep(0.05)
        stalled.release.set()
        stopper.join(timeout=5)
        assert not stopper.is_alive()
        assert first.result(timeout=1) == 3.0
        assert all(future.cancelled() for future in backlog)
        from concurrent.futures import CancelledError

        with pytest.raises(CancelledError):
            ticket.result(timeout=0)
        stats = server.stats()
        assert stats.cancelled == 13
        assert stats.requests == 14
        assert stats.requests == (
            stats.responses + stats.errors + stats.cancelled
        )


class TestNoResultCache:
    """Every pair is answered by the oracle.  ``cache_size`` survives
    only as a keyword that accepts 0, for the benchmark scripts that
    still pass it, and ``ServerStats.cache_hits`` always reads 0."""

    def test_the_benchmark_signatures_serve(self, flat_oracle, ground):
        for server in (
            QueryServer(flat_oracle),
            QueryServer(flat_oracle, cache_size=0, max_queue=64),
        ):
            with server:
                assert server.query(0, 7) == ground(0, 7)
                assert server.submit_batch([1, 2], [3, 4]).result(
                    timeout=5
                ) == [ground(1, 3), ground(2, 4)]
            stats = server.stats()
            assert stats.requests == stats.responses == 3
            assert stats.cache_hits == 0

    @pytest.mark.parametrize("cache_size", [1, 4096])
    def test_a_nonzero_cache_size_is_refused(self, flat_oracle, cache_size):
        with pytest.raises(ValueError, match="result cache was removed"):
            QueryServer(flat_oracle, cache_size=cache_size)

    def test_a_repeated_pair_reaches_the_oracle_each_time(
        self, served_labeling, ground
    ):
        class _Spy:
            def __init__(self, inner):
                self.inner = inner
                self.asked = []

            @property
            def labeling(self):
                return self.inner.labeling

            def query(self, u, v):
                self.asked.append((u, v))
                return self.inner.query(u, v)

            def batch_query(self, pairs):
                self.asked.extend(tuple(pair) for pair in pairs)
                return self.inner.batch_query(pairs)

        spy = _Spy(HubLabelOracle(served_labeling, backend="dict"))
        with QueryServer(spy) as server:
            for _ in range(5):
                assert server.query(1, 2, timeout=5) == ground(1, 2)
            for _ in range(3):
                # Deduplicated within the ticket, never across tickets.
                assert server.submit_batch([1, 1], [2, 2]).result(
                    timeout=5
                ) == [ground(1, 2)] * 2
        assert spy.asked == [(1, 2)] * 8
        stats = server.stats()
        assert stats.requests == stats.responses == 11
        assert stats.batches == 8 and stats.cache_hits == 0


class TestThreadedSweep:
    """N worker threads, every answer graded against serial truth."""

    @pytest.mark.parametrize("threads", [8, 16])
    def test_concurrent_clients_get_exact_answers(
        self, served_graph, flat_oracle, ground, threads
    ):
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # provoke interleavings
        try:
            with QueryServer(flat_oracle) as server:
                report = run_loadgen(
                    server,
                    served_graph.num_vertices,
                    clients=threads,
                    requests_per_client=150,
                    seed=23,
                    expected=ground,
                )
        finally:
            sys.setswitchinterval(switch)
        assert report.ok, report.render()
        assert report.requests == threads * 150

    def test_resilient_oracle_behind_server(
        self, served_graph, served_labeling, ground
    ):
        oracle = ResilientOracle(
            served_graph, served_labeling, fallback=True, verify_sample=8
        )
        with QueryServer(oracle) as server:
            report = run_loadgen(
                server,
                served_graph.num_vertices,
                clients=6,
                requests_per_client=100,
                seed=31,
                expected=ground,
            )
        assert report.ok, report.render()
        assert oracle.health.healthy


class TestLoadReport:
    def test_render_mentions_verdict(self):
        from repro.serve import LoadReport

        report = LoadReport(clients=2, requests=10, duration_s=1.0)
        text = report.render()
        assert "OK" in text and "10 req/s" in text
        report.wrong = 1
        assert "FAILED" in report.render()

    def test_loadgen_validates_num_vertices(self, flat_oracle):
        with QueryServer(flat_oracle) as server:
            with pytest.raises(ValueError):
                run_loadgen(server, 0)


class TestSubmitBatch:
    """The batch-native door must answer exactly like per-pair submit."""

    def test_results_match_per_pair_submit(self, flat_oracle, ground):
        n = 60
        pairs = [(u, v) for u in range(0, n, 3) for v in range(0, n, 4)]
        us = [u for u, _ in pairs]
        vs = [v for _, v in pairs]
        with QueryServer(flat_oracle) as server:
            scalar = server.batch(pairs)
            batched = server.submit_batch(us, vs).result(timeout=30)
        assert len(batched) == len(pairs)
        for (u, v), one, many in zip(pairs, scalar, batched):
            assert type(one) is type(many), (u, v, one, many)
            assert one == many or (
                isinstance(one, float)
                and math.isinf(one)
                and math.isinf(many)
            ), (u, v, one, many)
            want = ground(u, v)
            assert type(many) is type(want)

    def test_numpy_arrays_accepted(self, flat_oracle, ground):
        np = pytest.importorskip("numpy")
        us = np.arange(0, 40, 2, dtype=np.int64)
        vs = np.arange(1, 41, 2, dtype=np.int64)
        with QueryServer(flat_oracle, cache_size=0) as server:
            got = server.submit_batch(us, vs).result(timeout=30)
        for u, v, answer in zip(us.tolist(), vs.tolist(), got):
            want = ground(u, v)
            assert answer == want and type(answer) is type(want)

    def test_infinite_distances_survive_scatter(self, flat_oracle):
        # Two islands: every cross pair is unreachable (inf, a float).
        graph = Graph(4)
        graph.add_edge(0, 1)
        graph.add_edge(2, 3)
        labeling = pruned_landmark_labeling(graph)
        flat = HubLabelOracle(
            FlatHubLabeling.from_labeling(labeling), backend="flat"
        )
        with QueryServer(flat, cache_size=0) as server:
            got = server.submit_batch([0, 0, 2], [1, 2, 3]).result(timeout=30)
        assert got[0] == 1 and got[2] == 1
        assert isinstance(got[1], float) and math.isinf(got[1])

    def test_duplicates_collapse_to_one_backend_pair(self, served_labeling):
        class _Recorder:
            def __init__(self, inner):
                self.inner = inner
                self.pairs = []

            @property
            def labeling(self):
                return self.inner.labeling

            def batch_query(self, pairs):
                self.pairs.extend(pairs)
                return self.inner.batch_query(pairs)

        recorder = _Recorder(HubLabelOracle(served_labeling, backend="dict"))
        with QueryServer(recorder, cache_size=0) as server:
            got = server.submit_batch(
                [4, 4, 7, 4], [5, 5, 9, 5]
            ).result(timeout=30)
        assert recorder.pairs.count((4, 5)) == 1
        assert got[0] == got[1] == got[3]

    def test_empty_batch_resolves_immediately(self, flat_oracle):
        with QueryServer(flat_oracle) as server:
            ticket = server.submit_batch([], [])
            assert ticket.done()
            assert ticket.result(timeout=0) == []
            assert ticket.width == 0

    def test_mismatched_lengths_rejected(self, flat_oracle):
        with QueryServer(flat_oracle) as server:
            with pytest.raises(ValueError):
                server.submit_batch([1, 2], [3])

    def test_out_of_domain_vertex_rejected_at_submit(self, flat_oracle):
        with QueryServer(flat_oracle) as server:
            with pytest.raises(DomainError) as info:
                server.submit_batch([0, 10_000], [1, 2])
            assert info.value.exit_code == 69

    def test_batch_overload_is_typed_and_counted(self, metrics_registry):
        stalled = _StallOracle()
        server = QueryServer(
            stalled, max_queue=4, cache_size=0
        )
        server.start()
        overloaded = None
        tickets = []
        try:
            for k in range(16):
                try:
                    tickets.append(
                        server.submit_batch([2 * k], [2 * k + 1])
                    )
                except ServerOverloadError as exc:
                    overloaded = exc
                    break
        finally:
            stalled.release.set()
        assert overloaded is not None
        assert overloaded.exit_code == 70
        assert "capacity 4" in str(overloaded)
        server.stop()
        for ticket in tickets:
            assert ticket.result(timeout=10) is not None
        assert server.stats().overloads == 1

    def test_stop_without_drain_fails_pending_tickets(self):
        stalled = _StallOracle()
        server = QueryServer(stalled, max_queue=64, cache_size=0)
        server.start()
        first = server.submit_batch([1], [2])
        assert stalled.entered.wait(5)  # dispatcher blocked in the oracle
        backlog = [server.submit_batch([3, 4], [5, 6]) for _ in range(5)]
        stalled.release.set()
        server.stop(drain=False)
        assert first.result(timeout=10) == [3.0]
        from concurrent.futures import CancelledError

        for ticket in backlog:
            assert ticket.done()
            try:
                ticket.result(timeout=0)
            except CancelledError:
                pass

    def test_scalar_only_oracle_serves_batches(self, served_labeling, ground):
        class _ScalarOnly:
            def __init__(self, inner):
                self.inner = inner

            @property
            def labeling(self):
                return self.inner.labeling

            def query(self, u, v):
                return self.inner.query(u, v)

        oracle = _ScalarOnly(HubLabelOracle(served_labeling, backend="dict"))
        with QueryServer(oracle, cache_size=0) as server:
            got = server.submit_batch([0, 5], [9, 14]).result(timeout=30)
        for (u, v), answer in zip([(0, 9), (5, 14)], got):
            want = ground(u, v)
            assert answer == want and type(answer) is type(want)

    def test_width_percentiles_populated(self, flat_oracle):
        with QueryServer(flat_oracle, cache_size=0) as server:
            server.submit_batch(list(range(8)), list(range(1, 9))).result(
                timeout=30
            )
            stats = server.stats()
        assert stats.batches >= 1
        assert stats.batch_width_p50 > 0
        assert stats.batch_width_p95 >= stats.batch_width_p50

    def test_repr_mentions_shards_and_dispatchers(self, flat_oracle):
        server = QueryServer(flat_oracle, shards=3, dispatchers=2)
        text = repr(server)
        assert "shards=[0, 0, 0]" in text
        assert "dispatchers=2" in text
        assert server.shard_depths() == (0, 0, 0)

    def test_multi_dispatcher_smoke(self, flat_oracle, ground):
        with QueryServer(
            flat_oracle, shards=4, dispatchers=2, cache_size=0,
        ) as server:
            report = run_loadgen(
                server,
                60,
                clients=8,
                requests_per_client=100,
                seed=11,
                expected=ground,
                batch_size=16,
            )
        assert report.ok, report.render()
        assert report.requests == 8 * 100

    def test_invalid_knobs_rejected(self, flat_oracle):
        with pytest.raises(ValueError):
            QueryServer(flat_oracle, shards=0)
        with pytest.raises(ValueError):
            QueryServer(flat_oracle, dispatchers=0)

    def test_single_thread_can_fill_whole_queue(self, flat_oracle):
        # A bursty single client must see the full max_queue capacity,
        # not one stripe's slice: admission overflows to other shards.
        stalled = _StallOracle()
        server = QueryServer(
            stalled, max_queue=8, shards=4, cache_size=0
        )
        server.start()
        futures = []
        try:
            overloads = 0
            for k in range(20):
                try:
                    futures.append(server.submit(3 * k, 3 * k + 1))
                except ServerOverloadError:
                    overloads += 1
            assert len(futures) >= 8  # >= max_queue admitted
            assert overloads > 0
        finally:
            stalled.release.set()
        server.stop()


class TestLoadgenBatchPath:
    def test_batched_loadgen_matches_ground_truth(self, flat_oracle, ground):
        with QueryServer(flat_oracle, cache_size=0) as server:
            report = run_loadgen(
                server,
                60,
                clients=4,
                requests_per_client=203,  # non-multiple: ragged tail
                seed=13,
                expected=ground,
                batch_size=64,
            )
        assert report.ok, report.render()
        assert report.requests == 4 * 203

    def test_batch_size_validation(self, flat_oracle):
        with QueryServer(flat_oracle) as server:
            with pytest.raises(ValueError):
                run_loadgen(server, 60, batch_size=0)


def _held(oracle_cls=_StallOracle, **server_options):
    """A started server whose dispatcher is held inside the oracle by
    one plug pair: everything submitted next stays queued until
    ``oracle.release`` is set."""
    oracle = oracle_cls()
    server = QueryServer(oracle, cache_size=0, **server_options)
    server.start()
    plug = server.submit(1000, 1000)
    assert oracle.entered.wait(5)
    return server, oracle, plug


class TestPairFutures:
    """The future ``submit`` returns: a stdlib ``Future`` subclass that
    builds its condition only when a caller needs it."""

    def test_submit_returns_a_stdlib_future(self, flat_oracle):
        with QueryServer(flat_oracle) as server:
            first = server.submit(1, 2)
            first.result(timeout=5)
            again = server.submit(1, 2)  # asked again, never cached
            again.result(timeout=5)
        for future in (first, again):
            assert isinstance(future, Future)
            assert future.done() and not future.cancelled()
        assert again.result(timeout=0) == first.result(timeout=0)

    def test_private_attributes_match_future_init(self):
        # The subclass sets Future.__init__'s attributes itself, with
        # _cond standing in for _condition until one is needed; a
        # Python upgrade that changes that set must fail here.
        server, oracle, plug = _held()
        try:
            pending = server.submit(3, 4)
            plain = vars(Future())
            mine = dict(vars(pending))
            assert mine.pop("_cond") is None
            assert set(mine) - set(plain) == {"_key", "_base"}
            assert set(plain) - set(mine) == {"_condition"}
            for name, value in plain.items():
                if name != "_condition":
                    assert type(mine[name]) is type(value), name
                    assert mine[name] == value, name
            built = pending._condition
            assert type(built) is type(plain["_condition"])
            assert pending._cond is built is pending._condition
        finally:
            oracle.release.set()
            server.stop()
        assert pending.result(timeout=5) == 7.0

    def test_condition_is_built_only_for_a_waited_pending_future(self):
        server, oracle, plug = _held()
        got = []
        try:
            idle = [server.submit(0, v) for v in range(3)]
            watched = server.submit(5, 5)
            waiter = threading.Thread(
                target=lambda: got.append(watched.result(timeout=10))
            )
            waiter.start()
            deadline = time.monotonic() + 10
            while watched._cond is None and time.monotonic() < deadline:
                time.sleep(0.001)
            assert watched._cond is not None
            assert not any(future.done() for future in idle)
        finally:
            oracle.release.set()
            server.stop()
        waiter.join(timeout=10)
        assert not waiter.is_alive()
        assert got == [10.0]
        assert [future.result(timeout=0) for future in idle] == [0.0, 1.0, 2.0]
        assert all(future._cond is None for future in idle + [plug])

    def test_wait_mixes_pair_futures_with_foreign_futures(self):
        # wait() takes each future's lock in id order, which cannot
        # deadlock only while no two futures share a lock.  Two threads
        # wait, over and over, on a plain Future together with a pair
        # future below it in id order, and above it.
        server, oracle, plug = _held()
        pair_futures, plain = [], []
        for v in range(40):
            pair_futures.append(server.submit(6, v))
            plain.append(Future())
        low = min(pair_futures, key=id)
        high = max(pair_futures, key=id)
        foreign = next((f for f in plain if id(low) < id(f) < id(high)), None)
        assert foreign is not None
        halt = threading.Event()

        def spin(futures):
            while not halt.is_set():
                wait(futures, timeout=0)

        threads = [
            threading.Thread(target=spin, args=(group,), daemon=True)
            for group in ([low, foreign], [foreign, high])
        ]
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            time.sleep(0.5)
            halt.set()
            for thread in threads:
                thread.join(timeout=5)
        finally:
            sys.setswitchinterval(switch)
        stuck = any(thread.is_alive() for thread in threads)
        if not stuck:  # a deadlocked waiter would hang the stop as well
            oracle.release.set()
            server.stop()
        assert not stuck, "wait() deadlocked on mixed futures"
        assert [f.result(timeout=5) for f in pair_futures] == [
            float(6 + v) for v in range(40)
        ]

    def test_wait_and_as_completed_across_submitting_threads(self):
        server, oracle, plug = _held(max_queue=256)
        futures = []
        lock = threading.Lock()

        def client(k):
            mine = [server.submit(k, v) for v in range(10)]
            with lock:
                futures.extend(mine)

        try:
            threads = [
                threading.Thread(target=client, args=(k,)) for k in range(4)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=10)
            assert not any(thread.is_alive() for thread in threads)
            done, pending = wait(futures, timeout=0.05)
            assert not done and len(pending) == 40
            threading.Timer(0.05, oracle.release.set).start()
            done, pending = wait(futures, timeout=10)
            assert len(done) == 40 and not pending
            seen = list(as_completed(futures, timeout=10))
        finally:
            oracle.release.set()
            server.stop()
        assert sorted(map(id, seen)) == sorted(map(id, futures))
        assert sorted(f.result() for f in futures) == sorted(
            float(k + v) for k in range(4) for v in range(10)
        )
        first = wait(futures, return_when=FIRST_COMPLETED, timeout=1)[0]
        assert first

    def test_done_callback_runs_exactly_once(self, flat_oracle):
        calls = []
        server, oracle, plug = _held()
        try:
            pending = [server.submit(2, v) for v in range(5)]
            for future in pending:
                future.add_done_callback(calls.append)
        finally:
            oracle.release.set()
            server.stop()
        with QueryServer(flat_oracle) as other:
            answered = other.submit(1, 2)
            answered.result(timeout=5)
            answered.add_done_callback(calls.append)  # done: runs at once
        assert sorted(map(id, calls)) == sorted(map(id, pending + [answered]))

    def test_timeout_waits_out_its_deadline_while_siblings_resolve(self):
        # Siblings submitted by the same thread complete while the
        # target is awaited; the wait must go on to its own deadline,
        # not raise TimeoutError when a sibling completes.
        server, oracle, plug = _held()
        siblings = []

        def resolve(batch):
            for sibling in batch:
                time.sleep(0.02)
                sibling.cancel()  # completes it, and notifies

        try:
            target = server.submit(7, 7)
            for method in (target.result, target.exception):
                batch = [server.submit(8, v) for v in range(12)]
                siblings += batch
                helper = threading.Thread(target=resolve, args=(batch,))
                helper.start()
                start = time.monotonic()
                with pytest.raises(FutureTimeoutError):
                    method(timeout=0.3)
                waited = time.monotonic() - start
                helper.join(timeout=10)
                assert not helper.is_alive()
                assert waited >= 0.29, waited
                assert not target.done()
        finally:
            oracle.release.set()
            server.stop()
        assert target.result(timeout=5) == 14.0
        assert all(s.cancelled() for s in siblings)

    def test_stop_without_drain_cancels_pair_futures(self):
        server, oracle, plug = _held()
        backlog = [server.submit(3, v) for v in range(6)]
        stopper = threading.Thread(
            target=server.stop, kwargs={"drain": False}
        )
        stopper.start()
        while server.running:
            time.sleep(0.001)
        oracle.release.set()
        stopper.join(timeout=5)
        assert not stopper.is_alive()
        assert plug.result(timeout=1) == 2000.0
        for future in backlog:
            assert future.cancelled()
            with pytest.raises(CancelledError):
                future.result(timeout=0)
            with pytest.raises(CancelledError):
                future.exception(timeout=0)
        assert server.stats().cancelled == 6

    def test_future_awaited_by_a_thread_that_did_not_submit_it(self):
        server, oracle, plug = _held()
        futures = []
        submitter = threading.Thread(
            target=lambda: futures.extend(
                server.submit(4, v) for v in range(3)
            )
        )
        submitter.start()
        submitter.join(timeout=10)
        assert not submitter.is_alive()
        got = []
        waiter = threading.Thread(
            target=lambda: got.extend(f.result(timeout=10) for f in futures)
        )
        try:
            waiter.start()
            time.sleep(0.02)
            assert not got  # still waiting on the held dispatcher
            oracle.release.set()
            waiter.join(timeout=10)
        finally:
            oracle.release.set()
            server.stop()
        assert not waiter.is_alive()
        assert got == [4.0, 5.0, 6.0]

    def test_sixteen_clients_under_a_tiny_switch_interval(
        self, flat_oracle, ground
    ):
        # Each client waits on its own futures three ways, and with
        # concurrent.futures.wait over its neighbour's futures too, so
        # one wait covers futures of two submitting threads.
        clients = 16
        published = [None] * clients
        ready = threading.Barrier(clients)
        failures = []

        def client(k):
            try:
                pairs = [
                    ((k * 7 + i) % 60, (k * 11 + 3 * i) % 60)
                    for i in range(60)
                ]
                futures = [server.submit(u, v) for u, v in pairs]
                published[k] = futures
                ready.wait(timeout=10)
                neighbour = published[(k + 1) % clients]
                wait(futures[:20] + neighbour[:20], timeout=10)
                finished = set(as_completed(futures[20:40], timeout=10))
                got = [future.result(timeout=10) for future in futures]
                want = [ground(u, v) for u, v in pairs]
                if len(finished) != 20 or got != want:
                    failures.append((k, got, want))
            except Exception as exc:  # surfaced below
                failures.append((k, repr(exc)))

        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with QueryServer(flat_oracle, max_queue=4096) as server:
                threads = [
                    threading.Thread(target=client, args=(k,))
                    for k in range(clients)
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60)
                assert not any(thread.is_alive() for thread in threads)
        finally:
            sys.setswitchinterval(switch)
        assert not failures, failures[:2]
        stats = server.stats()
        assert stats.requests == clients * 60
        assert stats.requests == stats.responses


def _mixed_workload(gated):
    """Answers, repeats, an oracle error, an overload refusal and a
    non-draining cancel, in that order, through one server.  Returns
    the stopped server and what its books must read."""
    server = QueryServer(gated, max_queue=5)
    server.start()
    gated.release.set()
    pairs = [(u, u + 1) for u in range(5)]
    assert server.batch(pairs, timeout=10) == server.batch(pairs, timeout=10)
    assert len(server.submit_batch([0, 9], [1, 10]).result(timeout=10)) == 2
    with pytest.raises(DomainError):
        server.submit(0, 10_000).result(timeout=10)
    gated.release.clear()
    gated.entered.clear()
    plug = server.submit(20, 21)
    assert gated.entered.wait(5)
    backlog = [server.submit(30 + k, 31) for k in range(5)]
    with pytest.raises(ServerOverloadError):
        server.submit(40, 41)
    stopper = threading.Thread(target=server.stop, kwargs={"drain": False})
    stopper.start()
    while server.running:
        time.sleep(0.001)
    gated.release.set()
    stopper.join(timeout=10)
    assert not stopper.is_alive()
    plug.result(timeout=1)
    assert all(future.cancelled() for future in backlog)
    expected = {
        "requests": 5 + 5 + 2 + 1 + 1 + 5,
        "responses": 5 + 5 + 2 + 1,
        "cache_hits": 0,
        "errors": 1,
        "overloads": 1,
        "cancelled": 5,
    }
    return server, expected


class TestOneSetOfBooks:
    """``ServerStats`` and the ``serve.*`` counters are one set of books."""

    def test_stats_equal_the_counters_after_a_mixed_workload(
        self, flat_oracle, metrics_registry
    ):
        server, expected = _mixed_workload(_GatedOracle(flat_oracle))
        stats = server.stats()
        for field, want in expected.items():
            assert getattr(stats, field) == want, field
        assert stats.requests == stats.responses + stats.errors + stats.cancelled

        def counter(name):
            return metrics_registry.get(name).value

        assert counter(SERVE_REQUESTS) == stats.requests
        assert counter(SERVE_OVERLOADS) == stats.overloads
        assert counter(SERVE_BATCHES) == stats.batches >= 1

    def test_stats_stay_exact_under_a_null_registry(self, flat_oracle):
        with use_registry(NullRegistry()) as null:
            server, expected = _mixed_workload(_GatedOracle(flat_oracle))
        stats = server.stats()
        for field, want in expected.items():
            assert getattr(stats, field) == want, field
        assert stats.requests == stats.responses + stats.errors + stats.cancelled
        assert stats.batches >= 1
        assert null.get(SERVE_REQUESTS) is None

    def test_a_registry_bound_later_reads_the_whole_books(self, flat_oracle):
        with use_registry(NullRegistry()):
            server = QueryServer(flat_oracle).start()
            server.batch([(1, 2), (1, 2), (3, 4)])
        with use_registry() as late:
            server.query(5, 6)  # dispatch binds the current registry
            server.stop()
        assert late.get(SERVE_REQUESTS).value == server.stats().requests == 4

    def test_a_swapped_out_registry_keeps_reading(self, flat_oracle):
        with use_registry() as first:
            server = QueryServer(flat_oracle).start()
            server.query(1, 2)
        with use_registry() as second:
            server.query(1, 2)  # dispatch binds the current registry
            assert second.get(SERVE_BATCHES).value == 2
        server.stop()
        # Every registry the server was bound to reads the one set of
        # books, including what was counted before its bind.
        for registry in (first, second):
            assert registry.get(SERVE_REQUESTS).value == 2
            assert registry.get(SERVE_BATCHES).value == 2


class TestDepthGauges:
    """``serve.queue_depth`` / ``serve.shard_depth`` are sampled when a
    dispatcher drains and when a submit is refused -- not per submit."""

    def test_sampled_on_drain_not_on_submit(self, metrics_registry):
        server, oracle, plug = _held(shards=1)

        def depth(name, **labels):
            return metrics_registry.get(name, **labels).value

        try:
            # The plug's drain sampled a backlog of one pair.
            assert depth(SERVE_QUEUE_DEPTH) == 1
            assert depth(SERVE_SHARD_DEPTH, shard="0") == 1
            for v in range(7):
                server.submit(2, v)
            assert server.queue_depth() == 7
            assert depth(SERVE_QUEUE_DEPTH) == 1  # submits set nothing
        finally:
            oracle.release.set()
            server.stop()
        assert depth(SERVE_QUEUE_DEPTH) == 7
        assert depth(SERVE_SHARD_DEPTH, shard="0") == 7

    def test_sampled_on_overload(self, metrics_registry):
        server, oracle, plug = _held(max_queue=3, shards=3)
        try:
            for v in range(3):
                server.submit(2, v)
            with pytest.raises(ServerOverloadError):
                server.submit(2, 9)
            assert metrics_registry.get(SERVE_QUEUE_DEPTH).value == 3
            for shard in range(3):
                gauge = metrics_registry.get(SERVE_SHARD_DEPTH, shard=str(shard))
                assert gauge.value == 1
        finally:
            oracle.release.set()
            server.stop()


class TestNonIntegerIds:
    """A vertex id that is not an integer is refused with DomainError at
    every door, never truncated or parsed into another pair."""

    @pytest.fixture(scope="class")
    def flat(self):
        from repro.graphs.generators import barabasi_albert
        from repro.perf.build import build_flat_labels

        return build_flat_labels(barabasi_albert(50, 2, seed=0))

    def test_per_pair_door(self, flat):
        import numpy as np

        with QueryServer(HubLabelOracle(flat, backend="flat")) as server:
            # 1.5 * 50 + 2 is 77.0, the key of pair (1, 27); serve it
            # and pair (1, 2) first.
            truth = {pair: flat.query(*pair) for pair in ((1, 27), (1, 2), (3, 2))}
            for pair in truth:
                assert server.submit(*pair).result(timeout=5) == truth[pair]
            for u, v in ((1.5, 2), (1, 2.5), ("3", 2), (1.0, 2)):
                with pytest.raises(DomainError, match="not an integer"):
                    server.submit(u, v).result(timeout=5)
            # NumPy integers are integers.
            assert server.submit(np.int64(1), np.int32(2)).result(timeout=5) == (
                truth[(1, 2)]
            )
            stats = server.stats()
            assert stats.requests == stats.responses + stats.errors

    def test_batch_door(self, flat):
        import numpy as np

        with QueryServer(HubLabelOracle(flat, backend="flat")) as server:
            assert server.submit_batch([1], [2]).result(timeout=5) == [
                flat.query(1, 2)
            ]
            for us, vs in (([1.5], [2]), ([1], ["2"]), (np.array([1.0]), [2])):
                with pytest.raises(DomainError, match="not an integer"):
                    server.submit_batch(us, vs)
            assert server.submit_batch(
                np.array([1], dtype=np.uint8), [2]
            ).result(timeout=5) == [flat.query(1, 2)]

    @pytest.mark.parametrize("backend", ["flat", "dict"])
    def test_oracle_doors(self, flat, backend):
        labeling = flat if backend == "flat" else flat.to_labeling()
        oracle = HubLabelOracle(labeling, backend=backend)
        for call in (
            lambda: oracle.query(1.5, 2),
            lambda: oracle.query(1, "2"),
            lambda: oracle.batch_query([(1.5, 2)]),
            lambda: oracle.batch_query([("3", 2)]),
        ):
            with pytest.raises(DomainError, match="not an integer"):
                call()
        assert oracle.batch_query([(1, 2)]) == [flat.query(1, 2)]

    def test_store_doors(self, flat):
        for call in (
            lambda: flat.batch_query([("3", 2)]),
            lambda: flat.batch_query([(1.5, 2)]),
            lambda: flat.query(1.5, 2),
            lambda: flat.meet(1, 2.5),
            lambda: flat.batch_query_from(1, [2.5]),
            lambda: flat.batch_query_from(1.5),
            lambda: flat.distance_row("3"),
        ):
            with pytest.raises(DomainError, match="not an integer"):
                call()
