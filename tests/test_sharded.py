"""The multi-process sharded serving door.

:class:`~repro.serve.sharded.ShardedQueryServer` fans the existing
batch door out over worker processes reading one shared-memory label
store.  These tests hold it to the same contracts as the in-process
server: byte-identical answers (value AND type, ``inf`` included),
loud overload, loud domain errors, drain-then-stop shutdown with
surviving statistics, and transparent worker respawn surfaced through
the health report and the ``serve.worker_*`` metrics.
"""

from __future__ import annotations

import os
import signal
import threading

import pytest

from repro.core import pruned_landmark_labeling
from repro.graphs import Graph, random_sparse_graph
from repro.obs.catalog import (
    SERVE_BATCH_SUBMISSIONS,
    SERVE_BATCHES,
    SERVE_CACHE_HITS,
    SERVE_CACHE_MISSES,
    SERVE_OVERLOADS,
    SERVE_REQUESTS,
    SERVE_WORKER_BATCHES,
    SERVE_WORKER_RESTARTS,
    SERVE_WORKERS_ALIVE,
)
from repro.oracles.oracle import HubLabelOracle
from repro.perf.flat import FlatHubLabeling
from repro.perf.shm import SHM_NAME_PREFIX
from repro.runtime.errors import DomainError, ServerOverloadError
from repro.serve import FleetHealth, ShardedQueryServer, run_loadgen

INF = float("inf")


def _disconnected_graph():
    """Two components -- cross pairs must answer ``inf`` (a float)."""
    g = Graph(10)
    for u in range(4):
        g.add_edge(u, u + 1)
    for u in range(5, 9):
        g.add_edge(u, u + 1)
    return g


@pytest.fixture(scope="module")
def built():
    graph = random_sparse_graph(48, seed=11)
    labeling = pruned_landmark_labeling(graph)
    return graph, labeling, FlatHubLabeling.from_labeling(labeling)


@pytest.fixture
def server(built):
    _, _, flat = built
    fleet = ShardedQueryServer(
        HubLabelOracle(flat, backend="flat"), processes=2
    )
    fleet.start()
    yield fleet
    fleet.stop()


def _one_pair_five_times(flat):
    """A started 1-process fleet that served one pair 5 times: one
    dispatched group, then 4 cache hits."""
    fleet = ShardedQueryServer(
        HubLabelOracle(flat, backend="flat"), processes=1
    )
    fleet.start()
    for _ in range(5):
        fleet.submit(0, 2).result()
    return fleet


class TestAnswers:
    def test_differential_corpus_byte_identical(self, built, server):
        graph, labeling, _ = built
        n = graph.num_vertices
        pairs = [(u, v) for u in range(n) for v in range(0, n, 3)]
        us = [u for u, _ in pairs]
        vs = [v for _, v in pairs]
        got = server.submit_batch(us, vs).result()
        assert len(got) == len(pairs)
        for (u, v), answer in zip(pairs, got):
            want = labeling.query(u, v)
            assert answer == want, (u, v)
            assert type(answer) is type(want), (u, v)

    def test_disconnected_pairs_answer_inf(self):
        graph = _disconnected_graph()
        labeling = pruned_landmark_labeling(graph)
        flat = FlatHubLabeling.from_labeling(labeling)
        with ShardedQueryServer(
            HubLabelOracle(flat, backend="flat"), processes=1
        ) as fleet:
            assert fleet.query(0, 7) == INF
            assert isinstance(fleet.query(0, 7), float)
            near = fleet.query(0, 3)
            assert near == labeling.query(0, 3)
            assert type(near) is int

    def test_loadgen_validated_through_the_sharded_door(self, built,
                                                        server):
        graph, labeling, _ = built
        report = run_loadgen(
            server,
            graph.num_vertices,
            clients=3,
            requests_per_client=120,
            batch_size=16,
            expected=labeling.query,
            seed=3,
        )
        assert report.ok
        assert report.wrong == 0
        assert report.requests == 3 * 120

    def test_empty_batch(self, server):
        ticket = server.submit_batch([], [])
        assert ticket.width == 0
        assert ticket.result() == []


class TestErrors:
    def test_domain_error_on_submit(self, built, server):
        # Per-pair failures resolve through the future, matching the
        # in-process QueryServer's contract.
        graph, _, _ = built
        future = server.submit(graph.num_vertices, 0)
        with pytest.raises(DomainError):
            future.result()

    def test_domain_error_on_batch(self, built, server):
        graph, _, _ = built
        with pytest.raises(DomainError):
            server.submit_batch([0, -1], [1, 2])

    def test_non_integer_ids_are_domain_errors(self, built, server):
        # 1.5 must not truncate to vertex 1.
        future = server.submit(1.5, 2)
        with pytest.raises(DomainError, match="not an integer"):
            future.result()
        with pytest.raises(DomainError, match="not an integer"):
            server.submit_batch([1.5], [2])

    def test_overload_is_loud(self, built):
        _, _, flat = built
        fleet = ShardedQueryServer(
            HubLabelOracle(flat, backend="flat"),
            processes=1,
            max_queue=4,
        )
        fleet.start()
        try:
            # Soft admission admits while inflight < max_queue, so a
            # second oversized batch must bounce deterministically.
            fleet._inflight = fleet.max_queue
            with pytest.raises(ServerOverloadError):
                fleet.submit_batch([0, 1, 2], [1, 2, 3])
            fleet._inflight = 0
            assert fleet.stats().overloads == 1
        finally:
            fleet.stop()

    def test_submit_before_start_raises(self, built):
        _, _, flat = built
        fleet = ShardedQueryServer(
            HubLabelOracle(flat, backend="flat"), processes=1
        )
        with pytest.raises(RuntimeError):
            fleet.submit(0, 1)

    def test_empty_batch_before_start_raises(self, built):
        # Same as the in-process door: an empty batch is no excuse to
        # answer from a stopped fleet.
        _, _, flat = built
        fleet = ShardedQueryServer(
            HubLabelOracle(flat, backend="flat"), processes=1
        )
        with pytest.raises(RuntimeError):
            fleet.submit_batch([], [])


class TestLifecycle:
    def test_stats_survive_shutdown(self, built):
        graph, _, flat = built
        fleet = ShardedQueryServer(
            HubLabelOracle(flat, backend="flat"), processes=2
        )
        fleet.start()
        for u in range(6):
            fleet.submit(u, (u + 2) % graph.num_vertices).result()
        fleet.submit(0, 2).result()  # repeat -> worker cache hit
        fleet.stop()
        stats = fleet.stats()
        assert stats.requests == 7
        assert stats.responses == 7
        assert stats.batches >= 1
        assert stats.cache_hits >= 1

    def test_books_balance_after_cancelling_stop(self, built):
        graph, _, flat = built
        n = graph.num_vertices
        fleet = ShardedQueryServer(
            HubLabelOracle(flat, backend="flat"), processes=2
        )
        fleet.start()
        for u in range(10):
            fleet.submit(u, (u + 3) % n).result()
        fleet.submit_batch([1, 2, 3], [4, 5, 6]).result()
        fleet.submit(0, n + 5)  # out of domain: fails its own future
        fleet.stop(drain=False)
        stats = fleet.stats()
        assert stats.requests == 13
        assert stats.requests == (
            stats.responses + stats.errors + stats.cancelled
        )

    def test_cancelling_stop_leaves_a_busy_slots_pipe_alone(
        self, built, monkeypatch
    ):
        # A slot held by another thread is mid-frame: its pipe belongs
        # to that thread, so stop(drain=False) must not poll or shut
        # the worker down over it -- only end the process.
        _, _, flat = built
        before = set(os.listdir("/dev/shm"))
        fleet = ShardedQueryServer(
            HubLabelOracle(flat, backend="flat"), processes=2
        )
        fleet.start()
        workers = fleet._workers
        busy = workers[0]
        sent = []
        monkeypatch.setattr(busy.conn, "send_bytes", sent.append)
        busy.lock.acquire()
        try:
            fleet.stop(drain=False)
            assert sent == []
            assert not busy.process.is_alive()
            # The frame's thread then finds the worker gone: a typed
            # error, and no worker spawned after stop.
            with pytest.raises(RuntimeError):
                fleet._respawn(workers, 0)
            assert workers[0] is busy
        finally:
            busy.lock.release()
        assert fleet.workers_alive() == 0
        leaked = {
            name
            for name in set(os.listdir("/dev/shm")) - before
            if name.startswith(SHM_NAME_PREFIX)
        }
        assert leaked == set()

    def test_stop_is_idempotent_and_restartable(self, built):
        _, _, flat = built
        fleet = ShardedQueryServer(
            HubLabelOracle(flat, backend="flat"), processes=1
        )
        fleet.start()
        assert fleet.workers_alive() == 1
        fleet.stop()
        fleet.stop()
        assert fleet.workers_alive() == 0

    def test_health_report(self, server):
        health = server.health()
        assert isinstance(health, FleetHealth)
        assert health.processes == 2
        assert health.alive == 2
        assert health.restarts == 0
        assert health.ok

    def test_worker_death_respawns_and_is_counted(
        self, built, server, metrics_registry
    ):
        graph, labeling, _ = built
        victim = server._workers[1].process
        os.kill(victim.pid, signal.SIGKILL)
        victim.join(timeout=10)
        # Every pair keeps answering correctly across the respawn.
        for u in range(10):
            v = (u + 3) % graph.num_vertices
            assert server.submit(u, v).result() == labeling.query(u, v)
        health = server.health()
        assert health.alive == 2
        assert health.restarts == 1
        assert not FleetHealth(
            processes=2, alive=1, restarts=1, frames=(0, 0)
        ).ok
        assert metrics_registry.get(SERVE_WORKER_RESTARTS).value == 1
        assert metrics_registry.get(SERVE_WORKERS_ALIVE).value == 2

    def test_worker_batches_metric_labelled_by_slot(
        self, built, server, metrics_registry
    ):
        for u in range(8):
            server.submit(u, u + 1).result()
        total = 0
        for slot in range(server.processes):
            counter = metrics_registry.get(
                SERVE_WORKER_BATCHES, worker=str(slot)
            )
            if counter is not None:
                total += counter.value
        assert total == 8


class TestParentBooks:
    """The fleet's tallies are kept by the parent, from the frames it
    sees: no worker takes its share with it, and reading them waits on
    nothing."""

    def test_respawn_keeps_the_dead_workers_share(self, built):
        _, _, flat = built
        fleet = _one_pair_five_times(flat)
        try:
            victim = fleet._workers[0].process
            os.kill(victim.pid, signal.SIGKILL)
            victim.join(timeout=10)
            fleet.submit(0, 2).result()  # the fresh worker's cold cache
            stats = fleet.stats()
            assert fleet.health().restarts == 1
        finally:
            fleet.stop()
        assert stats.cache_hits == 4
        assert stats.batches == 2
        assert stats.coalesced == 2
        assert stats.requests == stats.responses == 6

    def test_stats_touch_no_pipe_and_no_slot_lock(self, built, monkeypatch):
        _, _, flat = built
        fleet = ShardedQueryServer(
            HubLabelOracle(flat, backend="flat"), processes=2
        )
        fleet.start()
        try:
            fleet.submit(0, 2).result()
            sent = []
            for worker in fleet._workers:
                monkeypatch.setattr(worker.conn, "send_bytes", sent.append)
            held = fleet._workers[0].lock
            read = []
            held.acquire()
            try:
                reader = threading.Thread(
                    target=lambda: read.append(fleet.stats())
                )
                reader.start()
                reader.join(timeout=2.0)
                assert not reader.is_alive(), "stats() waited on a slot"
            finally:
                held.release()
            reader.join(timeout=30)
            assert sent == []
            assert read[0].requests == read[0].responses == 1
        finally:
            monkeypatch.undo()
            fleet.stop()

    def test_cancelling_stop_keeps_a_busy_workers_share(self, built):
        _, _, flat = built
        fleet = _one_pair_five_times(flat)
        busy = fleet._workers[0]
        busy.lock.acquire()
        try:
            fleet.stop(drain=False)
        finally:
            busy.lock.release()
            busy.conn.close()  # the frame's thread would close it
        stats = fleet.stats()
        assert stats.cache_hits == 4
        assert stats.batches == 1
        assert stats.requests == stats.responses == 5

    def test_serve_counters_read_the_fleets_books(
        self, built, server, metrics_registry
    ):
        graph, _, _ = built
        server.submit_batch([0, 1, 2], [3, 4, 5]).result()
        server.submit_batch([0, 1, 2], [3, 4, 5]).result()
        for u in range(6):
            server.submit(u, (u + 7) % graph.num_vertices).result()
        stats = server.stats()
        assert stats.requests == 12
        assert stats.cache_hits + metrics_registry.get(
            SERVE_CACHE_MISSES
        ).value == 12
        for name, want in (
            (SERVE_REQUESTS, stats.requests),
            (SERVE_CACHE_HITS, stats.cache_hits),
            (SERVE_OVERLOADS, stats.overloads),
            (SERVE_BATCHES, stats.batches),
            (SERVE_BATCH_SUBMISSIONS, stats.batches),
        ):
            assert metrics_registry.get(name).value == want, name
