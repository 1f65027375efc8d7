"""Zero-copy label stores: shared-memory segments and mmap'ed artifacts.

Covers the contracts the sharded serving tier leans on: byte-identical
answers through both zero-copy sources, eager header validation with a
deferred (lazy) CRC, concurrent readers over one segment, no
``/dev/shm`` leaks even when a worker dies abnormally, and the
cold-start path -- a warm ``LabelCache`` hit maps the artifact, checks
its CRC, copies nothing and never emits a ``build.flat`` span.
"""

from __future__ import annotations

import mmap
import multiprocessing
import os
import signal
import time

import numpy as np
import pytest

from repro.core import pruned_landmark_labeling
from repro.core.io import flat_labeling_from_bytes, flat_labeling_to_bytes
from repro.core.orders import degree_order
from repro.graphs import random_sparse_graph
from repro.obs.catalog import (
    BUILD_CACHE_HITS,
    BUILD_CACHE_INVALIDATIONS,
    BUILD_CACHE_MISSES,
    SHM_ATTACHES,
    SHM_BYTES_MAPPED,
    SHM_CRC_CHECKS,
    SPAN_DURATION_SECONDS,
)
from repro.oracles.oracle import HubLabelOracle
from repro.perf.build import build_flat_labels
from repro.perf.cache import LabelCache, cache_key
from repro.perf.flat import FlatHubLabeling
from repro.perf.shm import (
    SHM_NAME_PREFIX,
    MappedLabelStore,
    SharedLabelStore,
)
from repro.runtime.errors import ArtifactCorruptError
from repro.serve import ShardedQueryServer

INF = float("inf")


@pytest.fixture(scope="module")
def built():
    graph = random_sparse_graph(60, seed=5)
    labeling = pruned_landmark_labeling(graph)
    return graph, labeling, FlatHubLabeling.from_labeling(labeling)


def _grade(flat, labeling, n):
    """Every pair answered byte-identically: value AND Python type."""
    for u in range(0, n, 3):
        for v in range(0, n, 7):
            want = labeling.query(u, v)
            got = flat.query(u, v)
            assert got == want, (u, v)
            assert type(got) is type(want), (u, v)


def _buffer_owner(array):
    """The object at the end of ``array``'s ``.base`` chain."""
    owner = array
    while isinstance(owner, np.ndarray) and owner.base is not None:
        owner = owner.base
    return owner.obj if isinstance(owner, memoryview) else owner


def _shm_entries():
    try:
        return {
            name
            for name in os.listdir("/dev/shm")
            if name.startswith(SHM_NAME_PREFIX)
        }
    except OSError:  # pragma: no cover - no /dev/shm on this platform
        return set()


class TestSharedLabelStore:
    def test_round_trip_byte_identical(self, built):
        graph, labeling, flat = built
        with SharedLabelStore.create(flat) as store:
            _grade(store.flat, labeling, graph.num_vertices)

    def test_attach_reads_the_same_segment(self, built, metrics_registry):
        graph, labeling, flat = built
        with SharedLabelStore.create(flat) as store:
            reader = SharedLabelStore.attach(store.name)
            try:
                assert not reader.owner
                _grade(reader.flat, labeling, graph.num_vertices)
                reader.verify()
            finally:
                reader.close()
            crc = metrics_registry.get(SHM_CRC_CHECKS, outcome="ok")
            assert crc is not None and crc.value == 1
            attaches = metrics_registry.get(SHM_ATTACHES, source="shm")
            assert attaches.value == 2  # create counts as the first open
            assert metrics_registry.get(
                SHM_BYTES_MAPPED, source="shm"
            ).value > 0

    def test_owner_close_unlinks_segment(self, built):
        _, _, flat = built
        store = SharedLabelStore.create(flat)
        name = store.name
        assert name.startswith(SHM_NAME_PREFIX)
        store.close()
        with pytest.raises(FileNotFoundError):
            SharedLabelStore.attach(name)
        assert name not in _shm_entries()

    def test_concurrent_readers_one_segment(self, built):
        """Forked readers attach by name; every answer matches."""
        graph, labeling, flat = built
        try:
            ctx = multiprocessing.get_context("fork")
        except ValueError:  # pragma: no cover - no fork on this platform
            pytest.skip("fork start method unavailable")
        n = graph.num_vertices
        pairs = [(u, v) for u in range(0, n, 5) for v in range(0, n, 4)]

        def reader(name, conn):
            attached = SharedLabelStore.attach(name)
            try:
                conn.send([attached.flat.query(u, v) for u, v in pairs])
            finally:
                attached.close()
                conn.close()

        with SharedLabelStore.create(flat) as store:
            channels = []
            workers = []
            for _ in range(3):
                parent, child = ctx.Pipe()
                proc = ctx.Process(
                    target=reader, args=(store.name, child)
                )
                proc.start()
                child.close()
                channels.append(parent)
                workers.append(proc)
            want = [labeling.query(u, v) for u, v in pairs]
            for parent, proc in zip(channels, workers):
                assert parent.recv() == want
                proc.join(timeout=10)
                assert proc.exitcode == 0
        assert store.name not in _shm_entries()


class TestMappedLabelStore:
    def _artifact(self, tmp_path, flat):
        path = tmp_path / "labels.bin"
        path.write_bytes(flat_labeling_to_bytes(flat))
        return path

    def test_round_trip_byte_identical(self, built, tmp_path):
        graph, labeling, flat = built
        with MappedLabelStore(self._artifact(tmp_path, flat)) as store:
            _grade(store.flat, labeling, graph.num_vertices)
            store.verify()

    def test_truncated_file_rejected_eagerly(self, built, tmp_path):
        _, _, flat = built
        path = self._artifact(tmp_path, flat)
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) // 2])
        with pytest.raises(ArtifactCorruptError):
            MappedLabelStore(path)

    def test_crc_is_lazy(self, built, tmp_path, metrics_registry):
        """A payload flip passes the eager open; verify() catches it."""
        _, _, flat = built
        path = self._artifact(tmp_path, flat)
        blob = bytearray(path.read_bytes())
        blob[-1] ^= 0xFF
        path.write_bytes(bytes(blob))
        store = MappedLabelStore(path)  # header is intact -> opens
        try:
            with pytest.raises(ArtifactCorruptError):
                store.verify()
        finally:
            store.close()
        crc = metrics_registry.get(SHM_CRC_CHECKS, outcome="corrupt")
        assert crc is not None and crc.value == 1

    def test_open_records_mmap_metrics(self, built, tmp_path,
                                        metrics_registry):
        _, _, flat = built
        with MappedLabelStore(self._artifact(tmp_path, flat)):
            pass
        assert metrics_registry.get(SHM_ATTACHES, source="mmap").value == 1
        assert metrics_registry.get(
            SHM_BYTES_MAPPED, source="mmap"
        ).value > 0


class TestColdStartUsesMmap:
    def test_warm_hit_maps_instead_of_deserializing(
        self, built, tmp_path, metrics_registry
    ):
        graph, labeling, _ = built
        order = degree_order(graph)
        cache = LabelCache(tmp_path)
        cache.load_or_build(graph, order)  # cold: builds + stores

        from repro.obs.registry import Registry, use_registry

        cold_start = Registry()
        with use_registry(cold_start):
            warm_cache = LabelCache(tmp_path)
            flat = warm_cache.load_or_build(graph, order)
        _grade(flat, labeling, graph.num_vertices)
        assert cold_start.get(BUILD_CACHE_HITS).value == 1
        assert cold_start.get(SHM_ATTACHES, source="mmap").value == 1
        # The CRC ran before the hit was returned.
        assert cold_start.get(SHM_CRC_CHECKS, outcome="ok").value == 1
        # The whole point: no reconstruction ran on the warm path.
        assert cold_start.get(
            SPAN_DURATION_SECONDS, span="build.flat"
        ) is None

    def test_hit_equals_a_decode_of_its_artifact(self, built, tmp_path):
        graph, labeling, _ = built
        order = degree_order(graph)
        cache = LabelCache(tmp_path)
        cache.load_or_build(graph, order)
        mapped = cache.load(graph, order)
        path = cache.path_for(cache_key(graph, order))
        decoded = flat_labeling_from_bytes(path.read_bytes())
        assert mapped is not None
        for got, want in zip(
            (*mapped.arrays(), *mapped.dense()),
            (*decoded.arrays(), *decoded.dense()),
        ):
            assert got.dtype == want.dtype
            assert np.array_equal(got, want)
        _grade(mapped, labeling, graph.num_vertices)

    def test_hit_arrays_are_read_only_views_of_the_map(self, built, tmp_path):
        graph, _, _ = built
        order = degree_order(graph)
        cache = LabelCache(tmp_path)
        built_flat = cache.load_or_build(graph, order)  # a miss
        assert not isinstance(_buffer_owner(built_flat.arrays()[0]), mmap.mmap)
        hit = cache.load(graph, order)
        for array in (*hit.arrays(), *hit.dense()):
            assert not array.flags.writeable
            assert isinstance(_buffer_owner(array), mmap.mmap)

    def test_flipped_payload_byte_is_invalidated_and_rebuilt(
        self, built, tmp_path, metrics_registry
    ):
        graph, labeling, _ = built
        order = degree_order(graph)
        cache = LabelCache(tmp_path)
        cache.load_or_build(graph, order)
        path = cache.path_for(cache_key(graph, order))
        blob = bytearray(path.read_bytes())
        blob[len(blob) // 2] ^= 0x01  # inside the payload
        path.write_bytes(bytes(blob))

        assert cache.load(graph, order) is None
        assert not path.exists()
        assert metrics_registry.get(BUILD_CACHE_INVALIDATIONS).value == 1
        assert metrics_registry.get(SHM_CRC_CHECKS, outcome="corrupt").value == 1
        rebuilt = cache.load_or_build(graph, order)
        assert metrics_registry.get(BUILD_CACHE_MISSES).value == 3
        assert path.exists()
        _grade(rebuilt, labeling, graph.num_vertices)
        _grade(cache.load(graph, order), labeling, graph.num_vertices)
        assert metrics_registry.get(BUILD_CACHE_HITS).value == 1

    def test_live_hit_survives_unlink_and_restore(self, built, tmp_path):
        graph, labeling, _ = built
        n = graph.num_vertices
        order = degree_order(graph)
        cache = LabelCache(tmp_path)
        cache.load_or_build(graph, order)
        path = cache.path_for(cache_key(graph, order))
        hit = cache.load(graph, order)
        pairs = [(u, v) for u in range(n) for v in range(0, n, 3)]
        before = hit.batch_query(pairs)

        path.unlink()
        assert hit.batch_query(pairs) == before
        _grade(hit, labeling, n)
        # Store the same key again, with another graph's labels: the
        # replace gives the path a new file, the old map keeps its own.
        other = random_sparse_graph(n, seed=6)
        cache.store(graph, order, build_flat_labels(other, degree_order(other)))
        assert cache.load(graph, order).batch_query(pairs) != before
        assert hit.batch_query(pairs) == before
        _grade(hit, labeling, n)


class TestNoLeaksOnAbnormalExit:
    def test_worker_sigkill_leaves_no_segments(self, built):
        """SIGKILL a worker mid-fleet; stop(); /dev/shm stays clean."""
        _, _, flat = built
        before = _shm_entries()
        server = ShardedQueryServer(
            HubLabelOracle(flat, backend="flat"), processes=2
        )
        server.start()
        try:
            assert server.submit(0, 1).result() is not None
            victim = server._workers[0].process
            os.kill(victim.pid, signal.SIGKILL)
            victim.join(timeout=10)
            # The fleet respawns on the next frame routed to the slot.
            for u in range(8):
                server.submit(u, (u + 1) % flat.num_vertices).result()
            assert server.health().alive == 2
        finally:
            server.stop()
        deadline = time.monotonic() + 5.0
        while time.monotonic() < deadline:
            leaked = _shm_entries() - before
            if not leaked:
                break
            time.sleep(0.05)
        assert _shm_entries() - before == set()
