"""Persistent label cache: build once, reload in milliseconds.

Constructing labels dominates every CLI invocation now that queries are
served from flat arrays -- and the labels for a fixed (graph, order)
never change, so rebuilding them per process is pure waste.
:class:`LabelCache` persists finished
:class:`~repro.perf.flat.FlatHubLabeling` stores on disk, keyed by a
fingerprint of everything the labeling depends on:

* the **graph** (vertex count, weightedness, the sorted edge multiset);
* the **order** (the exact rank permutation used);
* the **builder version** (:data:`repro.perf.build.BUILDER_VERSION`)
  and the artifact format version, so algorithm or format changes
  invalidate old entries instead of serving stale labels.

Artifacts are the checksummed version-5 envelope of
:mod:`repro.core.io` (the store's own arrays, little-endian), written atomically
(temp file + ``os.replace``) so a crashed writer can never leave a
half-written entry behind.

A hit copies nothing.  The artifact is opened through
:class:`~repro.perf.shm.MappedLabelStore`, its payload CRC runs
(:meth:`~repro.perf.shm.MappedLabelStore.verify`) before the store is
returned, and the returned labeling's arrays are read-only views over
the mapped file, so the page cache holds the only copy of the labels.
A bad header, a bad CRC, a file that cannot be mapped or a vertex
count that does not match the graph is detected at load, counted,
deleted, and transparently rebuilt -- the cache can only ever
make runs faster, never wrong.  The labeling keeps its mapping alive
for as long as it is queryable; because entries are only ever replaced
whole, never written in place, a live mapping keeps answering from
its own file after the entry is deleted or stored again.  A miss
returns the store it just built.

Observability: every lookup increments ``build.cache_hits`` or
``build.cache_misses``; every discarded artifact increments
``build.cache_invalidations``.  A cache hit performs **no**
construction, so the ``build.flat`` tracing span is absent from hit
paths -- tests and the CI smoke step use exactly that to prove the warm
run skipped the build.  Every opened artifact also counts
``shm.attaches{source=mmap}`` and one ``shm.crc_checks`` by outcome.
"""

from __future__ import annotations

import hashlib
import os
from itertools import chain
from pathlib import Path
from typing import List, Optional, Union

import numpy as np

from ..graphs.graph import Graph
from ..obs.catalog import (
    BUILD_CACHE_HITS,
    BUILD_CACHE_INVALIDATIONS,
    BUILD_CACHE_MISSES,
)
from ..obs.registry import get_registry
from ..runtime.errors import ArtifactCorruptError
from .build import BUILDER_VERSION, build_flat_labels
from .flat import FlatHubLabeling

__all__ = ["LabelCache", "cache_key"]


def cache_key(graph: Graph, order: List[int]) -> str:
    """The sha256 hex fingerprint naming a (graph, order) cache entry.

    Hashes a header (key format, builder/format versions, vertex and
    edge counts, weightedness), then the edge list as one float64
    ``(m, 3)`` array of ``(u, v, weight)`` rows in lexicographic order,
    then the order permutation as int64 -- raw array bytes, so a key
    costs about 10 ms on the pinned G(2,2) instance (2-core box).
    float64 holds every vertex id, every float weight and every integer
    weight below ``2**53`` exactly, so a fractional weight is never
    rounded into another graph's key.  Any difference in any of them
    yields a different key, so entries are immutable once written.
    """
    from ..core.io import FLAT_ARTIFACT_VERSION

    hasher = hashlib.sha256()
    hasher.update(
        f"k2:v{BUILDER_VERSION}:f{FLAT_ARTIFACT_VERSION}:"
        f"n{graph.num_vertices}:m{graph.num_edges}:"
        f"w{int(graph.is_weighted)}".encode()
    )
    # edges() yields each edge once with u < v, so the rows are
    # canonical up to their order.
    edges = np.fromiter(
        chain.from_iterable(graph.edges()),
        dtype=np.float64,
        count=3 * graph.num_edges,
    ).reshape(-1, 3)
    edges = edges[np.lexsort((edges[:, 1], edges[:, 0]))]
    hasher.update(edges.tobytes())
    hasher.update(b"|order|")
    hasher.update(np.asarray(order, dtype=np.int64).tobytes())
    return hasher.hexdigest()


class LabelCache:
    """A directory of persisted flat labelings, one file per key.

    ``load`` / ``store`` are the primitive halves; ``load_or_build``
    is the everyday entry point (and what ``--cache-dir`` wires into
    the CLI): return the cached labeling when present and intact,
    otherwise build, persist, and return it.
    """

    def __init__(self, directory: Union[str, Path]) -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        registry = get_registry()
        if registry.enabled:
            # Create the counters at 0 up front so snapshots always
            # carry all three, hit or miss.
            self._hits = registry.counter(BUILD_CACHE_HITS)
            self._misses = registry.counter(BUILD_CACHE_MISSES)
            self._invalidations = registry.counter(BUILD_CACHE_INVALIDATIONS)
        else:
            self._hits = self._misses = self._invalidations = None

    def path_for(self, key: str) -> Path:
        """Where the artifact for ``key`` lives (whether or not it exists)."""
        return self.directory / f"labels-{key[:40]}.rhl"

    # ------------------------------------------------------------------
    def load(
        self, graph: Graph, order: List[int]
    ) -> Optional[FlatHubLabeling]:
        """The cached labeling for (graph, order), or None.

        Counts a hit or a miss; a corrupt artifact counts an
        invalidation, is deleted, and reports as a miss (the caller
        rebuilds).  A hit's arrays are read-only views over the mapped
        artifact, whose CRC has been checked.
        """
        return self._load(self.path_for(cache_key(graph, order)), graph)

    def _load(self, path: Path, graph: Graph) -> Optional[FlatHubLabeling]:
        """``load`` for an artifact path already derived from the key."""
        if not path.exists():
            if self._misses is not None:
                self._misses.inc()
            return None
        flat = self._map(path, graph.num_vertices)
        if flat is None:
            # Corrupt envelope, or a key collision so drastic the
            # entry is garbage either way: drop it and rebuild.
            if self._invalidations is not None:
                self._invalidations.inc()
            path.unlink(missing_ok=True)
            if self._misses is not None:
                self._misses.inc()
            return None
        if self._hits is not None:
            self._hits.inc()
        return flat

    @staticmethod
    def _map(path: Path, num_vertices: int) -> Optional[FlatHubLabeling]:
        """Map ``path`` zero-copy and CRC it; None unless it holds an
        intact store of ``num_vertices`` vertices."""
        from .shm import MappedLabelStore

        try:
            store = MappedLabelStore(path)
        except (ArtifactCorruptError, OSError, ValueError):
            # ValueError covers mmap of an empty (zero-length) file.
            return None
        if store.flat.num_vertices == num_vertices:
            try:
                store.verify()
                return store.flat
            except ArtifactCorruptError:
                pass
        store.close()
        return None

    def store(
        self, graph: Graph, order: List[int], flat: FlatHubLabeling
    ) -> Path:
        """Persist ``flat`` for (graph, order); returns the artifact path.

        Atomic: the envelope is written to a temp file in the same
        directory and moved into place with ``os.replace``, so readers
        only ever see absent or complete artifacts.
        """
        return self._store(self.path_for(cache_key(graph, order)), flat)

    @staticmethod
    def _store(path: Path, flat: FlatHubLabeling) -> Path:
        """``store`` for an artifact path already derived from the key."""
        from ..core.io import flat_labeling_to_bytes

        tmp = path.with_suffix(f".tmp.{os.getpid()}")
        tmp.write_bytes(flat_labeling_to_bytes(flat))
        os.replace(tmp, path)
        return path

    def load_or_build(
        self, graph: Graph, order: Optional[List[int]] = None
    ) -> FlatHubLabeling:
        """Serve from the cache, building and persisting on a miss.

        ``order=None`` resolves to the canonical degree order first so
        the key always names the order actually used.  On a hit no
        construction runs at all (no ``build.flat`` span is emitted).
        The key is computed once and serves both the lookup and the
        store of a miss.
        """
        if order is None:
            from ..core.orders import degree_order

            order = degree_order(graph)
        path = self.path_for(cache_key(graph, order))
        flat = self._load(path, graph)
        if flat is not None:
            return flat
        flat = build_flat_labels(graph, order)
        self._store(path, flat)
        return flat
