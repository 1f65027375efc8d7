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
half-written entry behind.  A corrupt or truncated artifact is detected
at load (:class:`~repro.runtime.errors.ArtifactCorruptError`), counted,
deleted, and transparently rebuilt -- the cache can only ever make runs
faster, never wrong.

Observability: every lookup increments ``build.cache_hits`` or
``build.cache_misses``; every discarded artifact increments
``build.cache_invalidations``.  A cache hit performs **no**
construction, so the ``build.flat`` tracing span is absent from hit
paths -- tests and the CI smoke step use exactly that to prove the warm
run skipped the build.

With ``LabelCache(directory, mmap=True)`` a hit does not even
deserialize: the artifact is opened through
:class:`~repro.perf.shm.MappedLabelStore`, so the returned labeling's
CSR arrays are zero-copy views over the mapped file.  The envelope
header is still validated eagerly (truncation and version skew
invalidate as usual) but the CRC is deferred, making a warm start
O(page-in) instead of O(deserialize); such hits additionally count
``shm.attaches{source=mmap}``.
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

    def __init__(
        self, directory: Union[str, Path], *, mmap: bool = False
    ) -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.mmap = mmap
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
        rebuilds).  With ``mmap=True`` the artifact is mapped instead
        of deserialized (header validated now, CRC deferred) and the
        labeling's arrays view the file directly.
        """
        return self._load(self.path_for(cache_key(graph, order)), graph)

    def _load(self, path: Path, graph: Graph) -> Optional[FlatHubLabeling]:
        """``load`` for an artifact path already derived from the key."""
        if not path.exists():
            if self._misses is not None:
                self._misses.inc()
            return None
        flat = (
            self._load_mapped(path) if self.mmap else self._load_bytes(path)
        )
        if flat is None or flat.num_vertices != graph.num_vertices:
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

    def _load_bytes(self, path: Path) -> Optional[FlatHubLabeling]:
        """Fully deserialize ``path`` (CRC checked now), None if corrupt."""
        from ..core.io import flat_labeling_from_bytes

        try:
            return flat_labeling_from_bytes(path.read_bytes())
        except (ArtifactCorruptError, FileNotFoundError):
            return None

    def _load_mapped(self, path: Path) -> Optional[FlatHubLabeling]:
        """Map ``path`` zero-copy (CRC deferred), None if the header lies."""
        from .shm import MappedLabelStore

        try:
            store = MappedLabelStore(path)
        except (ArtifactCorruptError, FileNotFoundError, ValueError,
                OSError):
            # ValueError covers mmap of an empty (zero-length) file.
            return None
        return store.flat

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
