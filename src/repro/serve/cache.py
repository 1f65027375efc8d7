"""Thread-safe LRU result cache, scoped to one label generation.

Distance answers are immutable for a fixed labeling, so repeat queries
are pure cache fodder -- but *only* for a fixed labeling.  The cache is
therefore keyed by a **generation token**; the server mints a fresh
one per oracle swap in O(1):

* :meth:`ResultCache.put` carries the generation the answer was
  computed under and is dropped silently if the server has re-keyed in
  the meantime -- an in-flight batch from the previous oracle can never
  poison the cache after :meth:`~repro.serve.server.QueryServer.set_oracle`;
* :meth:`ResultCache.get` / :meth:`ResultCache.get_many` take the same
  guard: a key made under a swapped-out generation (packed for another
  vertex count, say) misses instead of reading a current entry;
* :meth:`ResultCache.rekey` clears everything when the generation
  actually changed, and keeps the warm entries otherwise.

:func:`labeling_digest` names a labeling by its *content* for artifact
identity; the serving path never computes it.

Everything mutates under one lock; ``get`` / ``put`` are O(1) via
``OrderedDict`` recency moves.  ``capacity == 0`` disables caching
entirely (every ``get`` misses, every ``put`` is dropped) -- what the
benchmarks use to measure the uncached serving path.
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict
from typing import Hashable, List, Optional, Sequence, Tuple

__all__ = ["ResultCache", "labeling_digest", "MISS"]

#: Sentinel distinguishing "not cached" from a cached ``None``.
MISS = object()


def labeling_digest(store) -> str:
    """A sha256 hex digest of a label store's *content*.

    Accepts either label store (:class:`~repro.core.hublabel.HubLabeling`
    dicts or :class:`~repro.perf.flat.FlatHubLabeling` arrays) and
    hashes the same canonical byte stream for both: every entry as one
    CSR triple (:meth:`~repro.perf.flat.FlatHubLabeling.csr`, the dense
    part merged back into the runs) -- int64 offsets, hubs ascending
    per run in the hub tier of ``n``, and the distances in their
    narrowest exact tier, the two tiers tagged by dtype.  A dict store
    is frozen first, so a dict store, its flat freeze and an ``mmap``
    or shared-memory view of its version-5 artifact share one digest,
    mirroring their byte-identical query contract; so does any store
    holding the same entries under another dense part (a spliced store
    keeps its input's).  The arrays are hashed as raw buffers (three
    ``update`` calls); a store with a dense part is merged first, one
    pass over its entries.
    """
    if not hasattr(store, "csr"):
        from ..perf.flat import FlatHubLabeling

        store = FlatHubLabeling.from_labeling(store)
    offsets, hubs, dists = store.csr()
    hasher = hashlib.sha256()
    hasher.update(
        f"csr4:n{store.num_vertices}:{hubs.dtype.str}:{dists.dtype.str}:".encode()
    )
    for values in (offsets, hubs, dists):
        hasher.update(memoryview(values))
    return hasher.hexdigest()


class ResultCache:
    """A bounded, generation-scoped LRU map of query results."""

    def __init__(self, capacity: int) -> None:
        if capacity < 0:
            raise ValueError("capacity must be non-negative")
        self.capacity = capacity
        self._entries: "OrderedDict[Hashable, object]" = OrderedDict()
        self._generation: Optional[str] = None
        self._lock = threading.Lock()

    @property
    def generation(self) -> Optional[str]:
        return self._generation

    def rekey(self, generation: str) -> bool:
        """Adopt ``generation``; clear if it differs.  True if cleared."""
        with self._lock:
            changed = generation != self._generation
            self._generation = generation
            if changed:
                self._entries.clear()
            return changed

    def get(self, key: Hashable, generation: Optional[str] = None):
        """The cached value for ``key`` (freshened), or :data:`MISS`.

        A ``generation`` that no longer matches the cache's (the key was
        made for an oracle since swapped out) misses, as :meth:`put`
        drops a stale store.
        """
        with self._lock:
            if generation is not None and generation != self._generation:
                return MISS
            try:
                value = self._entries[key]
            except KeyError:
                return MISS
            self._entries.move_to_end(key)
            return value

    def put(self, key: Hashable, value, generation: Optional[str] = None) -> bool:
        """Store ``key -> value``; True if it was accepted.

        A ``generation`` that no longer matches the cache's (the oracle
        was swapped while the answer was in flight) drops the put --
        that is the staleness guard, not an error.
        """
        with self._lock:
            if self.capacity == 0:
                return False
            if generation is not None and generation != self._generation:
                return False
            self._entries[key] = value
            self._entries.move_to_end(key)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
            return True

    def get_many(
        self, keys: Sequence[Hashable], generation: Optional[str] = None
    ) -> List[object]:
        """Cached values for ``keys`` under one lock; :data:`MISS` gaps.

        The batch-path counterpart of :meth:`get`: one lock round-trip
        probes a whole submitted batch.  Hits are freshened exactly as
        single gets are; a stale ``generation`` misses every key.
        """
        with self._lock:
            if generation is not None and generation != self._generation:
                return [MISS] * len(keys)
            entries = self._entries
            out = []
            for key in keys:
                try:
                    value = entries[key]
                except KeyError:
                    out.append(MISS)
                else:
                    entries.move_to_end(key)
                    out.append(value)
            return out

    def put_many(
        self,
        keys: Sequence[Hashable],
        values: Sequence[object],
        generation: Optional[str] = None,
    ) -> bool:
        """Store ``keys[i] -> values[i]`` under one lock; True if accepted.

        The whole batch shares one generation check (the answers were
        computed under one oracle hold), so a swap mid-flight drops the
        batch atomically -- never a half-stale cache.
        """
        with self._lock:
            if self.capacity == 0:
                return False
            if generation is not None and generation != self._generation:
                return False
            entries = self._entries
            for key, value in zip(keys, values):
                entries[key] = value
                entries.move_to_end(key)
            while len(entries) > self.capacity:
                entries.popitem(last=False)
            return True

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    def keys(self) -> Tuple[Hashable, ...]:
        """Current keys, least- to most-recently used (for tests)."""
        with self._lock:
            return tuple(self._entries)

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __repr__(self) -> str:
        return (
            f"ResultCache(size={len(self)}, capacity={self.capacity}, "
            f"generation={str(self._generation)[:12]!r})"
        )
