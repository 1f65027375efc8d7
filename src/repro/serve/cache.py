"""Content identity for label stores: :func:`labeling_digest`.

A labeling is named by a sha256 digest of its entries, the same for
every layout and view of one labeling, for artifact identity.  The
serving path never computes it.
"""

from __future__ import annotations

import hashlib

__all__ = ["labeling_digest"]


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
