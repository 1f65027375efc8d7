"""Vectorized batch-query kernels over a flat store's own arrays.

The kernels read a :class:`~repro.perf.flat.FlatHubLabeling`'s CSR
triple in place -- int64 ``offsets``, ``hubs`` in the store's hub
dtype and ``dists`` in its dist dtype -- so no store keeps a second,
kernel-private copy of its labels.  Both dtypes are chosen once, when
the store is frozen.  The hub dtype follows from the vertex count
(:func:`hub_dtype`): ``uint16`` when ``n <= 2**16``, ``int32``
otherwise.  The dist dtype is the narrowest exact one
(:func:`dist_dtype`):

==========  ==========================================  ===========
dtype       holds                                        "absent"
==========  ==========================================  ===========
``uint16``  integral distances ``0 <= d < 16000``        ``32000``
``uint32``  integral distances ``0 <= d < 2**30``        ``2**31``
``float64`` everything else (fractional, negative, big)  ``inf``
==========  ==========================================  ===========

Each tier's "absent" value (:data:`SENTINELS`) fills the kernels'
scratch: every valid sum of two distances stays below it, and the
sentinel plus any one distance still fits the dtype, so a pair with no
meeting hub comes out ``>=`` the sentinel and every other pair exactly.
Weighted, fractional and huge-distance labelings therefore run the
same kernels as the unweighted hard instances.

One exact pair kernel, :func:`query_pairs`, serves every pair list,
scattered or source-rooted (a row is the one-source case).  It groups
the pairs by distinct source and walks the sources in blocks of
``C = max(1, 2**18 // n)``.  Each block scatters its sources' labels
once into a scratch of ``min(k, C) * n`` cells (``k`` distinct
sources) at ``slot * n + hub``, so the scratch never exceeds
``max(2**18, n)`` cells (512 KB of ``uint16`` when ``n <= 2**18``) and
stays in L2.  Every target entry of the block's pairs is then one
gather from the scratch: ``dense[slot * n + h] + dist(v, h)``; the
written cells are reset before the next block.  After the last block
one segmented ``minimum.reduceat`` over the target runs gives every
pair's answer.  Pairs are taken in passes of about ``2**16`` target
entries, and each pass frees its int64 label-entry indices as soon as
it has gathered through them, so a ticket's transient arrays stay
near 2 MB however large it is (a 4096-pair ``G(2,2)`` ticket took
8 MB in one pass).  That matters on a serving thread: glibc keeps a
non-main thread's freed blocks resident in its arena.

Kernel indices are int64.  ``ndarray.take`` with a narrower index
array first copies the whole index array to ``intp``, and ``a[idx]``
avoids the copy but gathers about half as fast; so a narrow ``hubs``
array is only ever used as an index in slices of :data:`_GATHER`
entries.

:func:`query_row` keeps the one shape the pair kernel does not cover
cheaply: one source against *every* vertex, a single pass over the
whole store.

Every call allocates its own scratch and writes nothing else, so one
store can be queried from several threads at once.
"""

from __future__ import annotations

import numpy as np

__all__ = ["SENTINELS", "dist_dtype", "hub_dtype", "query_pairs", "query_row"]

#: Every dist dtype a store may hold, with its "absent" scratch value.
SENTINELS = {
    np.dtype(np.uint16): 32000,
    np.dtype(np.uint32): 1 << 31,
    np.dtype(np.float64): np.inf,
}

#: Scratch cells per block: ``max(1, _SCRATCH // n)`` sources share one
#: scratch of at most this many cells.
_SCRATCH = 1 << 18

#: Target label entries per pass of the pair kernel.
_PASS = 1 << 16

#: Hub ids gathered through per slice when ``hubs`` is the index array.
_GATHER = 1 << 16

#: Stores of at most this many vertices keep ``uint16`` hub ids.
_NARROW_HUBS = 1 << 16


def hub_dtype(n: int) -> np.dtype:
    """The hub-id dtype of a store over ``n`` vertices."""
    return np.dtype(np.uint16 if n <= _NARROW_HUBS else np.int32)


def dist_dtype(dists: np.ndarray) -> np.dtype:
    """The narrowest dtype of :data:`SENTINELS` holding ``dists`` exactly."""
    if not dists.size:
        return np.dtype(np.uint16)
    lo, hi = dists.min(), dists.max()
    if (
        not (lo >= 0 and hi < 1 << 30)
        or dists.dtype.kind == "f" and (dists != np.floor(dists)).any()
    ):
        return np.dtype(np.float64)
    return np.dtype(np.uint16 if hi < 16000 else np.uint32)


def query_row(offsets, hubs, dists, source: int):
    """``d(source, v)`` for every vertex ``v``, in ``dists.dtype``.

    Entries without a meeting hub hold the dtype's sentinel or more.
    """
    sentinel = SENTINELS[dists.dtype]
    n = len(offsets) - 1
    s0, s1 = offsets[source], offsets[source + 1]
    dense = np.full(n, sentinel, dtype=dists.dtype)
    dense[hubs[s0:s1]] = dists[s0:s1]
    vals = np.empty(len(hubs), dtype=dists.dtype)
    for a in range(0, len(hubs), _GATHER):
        np.take(dense, hubs[a : a + _GATHER], out=vals[a : a + _GATHER])
    vals += dists
    lens = np.diff(offsets)
    nz = lens > 0
    out = np.full(n, sentinel, dtype=dists.dtype)
    out[nz] = np.minimum.reduceat(vals, offsets[:-1][nz])
    return out


def query_pairs(offsets, hubs, dists, us, vs):
    """``d(us[i], vs[i])`` for every pair, in ``dists.dtype``.

    ``us`` and ``vs`` are int64 arrays of vertex ids; pairs without a
    meeting hub hold the dtype's sentinel or more.
    """
    m = len(us)
    best = np.empty(m, dtype=dists.dtype)
    if not m:
        return best
    n = len(offsets) - 1
    sources, slots = np.unique(us, return_inverse=True)
    order = np.argsort(slots, kind="stable")
    slots = slots[order]
    targets = vs[order]
    tlens = offsets[targets + 1] - offsets[targets]
    per_block = max(1, _SCRATCH // n)
    scratch = np.full(
        min(len(sources), per_block) * n,
        SENTINELS[dists.dtype],
        dtype=dists.dtype,
    )
    ends = np.cumsum(tlens)
    cuts = np.searchsorted(
        ends, np.arange(_PASS, int(ends[-1]), _PASS), side="right"
    )
    bounds = [0, *cuts.tolist(), m]
    for a, b in zip(bounds, bounds[1:]):
        if a < b:
            best[order[a:b]] = _pass(
                offsets, hubs, dists, sources, slots[a:b], targets[a:b],
                tlens[a:b], scratch, per_block,
            )
    return best


def _pass(offsets, hubs, dists, sources, slots, targets, tlens, scratch,
          per_block):
    # ``slots`` ascends; the pass covers sources[first:last], and a
    # source's row in the block scratch is ``slot % per_block``.
    # ``si`` / ``ti`` index the source / target label entries.
    n = len(offsets) - 1
    sentinel = SENTINELS[dists.dtype]
    out = np.full(len(slots), sentinel, dtype=dists.dtype)
    first, last = int(slots[0]), int(slots[-1]) + 1
    block_sources = sources[first:last]
    slens = offsets[block_sources + 1] - offsets[block_sources]
    # Gather through each int64 index array, then free it before the
    # next one is built: a pass holds at most one of them at a time.
    si, sheads = _runs(offsets[block_sources], slens)
    if not len(si):
        return out
    source_hubs, source_dists = hubs.take(si), dists.take(si)
    del si
    ti, theads = _runs(offsets[targets], tlens)
    if not len(ti):
        return out
    target_hubs, target_dists = hubs.take(ti), dists.take(ti)
    del ti
    rows = np.arange(first, last) % per_block * n
    cells = np.repeat(rows, slens)
    cells += source_hubs
    del source_hubs
    keys = np.repeat(rows[slots - first], tlens)
    keys += target_hubs
    del target_hubs
    vals = np.empty(len(keys), dtype=dists.dtype)
    block_starts = np.arange(
        (first // per_block + 1) * per_block, last, per_block
    )
    ecut = theads[np.searchsorted(slots, block_starts)].tolist()
    scut = sheads[block_starts - first].tolist()
    ecut = [0, *ecut, len(keys)]
    scut = [0, *scut, len(cells)]
    for e0, e1, s0, s1 in zip(ecut, ecut[1:], scut, scut[1:]):
        block_cells = cells[s0:s1]
        scratch[block_cells] = source_dists[s0:s1]
        np.take(scratch, keys[e0:e1], out=vals[e0:e1], mode="clip")
        scratch[block_cells] = sentinel
    vals += target_dists
    nz = tlens > 0
    out[nz] = np.minimum.reduceat(vals, theads[:-1][nz])
    return out


def _runs(starts, lens):
    """Indices of the concatenated runs ``starts[i] : starts[i] + lens[i]``
    (int64, so they index without a cast), and each run's head in them."""
    heads = np.zeros(len(lens) + 1, dtype=np.int64)
    np.cumsum(lens, out=heads[1:])
    idx = np.repeat(starts - heads[:-1], lens)
    idx += np.arange(heads[-1])
    return idx, heads
