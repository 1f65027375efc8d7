"""Vectorized batch-query kernels over a flat store's own arrays.

The kernels read a :class:`~repro.perf.flat.FlatHubLabeling`'s arrays
in place, so no store keeps a second, kernel-private copy of its
labels.  A store is split in two parts (see :mod:`repro.perf.flat`):

* the **dense part**: ``K`` hub ids and an ``n x K`` matrix ``D``
  holding ``d(v, hub)`` at row ``v``, or the tier's sentinel where
  ``v`` lacks that hub.  ``D`` is stored in tiles of :data:`TILE` (8)
  columns, one ``(ceil(K / 8), n, 8)`` array: tile ``t`` holds each
  vertex's cells of columns ``8t .. 8t + 7`` side by side (16 bytes of
  ``uint16``), and the last tile's unused lanes hold the sentinel;
* the **tail**: every other entry as a CSR triple -- int64
  ``offsets``, ``hubs`` in the store's hub dtype and ``dists`` in its
  dist dtype.

Every hub lives in one part only, so a pair's answer is the smaller of
``min over columns (D[u] + D[v])`` and the tail's merge.  Both dtypes
are chosen once, when the store is produced.  The hub dtype follows
from the vertex count (:func:`hub_dtype`): ``uint16`` when
``n <= 2**16``, ``int32`` otherwise.  The dist dtype is the narrowest
exact one (:func:`dist_dtype`):

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
same kernels as the unweighted hard instances.  Only the ``uint16``
and ``float64`` tiers may hold a dense part, because a dense sum adds
two cells that may both be the sentinel: ``32000 + 32000`` fits
``uint16`` and ``inf + inf`` is ``inf``, but ``2**31 + 2**31`` wraps
to 0 in ``uint32``.

:func:`dense_hubs` picks the dense part from the hub frequencies: the
largest set of most-frequent hubs whose cells, in whole tiles, take no
more bytes than the entries they replace, and none when that set holds
fewer than :data:`_MIN_DENSE` hubs (32 ``uint16`` cells are one 64-byte
line).  PLL's hierarchical labels pile entries onto a few hubs, so on
the hard instance ``G(2,2)`` 64 columns hold 68% of the entries in
fewer bytes; on sparser stores ``K`` is 0 and the dense part is empty.

One exact pair kernel, :func:`query_pairs`, serves every pair list,
scattered or source-rooted (a row is the one-source case).  The dense
part gathers both endpoints' tiles, adds them and takes the minimum
over every column.  The tail groups the pairs by distinct source and
walks the sources in blocks of ``C = max(1, S // n)`` with
``S = 2**18`` scratch cells scaled by the store's entries over its tail
entries, so a block holds as many tail entries as a store without a
dense part holds entries.  Each block scatters its sources' tail runs
once into a scratch of ``min(k, C) * n`` cells (``k`` distinct
sources) at ``slot * n + hub``.  Every target entry of the block's
pairs is then one gather from the scratch: ``scratch[slot * n + h] +
dist(v, h)``; the written cells are reset before the next block.
After the last block one segmented ``minimum.reduceat`` over the
target runs gives every pair's tail answer.  Pairs are taken in passes
of about ``2**16`` target entries, divided by the square of the factor
that scales the blocks up, and each pass frees its int64 label-entry
indices as soon as it has gathered through them, so a ticket's
transient arrays stay near 2 MB however large it is (a 4096-pair
``G(2,2)`` ticket took 8 MB in one pass).  That matters on a serving thread: glibc
keeps a non-main thread's freed blocks resident in its arena.  The
dense part runs after the tail has freed its scratch, in chunks of
about :data:`_DENSE_CHUNK` cells.

Kernel indices are int64.  ``ndarray.take`` with a narrower index
array first copies the whole index array to ``intp``, and ``a[idx]``
avoids the copy but gathers about half as fast; so a narrow ``hubs``
array is only ever used as an index in slices of :data:`_GATHER`
entries.

:func:`query_row` keeps the one shape the pair kernel does not cover
cheaply: one source against *every* vertex, a single pass over the
tail plus one add and minimum per dense column the source holds, each
read with a stride of one tile.  Tiles trade the two shapes: NumPy
takes a per-vertex minimum over a row of ``K`` cells at about 50 ns a
vertex, which would dominate the row, while gathering single cells of
a column-major ``D`` would double the pair kernel's dense part.

Every call allocates its own scratch and writes nothing else, so one
store can be queried from several threads at once.
"""

from __future__ import annotations

import operator

import numpy as np

from ..runtime.errors import DomainError

__all__ = [
    "DENSE_TIERS",
    "SENTINELS",
    "TILE",
    "cell_index",
    "dense_cells",
    "dense_hubs",
    "dense_shape",
    "dist_dtype",
    "hub_dtype",
    "query_pairs",
    "query_row",
    "vertex_ids",
]

#: Every dist dtype a store may hold, with its "absent" scratch value.
SENTINELS = {
    np.dtype(np.uint16): 32000,
    np.dtype(np.uint32): 1 << 31,
    np.dtype(np.float64): np.inf,
}

#: The dist dtypes that may hold a dense part: two sentinels sum
#: inside them.
DENSE_TIERS = (np.dtype(np.uint16), np.dtype(np.float64))

#: Scratch cells per block of a store without a dense part:
#: ``max(1, _SCRATCH // n)`` sources share one scratch.
_SCRATCH = 1 << 18

#: Target label entries per pass of a store without a dense part.
_PASS = 1 << 16

#: Hub ids gathered through per slice when ``hubs`` is the index array.
_GATHER = 1 << 16

#: Dense columns per tile of the dense part.
TILE = 8

#: Dense cells gathered per chunk of pairs.
_DENSE_CHUNK = 1 << 18

#: Stores of at most this many vertices keep ``uint16`` hub ids.
_NARROW_HUBS = 1 << 16

#: Fewest dense columns a store keeps; below it the dense part is empty.
_MIN_DENSE = 32


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


def dense_hubs(counts: np.ndarray, dists: np.dtype) -> np.ndarray:
    """The hub ids of a store's dense part, ascending.

    ``counts[h]`` is how many entries hub ``h`` holds and ``dists`` the
    store's dist dtype.  The part is the largest set of most-frequent
    hubs (ties to the smaller id) whose cells -- whole tiles of ``n``
    rows, unused lanes included -- take no more bytes than the entries
    they replace; it is empty below :data:`_MIN_DENSE` hubs and on a
    tier outside :data:`DENSE_TIERS`.  The average of the top ``k``
    counts falls as ``k`` grows, so the tiles that pay for themselves
    are a prefix and the part fills whole tiles unless the store has
    fewer hubs.
    """
    n = len(counts)
    hub = hub_dtype(n)
    if dists not in DENSE_TIERS or not n:
        return np.empty(0, dtype=hub)
    entry = hub.itemsize + dists.itemsize
    column = n * dists.itemsize
    # No k beyond every entry's bytes over one column's can pay, which
    # also keeps the cells' bytes inside int64.
    limit = min(n, int(counts.sum()) * entry // column)
    ranked = np.argsort(-counts, kind="stable")[:limit]
    replaced = np.cumsum(counts[ranked]) * entry
    lanes = -(-np.arange(1, limit + 1) // TILE) * TILE
    paying = np.flatnonzero(replaced >= lanes * column)
    k = int(paying[-1]) + 1 if len(paying) else 0
    if k < _MIN_DENSE:
        k = 0
    return np.sort(ranked[:k]).astype(hub)


def dense_shape(width: int, n: int) -> tuple:
    """The shape of a dense part of ``width`` columns over ``n``
    vertices: ``ceil(width / TILE)`` tiles of ``n x TILE`` cells."""
    return -(-width // TILE), n, TILE


def dense_cells(width: int, n: int, dtype: np.dtype) -> np.ndarray:
    """An empty dense part: every cell the sentinel of ``dtype``."""
    dtype = np.dtype(dtype)
    return np.full(dense_shape(width, n), SENTINELS[dtype], dtype=dtype)


def cell_index(columns, vertices, n: int):
    """Flat indices of the cells ``(vertices[i], columns[i])`` in a
    dense part over ``n`` vertices (int64 arrays in, int64 out)."""
    return columns // TILE * (n * TILE) + vertices * TILE + columns % TILE


def vertex_ids(values) -> np.ndarray:
    """``values`` as an int64 array of vertex ids, shape kept.

    Raises :class:`DomainError` naming the first value that is not an
    integer (a float, a string), instead of truncating or parsing it
    into another vertex.  Integers beyond int64 stay Python ints in an
    object array; no vertex is that large, so range checks reject them.
    """
    arr = np.asarray(values)
    if arr.dtype.kind in "bi" or arr.dtype.kind == "u" and arr.itemsize < 8:
        return arr.astype(np.int64, copy=False)
    if not arr.size:
        return arr.astype(np.int64)
    if arr.dtype.kind == "u":
        big = arr > np.iinfo(np.int64).max
        return arr.astype(object if big.any() else np.int64)
    for value in arr.reshape(-1).tolist():
        try:
            operator.index(value)
        except TypeError:
            raise DomainError(
                f"vertex {value!r} is not an integer vertex id"
            ) from None
    try:
        return arr.astype(np.int64)
    except OverflowError:
        return arr


def query_row(offsets, hubs, dists, source: int, dense=None):
    """``d(source, v)`` for every vertex ``v``, in ``dists.dtype``.

    ``dense`` is the store's dense part, its tiles (``None``: no dense
    part).  Entries without a meeting hub hold the dtype's sentinel or
    more.
    """
    sentinel = SENTINELS[dists.dtype]
    n = len(offsets) - 1
    s0, s1 = offsets[source], offsets[source + 1]
    scratch = np.full(n, sentinel, dtype=dists.dtype)
    scratch[hubs[s0:s1]] = dists[s0:s1]
    vals = np.empty(len(hubs), dtype=dists.dtype)
    for a in range(0, len(hubs), _GATHER):
        np.take(scratch, hubs[a : a + _GATHER], out=vals[a : a + _GATHER])
    vals += dists
    lens = np.diff(offsets)
    nz = lens > 0
    out = np.full(n, sentinel, dtype=dists.dtype)
    out[nz] = np.minimum.reduceat(vals, offsets[:-1][nz])
    if dense is not None and len(dense):
        # Only the columns the source holds can meet.
        cells = dense[:, source].reshape(-1)
        held = np.flatnonzero(cells < sentinel)
        for column, cell in zip(held.tolist(), cells[held].tolist()):
            np.add(dense[column // TILE, :, column % TILE], cell, out=scratch)
            np.minimum(out, scratch, out=out)
    return out


def query_pairs(offsets, hubs, dists, us, vs, dense=None, dense_entries=0):
    """``d(us[i], vs[i])`` for every pair, in ``dists.dtype``.

    ``us`` and ``vs`` are int64 arrays of vertex ids; ``dense`` is the
    store's dense part, its tiles (``None``: no dense part), and
    ``dense_entries`` the entries it holds.  Pairs without a meeting
    hub hold the dtype's sentinel or more.
    """
    m = len(us)
    best = np.empty(m, dtype=dists.dtype)
    if not m:
        return best
    n = len(offsets) - 1
    tail = len(hubs)
    entries = tail + dense_entries
    # Pairs grouped by source, each source's in submission order.
    order = np.argsort(us, kind="stable")
    grouped = us[order]
    heads = np.empty(m, dtype=bool)
    heads[0] = True
    np.not_equal(grouped[1:], grouped[:-1], out=heads[1:])
    sources = grouped[heads]
    slots = np.cumsum(heads) - 1
    targets = vs[order]
    tlens = offsets[targets + 1] - offsets[targets]
    # A block holds as many tail entries as a dense-free store's block
    # holds entries.  The passes shrink by the square of that factor:
    # the bigger scratch comes out of their index arrays, so a ticket's
    # transients do not grow.
    per_block = max(1, _SCRATCH * entries // (max(tail, 1) * n))
    per_pass = max(1, _PASS * tail * tail // max(entries * entries, 1))
    scratch = np.full(
        min(len(sources), per_block) * n,
        SENTINELS[dists.dtype],
        dtype=dists.dtype,
    )
    ends = np.cumsum(tlens)
    cuts = np.searchsorted(
        ends, np.arange(per_pass, int(ends[-1]), per_pass), side="right"
    )
    bounds = [0, *cuts.tolist(), m]
    for a, b in zip(bounds, bounds[1:]):
        if a < b:
            best[order[a:b]] = _pass(
                offsets, hubs, dists, sources, slots[a:b], targets[a:b],
                tlens[a:b], scratch, per_block,
            )
    del scratch
    if dense is not None and len(dense):
        _dense_pairs(dense, us, vs, best)
    return best


def _dense_pairs(dense, us, vs, best) -> None:
    """Lower ``best`` to ``min over columns (D[u] + D[v])`` per pair:
    each endpoint's cells are gathered as whole tiles."""
    step = max(1, _DENSE_CHUNK // (len(dense) * TILE))
    for a in range(0, len(us), step):
        sums = dense.take(us[a : a + step], axis=1)
        sums += dense.take(vs[a : a + step], axis=1)
        lowest = sums.min(axis=0).min(axis=1)
        np.minimum(best[a : a + step], lowest, out=best[a : a + step])


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
