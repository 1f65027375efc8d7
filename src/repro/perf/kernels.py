"""Vectorized batch-query kernels behind :meth:`FlatHubLabeling.batch_query`.

Everything here is optional: importing NumPy is attempted once, and
:func:`build_accelerator` returns ``None`` whenever the environment or
the labeling does not qualify, in which case the flat store answers
through its pure-Python merge loop.  A labeling qualifies when every
stored distance is a non-negative integer small enough to pack (true
for all the unweighted ``G_{b,l}`` hard instances; weighted or
fault-perturbed labelings fall back automatically).

One exact pair kernel, :meth:`BatchAccelerator.query_pairs`, serves
every pair list, scattered or source-rooted (a row is the one-source
case).  It groups the pairs by distinct source and walks the sources
in blocks of ``C = max(1, 2**18 // n)``.  Each block scatters its
sources' labels once into a ``uint16`` scratch of ``min(k, C) * n``
cells (``k`` distinct sources) at ``slot * n + hub``, so the scratch
never exceeds ``max(2**18, n)`` cells (512 KB when ``n <= 2**18``) and
stays in L2.  Every target entry of the block's pairs is then one
gather from the scratch: ``dense[slot * n + h] + dist(v, h)``; the
written cells are reset before the next block.  After the last block
one segmented ``minimum.reduceat`` over the target runs gives every
pair's answer.  Pairs are taken in passes of about ``2**20`` target
entries, which bounds the transient index arrays of large batches.

:meth:`BatchAccelerator.query_row` keeps the one shape the pair kernel
does not cover cheaply: one source against *every* vertex, a single
pass over the whole store.

Every call allocates its own scratch and nothing else is written after
construction, so one store can be queried from several threads at
once.  Answers equal the dict store's exactly, INF for non-intersecting
pairs included.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from ..graphs.traversal import INF

try:  # NumPy is an optional accelerator, never a hard dependency.
    import numpy as _np
except ImportError:  # pragma: no cover - exercised on numpy-free installs
    _np = None

__all__ = ["HAVE_NUMPY", "build_accelerator", "BatchAccelerator"]

HAVE_NUMPY = _np is not None

#: "absent" marker in the scratch; valid sums must stay below it, so
#: the kernels require ``2 * max_distance < _SENTINEL`` (and
#: ``_SENTINEL + max_distance`` must fit uint16, which it does).
_SENTINEL = 32000

#: Scratch cells per block: ``max(1, _SCRATCH // n)`` sources share one
#: ``uint16`` scratch of at most this many cells (512 KB).
_SCRATCH = 1 << 18

#: Target label entries per pass of the pair kernel.
_PASS = 1 << 20


def build_accelerator(offsets, hubs, dists, num_vertices):
    """A :class:`BatchAccelerator` for the flat arrays, or ``None``.

    ``None`` means "use the pure-Python path": NumPy missing, an empty
    labeling, non-integer distances, or distances too large to pack.
    """
    if _np is None or num_vertices == 0 or len(hubs) == 0:
        return None
    dist_arr = _np.asarray(dists, dtype=_np.float64)
    int_dists = dist_arr.astype(_np.int64)
    if not (int_dists == dist_arr).all() or (int_dists < 0).any():
        return None
    max_dist = int(int_dists.max())
    if 2 * max_dist >= _SENTINEL:
        return None
    return BatchAccelerator(
        _np.asarray(offsets, dtype=_np.int64),
        _np.asarray(hubs, dtype=_np.int64),
        int_dists,
        num_vertices,
        max_dist,
    )


class BatchAccelerator:
    """Read-only packed copies of one flat labeling, and its kernels."""

    def __init__(self, offsets, hubs, dists, num_vertices, max_dist):
        np = _np
        self._n = num_vertices
        self._offsets = offsets
        self._lens = np.diff(offsets)
        self._hubs = hubs.astype(np.int32)
        self._dists = dists.astype(np.uint16)
        # Smallest value meaning "no meeting hub" (any valid sum is
        # at most ``2 * max_dist``); masked to INF on output.
        self._big = 2 * max_dist + 1

    def batch_query(
        self, pairs: Sequence[Tuple[int, int]]
    ) -> List[float]:
        pair_arr = _np.asarray(pairs, dtype=_np.int64).reshape(len(pairs), 2)
        best = self.query_pairs(pair_arr[:, 0], pair_arr[:, 1])
        # tolist() restores Python ints, matching the dict backend's
        # answers exactly (see flat._dedouble); INF is patched after.
        out: List[float] = best.tolist()
        for index in _np.flatnonzero(best >= self._big):
            out[index] = INF
        return out

    def query_row(self, source: int):
        """``d(source, v)`` for every vertex ``v``, as an int64 array.

        Entries without a meeting hub hold ``self._big`` or more.
        """
        np = _np
        s0, s1 = self._offsets[source], self._offsets[source + 1]
        dense = np.full(self._n, _SENTINEL, dtype=np.uint16)
        dense[self._hubs[s0:s1]] = self._dists[s0:s1]
        vals = dense.take(self._hubs)
        vals += self._dists
        nz = self._lens > 0
        out = np.full(self._n, self._big, dtype=np.int64)
        out[nz] = np.minimum.reduceat(vals, self._offsets[:-1][nz])
        return out

    def query_pairs(self, us, vs):
        """``d(us[i], vs[i])`` for int64 arrays ``us``, ``vs``, as an
        int64 array; pairs without a meeting hub hold ``self._big`` or
        more."""
        np = _np
        m = len(us)
        best = np.empty(m, dtype=np.int64)
        if not m:
            return best
        sources, slots = np.unique(us, return_inverse=True)
        order = np.argsort(slots, kind="stable")
        slots = slots[order]
        targets = vs[order]
        tlens = self._lens[targets]
        per_block = max(1, _SCRATCH // self._n)
        scratch = np.full(
            min(len(sources), per_block) * self._n, _SENTINEL, dtype=np.uint16
        )
        ends = np.cumsum(tlens)
        cuts = np.searchsorted(
            ends, np.arange(_PASS, int(ends[-1]), _PASS), side="right"
        )
        bounds = [0, *cuts.tolist(), m]
        for a, b in zip(bounds, bounds[1:]):
            if a < b:
                best[order[a:b]] = self._pass(
                    sources, slots[a:b], targets[a:b], tlens[a:b],
                    scratch, per_block,
                )
        return best

    def _pass(self, sources, slots, targets, tlens, scratch, per_block):
        # ``slots`` ascends; the pass covers sources[first:last], and a
        # source's row in the block scratch is ``slot % per_block``.
        # ``si`` / ``ti`` index the source / target label entries.
        np = _np
        n = self._n
        out = np.full(len(slots), self._big, dtype=np.int64)
        first, last = int(slots[0]), int(slots[-1]) + 1
        slens = self._lens[sources[first:last]]
        si, sheads = _runs(self._offsets[sources[first:last]], slens)
        ti, theads = _runs(self._offsets[targets], tlens)
        if not len(si) or not len(ti):
            return out
        rows = np.arange(first, last) % per_block * n
        cells = np.repeat(rows, slens)
        cells += self._hubs.take(si)
        source_dists = self._dists.take(si)
        keys = np.repeat(rows[slots - first], tlens)
        keys += self._hubs.take(ti)
        vals = np.empty(len(ti), dtype=np.uint16)
        block_starts = np.arange(
            (first // per_block + 1) * per_block, last, per_block
        )
        ecut = theads[np.searchsorted(slots, block_starts)].tolist()
        scut = sheads[block_starts - first].tolist()
        ecut = [0, *ecut, len(ti)]
        scut = [0, *scut, len(si)]
        for e0, e1, s0, s1 in zip(ecut, ecut[1:], scut, scut[1:]):
            block_cells = cells[s0:s1]
            scratch[block_cells] = source_dists[s0:s1]
            np.take(scratch, keys[e0:e1], out=vals[e0:e1], mode="clip")
            scratch[block_cells] = _SENTINEL
        vals += self._dists.take(ti)
        nz = tlens > 0
        out[nz] = np.minimum.reduceat(vals, theads[:-1][nz])
        return out


def _runs(starts, lens):
    """Indices of the concatenated runs ``starts[i] : starts[i] + lens[i]``
    (int64, so they index without a cast), and each run's head in them."""
    np = _np
    heads = np.zeros(len(lens) + 1, dtype=np.int64)
    np.cumsum(lens, out=heads[1:])
    idx = np.repeat(starts - heads[:-1], lens)
    idx += np.arange(heads[-1])
    return idx, heads
