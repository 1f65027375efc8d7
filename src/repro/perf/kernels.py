"""Vectorized batch-query kernels behind :meth:`FlatHubLabeling.batch_query`.

Everything here is optional: importing NumPy is attempted once, and
:func:`build_accelerator` returns ``None`` whenever the environment or
the labeling does not qualify, in which case the flat store answers
through its pure-Python merge loop.  A labeling qualifies when every
stored distance is a non-negative integer small enough to pack (true
for all the unweighted ``G_{b,l}`` hard instances; weighted or
fault-perturbed labelings fall back automatically).

Two exact kernels, picked per batch by the shape of the query list:

* **One-to-many rows** -- when many pairs share a source ``u`` (the
  shape of verification sweeps and distance-matrix rows), scatter
  ``S(u)`` into a dense ``hub -> distance`` vector once, and every
  target ``v`` is answered by one gather + add + segmented-min pass
  over ``S(v)``: ``min_h dense[h] + dist(v, h)``.  About three linear
  passes over the touched label entries, no per-pair alignment at all.
* **Sort-free pair merge** -- for scattered pairs, gather each
  endpoint's label run tagged with ``pair_index << hub_bits | hub``.
  The two tagged arrays are *already globally sorted* (pair-major,
  hub-ascending inside each run), so the per-pair label intersection
  collapses into a single ``np.searchsorted`` of one side into the
  other (NumPy's guess-based binary search is near-linear for sorted
  needles) plus a segmented ``minimum.reduceat`` over the matched sums.

Both return exactly what the dict store would, INF for non-intersecting
pairs included.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from ..graphs.traversal import INF

try:  # NumPy is an optional accelerator, never a hard dependency.
    import numpy as _np
except ImportError:  # pragma: no cover - exercised on numpy-free installs
    _np = None

__all__ = ["HAVE_NUMPY", "build_accelerator", "BatchAccelerator"]

HAVE_NUMPY = _np is not None

#: "absent" marker in the dense source vector; valid sums must stay
#: below it, so the kernels require ``2 * max_distance < _SENTINEL``
#: (and ``_SENTINEL + max_distance`` must fit uint16, which it does).
_SENTINEL = 32000

#: Pairs sharing a source switch to the one-to-many row kernel once the
#: group is big enough to amortize the dense scatter/reset.
_ROW_THRESHOLD = 8

#: Pairs per merge-kernel chunk are additionally capped so batch
#: scratch (a few hundred label entries per pair) stays in memory.
_MAX_CHUNK = 32768


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
    """Precomputed NumPy views + scratch for one flat labeling."""

    def __init__(self, offsets, hubs, dists, num_vertices, max_dist):
        np = _np
        self._n = num_vertices
        self._offsets = offsets
        self._lens = np.diff(offsets)
        self._hubs = hubs.astype(np.int32)
        self._dists = dists.astype(np.uint16)
        # Reusable dense source vector for the row kernel.
        self._dense = np.full(num_vertices, _SENTINEL, dtype=np.uint16)
        # Tagged merge keys are ``pair_index << hub_bits | hub``; chunk
        # the batch so they stay positive int32.
        hub_bits = max(1, int(num_vertices - 1).bit_length())
        self._hub_bits = hub_bits
        pair_bits = 31 - hub_bits
        self._chunk = (
            min(_MAX_CHUNK, 1 << pair_bits) if pair_bits >= 1 else 1
        )
        self._index_dtype = (
            np.int32 if len(self._hubs) < 2**31 else np.int64
        )
        # Smallest value meaning "no meeting hub" (any valid sum is
        # at most ``2 * max_dist``); masked to INF on output.
        self._big = 2 * max_dist + 1

    # ------------------------------------------------------------------
    # One-to-many row kernel
    # ------------------------------------------------------------------
    def query_row(self, source: int, targets=None, *, private=False):
        """``d(source, v)`` for each target, as an int64 array.

        ``targets=None`` means every vertex.  Entries without a meeting
        hub hold ``self._big`` (callers mask to INF).  The shared dense
        scratch vector is only safe under the caller's serialisation
        (a server calls its oracle under one lock); ``private=True``
        uses a fresh one, for callers outside that lock.
        """
        np = _np
        offsets, lens = self._offsets, self._lens
        s0, s1 = offsets[source], offsets[source + 1]
        source_hubs = self._hubs[s0:s1]
        if private:
            dense = np.full(self._n, _SENTINEL, dtype=np.uint16)
        else:
            dense = self._dense
        dense[source_hubs] = self._dists[s0:s1]
        try:
            if targets is None:
                vals = dense[self._hubs] + self._dists
                nz = lens > 0
                out = np.full(self._n, self._big, dtype=np.int64)
                out[nz] = np.minimum.reduceat(vals, offsets[:-1][nz])
            else:
                targets = np.asarray(targets, dtype=np.int64)
                tlens = lens[targets]
                total = int(tlens.sum())
                if 2 * total >= len(self._hubs):
                    # Dense target set: one pass over the whole store
                    # plus a gather beats assembling per-target runs.
                    vals = dense[self._hubs] + self._dists
                    nz = lens > 0
                    row = np.full(self._n, self._big, dtype=np.int64)
                    row[nz] = np.minimum.reduceat(vals, offsets[:-1][nz])
                    out = row[targets]
                else:
                    out = np.full(len(targets), self._big, dtype=np.int64)
                    if total:
                        it = _seg_indices(
                            offsets[targets], tlens, total, self._index_dtype
                        )
                        vals = dense[self._hubs[it]] + self._dists[it]
                        starts = np.zeros(len(targets), dtype=np.int64)
                        np.cumsum(tlens[:-1], out=starts[1:])
                        nz = tlens > 0
                        out[nz] = np.minimum.reduceat(vals, starts[nz])
        finally:
            dense[source_hubs] = _SENTINEL
        out[out > self._big] = self._big
        return out

    # ------------------------------------------------------------------
    # Batch entry point
    # ------------------------------------------------------------------
    def batch_query(
        self, pairs: Sequence[Tuple[int, int]]
    ) -> List[float]:
        np = _np
        pair_arr = np.asarray(pairs, dtype=np.int64).reshape(len(pairs), 2)
        us = pair_arr[:, 0]
        vs = pair_arr[:, 1]
        m = len(pairs)
        best = np.full(m, self._big, dtype=np.int64)

        # Route source-heavy groups through the row kernel.
        uniq, inverse, counts = np.unique(
            us, return_inverse=True, return_counts=True
        )
        rowable = counts[inverse] >= _ROW_THRESHOLD
        if rowable.any():
            row_idx = np.flatnonzero(rowable)
            order = row_idx[np.argsort(us[row_idx], kind="stable")]
            group_sources = us[order]
            bounds = np.flatnonzero(np.diff(group_sources)) + 1
            for segment in np.split(order, bounds):
                best[segment] = self.query_row(
                    int(us[segment[0]]), vs[segment]
                )
            scattered = np.flatnonzero(~rowable)
        else:
            scattered = np.arange(m)

        for start in range(0, len(scattered), self._chunk):
            idx = scattered[start : start + self._chunk]
            self._merge_chunk(us[idx], vs[idx], best, idx)

        # tolist() restores Python ints, matching the dict backend's
        # answers exactly (see flat._dedouble); INF is patched after.
        out: List[float] = best.tolist()
        for index in np.flatnonzero(best >= self._big):
            out[index] = INF
        return out

    # ------------------------------------------------------------------
    # Scattered-pair merge kernel
    # ------------------------------------------------------------------
    def _merge_chunk(self, us, vs, best, idx) -> None:
        np = _np
        m = len(us)
        if m == 0:
            return
        lens_u = self._lens[us]
        lens_v = self._lens[vs]
        total_u = int(lens_u.sum())
        total_v = int(lens_v.sum())
        if total_u == 0 or total_v == 0:
            return
        hub_bits = self._hub_bits
        tags = np.arange(m, dtype=np.int32) << hub_bits
        iu = _seg_indices(
            self._offsets[us], lens_u, total_u, self._index_dtype
        )
        iv = _seg_indices(
            self._offsets[vs], lens_v, total_v, self._index_dtype
        )
        keys_u = np.repeat(tags, lens_u)
        keys_u |= self._hubs[iu]
        keys_v = np.repeat(tags, lens_v)
        keys_v |= self._hubs[iv]
        # Both key arrays are globally ascending by construction:
        # pair-major order, hub-ascending within each run.
        pos = np.searchsorted(keys_v, keys_u)
        pos_c = np.minimum(pos, total_v - 1)
        match = keys_v[pos_c] == keys_u
        if not match.any():
            return
        cand = (
            self._dists[iu[match]].astype(np.int64)
            + self._dists[iv[pos_c[match]]]
        )
        cand_pair = keys_u[match] >> hub_bits
        # cand_pair ascends; reduce each pair's run of candidates.
        starts = np.searchsorted(cand_pair, np.arange(m, dtype=np.int32))
        chunk_counts = np.diff(np.append(starts, len(cand_pair)))
        nz = chunk_counts > 0
        if not nz.any():
            return
        sub = idx[nz]
        # best[sub] is a copy (fancy index); assign, don't use out=.
        best[sub] = np.minimum(
            best[sub], np.minimum.reduceat(cand, starts[nz])
        )


def _seg_indices(starts, lens, total, dtype):
    """Gather indices for concatenated slices ``starts[i]:starts[i]+lens[i]``.

    The classic ones-and-jumps cumsum trick, hardened for zero-length
    segments (their heads coincide with the next segment's and must not
    be written).
    """
    np = _np
    nz = lens > 0
    s = starts[nz].astype(dtype)
    ln = lens[nz].astype(dtype)
    heads = np.zeros(len(ln), dtype=dtype)
    np.cumsum(ln[:-1], out=heads[1:])
    out = np.ones(total, dtype=dtype)
    out[0] = s[0]
    out[heads[1:]] = s[1:] - (s[:-1] + ln[:-1] - 1)
    return np.cumsum(out)
