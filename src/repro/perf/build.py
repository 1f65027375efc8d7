"""Fast label construction: bit-parallel PLL, emitted straight to CSR.

:func:`repro.core.pll.pruned_landmark_labeling` is the reference
builder: one pruned BFS per root, labels accumulated in per-vertex
dicts, then a separate dict->:class:`FlatHubLabeling` conversion for
the serving layout.  On the pinned G(2,2) bench instance that costs
about 7 s of build plus the conversion -- the construction side is the
bottleneck now that queries are served from flat arrays.

:func:`build_flat_labels` replaces that pipeline with the multi-root
batching trick from the PLL literature (Akiba-Iwata-Yoshida style
bit-parallel batching, widened):

* roots are processed ``_BATCH`` at a time in rank order; one
  level-synchronous BFS carries all the batch frontiers at once, so
  frontier expansion, visit extraction (a sort over packed
  ``vertex * _BATCH + slot`` keys) and the pruning tests are a handful
  of NumPy array operations per level instead of millions of
  interpreter steps;
* labels accumulate directly in a store of hub *ranks*, one run per
  vertex with spare capacity behind it.  A batch only ever adds ranks
  higher than everything stored, so its commits are appended in place
  after each run's end with one vectorized scatter.  Only when some
  run would outgrow its capacity is the whole store laid out again,
  every capacity set to twice its run.  A run overflows only after it
  has doubled since the last re-layout, so re-layouts are rare (2 over
  the 48 batches of G(2,2)) and a build moves few stored entries
  beyond the ones it appends.  One final compaction emits a
  :class:`FlatHubLabeling` without ever materializing the per-vertex
  dict -- the conversion step disappears;
* the output is **identical** to the reference builder's canonical
  hierarchical labeling (tests assert byte equality over the
  differential corpus).  Within a batch the pruning test must see
  exactly the entries sequential PLL would have committed: lower-slot
  in-flight entries are consulted through a dense in-flight distance
  matrix keyed by discovered root-to-root pairs, and the only same-level
  interaction -- a lower-rank root reaching a higher-rank root's
  vertex -- is resolved by a vectorized mirror-key fix-up restricted
  to visits landing on batch-root vertices (see ``_bitparallel_flat``).

Weighted graphs take the reference builder
(:func:`repro.core.pll.pruned_landmark_labeling`) followed by
:meth:`FlatHubLabeling.from_labeling` -- same output.  Either way the
store comes out in the compact layout of :mod:`repro.perf.flat` (hub
ids in the store's hub tier, narrowest exact dist tier); the
bit-parallel path maps ranks straight to hub ids of that tier, so the
freeze adopts its arrays without a narrowing copy.  Builds report a
``build.flat`` tracing span, the
``build.duration_seconds{builder=...}`` gauge and a
``build.bitparallel_passes`` counter (created even when the fallback
runs, so snapshots always carry it).  ``BUILDER_VERSION`` participates
in the persistent cache key (:mod:`repro.perf.cache`): bump it whenever
the emitted labeling could change for the same (graph, order).
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from ..core.pll import _report_build_rate, pruned_landmark_labeling
from ..graphs.csr import CSRGraph
from ..graphs.graph import Graph
from ..obs.catalog import (
    BUILD_BITPARALLEL_PASSES,
    BUILD_DURATION_SECONDS,
)
from ..obs.registry import get_registry
from ..obs.spans import span
from .flat import FlatHubLabeling
from .kernels import cell_index, dense_cells, dense_hubs, dist_dtype, hub_dtype

__all__ = ["BUILDER_VERSION", "build_flat_labels", "bitparallel_available"]

#: Version of the construction algorithm; part of the label-cache key.
#: Bump on any change that could alter the emitted labeling.
BUILDER_VERSION = 1

#: "Unreached" sentinel for batched distances.  Small enough that two
#: sentinels sum without overflowing int32, large enough to exceed any
#: real BFS distance.
_UNREACHED = 1 << 29

#: Roots per pass (power of two).  Wider batches amortize the
#: per-level NumPy dispatch overhead over more frontiers -- the
#: in-flight coverage test is sparse, so widening does not blow up the
#: per-visit work.  Tests shrink this to exercise batch boundaries on
#: small graphs.
_BATCH = 512


def bitparallel_available(graph: Graph) -> bool:
    """True when ``build_flat_labels`` will take the bit-parallel path."""
    return not graph.is_weighted


def build_flat_labels(
    graph: Graph, order: Optional[List[int]] = None
) -> FlatHubLabeling:
    """Build the canonical hierarchical labeling, emitted as flat CSR.

    Same output as ``FlatHubLabeling.from_labeling(
    pruned_landmark_labeling(graph, order))`` -- the identity is
    asserted by the differential tests -- produced by the bit-parallel
    batched builder when the graph is unweighted and non-empty, and by
    the reference builder otherwise.

    Reports a ``build.flat`` span plus the build metrics from the
    module docstring; :mod:`repro.perf.cache` relies on the span being
    absent on cache hits to prove construction was skipped.
    """
    if order is None:
        from ..core.orders import degree_order

        order = degree_order(graph)
    if sorted(order) != list(graph.vertices()):
        raise ValueError("order must be a permutation of the vertices")

    registry = get_registry()
    passes = (
        registry.counter(BUILD_BITPARALLEL_PASSES)
        if registry.enabled
        else None
    )
    with span("build.flat") as build_span:
        if bitparallel_available(graph) and graph.num_vertices:
            builder = "bitparallel"
            flat = _bitparallel_flat(graph, order, passes)
        else:
            builder = "fallback"
            flat = FlatHubLabeling.from_labeling(
                pruned_landmark_labeling(graph, order)
            )
    if registry.enabled:
        registry.gauge(BUILD_DURATION_SECONDS, builder=builder).set(
            build_span.duration
        )
    _report_build_rate("flat-" + builder, flat, build_span.duration)
    return flat


# ----------------------------------------------------------------------
# Bit-parallel batched construction
# ----------------------------------------------------------------------
def _seg_indices(starts, lens, total):
    """Concatenated ``[starts[i], starts[i] + lens[i])`` ranges.

    The ones-and-jumps cumsum gather; zero-length segments are allowed.
    """
    if total == 0:
        return np.empty(0, dtype=np.int64)
    nz = lens > 0
    s = starts[nz].astype(np.int64)
    l = lens[nz].astype(np.int64)
    ends = np.cumsum(l)
    out = np.ones(total, dtype=np.int64)
    out[0] = s[0]
    if s.size > 1:
        out[ends[:-1]] = s[1:] - (s[:-1] + l[:-1]) + 1
    return np.cumsum(out)


def _grouped_runs(sorted_v):
    """Group starts, distinct values and counts of a sorted array."""
    c = sorted_v.size
    boundary = np.empty(c, dtype=bool)
    boundary[0] = True
    np.not_equal(sorted_v[1:], sorted_v[:-1], out=boundary[1:])
    gpos = np.flatnonzero(boundary)
    cnts = np.empty(gpos.size, dtype=np.int64)
    cnts[:-1] = gpos[1:] - gpos[:-1]
    cnts[-1] = c - gpos[-1]
    return gpos, sorted_v[gpos], cnts


def _relayout(store_hub, store_dist, lab_off, lab_len, total, cap):
    """Copy every run into a fresh store, run ``v`` with ``cap[v]`` cells.

    Returns the new ``(lab_off, store_hub, store_dist)``; the cells
    past each run's end are left uninitialised.
    """
    off = np.zeros(cap.size, dtype=np.int64)
    np.cumsum(cap[:-1], out=off[1:])
    size = int(off[-1] + cap[-1])
    hub = np.empty(size, dtype=store_hub.dtype)
    dist = np.empty(size, dtype=store_dist.dtype)
    if total:
        src = _seg_indices(lab_off, lab_len, total)
        dst = _seg_indices(off, lab_len, total)
        hub[dst] = store_hub[src]
        dist[dst] = store_dist[src]
    return off, hub, dist


def _bitparallel_flat(
    graph: Graph, order: List[int], passes
) -> FlatHubLabeling:
    """``_BATCH`` roots per pass, one level-synchronous BFS per pass.

    Labels accumulate as (hub *rank*, distance) runs, vertex ``v``'s
    in ``cap[v]`` cells -- ascending ranks within each run by
    construction, because every batch appends strictly higher ranks,
    so a batch's commits are appended in place with one vectorized
    scatter.  A batch that would overflow some run's capacity first
    re-lays the whole store out (:func:`_relayout`), every capacity
    twice its run's new length.  A run overflows only once it has
    doubled since the last re-layout, so that happens a few times per
    build, not once per batch.  In-flight entries of the current
    batch live in a dense distance matrix (``dinf``) consulted
    through per-slot rows of known lower roots (``jcol``/``jdist``) by
    the coverage tests; the finished store is converted to id-sorted
    hub arrays once at the end.
    """
    n = graph.num_vertices
    K = max(1, _BATCH)
    # Slot bits of the packed (vertex, slot) keys: the next power of
    # two >= K, so any batch width works, not just powers of two.
    kshift = (K - 1).bit_length()
    kmask = (1 << kshift) - 1
    csr = CSRGraph(graph)
    adj_off = csr.offsets
    adj_tgt = csr.targets
    deg = np.diff(adj_off)
    order_arr = np.asarray(order, dtype=np.int64)
    ar_n = np.arange(n, dtype=np.int64)

    # Committed labels over all finished batches: vertex v's run is
    # lab_len[v] entries at lab_off[v], followed by spare cells up to
    # its capacity cap[v] for later batches' appends.  store_hub holds
    # hub RANKS (strictly ascending within each run).
    lab_off = np.zeros(n, dtype=np.int64)
    lab_len = np.zeros(n, dtype=np.int64)
    rank_counts = np.zeros(n, dtype=np.int64)  # entries per hub rank
    cap = np.zeros(n, dtype=np.int64)
    store_hub = np.empty(0, dtype=np.int32)
    store_dist = np.empty(0, dtype=np.int32)
    total = 0

    # Dense scratch, reused across batches (flat layouts back the
    # pre-multiplied index gathers in the coverage tests -- measurably
    # faster than 2-D fancy indexing):
    #   drootf[i*n + h] -- committed distance from batch root i to hub-rank h
    #   dinf[j*n + v]   -- in-flight distance from batch root j to vertex v
    #   seen[v*K + s]   -- 1 when slot s already visited vertex v
    #   root_index[v]   -- batch slot of v when v is a batch root, else -1
    # The in-flight coverage test iterates per visiting slot r over its
    # row J(r) of *known* lower roots j < r (those with a discovered
    # root-to-root distance): jcol/jdist hold the (j*n, distance) pairs,
    # K slots per row -- a row can never exceed K-1 entries, so the rows
    # need no growth logic.
    droot = np.full((K, n), _UNREACHED, dtype=np.int32)
    drootf = droot.ravel()
    dinf = np.full(n * K, _UNREACHED, dtype=np.int32)
    jlen = np.zeros(K, dtype=np.int64)
    jcol = np.empty(K * K, dtype=np.int64)
    jdist = np.empty(K * K, dtype=np.int32)
    seen = np.zeros(n << kshift, dtype=np.uint8)
    root_index = np.full(n, -1, dtype=np.int64)
    slots_all = np.arange(K, dtype=np.int64)
    iota = np.arange(max(n, 1), dtype=np.int64)

    for batch_start in range(0, n, K):
        roots = order_arr[batch_start : batch_start + K]
        k = roots.size
        if passes is not None:
            passes.inc()
        slots = slots_all[:k]

        # Scatter the roots' committed runs into the dense droot rows
        # (undone by scattering the same positions back at batch end).
        rl = lab_len[roots]
        rtot = int(rl.sum())
        if rtot:
            ri = _seg_indices(lab_off[roots], rl, rtot)
            rrow = np.repeat(slots, rl)
            rhub = store_hub[ri].astype(np.int64)
            droot[rrow, rhub] = store_dist[ri]
        root_index[roots] = slots

        # Level 0: every root commits (root, root, 0) -- a self-entry
        # is never covered (no lower-rank hub is at distance 0).
        root_keys = (roots << kshift) | slots
        seen[root_keys] = 1
        fresh_keys = [root_keys]
        dinf[slots * n + roots] = 0
        commit_vs = [roots]
        commit_ss = [slots]
        level_sizes = [k]
        level_ds = [0]
        commit_v = roots
        commit_s = slots
        d = 0
        while True:
            # Propagate the committed frontier one level: pack each
            # (target, slot) edge into one sortable key, then sort +
            # dedup + drop already-seen pairs.  The surviving keys are
            # this level's visits, vertex-major.
            degs = deg[commit_v]
            E = int(degs.sum())
            if E == 0:
                break
            ei = _seg_indices(adj_off[commit_v], degs, E)
            keys = (adj_tgt[ei] << kshift) | np.repeat(commit_s, degs)
            keys.sort()
            if E > 1:
                uniq = np.empty(E, dtype=bool)
                uniq[0] = True
                np.not_equal(keys[1:], keys[:-1], out=uniq[1:])
                keys = keys[uniq]
            keys = keys[seen[keys] == 0]
            m = keys.size
            if m == 0:
                break
            d += 1
            seen[keys] = 1
            fresh_keys.append(keys)
            visit_v = keys >> kshift
            rb = keys & kmask

            # Coverage against committed labels of earlier batches:
            # merge each visit vertex's run with its root's dense row.
            lens = lab_len[visit_v]
            G = int(lens.sum())
            prior = np.full(m, _UNREACHED, dtype=np.int32)
            if G:
                li = _seg_indices(lab_off[visit_v], lens, G)
                gi = np.repeat(rb * n, lens) + store_hub[li]
                vals = drootf[gi] + store_dist[li]
                gs = np.zeros(m, dtype=np.int64)
                np.cumsum(lens[:-1], out=gs[1:])
                nz = lens > 0
                prior[nz] = np.minimum.reduceat(vals, gs[nz])

            # Coverage against this batch's own commits (levels < d):
            # min over the visiting slot's known lower roots j of the
            # root-to-root distance plus the in-flight distance from
            # root j to the visit vertex.  Rows only ever hold j < r
            # entries, and a j that never reached v reads _UNREACHED
            # from dinf -- no masking needed in either direction.
            jl = jlen[rb]
            IG = int(jl.sum())
            inb = np.full(m, _UNREACHED, dtype=np.int32)
            if IG:
                ji = _seg_indices(rb * K, jl, IG)
                ivals = dinf[jcol[ji] + np.repeat(visit_v, jl)] + jdist[ji]
                gs2 = np.zeros(m, dtype=np.int64)
                np.cumsum(jl[:-1], out=gs2[1:])
                nz2 = jl > 0
                inb[nz2] = np.minimum.reduceat(ivals, gs2[nz2])
            cov = np.minimum(prior, inb) <= d

            # Same-level fix-up: the only entries invisible to the
            # vectorized tests are commits made *this* level by lower
            # slots.  Sequential replay shows they can only cover a
            # visit landing on a batch-root vertex, and only through a
            # zero-distance leg -- i.e. when two batch roots reach
            # *each other* at this very level.  So among the surviving
            # root-vertex visits, a visit of slot r at root iv's vertex
            # is covered exactly when its mirror (slot iv at root r's
            # vertex) also survived and iv < r (the lower-slot mirror
            # commits first in rank order); everything else commits.
            fx = np.flatnonzero((root_index[visit_v] >= 0) & ~cov)
            if fx.size:
                ivs = root_index[visit_v[fx]]
                rs = rb[fx]
                key_own = ivs * K + rs
                key_mirror = rs * K + ivs
                own_sorted = np.sort(key_own)
                pos = np.searchsorted(own_sorted, key_mirror)
                pos_c = np.minimum(pos, own_sorted.size - 1)
                mirrored = (own_sorted[pos_c] == key_mirror) & (ivs < rs)
                cov[fx[mirrored]] = True
                # Append the discovered root-to-root distance to the
                # *higher* slot's J row (the coverage test only ever
                # consults lower roots j < r, so the other direction
                # would be dead).  Equal ivs values are contiguous --
                # the visits are vertex-major -- so the grouped-runs
                # ordinals land the appends of one row back to back.
                lo = ~mirrored & (rs < ivs)
                rows = ivs[lo]
                if rows.size:
                    cols = rs[lo]
                    gp2, urow, cnt2 = _grouped_runs(rows)
                    if rows.size > iota.size:
                        iota = np.arange(rows.size, dtype=np.int64)
                    dst = (
                        rows * K
                        + jlen[rows]
                        + iota[: rows.size]
                        - np.repeat(gp2, cnt2)
                    )
                    jcol[dst] = cols * n
                    jdist[dst] = d
                    jlen[urow] += cnt2

            keep = ~cov
            commit_v = visit_v[keep]
            commit_s = rb[keep]
            c = commit_v.size
            if c == 0:
                break
            commit_vs.append(commit_v)
            commit_ss.append(commit_s)
            level_sizes.append(c)
            level_ds.append(d)
            dinf[commit_s * n + commit_v] = d

        # Reset per-batch scratch touched this batch.
        if rtot:
            droot[rrow, rhub] = _UNREACHED
        root_index[roots] = -1
        seen[np.concatenate(fresh_keys)] = 0
        allv = np.concatenate(commit_vs)
        alls = np.concatenate(commit_ss)
        dinf[alls * n + allv] = _UNREACHED
        jlen[:] = 0

        # Append the batch's commits to their vertices' runs: every new
        # entry has a higher rank than everything stored, so it goes
        # after the run's current end.  Only when some run would outgrow
        # its capacity is the whole store laid out again, with every
        # capacity twice its run.
        dlev = np.repeat(
            np.asarray(level_ds, dtype=np.int64),
            np.asarray(level_sizes, dtype=np.int64),
        )
        k2 = (allv << kshift) | alls
        srt = np.argsort(k2)
        sk = k2[srt]
        v_new = sk >> kshift
        j_new = sk & kmask
        d_new = dlev[srt]
        h_new = batch_start + j_new
        A = sk.size
        gpos, uvn, cnts = _grouped_runs(v_new)
        if A > iota.size:
            iota = np.arange(A, dtype=np.int64)
        ordinal = iota[:A] - np.repeat(gpos, cnts)
        new_len = lab_len.copy()
        new_len[uvn] += cnts
        if (new_len[uvn] > cap[uvn]).any():
            # Empty runs get one cell, so a vertex first reached by a
            # later batch (another component, an isolated vertex) does
            # not force a re-layout for its self-entry.
            cap = np.maximum(2 * new_len, 1)
            lab_off, store_hub, store_dist = _relayout(
                store_hub, store_dist, lab_off, lab_len, total, cap
            )
        dest_new = lab_off[v_new] + lab_len[v_new] + ordinal
        store_hub[dest_new] = h_new
        store_dist[dest_new] = d_new
        lab_len = new_len
        total += A
        rank_counts[batch_start : batch_start + k] = np.bincount(
            j_new, minlength=k
        )

    # Compact the runs, then write the store's split: the dense part
    # takes the entries of the most frequent hubs, and only the tail has
    # its ranks mapped to vertex ids and each run re-sorted by hub id
    # for the merge invariant (stable argsort on vertex-major keys).
    lab_off, store_hub, store_dist = _relayout(
        store_hub, store_dist, lab_off, lab_len, total, lab_len
    )
    tier = dist_dtype(store_dist)
    counts = np.empty(n, dtype=np.int64)
    counts[order_arr] = rank_counts
    chosen = dense_hubs(counts, tier)
    dense = dense_cells(len(chosen), n, tier)
    tail_len = lab_len
    if len(chosen):
        # Each dense hub's rank maps to its column's cell of vertex 0.
        rank = np.empty(n, dtype=np.int64)
        rank[order_arr] = ar_n
        first_cell = np.full(n, -1, dtype=np.int64)
        first_cell[rank[chosen]] = cell_index(np.arange(len(chosen)), 0, n)
        cells = first_cell[store_hub]
        into = cells >= 0
        # Every vertex holds its own entry, so no run is empty.
        dense_len = np.add.reduceat(into, lab_off, dtype=np.int64)
        cells = cells[into]
        cells += np.repeat(cell_index(0, ar_n, n), dense_len)
        dense.reshape(-1)[cells] = store_dist[into]
        keep = ~into
        store_hub, store_dist = store_hub[keep], store_dist[keep]
        tail_len = lab_len - dense_len
    offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(tail_len, out=offsets[1:])
    owner = np.repeat(ar_n, tail_len)
    hub_ids = order_arr.astype(hub_dtype(n))[store_hub]
    perm = np.argsort(owner * n + hub_ids, kind="stable")
    return FlatHubLabeling.from_buffers(
        offsets,
        hub_ids[perm],
        store_dist[perm].astype(tier),
        chosen,
        dense,
        dense_entries=total - int(offsets[-1]),
        validate=False,
    )
