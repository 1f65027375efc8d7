"""Fast label construction: bit-parallel PLL, emitted straight to CSR.

:func:`repro.core.pll.pruned_landmark_labeling` is the reference
builder: one pruned BFS per root, labels accumulated in per-vertex
dicts, then a separate dict->:class:`FlatHubLabeling` conversion for
the serving layout.  On the pinned G(2,2) bench instance that costs
~25s of build plus ~0.9s of conversion -- the construction side is the
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
* labels accumulate directly in a CSR store of hub *ranks* (ascending
  within each run by construction), merged once per batch with a
  vectorized scatter into recycled ping-pong buffers; the finished
  store is emitted as a :class:`FlatHubLabeling` without ever
  materializing the per-vertex dict -- the conversion step disappears;
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
store comes out in the compact layout of :mod:`repro.perf.flat` (int32
hubs, narrowest exact dist tier).  Builds report a ``build.flat`` tracing span, the
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


def _bitparallel_flat(
    graph: Graph, order: List[int], passes
) -> FlatHubLabeling:
    """``_BATCH`` roots per pass, one level-synchronous BFS per pass.

    Labels accumulate as (hub *rank*, distance) CSR runs -- ascending
    ranks within each run by construction, because every batch appends
    strictly higher ranks, so the whole batch merges into the store
    with one vectorized scatter per pass.  In-flight entries of the
    current batch live in a dense distance matrix (``dinf``) consulted
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
    adj_off = np.asarray(csr.offsets, dtype=np.int64)
    adj_tgt = np.asarray(csr.targets, dtype=np.int64)
    deg = np.diff(adj_off)
    order_arr = np.asarray(order, dtype=np.int64)
    ar_n = np.arange(n, dtype=np.int64)

    # Committed labels over all finished batches, CSR over vertices.
    # store_hub holds hub RANKS (strictly ascending within each run).
    lab_off = np.zeros(n + 1, dtype=np.int64)
    lab_len = np.zeros(n, dtype=np.int64)
    # Views into ping-pong buffers (see the merge at the batch end);
    # zero-length slices so ``.base`` is valid from the first merge on.
    store_hub = np.empty(0, dtype=np.int32)[:0]
    store_dist = np.empty(0, dtype=np.int32)[:0]

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

    # Spare ping-pong pair for the committed-store merge: scattering
    # into a recycled buffer beats page-faulting a fresh allocation of
    # the same tens of MB on every pass.
    sp_hub = np.empty(0, dtype=np.int32)
    sp_dist = np.empty(0, dtype=np.int32)

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

        # Merge the batch's commits into the committed CSR: every new
        # entry has a higher rank than everything stored, so each
        # vertex's additions are appended to its run in one pass.
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
        counts = np.zeros(n, dtype=np.int64)
        counts[uvn] = cnts
        prefix = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(counts, out=prefix[1:])
        new_off = lab_off + prefix
        old_total = store_hub.size
        need = old_total + A
        if sp_hub.size < need:
            sp_hub = np.empty(need * 2, dtype=np.int32)
            sp_dist = np.empty(need * 2, dtype=np.int32)
        merged_hub = sp_hub[:need]
        merged_dist = sp_dist[:need]
        if old_total:
            if old_total > iota.size:
                iota = np.arange(old_total, dtype=np.int64)
            dest_old = iota[:old_total] + np.repeat(prefix[:n], lab_len)
            merged_hub[dest_old] = store_hub
            merged_dist[dest_old] = store_dist
        dest_new = new_off[v_new] + lab_len[v_new] + ordinal
        merged_hub[dest_new] = h_new
        merged_dist[dest_new] = d_new
        # The buffers backing the outgoing store become next batch's
        # scatter target; the merged views become the store.
        sp_hub, sp_dist = store_hub.base, store_dist.base
        store_hub, store_dist = merged_hub, merged_dist
        lab_off = new_off
        lab_len = lab_len + counts

    # Ranks -> vertex ids, each run re-sorted by hub id for the flat
    # store's merge invariant (stable argsort on vertex-major keys).
    hub_ids = order_arr[store_hub]
    owner = np.repeat(ar_n, lab_len)
    perm = np.argsort(owner * n + hub_ids, kind="stable")
    return FlatHubLabeling(
        lab_off,
        hub_ids[perm].astype(np.int32),
        store_dist[perm],
        validate=False,
    )
