"""Flat-array hub-label store: the query-side half of ``repro.perf``.

:class:`~repro.core.hublabel.HubLabeling` keeps one ``dict`` per vertex,
which is the right shape while a construction is still *adding* hubs but
a poor one for serving queries: every probe is a hash lookup, every
label a separate object graph.  The labeling literature serves queries
from flat sorted arrays instead -- Gawrychowski-Kosowski-Uznanski
(*Sublinear-Space Distance Labeling using Hubs*) and Goldberg et al.
(*Separating Hierarchical and General Hub Labelings*) both store labels
as id-sorted runs so that a query is a linear pointer merge.

:class:`FlatHubLabeling` is that layout, split in two parts:

* the **dense part** -- ``K`` hub ids (ascending, in the hub tier) and
  an ``n x K`` matrix ``D`` in the dist tier holding ``d(v, hub c)``
  at ``(v, c)``, and the tier's sentinel where ``v`` lacks that hub.
  ``D`` is stored in tiles of 8 columns (see :mod:`repro.perf.kernels`):
  one ``(ceil(K / 8), n, 8)`` array;
* the **tail** -- every other entry, as one CSR-style triple:

  * ``offsets`` -- int64; ``offsets[v] : offsets[v + 1]`` slices
    ``v``'s run,
  * ``hubs``    -- hub ids, ascending within each run, in the hub
    tier: ``uint16`` when ``n <= 2**16``, ``int32`` otherwise,
  * ``dists``   -- distances parallel to ``hubs``, in the narrowest
    exact dtype: ``uint16``, ``uint32`` or ``float64``.

A hub lives in one part only.  Hierarchical labels pile their entries
onto a few hubs, and a column of ``n`` cells beats a list of entries
once it is at least half full (``uint16`` cells against 4-byte
entries), so ``K`` follows from the store like the two tiers do
(:func:`~repro.perf.kernels.dense_hubs`): on the hard instance
``G(2,2)`` 64 columns hold 68% of 1,162,234 entries, in fewer bytes,
and sparser stores get ``K = 0``, an empty dense part.  The tiers and
``K`` are chosen once, when the store is produced.  Every producer
writes the split directly -- the bit-parallel builder
(:mod:`repro.perf.build`), the version-5 artifact envelope
(:mod:`repro.core.io`) and the dynamic splice (:mod:`repro.dynamic`),
which keeps its input's dense hubs -- so no build, load or edit makes
a pass over the entries to derive it.  Only the constructor, which
takes one CSR triple of every entry, derives the split (``_split``).

That layout is the batch kernels' own (:mod:`repro.perf.kernels`), so
they read the store in place, and it is what the envelope persists
byte for byte: an ``mmap`` of an artifact or a
``multiprocessing.shared_memory`` segment (see :mod:`repro.perf.shm`)
becomes a store without a copy, which is what lets N worker processes
serve one set of pages.  The store is immutable; build with the
constructor or :meth:`from_labeling` and convert back with
:meth:`to_labeling`.

Answers equal the dict store's in value and type, INF for
non-intersecting pairs included: integer tiers answer through
``tolist()`` (Python ``int``), the ``float64`` tier through
:func:`_dedouble`.
"""

from __future__ import annotations

import operator
from bisect import bisect_left
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from ..core.hublabel import HubLabeling
from ..graphs.traversal import INF
from ..runtime.errors import DomainError
from . import kernels

__all__ = ["FlatHubLabeling"]


class FlatHubLabeling:
    """An immutable flat-array view of a hub labeling: a dense part and
    a CSR tail.

    Duck-type compatible with the read side of
    :class:`~repro.core.hublabel.HubLabeling` (``query``, ``meet``,
    ``hubs``, ``label_size``, ``total_size``, ...), so
    :class:`~repro.oracles.oracle.HubLabelOracle` and
    :class:`~repro.core.fastquery.SortedHubIndex` can consume either
    store.  Mutation methods are deliberately absent: convert back to
    :class:`HubLabeling` to edit, or let
    :class:`~repro.dynamic.DynamicHubLabeling` produce a new store per
    edge edit.

    ``FlatHubLabeling(offsets, hubs, dists)`` takes every entry as one
    CSR triple, narrows it into the store's tiers and splits it (the
    one helper every CSR source goes through); arrays already in the
    store's layout are adopted without a copy by :meth:`from_buffers`.
    ``validate=True`` checks the structural invariants -- offsets
    start at 0 and are non-decreasing, lengths agree, hub ids in range
    and strictly ascending within each run, dense hubs ascending and
    in no run -- in a few vectorized passes; trusted producers pass
    ``False``.
    """

    __slots__ = (
        "_offsets", "_hubs", "_dists", "_dense_hubs", "_dense",
        "_dense_entries",
    )

    #: ``batch_query`` natively consumes an ``(m, 2)`` int64 ndarray --
    #: batch producers (the serving layer) may skip tuple-list packing.
    accepts_pair_arrays = True

    def __init__(
        self,
        offsets: Sequence[int],
        hubs: Sequence[int],
        dists: Sequence[float],
        *,
        validate: bool = True,
    ) -> None:
        offsets = np.asarray(offsets, dtype=np.int64)
        hubs = np.asarray(hubs)
        tier = kernels.hub_dtype(len(offsets) - 1)
        if hubs.dtype != tier:
            if hubs.size and (
                hubs.min() < 0 or hubs.max() > np.iinfo(tier).max
            ):
                raise ValueError(f"hub id out of range for {tier.name}")
            hubs = hubs.astype(tier)
        dists = np.asarray(dists)
        if dists.dtype.kind not in "uif":
            dists = dists.astype(np.float64)
        dists = dists.astype(kernels.dist_dtype(dists), copy=False)
        _check_lengths(offsets, hubs, dists)
        if validate:
            _check_runs(offsets, hubs)
        self._adopt(*_split(offsets, hubs, dists), validate=False)

    def _adopt(
        self, offsets, hubs, dists, dense_hubs, dense, dense_entries,
        *, validate: bool,
    ) -> None:
        _check_lengths(offsets, hubs, dists)
        n = len(offsets) - 1
        tiles = kernels.dense_shape(len(dense_hubs), n)
        if dense_hubs.ndim != 1 or dense.shape != tiles:
            raise ValueError(
                f"dense part of {len(dense_hubs)} columns over {n} vertices "
                f"must be {tiles} tiles, got {dense.shape}"
            )
        if len(dense_hubs) and dists.dtype not in kernels.DENSE_TIERS:
            raise ValueError(
                f"the {dists.dtype.name} dist tier cannot hold a dense part"
            )
        if not 0 <= dense_entries <= dense.size:
            raise ValueError(
                f"{dense_entries} dense entries in {dense.size} cells"
            )
        (
            self._offsets, self._hubs, self._dists, self._dense_hubs,
            self._dense,
        ) = (_readonly(values) for values in (
            offsets, hubs, dists, dense_hubs, dense
        ))
        self._dense_entries = int(dense_entries)
        if validate:
            self._validate()

    # ------------------------------------------------------------------
    # Conversion
    # ------------------------------------------------------------------
    @classmethod
    def from_buffers(
        cls, offsets, hubs, dists, dense_hubs, dense, *,
        dense_entries: int, validate: bool = True,
    ) -> "FlatHubLabeling":
        """Adopt arrays already in the store's layout -- zero copy.

        ``offsets`` / ``hubs`` / ``dists`` are the tail as int64 /
        hub-tier / dist-tier ndarrays, ``dense_hubs`` the dense part's
        hub ids in the hub tier, ``dense`` its ``(ceil(K / 8), n, 8)``
        tiles in the dist tier and ``dense_entries`` the cells of
        ``dense`` that hold an entry.  They are typically read-only
        views over an ``mmap`` of a version-5 artifact or a
        ``multiprocessing.shared_memory`` segment (see
        :func:`repro.core.io.flat_labeling_view`), or the fresh arrays
        of a producer that writes the layout itself.  The store keeps
        the underlying buffer alive, so a mapped file stays mapped
        exactly as long as someone can still query it.  Nothing is
        narrowed or scanned: ``validate=False`` makes opening a
        mapped artifact touch only the pages its queries read, and
        ``validate=True`` adds the structural checks plus a check that
        every distance lies inside its tier.
        """
        n = len(offsets) - 1
        hub = kernels.hub_dtype(n)
        for name, values, dtypes in (
            ("offsets", offsets, (np.dtype(np.int64),)),
            ("hubs", hubs, (hub,)),
            ("dists", dists, tuple(kernels.SENTINELS)),
            ("dense hubs", dense_hubs, (hub,)),
            ("dense tiles", dense, (getattr(dists, "dtype", None),)),
        ):
            if not isinstance(values, np.ndarray) or values.dtype not in dtypes:
                raise ValueError(
                    f"{name} must be a "
                    f"{'/'.join(str(getattr(d, 'name', d)) for d in dtypes)} "
                    f"array, got {getattr(values, 'dtype', type(values))}"
                )
        flat = cls.__new__(cls)
        flat._adopt(
            offsets, hubs, dists, dense_hubs, dense, dense_entries,
            validate=validate,
        )
        return flat

    def _validate(self) -> None:
        offsets, hubs, dists = self._triple()
        _check_runs(offsets, hubs)
        n = self.num_vertices
        sentinel = kernels.SENTINELS[dists.dtype]
        chosen, dense = self._dense_hubs, self._dense
        if len(chosen):
            if int(chosen.min()) < 0 or int(chosen.max()) >= n:
                raise ValueError(f"dense hub out of range for {n} vertices")
            if (chosen[1:] <= chosen[:-1]).any():
                raise ValueError("dense hubs are not strictly ascending")
            dense_hub = np.zeros(n, dtype=bool)
            dense_hub[chosen] = True
            if dense_hub.take(hubs.astype(np.intp)).any():
                raise ValueError("a dense hub also has entries in the tail")
            if dense.max() > sentinel:
                raise ValueError("a dense cell lies above its tier's sentinel")
            unused = dense[-1, :, (len(chosen) - 1) % kernels.TILE + 1 :]
            if (unused != sentinel).any():
                raise ValueError("an unused lane of the last tile holds a cell")
        held = np.count_nonzero(dense < sentinel)
        if held != self._dense_entries:
            raise ValueError(
                f"dense part holds {held} entries, "
                f"{self._dense_entries} declared"
            )
        if kernels.dist_dtype(dists).itemsize > dists.itemsize or (
            # Two distances sum below the sentinel, so an integer tier
            # holds distances below half of it.
            dists.dtype.kind == "u"
            and np.count_nonzero(dense < sentinel // 2) != held
        ):
            raise ValueError(
                f"distances exceed the {dists.dtype.name} dist tier"
            )

    @classmethod
    def from_labeling(cls, labeling: HubLabeling) -> "FlatHubLabeling":
        """Freeze a dict-based labeling into the flat layout.

        Well-defined because :meth:`HubLabeling.add_hub` keeps the
        minimum distance per ``(vertex, hub)`` -- each pair occurs at
        most once.
        """
        offsets = [0]
        hubs: List[int] = []
        dists: List[float] = []
        for v in range(labeling.num_vertices):
            for hub, dist in sorted(labeling.hubs(v).items()):
                hubs.append(hub)
                dists.append(dist)
            offsets.append(len(hubs))
        return cls(
            offsets,
            np.array(hubs, dtype=np.int64),
            np.array(dists, dtype=np.float64),
            validate=False,
        )

    def to_labeling(self) -> "HubLabeling":
        """Thaw back into a mutable dict-based :class:`HubLabeling`."""
        labeling = HubLabeling(self.num_vertices)
        offsets, hubs, dists = (values.tolist() for values in self.csr())
        for v in range(self.num_vertices):
            for i in range(offsets[v], offsets[v + 1]):
                labeling.add_hub(v, hubs[i], _dedouble(dists[i]))
        return labeling

    def csr(self):
        """Every entry as one CSR triple, the dense entries merged back
        into their runs: ``(offsets, hubs, dists)`` in the store's
        tiers, hubs ascending per run.  The tail itself when ``K = 0``,
        fresh arrays otherwise (one pass over the entries)."""
        return merge_dense(*self._triple(), self._dense_hubs, self._dense)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def _check_vertex(self, vertex) -> None:
        n = self.num_vertices
        try:
            if 0 <= operator.index(vertex) < n:
                return
        except TypeError:
            raise DomainError(
                f"vertex {vertex!r} is not an integer vertex id"
            ) from None
        raise DomainError(f"vertex {vertex} outside 0..{n - 1}")

    def _run(self, vertex: int) -> Tuple[List[int], List[float]]:
        """``vertex``'s hub ids and distances as Python lists, hubs
        ascending: its tail run merged with the dense cells it holds."""
        self._check_vertex(vertex)
        start, end = self._offsets[vertex : vertex + 2].tolist()
        hubs = self._hubs[start:end].tolist()
        dists = self._dists[start:end].tolist()
        if len(self._dense_hubs):
            cells = self._dense[:, vertex].reshape(-1)
            held = np.flatnonzero(cells < kernels.SENTINELS[cells.dtype])
            if len(held):
                merged = sorted(zip(
                    hubs + self._dense_hubs[held].tolist(),
                    dists + cells[held].tolist(),
                ))
                hubs = [hub for hub, _ in merged]
                dists = [dist for _, dist in merged]
        return hubs, dists

    def _merge(self, u: int, v: int) -> Tuple[float, Optional[int]]:
        """Two-pointer merge of the runs of ``u`` and ``v``: the best
        sum and a hub realizing it (``(INF, None)`` if none meets)."""
        hubs_u, dists_u = self._run(u)
        hubs_v, dists_v = self._run(v)
        i = j = 0
        end_i, end_j = len(hubs_u), len(hubs_v)
        best = INF
        best_hub: Optional[int] = None
        while i < end_i and j < end_j:
            hi = hubs_u[i]
            hj = hubs_v[j]
            if hi == hj:
                candidate = dists_u[i] + dists_v[j]
                if candidate < best:
                    best = candidate
                    best_hub = hi
                i += 1
                j += 1
            elif hi < hj:
                i += 1
            else:
                j += 1
        return best, best_hub

    def query(self, u: int, v: int) -> float:
        """Two-pointer merge over the id-sorted runs of ``u`` and ``v``."""
        return _dedouble(self._merge(u, v)[0])

    def meet(self, u: int, v: int) -> Optional[int]:
        """The smallest hub id realizing :meth:`query`'s minimum, or
        None."""
        return self._merge(u, v)[1]

    def batch_query(self, pairs: Sequence[Tuple[int, int]]) -> List[float]:
        """Distances for many pairs at once, through the pair kernel.

        Validates every vertex id up front (:class:`DomainError` before
        any work, for an id outside the store or one that is not an
        integer).  Results match ``[self.query(u, v) for u, v in
        pairs]`` exactly.
        """
        if not len(pairs):
            return []
        arr = self._vertices(pairs).reshape(len(pairs), 2)
        return self._answers(self._pairs(arr[:, 0], arr[:, 1]))

    def batch_query_from(
        self, source: int, targets: Optional[Sequence[int]] = None
    ) -> List[float]:
        """Distances from one source to many targets (``None`` = all).

        The source-rooted special case of :meth:`batch_query` -- the
        shape of verification sweeps and distance-matrix rows.
        Explicit targets go through the pair kernel and ``None``
        through the all-vertices row pass.
        """
        self._check_vertex(source)
        if targets is None:
            return self._answers(self._row(source))
        vs = self._vertices(targets)
        us = np.full(len(vs), source, dtype=np.int64)
        return self._answers(self._pairs(us, vs))

    def distance_row(self, source: int):
        """``d(source, v)`` for every vertex ``v`` as a float64 ndarray.

        ``INF`` where no hub meets; the values equal :meth:`query`'s
        exactly (integral distances are exact in float64).  Safe beside
        other threads reading the same store: every kernel call
        allocates its own scratch.
        """
        self._check_vertex(source)
        row = self._row(source)
        out = row.astype(np.float64)
        out[row >= kernels.SENTINELS[row.dtype]] = INF
        return out

    def arrays(self):
        """The tail's CSR triple as read-only NumPy views, without a copy.

        Returns ``(offsets, hubs, dists)`` as int64 / hub-tier /
        dist-tier arrays over the store's own memory; :meth:`dense`
        holds the other entries.
        """
        return self._triple()

    def dense(self):
        """The dense part as read-only NumPy views, without a copy:
        ``(hub ids, tiles)``, the ``K`` hub ids ascending in the hub
        tier and the ``(ceil(K / 8), n, 8)`` tiles of ``D`` in the dist
        tier -- cell ``(v, c)`` at ``tiles[c // 8, v, c % 8]``, the
        tier's sentinel where a vertex lacks the hub."""
        return self._dense_hubs, self._dense

    def _triple(self):
        return self._offsets, self._hubs, self._dists

    def _pairs(self, us, vs):
        return kernels.query_pairs(
            *self._triple(), us, vs, self._dense, self._dense_entries
        )

    def _row(self, source: int):
        return kernels.query_row(*self._triple(), source, self._dense)

    def _answers(self, best) -> List[float]:
        """Kernel output as the dict store's answers: Python numbers,
        INF where no hub meets."""
        out = best.tolist()
        if best.dtype.kind == "f":
            return [_dedouble(value) for value in out]
        for index in np.flatnonzero(
            best >= kernels.SENTINELS[best.dtype]
        ).tolist():
            out[index] = INF
        return out

    def _vertices(self, values):
        """``values`` as an int64 array, once every id in it is an
        integer vertex of the store (:class:`DomainError` naming the
        first offender otherwise)."""
        arr = kernels.vertex_ids(values)
        n = self.num_vertices
        outside = (arr < 0) | (arr >= n)
        if outside.any():
            bad = int(arr[outside].flat[0])
            raise DomainError(f"vertex {bad} outside 0..{n - 1}")
        return arr

    # ------------------------------------------------------------------
    # Read accessors (HubLabeling-compatible)
    # ------------------------------------------------------------------
    def hubs(self, vertex: int) -> Dict[int, float]:
        """A fresh ``hub -> distance`` dict for ``vertex``.

        Materialized per call (the flat store has no dicts); use the
        array accessors in hot loops.
        """
        hubs, dists = self._run(vertex)
        return {hub: _dedouble(dist) for hub, dist in zip(hubs, dists)}

    def hub_set(self, vertex: int) -> List[int]:
        return self._run(vertex)[0]

    def hub_distance(self, vertex: int, hub: int) -> Optional[float]:
        hubs, dists = self._run(vertex)
        at = bisect_left(hubs, hub)
        if at < len(hubs) and hubs[at] == hub:
            return _dedouble(dists[at])
        return None

    def __contains__(self, pair: Tuple[int, int]) -> bool:
        vertex, hub = pair
        return self.hub_distance(vertex, hub) is not None

    def items(self) -> Iterator[Tuple[int, Dict[int, float]]]:
        for v in range(self.num_vertices):
            yield v, self.hubs(v)

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------
    @property
    def num_vertices(self) -> int:
        return len(self._offsets) - 1

    @property
    def dense_width(self) -> int:
        """``K``, the number of dense columns (0: no dense part)."""
        return len(self._dense_hubs)

    def label_size(self, vertex: int) -> int:
        size = int(self._offsets[vertex + 1] - self._offsets[vertex])
        if len(self._dense_hubs):
            cells = self._dense[:, vertex]
            size += int(np.count_nonzero(cells < kernels.SENTINELS[cells.dtype]))
        return size

    def total_size(self) -> int:
        return len(self._hubs) + self._dense_entries

    def average_size(self) -> float:
        n = self.num_vertices
        return self.total_size() / n if n else 0.0

    def max_size(self) -> int:
        if not self.num_vertices:
            return 0
        sizes = np.diff(self._offsets)
        if len(self._dense_hubs):
            sentinel = kernels.SENTINELS[self._dense.dtype]
            sizes += np.count_nonzero(self._dense < sentinel, axis=(0, 2))
        return int(sizes.max())

    def space_bytes(self) -> int:
        """Actual resident bytes of the backing arrays: the tail triple,
        the dense hub ids and the dense columns."""
        return sum(
            values.nbytes
            for values in (*self._triple(), self._dense_hubs, self._dense)
        )

    def __repr__(self) -> str:
        return (
            f"FlatHubLabeling(n={self.num_vertices}, "
            f"total={self.total_size()}, avg={self.average_size():.2f}, "
            f"K={self.dense_width})"
        )


def _check_lengths(offsets, hubs, dists) -> None:
    if offsets.ndim != 1 or offsets.size < 1 or offsets[0] != 0:
        raise ValueError("offsets must start at 0")
    if offsets[-1] != hubs.size or hubs.size != dists.size:
        raise ValueError("offsets/hubs/dists lengths are inconsistent")


def _check_runs(offsets, hubs) -> None:
    """Offsets non-decreasing, hub ids in range and strictly ascending
    within each run."""
    n = len(offsets) - 1
    if offsets.size > 1 and (np.diff(offsets) < 0).any():
        raise ValueError("offsets must be non-decreasing")
    if not hubs.size:
        return
    if int(hubs.min()) < 0 or int(hubs.max()) >= n:
        raise ValueError(f"hub id out of range for {n} vertices")
    starts = np.zeros(hubs.size, dtype=bool)
    interior = offsets[:-1][offsets[:-1] < hubs.size]
    starts[interior] = True
    bad = (hubs[1:] <= hubs[:-1]) & ~starts[1:]
    if bad.any():
        at = int(np.flatnonzero(bad)[0]) + 1
        v = int(np.searchsorted(offsets, at, side="right")) - 1
        raise ValueError(f"hub ids of vertex {v} are not strictly ascending")


def _split(offsets, hubs, dists):
    """Derive the store's split from one CSR triple of every entry.

    Returns ``(offsets, hubs, dists, dense_hubs, dense, dense_entries)``
    -- the tail, the dense part (:func:`kernels.dense_hubs` picks it
    from the hub counts) and the entries it took.  With ``K = 0`` the
    tail is the input itself.  One pass over the entries: producers
    that can write the split themselves never call this.
    """
    n = len(offsets) - 1
    chosen = kernels.dense_hubs(np.bincount(hubs, minlength=n), dists.dtype)
    if len(chosen) and np.isinf(dists).any():
        # An infinite entry would read as an absent cell.
        chosen = chosen[:0]
    dense = kernels.dense_cells(len(chosen), n, dists.dtype)
    if not len(chosen):
        return offsets, hubs, dists, chosen, dense, 0
    column = np.full(n, -1, dtype=np.int64)
    column[chosen] = np.arange(len(chosen))
    columns = column[hubs]
    into = columns >= 0
    owner = np.repeat(np.arange(n, dtype=np.int64), np.diff(offsets))
    cells = kernels.cell_index(columns[into], owner[into], n)
    dense.reshape(-1)[cells] = dists[into]
    keep = ~into
    tail = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(owner[keep], minlength=n), out=tail[1:])
    entries = len(hubs) - len(owner[keep])
    return tail, hubs[keep], dists[keep], chosen, dense, entries


def merge_dense(offsets, hubs, dists, dense_hubs, dense):
    """One CSR triple of every entry of a split store: each vertex's
    dense cells inserted into its tail run, hubs ascending.  Returns the
    tail itself when the dense part is empty."""
    if not len(dense_hubs):
        return offsets, hubs, dists
    n = len(offsets) - 1
    # The vertex-major view walks each vertex's tiles and lanes, so its
    # columns (hubs) ascend.
    owners, tiles, lanes = np.nonzero(
        dense.transpose(1, 0, 2) < kernels.SENTINELS[dense.dtype]
    )
    columns = tiles * kernels.TILE + lanes
    owner = np.repeat(np.arange(n, dtype=np.int64), np.diff(offsets))
    at = np.searchsorted(owner * n + hubs, owners * n + dense_hubs[columns])
    return insert_entries(
        offsets, hubs, dists, at,
        owners, dense_hubs[columns], dense[tiles, owners, lanes],
    )


def insert_entries(offsets, hubs, dists, at, vertices, hub_ids, values):
    """A CSR triple with new entries inserted.

    The ``(vertices[i], hub_ids[i])`` keys ascend and no run holds
    them; ``at[i]`` counts the run entries below key ``i``, so entry
    ``i`` lands after those and the insertions before it.
    """
    at = at + np.arange(len(at))
    kept = np.ones(len(hubs) + len(at), dtype=bool)
    kept[at] = False

    def merge(old, new):
        out = np.empty(len(kept), dtype=old.dtype)
        out[at] = new
        out[kept] = old
        return out

    grown = np.zeros(len(offsets), dtype=np.int64)
    np.cumsum(np.bincount(vertices, minlength=len(offsets) - 1), out=grown[1:])
    return offsets + grown, merge(hubs, hub_ids), merge(dists, values)


def retier(dense, dtype: np.dtype):
    """A writable copy of a dense part in dist tier ``dtype``, each
    sentinel mapped to the new tier's."""
    out = dense.astype(dtype)
    if dtype != dense.dtype:
        out[dense >= kernels.SENTINELS[dense.dtype]] = kernels.SENTINELS[dtype]
    return out


def _readonly(values: np.ndarray) -> np.ndarray:
    """A C-contiguous, read-only view of ``values`` (copied only if
    ``values`` is not contiguous)."""
    view = np.ascontiguousarray(values).view()
    view.flags.writeable = False
    return view


def _dedouble(value: float) -> float:
    """Return integral doubles as Python ints, mirroring the dict store.

    ``HubLabeling`` stores whatever the construction added -- for
    unweighted graphs that is ``int`` -- and its ``query`` propagates
    the type.  The ``float64`` dist tier holds every value as a double;
    narrowing integral values back keeps the two backends' answers
    indistinguishable (``0`` vs ``0.0`` matters to ``repr`` and to
    exact-equality golden files).  NumPy ``float64`` scalars are
    narrowed to plain ``float`` for the same reason.
    """
    if value == INF:
        return INF
    as_int = int(value)
    return as_int if as_int == value else float(value)
