"""Flat-array hub-label store: the query-side half of ``repro.perf``.

:class:`~repro.core.hublabel.HubLabeling` keeps one ``dict`` per vertex,
which is the right shape while a construction is still *adding* hubs but
a poor one for serving queries: every probe is a hash lookup, every
label a separate object graph.  The labeling literature serves queries
from flat sorted arrays instead -- Gawrychowski-Kosowski-Uznanski
(*Sublinear-Space Distance Labeling using Hubs*) and Goldberg et al.
(*Separating Hierarchical and General Hub Labelings*) both store labels
as id-sorted runs so that a query is a linear pointer merge.

:class:`FlatHubLabeling` is that layout: one CSR-style triple of NumPy
arrays over the whole labeling,

* ``offsets`` -- int64; ``offsets[v] : offsets[v + 1]`` slices ``v``'s run,
* ``hubs``    -- hub ids, ascending within each run, in the hub tier:
  ``uint16`` when ``n <= 2**16``, ``int32`` otherwise,
* ``dists``   -- distances parallel to ``hubs``, in the narrowest exact
  dtype: ``uint16``, ``uint32`` or ``float64``.

Both tiers (see :mod:`repro.perf.kernels`) are chosen once, when the
store is frozen, so an entry of an unweighted labeling on fewer than
``2**16`` vertices takes four bytes.  That layout is the batch
kernels' own, so they read the store in place, and it is what the
version-4 artifact envelope persists byte for byte
(:mod:`repro.core.io`): an ``mmap`` of an artifact or a
``multiprocessing.shared_memory`` segment (see :mod:`repro.perf.shm`)
becomes a store without a copy, which is what lets N worker processes
serve one set of pages.  The store is immutable; build with
the constructor or :meth:`from_labeling` and convert back with
:meth:`to_labeling`.

Answers equal the dict store's in value and type, INF for
non-intersecting pairs included: integer tiers answer through
``tolist()`` (Python ``int``), the ``float64`` tier through
:func:`_dedouble`.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from ..core.hublabel import HubLabeling
from ..graphs.traversal import INF
from ..runtime.errors import DomainError
from . import kernels

__all__ = ["FlatHubLabeling"]


class FlatHubLabeling:
    """An immutable flat-array (CSR) view of a hub labeling.

    Duck-type compatible with the read side of
    :class:`~repro.core.hublabel.HubLabeling` (``query``, ``meet``,
    ``hubs``, ``label_size``, ``total_size``, ...), so
    :class:`~repro.oracles.oracle.HubLabelOracle` and
    :class:`~repro.core.fastquery.SortedHubIndex` can consume either
    store.  Mutation methods are deliberately absent: convert back to
    :class:`HubLabeling` to edit, or let
    :class:`~repro.dynamic.DynamicHubLabeling` produce a new store per
    edge edit.

    ``FlatHubLabeling(offsets, hubs, dists)`` narrows any sequences or
    arrays into the store's layout (the one helper every producer goes
    through); arrays already in it are adopted without a copy.
    ``validate=True`` checks the structural invariants -- offsets
    start at 0 and are non-decreasing, lengths agree, hub ids in range
    and strictly ascending within each run -- in a few vectorized
    passes; trusted producers pass ``False``.
    """

    __slots__ = ("_offsets", "_hubs", "_dists")

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
        self._adopt(
            offsets,
            hubs,
            dists.astype(kernels.dist_dtype(dists), copy=False),
            validate,
        )

    def _adopt(self, offsets, hubs, dists, validate: bool) -> None:
        self._offsets, self._hubs, self._dists = (
            _readonly(values) for values in (offsets, hubs, dists)
        )
        if offsets.ndim != 1 or offsets.size < 1 or offsets[0] != 0:
            raise ValueError("offsets must start at 0")
        if offsets[-1] != hubs.size or hubs.size != dists.size:
            raise ValueError("offsets/hubs/dists lengths are inconsistent")
        if validate:
            self._validate()

    # ------------------------------------------------------------------
    # Conversion
    # ------------------------------------------------------------------
    @classmethod
    def from_buffers(
        cls, offsets, hubs, dists, *, validate: bool = True
    ) -> "FlatHubLabeling":
        """Adopt arrays already in the store's layout -- zero copy.

        ``offsets`` / ``hubs`` / ``dists`` must be int64 / hub-tier /
        dist-tier ndarrays, typically read-only views over an ``mmap``
        of a version-4 artifact or a ``multiprocessing.shared_memory``
        segment (see :func:`repro.core.io.flat_labeling_view`).  The
        store keeps the underlying buffer alive, so a mapped file stays
        mapped exactly as long as someone can still query it.  Nothing
        is narrowed or scanned: ``validate=False`` makes opening a
        mapped artifact touch only the pages its queries read, and
        ``validate=True`` adds the structural checks plus a check that
        every distance lies inside its tier.
        """
        n = len(offsets) - 1
        for name, values, dtypes in (
            ("offsets", offsets, (np.dtype(np.int64),)),
            ("hubs", hubs, (kernels.hub_dtype(n),)),
            ("dists", dists, tuple(kernels.SENTINELS)),
        ):
            if not isinstance(values, np.ndarray) or values.dtype not in dtypes:
                raise ValueError(
                    f"{name} must be a {'/'.join(d.name for d in dtypes)} "
                    f"array, got {getattr(values, 'dtype', type(values))}"
                )
        flat = cls.__new__(cls)
        flat._adopt(offsets, hubs, dists, validate)
        if validate and kernels.dist_dtype(dists).itemsize > dists.itemsize:
            raise ValueError(
                f"distances exceed the {dists.dtype.name} dist tier"
            )
        return flat

    def _validate(self) -> None:
        off, run = self._offsets, self._hubs
        n = len(off) - 1
        if off.size > 1 and (np.diff(off) < 0).any():
            raise ValueError("offsets must be non-decreasing")
        if not run.size:
            return
        if int(run.min()) < 0 or int(run.max()) >= n:
            raise ValueError(f"hub id out of range for {n} vertices")
        starts = np.zeros(run.size, dtype=bool)
        interior = off[:-1][off[:-1] < run.size]
        starts[interior] = True
        bad = (run[1:] <= run[:-1]) & ~starts[1:]
        if bad.any():
            at = int(np.flatnonzero(bad)[0]) + 1
            v = int(np.searchsorted(off, at, side="right")) - 1
            raise ValueError(
                f"hub ids of vertex {v} are not strictly ascending"
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
        offsets = self._offsets.tolist()
        hubs = self._hubs.tolist()
        dists = self._dists.tolist()
        for v in range(self.num_vertices):
            for i in range(offsets[v], offsets[v + 1]):
                labeling.add_hub(v, hubs[i], _dedouble(dists[i]))
        return labeling

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def _check_vertex(self, vertex: int) -> None:
        n = self.num_vertices
        if not 0 <= vertex < n:
            raise DomainError(f"vertex {vertex} outside 0..{n - 1}")

    def _run(self, vertex: int) -> Tuple[List[int], List[float]]:
        """``vertex``'s hub ids and distances as Python lists."""
        self._check_vertex(vertex)
        start, end = self._offsets[vertex : vertex + 2].tolist()
        return (
            self._hubs[start:end].tolist(),
            self._dists[start:end].tolist(),
        )

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
        """A hub realizing :meth:`query`'s minimum, or None."""
        return self._merge(u, v)[1]

    def batch_query(self, pairs: Sequence[Tuple[int, int]]) -> List[float]:
        """Distances for many pairs at once, through the pair kernel.

        Validates every vertex id up front (:class:`DomainError` before
        any work).  Results match ``[self.query(u, v) for u, v in
        pairs]`` exactly.
        """
        if not len(pairs):
            return []
        arr = self._vertices(pairs).reshape(len(pairs), 2)
        return self._answers(
            kernels.query_pairs(*self._triple(), arr[:, 0], arr[:, 1])
        )

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
            return self._answers(kernels.query_row(*self._triple(), source))
        vs = self._vertices(targets)
        us = np.full(len(vs), source, dtype=np.int64)
        return self._answers(kernels.query_pairs(*self._triple(), us, vs))

    def distance_row(self, source: int):
        """``d(source, v)`` for every vertex ``v`` as a float64 ndarray.

        ``INF`` where no hub meets; the values equal :meth:`query`'s
        exactly (integral distances are exact in float64).  Safe beside
        other threads reading the same store: every kernel call
        allocates its own scratch.
        """
        self._check_vertex(source)
        row = kernels.query_row(*self._triple(), source)
        out = row.astype(np.float64)
        out[row >= kernels.SENTINELS[row.dtype]] = INF
        return out

    def arrays(self):
        """The CSR triple as read-only NumPy views, without a copy.

        Returns ``(offsets, hubs, dists)`` as int64 / hub-tier /
        dist-tier arrays over the store's own memory.
        """
        return self._triple()

    def _triple(self):
        return self._offsets, self._hubs, self._dists

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
        """``values`` as an int64 array, once every id in it is a vertex
        of the store (two array comparisons, :class:`DomainError` naming
        the first offender otherwise)."""
        try:
            arr = np.asarray(values, dtype=np.int64)
        except OverflowError:  # ids beyond int64 are compared as objects
            arr = np.asarray(values, dtype=object)
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

    def label_size(self, vertex: int) -> int:
        return int(self._offsets[vertex + 1] - self._offsets[vertex])

    def total_size(self) -> int:
        return len(self._hubs)

    def average_size(self) -> float:
        n = self.num_vertices
        return len(self._hubs) / n if n else 0.0

    def max_size(self) -> int:
        if not self.num_vertices:
            return 0
        return int(np.diff(self._offsets).max())

    def space_bytes(self) -> int:
        """Actual resident bytes of the three backing arrays."""
        return sum(values.nbytes for values in self._triple())

    def __repr__(self) -> str:
        return (
            f"FlatHubLabeling(n={self.num_vertices}, "
            f"total={self.total_size()}, avg={self.average_size():.2f})"
        )


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
