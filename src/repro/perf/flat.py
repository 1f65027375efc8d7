"""Flat-array hub-label store: the query-side half of ``repro.perf``.

:class:`~repro.core.hublabel.HubLabeling` keeps one ``dict`` per vertex,
which is the right shape while a construction is still *adding* hubs but
a poor one for serving queries: every probe is a hash lookup, every
label a separate object graph.  The labeling literature serves queries
from flat sorted arrays instead -- Gawrychowski-Kosowski-Uznanski
(*Sublinear-Space Distance Labeling using Hubs*) and Goldberg et al.
(*Separating Hierarchical and General Hub Labelings*) both store labels
as id-sorted runs so that a query is a linear pointer merge.

:class:`FlatHubLabeling` is that layout: one CSR-style triple

* ``offsets[v] : offsets[v + 1]`` slices the per-vertex run,
* ``hubs``      -- ``array('l')`` hub ids, ascending within each run,
* ``dists``     -- ``array('d')`` distances, parallel to ``hubs``

over the whole labeling.  The store is immutable; build with
:meth:`from_labeling` and convert back with :meth:`to_labeling`.

The backing triple does not have to be ``array.array``:
:meth:`from_buffers` adopts NumPy views over *any* readable buffer --
an ``mmap`` of the version-2 artifact envelope, a
``multiprocessing.shared_memory`` segment (see :mod:`repro.perf.shm`)
-- without copying a byte, which is what lets N worker processes serve
one label store.  Every accessor narrows NumPy scalars back to Python
``int`` / ``float`` so both backings answer byte-identically.

``query`` is an ascending two-pointer merge of the two runs.
``batch_query`` amortizes attribute lookups over a list of pairs and,
when NumPy is importable and the labeling is integer-valued, dispatches
to the vectorized kernel in :mod:`repro.perf.kernels` -- that path is
what makes the ``>= 5x`` throughput target of ``repro bench`` reachable
in pure CPython.  Both paths return exactly the values the dict store
would (INF for non-intersecting pairs included).
"""

from __future__ import annotations

from array import array
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from ..core.hublabel import HubLabeling
from ..graphs.traversal import INF
from ..runtime.errors import DomainError

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
    """

    __slots__ = ("_offsets", "_hubs", "_dists", "_accel")

    #: ``batch_query`` natively consumes an ``(m, 2)`` int64 ndarray --
    #: batch producers (the serving layer) may skip tuple-list packing.
    accepts_pair_arrays = True

    def __init__(
        self,
        offsets: Sequence[int],
        hubs: Sequence[int],
        dists: Sequence[float],
    ) -> None:
        if len(offsets) < 1 or offsets[0] != 0:
            raise ValueError("offsets must start at 0")
        if offsets[-1] != len(hubs) or len(hubs) != len(dists):
            raise ValueError("offsets/hubs/dists lengths are inconsistent")
        self._offsets = array("l", offsets)
        self._hubs = array("l", hubs)
        self._dists = array("d", dists)
        for v in range(len(self._offsets) - 1):
            run = self._hubs[self._offsets[v] : self._offsets[v + 1]]
            if any(run[i] >= run[i + 1] for i in range(len(run) - 1)):
                raise ValueError(
                    f"hub ids of vertex {v} are not strictly ascending"
                )
        self._accel = None  # built lazily by batch_query

    # ------------------------------------------------------------------
    # Conversion
    # ------------------------------------------------------------------
    @classmethod
    def from_arrays(
        cls,
        offsets: Sequence[int],
        hubs: Sequence[int],
        dists: Sequence[float],
        *,
        validate: bool = True,
    ) -> "FlatHubLabeling":
        """Adopt already-flat CSR arrays without the per-entry loop.

        The fast-construction entry point: NumPy arrays are adopted via
        a single buffer copy, so a multi-million-entry labeling loads in
        milliseconds (``__init__`` walks every run in Python).  With
        ``validate=True`` the structural invariants -- offsets start at
        0 and are non-decreasing, lengths agree, hub ids in range and
        strictly ascending within each run -- are still checked
        (vectorized when NumPy is available); trusted producers such as
        :func:`repro.perf.build.build_flat_labels` pass ``False``.
        """
        flat = cls.__new__(cls)
        flat._offsets = _as_array("l", offsets)
        flat._hubs = _as_array("l", hubs)
        flat._dists = _as_array("d", dists)
        flat._accel = None
        if validate:
            flat._validate()
        return flat

    def _validate(self) -> None:
        offsets, hubs, dists = self._offsets, self._hubs, self._dists
        if len(offsets) < 1 or offsets[0] != 0:
            raise ValueError("offsets must start at 0")
        if offsets[-1] != len(hubs) or len(hubs) != len(dists):
            raise ValueError("offsets/hubs/dists lengths are inconsistent")
        n = len(offsets) - 1
        try:
            import numpy as np
        except ImportError:
            np = None
        if np is not None:
            int_kind = np.dtype(f"i{offsets.itemsize}")
            off = np.frombuffer(memoryview(offsets), dtype=int_kind)
            if off.size > 1 and (np.diff(off) < 0).any():
                raise ValueError("offsets must be non-decreasing")
            run = np.frombuffer(memoryview(hubs), dtype=int_kind)
            if run.size:
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
            return
        previous = 0
        for v in range(n):
            start, end = offsets[v], offsets[v + 1]
            if start < previous:
                raise ValueError("offsets must be non-decreasing")
            previous = start
            for i in range(start, end):
                if not 0 <= hubs[i] < n:
                    raise ValueError(f"hub id out of range for {n} vertices")
                if i > start and hubs[i - 1] >= hubs[i]:
                    raise ValueError(
                        f"hub ids of vertex {v} are not strictly ascending"
                    )

    @classmethod
    def from_buffers(
        cls,
        offsets,
        hubs,
        dists,
        *,
        validate: bool = True,
    ) -> "FlatHubLabeling":
        """Adopt readable buffers as int64/float64 views -- zero copy.

        Unlike :meth:`from_arrays` (one buffer copy into ``array``),
        this wraps ``offsets`` / ``hubs`` / ``dists`` in read-only
        NumPy views over whatever memory backs them -- a ``bytes``
        payload, an ``mmap`` of the version-2 envelope, or a
        ``multiprocessing.shared_memory`` buffer.  The store's lifetime
        keeps the underlying buffer alive (NumPy holds the reference),
        so a mapped file stays mapped exactly as long as someone can
        still query it.

        ``validate=False`` skips the structural walk so that opening a
        mapped artifact touches only the pages it reads -- O(page-in),
        not O(entries); producers that skip it are expected to have
        header-checked the envelope (see
        :func:`repro.core.io.flat_labeling_view`).  Requires NumPy.
        """
        import numpy as np

        flat = cls.__new__(cls)
        flat._offsets = _as_view(np, offsets, np.int64)
        flat._hubs = _as_view(np, hubs, np.int64)
        flat._dists = _as_view(np, dists, np.float64)
        flat._accel = None
        if validate:
            flat._validate()
        else:
            offs = flat._offsets
            if offs.size < 1 or int(offs[0]) != 0:
                raise ValueError("offsets must start at 0")
            if (
                int(offs[-1]) != flat._hubs.size
                or flat._hubs.size != flat._dists.size
            ):
                raise ValueError(
                    "offsets/hubs/dists lengths are inconsistent"
                )
        return flat

    @classmethod
    def from_labeling(cls, labeling: HubLabeling) -> "FlatHubLabeling":
        """Freeze a dict-based labeling into the flat layout.

        Well-defined because :meth:`HubLabeling.add_hub` keeps the
        minimum distance per ``(vertex, hub)`` -- each pair occurs at
        most once.
        """
        n = labeling.num_vertices
        offsets = array("l", [0] * (n + 1))
        total = labeling.total_size()
        hubs = array("l", [0] * total)
        dists = array("d", [0.0] * total)
        cursor = 0
        for v in range(n):
            for hub, dist in sorted(labeling.hubs(v).items()):
                hubs[cursor] = hub
                dists[cursor] = dist
                cursor += 1
            offsets[v + 1] = cursor
        flat = cls.__new__(cls)
        flat._offsets = offsets
        flat._hubs = hubs
        flat._dists = dists
        flat._accel = None
        return flat

    def to_labeling(self) -> "HubLabeling":
        """Thaw back into a mutable dict-based :class:`HubLabeling`."""
        labeling = HubLabeling(self.num_vertices)
        offsets, hubs, dists = self._offsets, self._hubs, self._dists
        for v in range(self.num_vertices):
            for i in range(offsets[v], offsets[v + 1]):
                labeling.add_hub(v, int(hubs[i]), _dedouble(dists[i]))
        return labeling

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def _check_vertex(self, vertex: int) -> None:
        n = self.num_vertices
        if not 0 <= vertex < n:
            raise DomainError(f"vertex {vertex} outside 0..{n - 1}")

    def query(self, u: int, v: int) -> float:
        """Two-pointer merge over the id-sorted runs of ``u`` and ``v``."""
        self._check_vertex(u)
        self._check_vertex(v)
        offsets, hubs, dists = self._offsets, self._hubs, self._dists
        i, end_i = offsets[u], offsets[u + 1]
        j, end_j = offsets[v], offsets[v + 1]
        best = INF
        while i < end_i and j < end_j:
            hi = hubs[i]
            hj = hubs[j]
            if hi == hj:
                candidate = dists[i] + dists[j]
                if candidate < best:
                    best = candidate
                i += 1
                j += 1
            elif hi < hj:
                i += 1
            else:
                j += 1
        return _dedouble(best)

    def meet(self, u: int, v: int) -> Optional[int]:
        """A hub realizing :meth:`query`'s minimum, or None."""
        self._check_vertex(u)
        self._check_vertex(v)
        offsets, hubs, dists = self._offsets, self._hubs, self._dists
        i, end_i = offsets[u], offsets[u + 1]
        j, end_j = offsets[v], offsets[v + 1]
        best = INF
        best_hub: Optional[int] = None
        while i < end_i and j < end_j:
            hi = hubs[i]
            hj = hubs[j]
            if hi == hj:
                candidate = dists[i] + dists[j]
                if candidate < best:
                    best = candidate
                    best_hub = hi
                i += 1
                j += 1
            elif hi < hj:
                i += 1
            else:
                j += 1
        return None if best_hub is None else int(best_hub)

    def batch_query(self, pairs: Sequence[Tuple[int, int]]) -> List[float]:
        """Distances for many pairs at once.

        Validates every vertex id up front (:class:`DomainError` before
        any work), then answers through the NumPy kernels when available
        (see :mod:`repro.perf.kernels`) or a tight merge loop otherwise.
        Results match ``[self.query(u, v) for u, v in pairs]`` exactly.
        """
        if not len(pairs):
            return []
        self._check_pairs(pairs)
        accel = self._accelerator()
        if accel is not None:
            return accel.batch_query(pairs)
        return self._batch_query_merge(pairs)

    def batch_query_from(
        self, source: int, targets: Optional[Sequence[int]] = None
    ) -> List[float]:
        """Distances from one source to many targets (``None`` = all).

        The source-rooted special case of :meth:`batch_query` -- the
        shape of verification sweeps and distance-matrix rows.  With
        NumPy, explicit targets go through the pair kernel and
        ``None`` through the all-vertices row pass.
        """
        self._check_vertex(source)
        n = self.num_vertices
        if targets is None:
            target_list: Sequence[int] = range(n)
        else:
            for t in targets:
                if not 0 <= t < n:
                    raise DomainError(f"vertex {t} outside 0..{n - 1}")
            target_list = targets
        accel = self._accelerator()
        if accel is not None:
            import numpy as np

            if targets is None:
                row = accel.query_row(source)
            else:
                vs = np.asarray(targets, dtype=np.int64)
                row = accel.query_pairs(np.full(len(vs), source), vs)
            big = accel._big
            return [
                INF if value >= big else value for value in row.tolist()
            ]
        return self._batch_query_merge([(source, t) for t in target_list])

    def distance_row(self, source: int):
        """``d(source, v)`` for every vertex ``v`` as a float64 ndarray.

        ``INF`` where no hub meets.  Served by the row pass when the
        labeling qualifies, by the store's merge path otherwise; the
        values equal :meth:`query`'s exactly (integral distances are
        exact in float64).  Safe beside other threads reading the same
        store: every kernel call allocates its own scratch.  Requires
        NumPy.
        """
        import numpy as np

        self._check_vertex(source)
        accel = self._accelerator()
        if accel is None:
            return np.array(
                self._batch_query_merge(
                    [(source, t) for t in range(self.num_vertices)]
                ),
                dtype=np.float64,
            )
        row = accel.query_row(source)
        out = row.astype(np.float64)
        out[row >= accel._big] = INF
        return out

    def arrays(self):
        """The CSR triple as read-only NumPy views, without a copy.

        Returns ``(offsets, hubs, dists)`` as int64 / int64 / float64
        arrays over the store's own memory.  Requires NumPy.
        """
        import numpy as np

        views = []
        for values, dtype in (
            (self._offsets, np.int64),
            (self._hubs, np.int64),
            (self._dists, np.float64),
        ):
            view = _as_view(np, values, dtype).view()
            view.flags.writeable = False
            views.append(view)
        return tuple(views)

    def _check_pairs(self, pairs: Sequence[Tuple[int, int]]) -> None:
        n = self.num_vertices
        try:
            import numpy as np

            arr = np.asarray(pairs, dtype=np.int64)
            if arr.ndim != 2 or arr.shape[1] != 2:
                raise ValueError
            if (arr < 0).any() or (arr >= n).any():
                bad = int(arr[(arr < 0) | (arr >= n)][0])
                raise DomainError(f"vertex {bad} outside 0..{n - 1}")
            return
        except (ImportError, ValueError, TypeError, OverflowError):
            pass
        for u, v in pairs:
            if not 0 <= u < n or not 0 <= v < n:
                bad = u if not 0 <= u < n else v
                raise DomainError(f"vertex {bad} outside 0..{n - 1}")

    def _batch_query_merge(
        self, pairs: Sequence[Tuple[int, int]]
    ) -> List[float]:
        # Pure-Python fallback: same merge as query() with the attribute
        # lookups hoisted out of the per-pair loop.
        offsets, hubs, dists = self._offsets, self._hubs, self._dists
        out: List[float] = []
        append = out.append
        for u, v in pairs:
            i, end_i = offsets[u], offsets[u + 1]
            j, end_j = offsets[v], offsets[v + 1]
            best = INF
            while i < end_i and j < end_j:
                hi = hubs[i]
                hj = hubs[j]
                if hi == hj:
                    candidate = dists[i] + dists[j]
                    if candidate < best:
                        best = candidate
                    i += 1
                    j += 1
                elif hi < hj:
                    i += 1
                else:
                    j += 1
            append(_dedouble(best))
        return out

    def _accelerator(self):
        """The cached NumPy kernel index, or None when not applicable."""
        if self._accel is None:
            from .kernels import build_accelerator

            built = build_accelerator(
                self._offsets, self._hubs, self._dists, self.num_vertices
            )
            # False = "tried, not applicable"; cache either outcome.
            self._accel = built if built is not None else False
        return self._accel or None

    # ------------------------------------------------------------------
    # Read accessors (HubLabeling-compatible)
    # ------------------------------------------------------------------
    def hubs(self, vertex: int) -> Dict[int, float]:
        """A fresh ``hub -> distance`` dict for ``vertex``.

        Materialized per call (the flat store has no dicts); use the
        array accessors in hot loops.
        """
        self._check_vertex(vertex)
        start, end = self._offsets[vertex], self._offsets[vertex + 1]
        return {
            int(self._hubs[i]): _dedouble(self._dists[i])
            for i in range(start, end)
        }

    def hub_set(self, vertex: int) -> List[int]:
        self._check_vertex(vertex)
        start, end = self._offsets[vertex], self._offsets[vertex + 1]
        return self._hubs[start:end].tolist()

    def hub_distance(self, vertex: int, hub: int) -> Optional[float]:
        self._check_vertex(vertex)
        start, end = self._offsets[vertex], self._offsets[vertex + 1]
        lo, hi = start, end
        while lo < hi:  # binary search in the sorted run
            mid = (lo + hi) // 2
            if self._hubs[mid] < hub:
                lo = mid + 1
            else:
                hi = mid
        if lo < end and self._hubs[lo] == hub:
            return _dedouble(self._dists[lo])
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
        offsets = self._offsets
        return int(
            max(
                (
                    offsets[v + 1] - offsets[v]
                    for v in range(self.num_vertices)
                ),
                default=0,
            )
        )

    def space_bytes(self) -> int:
        """Actual resident bytes of the three backing arrays."""
        return (
            len(self._offsets) * self._offsets.itemsize
            + len(self._hubs) * self._hubs.itemsize
            + len(self._dists) * self._dists.itemsize
        )

    def __repr__(self) -> str:
        return (
            f"FlatHubLabeling(n={self.num_vertices}, "
            f"total={self.total_size()}, avg={self.average_size():.2f})"
        )


def _as_array(typecode: str, values) -> array:
    """Coerce ``values`` to ``array(typecode)``, by buffer copy if flat.

    NumPy arrays of the matching width are adopted via ``frombytes``
    (one memcpy); anything else goes through the element-wise
    constructor.
    """
    if isinstance(values, array) and values.typecode == typecode:
        return values
    out = array(typecode)
    try:
        import numpy as np
    except ImportError:
        np = None
    if np is not None and isinstance(values, np.ndarray):
        wanted = (
            np.dtype(f"i{out.itemsize}") if typecode == "l" else np.float64
        )
        out.frombytes(
            np.ascontiguousarray(values, dtype=wanted).tobytes()
        )
        return out
    out.extend(int(v) if typecode == "l" else float(v) for v in values)
    return out


def _as_view(np, values, dtype):
    """A C-contiguous NumPy view of ``values`` in ``dtype``, no copy.

    NumPy arrays of the right dtype pass through; anything else
    exposing the buffer protocol is wrapped with ``np.frombuffer``
    (read-only by construction).  A dtype mismatch is a hard error --
    silently reinterpreting bytes would serve garbage distances.
    """
    if isinstance(values, np.ndarray):
        if values.dtype != dtype or not values.flags["C_CONTIGUOUS"]:
            raise ValueError(
                f"expected a contiguous {np.dtype(dtype).name} array, "
                f"got {values.dtype.name}"
            )
        return values
    view = memoryview(values)
    if view.nbytes % np.dtype(dtype).itemsize:
        raise ValueError(
            f"buffer of {view.nbytes} bytes is not a whole number of "
            f"{np.dtype(dtype).name} items"
        )
    return np.frombuffer(view, dtype=dtype)


def _dedouble(value: float) -> float:
    """Return integral doubles as Python ints, mirroring the dict store.

    ``HubLabeling`` stores whatever the construction added -- for
    unweighted graphs that is ``int`` -- and its ``query`` propagates
    the type.  The ``array('d')`` backing store widens everything to
    float; narrowing integral values back keeps the two backends'
    answers indistinguishable (``0`` vs ``0.0`` matters to ``repr`` and
    to exact-equality golden files).  NumPy-backed stores hand in
    ``np.float64`` scalars; those are narrowed to plain ``float`` for
    the same reason.
    """
    if value == INF:
        return INF
    as_int = int(value)
    return as_int if as_int == value else float(value)
