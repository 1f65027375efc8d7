"""The flat-array label store: layout, equality with the dict store.

The contract under test is strict: ``FlatHubLabeling`` changes memory
layout and batch speed, *never* answers.  Every query -- scalar, batch,
one-to-many, through the accelerated kernels or the pure-Python merge
fallback -- must return exactly what the dict store returns, including
``INF`` for disconnected pairs and identical Python types.
"""

import math
import random
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import HubLabeling, pruned_landmark_labeling
from repro.core.fastquery import SortedHubIndex
from repro.core.orders import degree_order
from repro.core.io import (
    flat_labeling_from_bytes,
    flat_labeling_to_bytes,
    flat_labeling_view,
)
from repro.graphs import INF, Graph, random_sparse_graph, random_tree
from repro.lowerbound import build_degree3_instance
from repro.perf import FlatHubLabeling
from repro.perf.build import build_flat_labels
from repro.perf import kernels
from repro.runtime import DomainError


def _all_pairs(n):
    return [(u, v) for u in range(n) for v in range(n)]


def _typed(answers):
    return [(type(d), d) for d in answers]


@pytest.fixture(scope="module")
def connected_case():
    graph = random_sparse_graph(40, seed=3)
    labeling = pruned_landmark_labeling(graph)
    return labeling, FlatHubLabeling.from_labeling(labeling)


@pytest.fixture(scope="module")
def disconnected_case():
    # Two components: the tree on 0..19 and another on 20..39.
    from repro.graphs import Graph

    graph = Graph(40)
    for offset, seed in ((0, 1), (20, 2)):
        for u, v, w in random_tree(20, seed=seed).edges():
            graph.add_edge(offset + u, offset + v, w)
    labeling = pruned_landmark_labeling(graph)
    return labeling, FlatHubLabeling.from_labeling(labeling)


class TestRoundTrip:
    def test_to_labeling_is_exact(self, connected_case):
        labeling, flat = connected_case
        back = flat.to_labeling()
        assert back.num_vertices == labeling.num_vertices
        for v in range(labeling.num_vertices):
            assert back.hubs(v) == labeling.hubs(v)

    def test_accounting_matches(self, connected_case):
        labeling, flat = connected_case
        assert flat.total_size() == labeling.total_size()
        assert flat.average_size() == labeling.average_size()
        assert flat.max_size() == labeling.max_size()
        for v in range(labeling.num_vertices):
            assert flat.label_size(v) == labeling.label_size(v)
            assert flat.hub_set(v) == labeling.hub_set(v)
            assert flat.hubs(v) == labeling.hubs(v)

    def test_hub_runs_are_sorted(self, connected_case):
        _, flat = connected_case
        for v in range(flat.num_vertices):
            hubs = flat.hub_set(v)
            assert hubs == sorted(hubs)

    def test_repr(self, connected_case):
        _, flat = connected_case
        assert "FlatHubLabeling" in repr(flat)

    def test_empty_labeling(self):
        flat = FlatHubLabeling.from_labeling(HubLabeling(3))
        assert flat.query(0, 2) == INF
        assert flat.batch_query([(0, 1), (2, 2)]) == [INF, INF]


class TestScalarEquality:
    def test_query_matches_dict_everywhere(self, connected_case):
        labeling, flat = connected_case
        for u, v in _all_pairs(labeling.num_vertices):
            expected = labeling.query(u, v)
            got = flat.query(u, v)
            assert got == expected
            assert type(got) is type(expected)
            # ``meet`` may break ties differently between the stores;
            # any common hub realizing the minimum is correct.
            hub = flat.meet(u, v)
            if expected == INF:
                assert hub is None
            else:
                assert labeling.hubs(u)[hub] + labeling.hubs(v)[hub] == expected

    def test_disconnected_pairs_are_inf(self, disconnected_case):
        labeling, flat = disconnected_case
        assert flat.query(0, 25) == INF
        for u, v in _all_pairs(labeling.num_vertices):
            assert flat.query(u, v) == labeling.query(u, v)

    def test_hub_distance_and_contains(self, connected_case):
        labeling, flat = connected_case
        for v in range(labeling.num_vertices):
            for hub, dist in labeling.hubs(v).items():
                assert flat.hub_distance(v, hub) == dist
                assert (v, hub) in flat
            assert flat.hub_distance(v, 10**6) is None

    def test_domain_errors(self, connected_case):
        _, flat = connected_case
        n = flat.num_vertices
        with pytest.raises(DomainError):
            flat.query(0, n)
        with pytest.raises(DomainError):
            flat.query(-1, 0)
        with pytest.raises(DomainError):
            flat.batch_query([(0, 1), (n, 0)])
        with pytest.raises(DomainError):
            flat.batch_query_from(n)


class TestBatchEquality:
    def test_batch_matches_scalar_loop(self, connected_case):
        labeling, flat = connected_case
        pairs = _all_pairs(labeling.num_vertices)
        answers = flat.batch_query(pairs)
        for (u, v), got in zip(pairs, answers):
            expected = labeling.query(u, v)
            assert got == expected
            assert type(got) is type(expected)

    def test_batch_on_disconnected_graph(self, disconnected_case):
        labeling, flat = disconnected_case
        pairs = _all_pairs(labeling.num_vertices)
        expected = [labeling.query(u, v) for u, v in pairs]
        assert flat.batch_query(pairs) == expected

    def test_batch_query_from_full_row(self, connected_case):
        labeling, flat = connected_case
        n = labeling.num_vertices
        for source in (0, 7, n - 1):
            row = flat.batch_query_from(source)
            assert row == [labeling.query(source, v) for v in range(n)]

    def test_batch_query_from_explicit_targets(self, disconnected_case):
        labeling, flat = disconnected_case
        targets = [0, 5, 21, 39, 5]
        row = flat.batch_query_from(3, targets)
        assert row == [labeling.query(3, v) for v in targets]

    def test_distance_row_matches_query(self, disconnected_case):
        labeling, flat = disconnected_case
        n = labeling.num_vertices
        for source in (0, 21, n - 1):
            row = flat.distance_row(source)
            assert row.dtype.name == "float64"
            assert row.tolist() == [labeling.query(source, v) for v in range(n)]

    def test_concurrent_readers_share_one_store(self):
        # Every kernel call allocates its own scratch, so readers on
        # several threads may query one store with no lock at all.
        flat = build_flat_labels(build_degree3_instance(2, 1).graph)
        n = flat.num_vertices
        rng = random.Random(11)
        uniform = [(rng.randrange(n), rng.randrange(n)) for _ in range(600)]
        targets = [rng.randrange(n) for _ in range(600)]
        wrong = []

        def reader(root):
            # Each thread roots its rows at its own vertex, so a scratch
            # shared between threads would mix their rows.
            row = [flat.query(root, v) for v in range(n)]
            rooted = [(root, t) for t in targets]
            calls = [
                (lambda: flat.batch_query(uniform),
                 [flat.query(u, v) for u, v in uniform]),
                (lambda: flat.batch_query(rooted), [row[t] for t in targets]),
                (lambda: flat.batch_query_from(root, targets),
                 [row[t] for t in targets]),
                (lambda: flat.batch_query_from(root), row),
                (lambda: flat.distance_row(root).tolist(),
                 [float(d) for d in row]),
            ]
            try:
                for i in range(60):
                    call, expected = calls[i % len(calls)]
                    if _typed(call()) != _typed(expected):
                        wrong.append((root, i % len(calls)))
            except Exception as exc:  # a dead reader must fail the test
                wrong.append((root, exc))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [
                threading.Thread(target=reader, args=(root,))
                for root in rng.sample(range(n), 4)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        finally:
            sys.setswitchinterval(interval)
        assert wrong == []

    @pytest.mark.parametrize("far, tier", [(20000, "uint32"), (2.5, "float64")])
    def test_distance_row_on_wide_tiers(self, far, tier):
        lab = HubLabeling(3)
        lab.add_hub(0, 0, 0)
        lab.add_hub(1, 0, far)
        lab.add_hub(1, 1, 0)
        lab.add_hub(2, 2, 0)
        flat = FlatHubLabeling.from_labeling(lab)
        assert flat.arrays()[2].dtype.name == tier
        assert flat.distance_row(1).tolist() == [far, 0, INF]

    def test_arrays_are_read_only_views(self, connected_case):
        _, flat = connected_case
        offsets, hubs, dists = flat.arrays()
        assert (offsets.dtype.name, hubs.dtype.name, dists.dtype.name) == (
            "int64", "uint16", "uint16",
        )
        assert len(offsets) == flat.num_vertices + 1
        assert len(hubs) == len(dists) == flat.total_size()
        assert hubs[offsets[3]:offsets[4]].tolist() == flat.hub_set(3)
        with pytest.raises(ValueError):
            hubs[0] = 1

    def test_empty_batch(self, connected_case):
        _, flat = connected_case
        assert flat.batch_query([]) == []

    def test_scalar_merge_agrees_with_kernel(self, connected_case):
        labeling, flat = connected_case
        pairs = _all_pairs(labeling.num_vertices)[:300]
        assert _typed([flat.query(u, v) for u, v in pairs]) == _typed(
            flat.batch_query(pairs)
        )

    def test_ndarray_targets_answer_python_numbers(self, disconnected_case):
        labeling, flat = disconnected_case
        targets = np.array([0, 5, 21, 39, 5], dtype=np.int64)
        row = flat.batch_query_from(3, targets)
        assert _typed(row) == _typed([labeling.query(3, v) for v in targets])
        for bad in ([0, 40], np.array([-1, 2]), [2**70]):
            with pytest.raises(DomainError, match="outside 0..39"):
                flat.batch_query_from(3, bad)


class TestDistTiers:
    """Each labeling is frozen once into the narrowest exact dist dtype,
    and the kernels answer every tier."""

    def test_integral_labels_take_uint16(self, connected_case):
        _, flat = connected_case
        assert flat.arrays()[2].dtype.name == "uint16"
        assert flat.space_bytes() == 8 * (flat.num_vertices + 1) + 4 * flat.total_size()

    def test_fractional_distances_take_float64(self):
        lab = HubLabeling(2)
        lab.add_hub(0, 0, 0.5)
        lab.add_hub(1, 0, 0.25)
        flat = FlatHubLabeling.from_labeling(lab)
        assert flat.arrays()[2].dtype.name == "float64"
        assert flat.query(0, 1) == 0.75
        assert flat.batch_query([(0, 1)]) == [0.75]

    def test_huge_distances_take_uint32(self):
        lab = HubLabeling(2)
        lab.add_hub(0, 0, 20000)
        lab.add_hub(1, 0, 1)
        flat = FlatHubLabeling.from_labeling(lab)
        # 2 * 20000 would overflow uint16's sentinel headroom.
        assert flat.arrays()[2].dtype.name == "uint32"
        assert _typed(flat.batch_query([(0, 1), (1, 1)])) == _typed([20001, 2])


class TestSortedHubIndexInterop:
    def test_index_accepts_flat_store(self, connected_case):
        labeling, flat = connected_case
        index = SortedHubIndex(flat)
        for u, v in _all_pairs(labeling.num_vertices)[:200]:
            assert index.query(u, v).distance == labeling.query(u, v)


class TestPropertyEquality:
    @settings(max_examples=25, deadline=None)
    @given(
        n=st.integers(min_value=2, max_value=24),
        seed=st.integers(min_value=0, max_value=10**6),
    )
    def test_random_graphs_agree(self, n, seed):
        graph = random_sparse_graph(n, seed=seed)
        labeling = pruned_landmark_labeling(graph)
        flat = FlatHubLabeling.from_labeling(labeling)
        pairs = _all_pairs(n)
        expected = [labeling.query(u, v) for u, v in pairs]
        assert flat.batch_query(pairs) == expected
        assert [flat.query(u, v) for u, v in pairs] == expected

    @settings(max_examples=15, deadline=None)
    @given(
        entries=st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=7),
                st.integers(min_value=0, max_value=7),
                st.integers(min_value=0, max_value=50),
            ),
            max_size=40,
        )
    )
    def test_arbitrary_labelings_agree(self, entries):
        lab = HubLabeling(8)
        for v, hub, dist in entries:
            lab.add_hub(v, hub, dist)
        flat = FlatHubLabeling.from_labeling(lab)
        pairs = _all_pairs(8)
        assert flat.batch_query(pairs) == [lab.query(u, v) for u, v in pairs]


@st.composite
def _scattered_tickets(draw):
    """A labeling with two components and some empty labels, and a
    ticket mixing uniform pairs, ``u == v`` pairs and a repeated source."""
    n = draw(st.integers(min_value=2, max_value=30))
    split = draw(st.integers(min_value=1, max_value=n - 1))
    seed = draw(st.integers(min_value=0, max_value=10**6))
    vertex = st.integers(min_value=0, max_value=n - 1)
    emptied = draw(st.sets(vertex, max_size=n // 2))
    pairs = draw(
        st.lists(
            st.one_of(st.tuples(vertex, vertex), vertex.map(lambda u: (u, u))),
            max_size=60,
        )
    )
    root = draw(vertex)
    targets = draw(st.lists(vertex, max_size=40))
    pairs = draw(st.permutations(pairs + [(root, t) for t in targets]))
    graph = Graph(n)
    for offset, size in ((0, split), (split, n - split)):
        for u, v, w in random_tree(size, seed=seed).edges():
            graph.add_edge(offset + u, offset + v, w)
    full = pruned_landmark_labeling(graph)
    labeling = HubLabeling(n)
    for v in range(n):
        if v not in emptied:
            for hub, dist in full.hubs(v).items():
                labeling.add_hub(v, hub, dist)
    return labeling, pairs, root, targets


#: Distances around every dist tier boundary: uint16 holds < 16000,
#: uint32 integral < 2**30, float64 the rest (``k + 0.25`` keeps every
#: sum of two fractional entries fractional, so its type is float).
_TIER_DISTANCES = {
    "uint16": st.sampled_from([0, 1, 7, 15998, 15999]),
    "uint32": st.sampled_from([0, 3, 16000, 2**30 - 2, 2**30 - 1]),
    "float64": st.sampled_from([0, 5, 2**30, 2**30 + 1, 2**40]),
    "fractional": st.integers(min_value=0, max_value=50).map(
        lambda k: k + 0.25
    ),
}


@st.composite
def _tiered_labelings(draw):
    """A labeling with its distances drawn around one tier boundary,
    some empty labels and many non-meeting (disconnected) pairs."""
    tier = draw(st.sampled_from(sorted(_TIER_DISTANCES)))
    n = draw(st.integers(min_value=1, max_value=9))
    vertex = st.integers(min_value=0, max_value=n - 1)
    entries = draw(
        st.lists(st.tuples(vertex, vertex, _TIER_DISTANCES[tier]), max_size=30)
    )
    labeling = HubLabeling(n)
    for v, hub, dist in entries:
        labeling.add_hub(v, hub, dist)
    return labeling, draw(vertex), draw(st.lists(vertex, max_size=12))


class TestTierBoundaries:
    @settings(max_examples=80, deadline=None)
    @given(case=_tiered_labelings(), narrow=st.booleans())
    def test_every_door_matches_the_dict_store(self, case, narrow):
        labeling, source, targets = case
        n = labeling.num_vertices
        with pytest.MonkeyPatch.context() as mp:
            # The hub tier's limit sits exactly at n (uint16 hubs) or
            # just below it (int32 hubs), so tiny labelings take both.
            mp.setattr(kernels, "_NARROW_HUBS", n if narrow else n - 1)
            self._check_doors(labeling, source, targets, narrow)

    @staticmethod
    def _check_doors(labeling, source, targets, narrow):
        n = labeling.num_vertices
        flat = FlatHubLabeling.from_labeling(labeling)
        hub_tier = "uint16" if narrow else "int32"
        assert flat.arrays()[1].dtype.name == hub_tier
        pairs = _all_pairs(n)
        expected = [labeling.query(u, v) for u, v in pairs]
        row = [labeling.query(source, v) for v in range(n)]
        assert _typed(flat.batch_query(pairs)) == _typed(expected)
        assert _typed([flat.query(u, v) for u, v in pairs]) == _typed(expected)
        assert _typed(flat.batch_query_from(source)) == _typed(row)
        assert _typed(flat.batch_query_from(source, targets)) == _typed(
            [row[t] for t in targets]
        )
        assert flat.distance_row(source).tolist() == [float(d) for d in row]
        for v in range(n):
            assert flat.hubs(v) == labeling.hubs(v)
        # Envelope v5 keeps both tiers, with odd and even entry counts.
        blob = flat_labeling_to_bytes(flat)
        assert blob[4] == 5 and blob[26] == (2 if narrow else 4)
        for back in (flat_labeling_from_bytes(blob), flat_labeling_view(blob)):
            assert back.arrays()[1].dtype.name == hub_tier
            assert back.arrays()[2].dtype == flat.arrays()[2].dtype
            assert _typed(back.batch_query(pairs)) == _typed(expected)
            assert _typed(back.batch_query_from(source)) == _typed(row)


@st.composite
def _split_labelings(draw):
    """A labeling around one dist tier boundary with a few scattered
    entries and, half the time, heavy hubs that fill about seven in
    eight cells of their columns, so a one-column floor gives most of
    those a tile of dense columns.  Without heavy hubs, empty labels
    and non-meeting pairs are likely."""
    tier = draw(st.sampled_from(sorted(_TIER_DISTANCES)))
    distance = _TIER_DISTANCES[tier]
    n = draw(st.integers(min_value=8, max_value=16))
    vertex = st.integers(min_value=0, max_value=n - 1)
    labeling = HubLabeling(n)
    heavy = draw(
        st.one_of(st.just(set()), st.sets(vertex, min_size=3 * n // 4))
    )
    for hub in heavy:
        for v in range(n):
            if draw(st.integers(min_value=0, max_value=7)):
                labeling.add_hub(v, hub, draw(distance))
    scattered = draw(st.lists(st.tuples(vertex, vertex, distance), max_size=20))
    for v, hub, dist in scattered:
        labeling.add_hub(v, hub, dist)
    return labeling, draw(vertex), draw(st.lists(vertex, max_size=12))


class TestSplitStore:
    """The dense part and the tail answer exactly as one CSR store and
    the dict store do, on every tier, with ``K = 0`` and ``K > 0``."""

    @settings(max_examples=100, deadline=None)
    @given(case=_split_labelings(), floor=st.sampled_from([1, 32]))
    def test_every_door_matches_the_dict_store(self, case, floor, tmp_path_factory):
        from repro.perf.shm import MappedLabelStore, SharedLabelStore

        labeling, source, targets = case
        with pytest.MonkeyPatch.context() as mp:
            # The floor patched to one column lets a 9-vertex store
            # keep a dense part; at 32 it has none.
            mp.setattr(kernels, "_MIN_DENSE", floor)
            flat = FlatHubLabeling.from_labeling(labeling)
        if floor == 32:
            assert flat.dense_width == 0
        if flat.arrays()[2].dtype.name == "uint32":
            assert flat.dense_width == 0  # two sentinels wrap uint32
        blob = flat_labeling_to_bytes(flat)
        assert blob[4] == 5
        path = tmp_path_factory.mktemp("split") / "labels.rhl"
        path.write_bytes(blob)
        with MappedLabelStore(path) as mapped, SharedLabelStore.create(
            flat
        ) as shared, SharedLabelStore.attach(shared.name) as attached:
            for store in (
                flat,
                flat_labeling_from_bytes(blob),
                flat_labeling_view(blob, validate=True),
                mapped.flat,
                attached.flat,
            ):
                assert store.dense()[0].tolist() == flat.dense()[0].tolist()
                self._check_store(store, labeling, source, targets)
            # Release the last view before the segments are closed.
            del store

    @staticmethod
    def _check_store(flat, labeling, source, targets):
        n = labeling.num_vertices
        csr = FlatHubLabeling.from_buffers(
            *flat.csr(),
            flat.dense()[0][:0],
            np.empty((0, n, kernels.TILE), dtype=flat.arrays()[2].dtype),
            dense_entries=0,
        )
        pairs = _all_pairs(n)
        expected = [labeling.query(u, v) for u, v in pairs]
        row = [labeling.query(source, v) for v in range(n)]
        assert _typed(flat.batch_query(pairs)) == _typed(expected)
        assert _typed([flat.query(u, v) for u, v in pairs]) == _typed(expected)
        assert _typed(flat.batch_query_from(source)) == _typed(row)
        assert _typed(flat.batch_query_from(source, targets)) == _typed(
            [row[t] for t in targets]
        )
        assert flat.distance_row(source).tolist() == [float(d) for d in row]
        for (u, v), want in zip(pairs, expected):
            hub = flat.meet(u, v)
            # The smallest hub id realizing the minimum, as one CSR
            # store's merge finds it.
            assert hub == csr.meet(u, v)
            if want == INF:
                assert hub is None
            else:
                assert labeling.hubs(u)[hub] + labeling.hubs(v)[hub] == want
        for v in range(n):
            assert sorted((h, type(d), d) for h, d in flat.hubs(v).items()) == (
                sorted((h, type(d), d) for h, d in labeling.hubs(v).items())
            )
            assert flat.label_size(v) == labeling.label_size(v)
        assert flat.total_size() == labeling.total_size()
        assert flat.max_size() == max(
            (labeling.label_size(v) for v in range(n)), default=0
        )

    @pytest.mark.parametrize(
        "far, tier, width",
        [(7, "uint16", 8), (20000, "uint32", 0), (2.25, "float64", 8)],
    )
    def test_dense_part_per_tier(self, far, tier, width):
        # Hubs 0..7 are in every label but two cells of vertex 2: one
        # tile of columns pays on the tiers that may hold it, as 4-byte
        # or 10-byte entries.  Hub 8 stays in the tail.
        lab = HubLabeling(9)
        for v in range(9):
            for hub in range(8):
                if v != 2 or hub not in (5, 6):
                    lab.add_hub(v, hub, far if (v, hub) == (3, 1) else (v + hub) % 5)
        lab.add_hub(8, 8, 0)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(kernels, "_MIN_DENSE", 1)
            flat = FlatHubLabeling.from_labeling(lab)
        assert flat.arrays()[2].dtype.name == tier
        assert flat.dense_width == width
        assert len(flat.arrays()[1]) == (1 if width else 71)
        assert flat.total_size() == 71 and flat.label_size(2) == 6
        assert flat.max_size() == 9
        assert repr(flat).endswith(f"K={width})")
        pairs = _all_pairs(9)
        assert _typed(flat.batch_query(pairs)) == _typed(
            [lab.query(u, v) for u, v in pairs]
        )
        for v in range(9):
            assert flat.to_labeling().hubs(v) == lab.hubs(v)

    def test_split_bytes_never_exceed_the_csr(self):
        # G(2,1)'s 16 most-frequent hubs pay for two tiles of columns,
        # below the floor, so its layout is one CSR; a one-column floor
        # gives it those 16 columns in fewer bytes.
        graph = build_degree3_instance(2, 1).graph
        built = build_flat_labels(graph)
        assert built.dense_width == 0
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(kernels, "_MIN_DENSE", 1)
            split = build_flat_labels(graph)
            derived = FlatHubLabeling(*built.arrays())
        assert split.dense_width == derived.dense_width == 16
        assert split.space_bytes() < built.space_bytes()
        for a, b in zip(
            (*split.arrays(), *split.dense()), (*derived.arrays(), *derived.dense())
        ):
            assert a.dtype == b.dtype and np.array_equal(a, b)
        assert split.total_size() == built.total_size()

    def test_corrupt_split_is_caught_by_validation(self):
        from repro.runtime.errors import ArtifactCorruptError

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(kernels, "_MIN_DENSE", 1)
            flat = build_flat_labels(random_sparse_graph(30, seed=2))
        assert flat.dense_width
        offsets, hubs, dists = flat.arrays()
        dense_hubs, dense = flat.dense()
        entries = flat.total_size() - len(hubs)
        bad = [
            # a dense hub that also has a tail entry
            (offsets, np.where(hubs == hubs[0], dense_hubs[0], hubs)
             .astype(hubs.dtype), dists, dense_hubs, dense, entries),
            # a miscounted dense part
            (offsets, hubs, dists, dense_hubs, dense, entries + 1),
            # a cell past the uint16 tier
            (offsets, hubs, dists, dense_hubs,
             np.where(dense == dense.min(), 16000, dense).astype(dense.dtype),
             entries),
        ]
        for case in bad:
            with pytest.raises(ValueError):
                FlatHubLabeling.from_buffers(
                    *case[:5], dense_entries=case[5], validate=True
                )
        with pytest.raises(ValueError, match="cannot hold a dense part"):
            FlatHubLabeling.from_buffers(
                offsets, hubs, dists.astype(np.uint32), dense_hubs,
                dense.astype(np.uint32), dense_entries=entries,
                validate=False,
            )
        blob = bytearray(flat_labeling_to_bytes(flat))
        blob[25 + 18 : 25 + 26] = (entries + 1).to_bytes(8, "big")
        with pytest.raises(ArtifactCorruptError):
            flat_labeling_view(bytes(blob), validate=True)


class TestNoDerivation:
    """Every producer writes the split itself: the one helper that
    derives it from a CSR triple never runs on a build, a load, a
    mapping, an attach or a splice."""

    def test_split_helper_runs_only_in_the_constructor(self, tmp_path):
        from repro.dynamic import DynamicHubLabeling
        from repro.perf import flat as flat_module
        from repro.perf.cache import LabelCache
        from repro.perf.shm import SharedLabelStore

        calls = []
        derive = flat_module._split

        def spy(*args):
            calls.append(len(args[1]))
            return derive(*args)

        graph = random_sparse_graph(40, seed=4)
        order = degree_order(graph)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(kernels, "_MIN_DENSE", 1)
            mp.setattr(flat_module, "_split", spy)
            built = build_flat_labels(graph, order)
            assert built.dense_width > 0
            cache = LabelCache(tmp_path)
            cache.store(graph, order, built)
            hit = cache.load_or_build(graph, order)
            blob = flat_labeling_to_bytes(built)
            loaded = flat_labeling_from_bytes(blob)
            viewed = flat_labeling_view(blob)
            with SharedLabelStore.create(built) as shared:
                attached = SharedLabelStore.attach(shared.name)
                attached_widths = attached.flat.dense_width
                attached.close()
            dyn = DynamicHubLabeling(
                graph.copy(), order=order, cache=cache,
                rebuild_fraction=1.0, staleness_budget=1e9,
            )
            u, v = next(
                (u, v) for u in range(40) for v in range(u + 1, 40)
                if not graph.has_edge(u, v)
            )
            assert not dyn.insert_edge(u, v).rebuilt
            assert not dyn.delete_edge(*next(iter(graph.edges()))[:2]).rebuilt
            assert calls == []
            # The spy sees the constructor's derivation.
            FlatHubLabeling(*built.csr())
            assert calls == [built.total_size()]
        widths = {
            store.dense_width for store in (built, hit, loaded, viewed, dyn.flat())
        }
        assert widths == {attached_widths}


class TestHubTierProducers:
    """Every producer emits the hub tier of ``n`` directly, and every
    zero-copy source adopts it."""

    @pytest.mark.parametrize("narrow", [True, False])
    def test_tier_through_every_producer(self, narrow, tmp_path):
        from repro.dynamic import DynamicHubLabeling
        from repro.perf.shm import MappedLabelStore, SharedLabelStore

        graph = random_sparse_graph(30, seed=5)
        n = graph.num_vertices
        order = degree_order(graph)
        hub_tier = "uint16" if narrow else "int32"
        pairs = _all_pairs(n)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(kernels, "_NARROW_HUBS", n if narrow else n - 1)
            built = build_flat_labels(graph, order)
            assert built.arrays()[1].dtype.name == hub_tier
            dyn = DynamicHubLabeling(
                graph, order=order, rebuild_fraction=1.0, staleness_budget=1e9
            )
            u, v = next(
                (u, v) for u in range(n) for v in range(u + 1, n)
                if not graph.has_edge(u, v)
            )
            dyn.insert_edge(u, v)
            dyn.delete_edge(*next(iter(graph.edges()))[:2])
            spliced = dyn.flat()
            assert spliced.arrays()[1].dtype.name == hub_tier
            path = tmp_path / "labels.rhl"
            path.write_bytes(flat_labeling_to_bytes(spliced))
            expected = _typed(spliced.batch_query(pairs))
            with MappedLabelStore(path) as mapped, SharedLabelStore.create(
                spliced
            ) as shared:
                assert [
                    (s.arrays()[1].dtype.name, _typed(s.batch_query(pairs)))
                    for s in (mapped.flat, shared.flat)
                ] == [(hub_tier, expected)] * 2
        rebuilt = build_flat_labels(dyn.graph, order)
        assert [spliced.hubs(x) for x in range(n)] == [
            rebuilt.hubs(x) for x in range(n)
        ]

    def test_width_that_does_not_match_n_is_corrupt(self):
        from repro.runtime.errors import ArtifactCorruptError

        flat = build_flat_labels(random_sparse_graph(12, seed=1))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(kernels, "_NARROW_HUBS", 0)
            blob = flat_labeling_to_bytes(FlatHubLabeling(*flat.arrays()))
        assert blob[26] == 4
        with pytest.raises(ArtifactCorruptError, match="hub width 4"):
            flat_labeling_view(blob)


class TestScatteredPairKernel:
    @settings(max_examples=60, deadline=None)
    @given(
        case=_scattered_tickets(),
        per_block=st.integers(min_value=1, max_value=3),
        per_pass=st.sampled_from([1, 7, 1 << 20]),
    )
    def test_blocked_tickets_agree(self, case, per_block, per_pass):
        labeling, pairs, root, targets = case
        flat = FlatHubLabeling.from_labeling(labeling)
        n = labeling.num_vertices
        with pytest.MonkeyPatch.context() as mp:
            # A few sources per block, so one ticket spans several
            # blocks (and, with a small pass, several passes).
            mp.setattr(kernels, "_SCRATCH", per_block * n)
            mp.setattr(kernels, "_PASS", per_pass)
            got = flat.batch_query(pairs)
            row = flat.batch_query_from(root, targets)
        assert _typed(got) == _typed([labeling.query(u, v) for u, v in pairs])
        assert _typed(row) == _typed([labeling.query(root, t) for t in targets])


class TestKernelTransients:
    def test_4096_pair_ticket_peak_is_bounded_by_one_pass(self):
        # A pass gathers through one int64 index array at a time and
        # frees it, so a ticket's transients are the block scratch, a
        # few per-pair arrays and about 24 bytes per target entry of
        # one pass.
        flat = build_flat_labels(build_degree3_instance(2, 1).graph)
        offsets = flat.arrays()[0]
        n = flat.num_vertices
        rng = np.random.default_rng(7)
        us, vs = rng.integers(0, n, 4096), rng.integers(0, n, 4096)
        assert int((offsets[vs + 1] - offsets[vs]).sum()) > kernels._PASS
        tracemalloc.start()
        try:
            best = kernels.query_pairs(*flat.arrays(), us, vs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        scratch = min(len(np.unique(us)), kernels._SCRATCH // n) * n * 2
        assert peak <= scratch + 24 * (1 << 16) + 128 * len(us)
        expected = [flat.query(u, v) for u, v in zip(us.tolist(), vs.tolist())]
        assert _typed(flat._answers(best)) == _typed(expected)


class TestAddHubRegression:
    """``add_hub`` must keep the minimum distance per (vertex, hub).

    The flat freeze inherits whatever the dict store holds, so a
    re-add regression would silently poison both backends -- pin the
    behavior from several angles.
    """

    def test_readd_larger_is_ignored(self):
        lab = HubLabeling(2)
        lab.add_hub(0, 1, 3)
        lab.add_hub(0, 1, 7)
        assert lab.hub_distance(0, 1) == 3
        assert FlatHubLabeling.from_labeling(lab).hub_distance(0, 1) == 3

    def test_readd_smaller_wins(self):
        lab = HubLabeling(2)
        lab.add_hub(0, 1, 7)
        lab.add_hub(0, 1, 3)
        lab.add_hub(0, 1, 5)
        assert lab.hub_distance(0, 1) == 3

    def test_add_hubs_bulk_keeps_minimum(self):
        lab = HubLabeling(1)
        lab.add_hubs(0, [(0, 9), (0, 2), (0, 4)])
        assert lab.hub_distance(0, 0) == 2

    def test_query_reflects_minimum_after_readds(self):
        lab = HubLabeling(2)
        lab.add_hub(0, 0, 10)
        lab.add_hub(1, 0, 10)
        lab.add_hub(0, 0, 1)
        lab.add_hub(1, 0, 1)
        lab.add_hub(0, 0, 99)
        assert lab.query(0, 1) == 2
        assert FlatHubLabeling.from_labeling(lab).query(0, 1) == 2

    def test_float_and_int_mix_keeps_minimum(self):
        lab = HubLabeling(1)
        lab.add_hub(0, 0, 2.5)
        lab.add_hub(0, 0, 2)
        lab.add_hub(0, 0, 2.25)
        assert lab.hub_distance(0, 0) == 2
        assert not math.isinf(lab.query(0, 0))
