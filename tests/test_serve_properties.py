"""Property-based tests for the serving layer.

The result cache is the piece the dispatcher's correctness leans on,
and it is deliberately clock-free / pure so hypothesis can drive
*arbitrary* interleavings deterministically: :class:`ResultCache`
behaves exactly like a capacity-bounded model dict under any operation
sequence, and a generation mismatch can never smuggle a stale answer
in (the ``set_oracle`` guard).  Further down, the same style drives a
live server: ``submit_batch`` answers exactly like per-pair ``submit``,
swaps are whole-ticket atomic, and skewed workloads stay exact.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serve import MISS, ResultCache

# ---------------------------------------------------------------------------
# ResultCache vs a model
# ---------------------------------------------------------------------------

_keys = st.integers(0, 9)
_ops = st.lists(
    st.one_of(
        st.tuples(st.just("get"), _keys),
        st.tuples(st.just("put"), _keys, st.integers(0, 99)),
        st.tuples(st.just("rekey"), st.sampled_from(["g1", "g2", "g3"])),
        st.tuples(
            st.just("stale_put"),
            _keys,
            st.integers(0, 99),
            st.sampled_from(["g1", "g2", "g3"]),
        ),
        st.just(("clear",)),
    ),
    max_size=80,
)


@settings(max_examples=200, deadline=None)
@given(ops=_ops, capacity=st.integers(0, 6))
def test_cache_matches_model(ops, capacity):
    cache = ResultCache(capacity)
    cache.rekey("g1")
    generation = "g1"
    model = {}  # insertion order tracks recency (dicts are ordered)

    def touch(key):
        model[key] = model.pop(key)

    for op in ops:
        if op[0] == "get":
            got = cache.get(op[1])
            if op[1] in model:
                assert got == model[op[1]]
                touch(op[1])
            else:
                assert got is MISS
        elif op[0] == "put":
            accepted = cache.put(op[1], op[2], generation)
            assert accepted == (capacity > 0)
            if accepted:
                model[op[1]] = op[2]
                touch(op[1])
                while len(model) > capacity:
                    del model[next(iter(model))]  # evict true LRU
        elif op[0] == "rekey":
            cleared = cache.rekey(op[1])
            assert cleared == (op[1] != generation)
            if cleared:
                model.clear()
            generation = op[1]
        elif op[0] == "stale_put":
            accepted = cache.put(op[1], op[2], op[3])
            if op[3] != generation:
                # The staleness guard: a put tagged with any *other*
                # generation must be dropped, never served later.
                assert not accepted
            elif accepted:
                model[op[1]] = op[2]
                touch(op[1])
                while len(model) > capacity:
                    del model[next(iter(model))]
        else:
            cache.clear()
            model.clear()
        assert len(cache) == len(model)
        assert set(cache.keys()) == set(model)
    # Final recency order must agree exactly (LRU -> MRU).
    assert list(cache.keys()) == list(model)


@settings(max_examples=100, deadline=None)
@given(
    warm=st.lists(st.tuples(_keys, st.integers(0, 99)), max_size=20),
    generations=st.lists(st.sampled_from(["a", "b", "c"]), max_size=10),
)
def test_rebuild_never_serves_stale(warm, generations):
    """After any rekey chain, entries from an older generation are gone."""
    cache = ResultCache(32)
    cache.rekey("initial")
    for key, value in warm:
        cache.put(key, value, "initial")
    current = "initial"
    for generation in generations:
        changed = cache.rekey(generation)
        if generation != current:
            assert changed
            assert len(cache) == 0  # nothing survives a real swap
        current = generation
        cache.put(0, 42, current)
        assert cache.get(0) == 42


# ---------------------------------------------------------------------------
# get_many / put_many vs the scalar operations
# ---------------------------------------------------------------------------


@settings(max_examples=150, deadline=None)
@given(
    puts=st.lists(st.tuples(_keys, st.integers(0, 99)), max_size=25),
    probes=st.lists(_keys, max_size=25),
    capacity=st.integers(0, 8),
)
def test_bulk_ops_match_scalar_ops(puts, probes, capacity):
    """put_many/get_many behave exactly like a loop of put/get."""
    bulk = ResultCache(capacity)
    scalar = ResultCache(capacity)
    bulk.rekey("g")
    scalar.rekey("g")
    accepted = bulk.put_many(
        [key for key, _ in puts], [value for _, value in puts], "g"
    )
    for key, value in puts:
        scalar_accepted = scalar.put(key, value, "g")
    if puts:
        assert accepted == (capacity > 0)
    assert list(bulk.keys()) == list(scalar.keys())
    got_bulk = bulk.get_many(probes)
    got_scalar = [scalar.get(key) for key in probes]
    assert got_bulk == got_scalar
    # Bulk gets freshen recency identically to scalar gets.
    assert list(bulk.keys()) == list(scalar.keys())


def test_put_many_stale_generation_dropped_whole():
    cache = ResultCache(8)
    cache.rekey("new")
    assert not cache.put_many([1, 2], [10, 20], "old")
    assert len(cache) == 0


# ---------------------------------------------------------------------------
# submit_batch equals per-pair submit through a live server
# ---------------------------------------------------------------------------

import math
import threading

import pytest

from repro.core import pruned_landmark_labeling
from repro.graphs import Graph
from repro.oracles.oracle import HubLabelOracle
from repro.perf.flat import FlatHubLabeling
from repro.serve import QueryServer


def _two_island_setup():
    """A 12-vertex graph with two components: finite AND inf answers."""
    graph = Graph(12)
    for u in range(5):
        graph.add_edge(u, u + 1)
    for u in range(6, 11):
        graph.add_edge(u, u + 1)
    labeling = pruned_landmark_labeling(graph)
    flat = FlatHubLabeling.from_labeling(labeling)
    return labeling, flat


_ISLAND_LABELING, _ISLAND_FLAT = _two_island_setup()
_pair_lists = st.lists(
    st.tuples(st.integers(0, 11), st.integers(0, 11)), max_size=40
)


@settings(max_examples=40, deadline=None)
@given(pairs=_pair_lists)
def test_submit_batch_equals_per_pair_submit(pairs):
    """Same pairs, both doors, byte-identical answers (INF included)."""
    oracle = HubLabelOracle(_ISLAND_FLAT, backend="flat")
    with QueryServer(oracle) as server:
        scalar = [server.submit(u, v).result(timeout=30) for u, v in pairs]
        batched = server.submit_batch(
            [u for u, _ in pairs], [v for _, v in pairs]
        ).result(timeout=30)
    assert len(batched) == len(scalar)
    for (u, v), one, many in zip(pairs, scalar, batched):
        assert type(one) is type(many), (u, v, one, many)
        if isinstance(one, float) and math.isinf(one):
            assert math.isinf(many)
        else:
            assert one == many, (u, v, one, many)


def _weighted_path_setup(weight):
    graph = Graph(10)
    for u in range(9):
        graph.add_edge(u, u + 1, weight)
    return pruned_landmark_labeling(graph)


_PATH_A = _weighted_path_setup(1)   # distance(u, v) = |u - v|
_PATH_B = _weighted_path_setup(3)   # distance(u, v) = 3|u - v|


@settings(max_examples=25, deadline=None)
@given(
    pairs=st.lists(
        st.tuples(st.integers(0, 9), st.integers(0, 9)).filter(
            lambda p: p[0] != p[1]
        ),
        min_size=1,
        max_size=12,
    ),
    swap_first=st.booleans(),
)
def test_set_oracle_between_batches_never_serves_stale(pairs, swap_first):
    """Across a swap, every ticket answers from the *current* labeling."""
    oracle_a = HubLabelOracle(_PATH_A, backend="dict")
    oracle_b = HubLabelOracle(_PATH_B, backend="dict")
    first, second = (
        (oracle_b, oracle_a) if swap_first else (oracle_a, oracle_b)
    )
    us = [u for u, _ in pairs]
    vs = [v for _, v in pairs]
    with QueryServer(first) as server:
        before = server.submit_batch(us, vs).result(timeout=30)
        assert server.set_oracle(second)  # every swap clears the cache
        after = server.submit_batch(us, vs).result(timeout=30)
    for (u, v), got_first, got_second in zip(pairs, before, after):
        want_first = first.query(u, v).distance
        want_second = second.query(u, v).distance
        assert got_first == want_first and type(got_first) is type(want_first)
        assert got_second == want_second
        assert type(got_second) is type(want_second)
        assert got_first != got_second  # the swap is observable


def test_concurrent_swaps_yield_only_real_answers():
    """A swap hammer mid-flight: answers are always one labeling's truth.

    With the cache off, each ticket is served in one oracle hold, so
    every ticket must be *entirely* A's answers or entirely B's --
    never a blend, never garbage.
    """
    oracle_a = HubLabelOracle(_PATH_A, backend="dict")
    oracle_b = HubLabelOracle(_PATH_B, backend="dict")
    pairs = [(u, v) for u in range(10) for v in range(10) if u != v]
    us = [u for u, _ in pairs]
    vs = [v for _, v in pairs]
    want_a = [oracle_a.query(u, v).distance for u, v in pairs]
    want_b = [oracle_b.query(u, v).distance for u, v in pairs]
    stop = threading.Event()
    with QueryServer(oracle_a, cache_size=0) as server:

        def swapper():
            flip = False
            while not stop.is_set():
                server.set_oracle(oracle_b if flip else oracle_a)
                flip = not flip

        thread = threading.Thread(target=swapper)
        thread.start()
        try:
            for _ in range(30):
                got = server.submit_batch(us, vs).result(timeout=30)
                assert got == want_a or got == want_b
        finally:
            stop.set()
            thread.join()


# ---------------------------------------------------------------------------
# Skewed workloads: Zipf / hotspot streams through both serving doors
# ---------------------------------------------------------------------------

import random

from repro.graphs import random_sparse_graph
from repro.serve import make_pair_sampler, run_loadgen


@settings(max_examples=60, deadline=None)
@given(
    num_vertices=st.integers(1, 50),
    distribution=st.sampled_from(["uniform", "zipf", "hotspot"]),
    shape_seed=st.integers(0, 2**31),
    draw_seed=st.integers(0, 2**31),
)
def test_sampler_in_range_and_shape_deterministic(
    num_vertices, distribution, shape_seed, draw_seed
):
    """Any sampler yields valid vertex pairs, and the same (shape seed,
    draw seed) pair replays the identical stream."""
    sampler = make_pair_sampler(
        num_vertices, distribution, seed=shape_seed
    )
    rng = random.Random(draw_seed)
    stream = [sampler(rng) for _ in range(30)]
    for u, v in stream:
        assert 0 <= u < num_vertices
        assert 0 <= v < num_vertices
    again = make_pair_sampler(num_vertices, distribution, seed=shape_seed)
    rng = random.Random(draw_seed)
    assert [again(rng) for _ in range(30)] == stream


def test_zipf_sampler_is_actually_skewed():
    """The most popular endpoint dominates a uniform endpoint's share."""
    sampler = make_pair_sampler(100, "zipf", seed=3, zipf_s=1.2)
    rng = random.Random(1)
    counts = {}
    draws = 4000
    for _ in range(draws):
        u, v = sampler(rng)
        counts[u] = counts.get(u, 0) + 1
        counts[v] = counts.get(v, 0) + 1
    top = max(counts.values())
    assert top > 5 * (2 * draws) / 100  # >5x the uniform share


def test_hotspot_sampler_concentrates_on_hot_pairs():
    sampler = make_pair_sampler(
        1000, "hotspot", seed=4, hot_pairs=8, hot_fraction=0.9
    )
    rng = random.Random(2)
    draws = [sampler(rng) for _ in range(2000)]
    hot = {pair for pair, count in
           {p: draws.count(p) for p in set(draws)}.items() if count > 20}
    assert 0 < len(hot) <= 8
    hot_share = sum(1 for pair in draws if pair in hot) / len(draws)
    assert hot_share > 0.8


def test_unknown_distribution_rejected():
    with pytest.raises(ValueError):
        make_pair_sampler(10, "pareto")
    with pytest.raises(ValueError):
        make_pair_sampler(10, "zipf", zipf_s=0.0)
    with pytest.raises(ValueError):
        make_pair_sampler(10, "hotspot", hot_fraction=1.5)


class TestSkewedWorkloadsThroughBothDoors:
    """Zipf and hotspot streams, graded against the dict oracle.

    ``batch_size=None`` drives per-pair ``submit`` (the ``--batch 0``
    door); ``batch_size=16`` drives batch-native ``submit_batch``.
    Either way every answer must match ground truth -- skew changes the
    cache and coalescing behavior, never the answers.
    """

    def _setup(self, n=80):
        graph = random_sparse_graph(n, seed=9)
        labeling = pruned_landmark_labeling(graph)
        flat = HubLabelOracle(
            FlatHubLabeling.from_labeling(labeling), backend="flat"
        )
        ground = HubLabelOracle(labeling, backend="dict")
        return graph, flat, ground

    @pytest.mark.parametrize("distribution", ["zipf", "hotspot"])
    @pytest.mark.parametrize("batch_size", [None, 16])
    def test_skewed_answers_match_oracle(self, distribution, batch_size):
        graph, flat, ground = self._setup()
        with QueryServer(flat) as server:
            report = run_loadgen(
                server,
                graph.num_vertices,
                clients=4,
                requests_per_client=120,
                seed=5,
                expected=lambda u, v: ground.query(u, v).distance,
                batch_size=batch_size,
                distribution=distribution,
            )
        assert report.ok, report.render()
        assert report.requests == 4 * 120

    def test_hotspot_raises_cache_hit_rate(self):
        """The hotspot stream is the result cache's best case: its hit
        rate must clearly beat the uniform stream's on the same server
        configuration."""
        graph, flat, ground = self._setup()
        rates = {}
        for distribution in ("uniform", "hotspot"):
            with QueryServer(flat, cache_size=4096) as server:
                report = run_loadgen(
                    server,
                    graph.num_vertices,
                    clients=4,
                    requests_per_client=200,
                    seed=6,
                    expected=lambda u, v: ground.query(u, v).distance,
                    distribution=distribution,
                    hot_pairs=8,
                    hot_fraction=0.9,
                )
                stats = server.stats()
            assert report.ok, report.render()
            rates[distribution] = stats.cache_hits / stats.responses
        assert rates["hotspot"] > rates["uniform"] + 0.3
        # ~90% of hotspot traffic is 8 pairs: nearly all of it hits.
        assert rates["hotspot"] > 0.7
