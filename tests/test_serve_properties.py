"""Property-based tests for the serving layer.

Hypothesis drives a live server: ``submit_batch`` answers exactly like
per-pair ``submit``, swaps are whole-ticket atomic, and skewed
workloads stay exact.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

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
        server.set_oracle(second)
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
    coalescing behavior, never the answers.
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
