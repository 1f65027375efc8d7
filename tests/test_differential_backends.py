"""Differential testing: dict vs flat vs exact search, byte-identical.

Hypothesis generates small sparse graphs (unweighted and integer
weighted, connected or not); every ``(u, v)`` pair is answered by

* the dict-backed :class:`HubLabelOracle` (scalar and batch),
* the flat-backed :class:`HubLabelOracle` (scalar and batch), and
* exact BFS/Dijkstra (:func:`shortest_path_distances`),

and all five answers must agree *byte-identically* -- same value, same
type (the flat store narrows integral doubles back to int), with
disconnected pairs reported as the same ``inf``.  Hard instances
``G_{b,l}`` from the paper's lower-bound construction go through the
same comparison deterministically.

A seed-pinned corpus under ``tests/data/`` replays the same contract on
committed cases, so a behavioral change shows up as a reviewable diff
even if hypothesis happens not to hit it.  Since version 2 the corpus
is organized by graph family: the original hand-picked cases plus 30
seed-swept cases from each zoo family (Barabasi-Albert, power-law
configuration, small-world, road-network), regenerated and
drift-checked by ``tools/gen_differential_corpus.py``.

The serving layer joins the same contract: every corpus answer must
come back byte-identical when fired through a :class:`QueryServer`
from many client threads at once -- concurrency, coalescing, and
caching must be invisible in the answers.
"""

import json
import math
import pathlib
import random
import sys
import threading

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import pruned_landmark_labeling
from repro.graphs import Graph
from repro.graphs.traversal import shortest_path_distances
from repro.lowerbound import build_degree3_instance
from repro.oracles.oracle import HubLabelOracle
from repro.serve import QueryServer

DATA_DIR = pathlib.Path(__file__).parent / "data"
CORPUS_PATH = DATA_DIR / "differential_corpus.json"


def _exact_row(graph: Graph, source: int):
    return shortest_path_distances(graph, source)[0]


def _assert_identical(expected, got, context):
    """Equal value AND equal type: 2 is not 2.0 for this contract."""
    assert type(expected) is type(got), (context, expected, got)
    if isinstance(expected, float) and math.isinf(expected):
        assert math.isinf(got), (context, expected, got)
    else:
        assert expected == got, (context, expected, got)


def _check_graph(graph: Graph, pairs=None):
    labeling = pruned_landmark_labeling(graph)
    dict_oracle = HubLabelOracle(labeling, backend="dict")
    flat_oracle = HubLabelOracle(labeling, backend="flat")
    n = graph.num_vertices
    if pairs is None:
        pairs = [(u, v) for u in range(n) for v in range(n)]
    exact_rows = {}
    dict_batch = dict_oracle.batch_query(pairs)
    flat_batch = flat_oracle.batch_query(pairs)
    for index, (u, v) in enumerate(pairs):
        if u not in exact_rows:
            exact_rows[u] = _exact_row(graph, u)
        expected = exact_rows[u][v]
        dict_scalar = dict_oracle.query(u, v).distance
        flat_scalar = flat_oracle.query(u, v).distance
        # Exact search returns floats (INF-capable rows); the oracles
        # answer ints on unweighted/integer graphs.  Values must agree
        # exactly; the four oracle answers must be byte-identical.
        assert dict_scalar == expected or (
            math.isinf(expected) and math.isinf(dict_scalar)
        ), (u, v, dict_scalar, expected)
        _assert_identical(dict_scalar, flat_scalar, ("scalar", u, v))
        _assert_identical(dict_scalar, dict_batch[index], ("dict-batch", u, v))
        _assert_identical(dict_scalar, flat_batch[index], ("flat-batch", u, v))


@st.composite
def sparse_graphs(draw, weighted):
    n = draw(st.integers(min_value=2, max_value=12))
    possible = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(
        st.lists(
            st.sampled_from(possible),
            unique=True,
            max_size=min(len(possible), 2 * n),
        )
    )
    graph = Graph(n)
    for u, v in edges:
        weight = draw(st.integers(1, 9)) if weighted else 1
        graph.add_edge(u, v, weight)
    return graph


class TestHypothesisDifferential:
    @settings(max_examples=120, deadline=None)
    @given(graph=sparse_graphs(weighted=False))
    def test_unweighted_graphs(self, graph):
        _check_graph(graph)

    @settings(max_examples=80, deadline=None)
    @given(graph=sparse_graphs(weighted=True))
    def test_weighted_graphs(self, graph):
        _check_graph(graph)

    @settings(max_examples=30, deadline=None)
    @given(
        n=st.integers(min_value=2, max_value=10),
        data=st.data(),
    )
    def test_forests_with_disconnection(self, n, data):
        # Forests guarantee INF pairs whenever there are >= 2 trees.
        graph = Graph(n)
        for v in range(1, n):
            parent = data.draw(
                st.one_of(st.none(), st.integers(0, v - 1)), label=f"p{v}"
            )
            if parent is not None:
                graph.add_edge(parent, v)
        _check_graph(graph)


class TestHardInstanceDifferential:
    def test_g11_full(self):
        graph = build_degree3_instance(1, 1).graph
        n = graph.num_vertices
        sources = list(range(0, n, max(1, n // 12)))
        pairs = [(s, t) for s in sources for t in range(0, n, 7)]
        _check_graph(graph, pairs=pairs)


#: Families the version-2 corpus must cover, with their case floors.
ZOO_FAMILY_FLOOR = 30
ZOO_FAMILIES = ("ba", "powerlaw", "smallworld", "road")


def _cases_by_family(corpus):
    grouped = {}
    for case in corpus["cases"]:
        grouped.setdefault(case["family"], []).append(case)
    return grouped


class TestPinnedCorpus:
    def test_corpus_exists_and_is_seed_pinned(self):
        corpus = json.loads(CORPUS_PATH.read_text())
        assert corpus["version"] == 2
        assert corpus["cases"], "corpus must not be empty"
        for case in corpus["cases"]:
            assert case["seed"] is not None
            assert case["family"], case["name"]

    def test_corpus_covers_every_zoo_family(self):
        """Each zoo family contributes at least its case floor, and the
        power-law configuration family (no connectivity guarantee) must
        pin some disconnected pairs so the INF contract stays covered.
        """
        corpus = json.loads(CORPUS_PATH.read_text())
        grouped = _cases_by_family(corpus)
        for family in ZOO_FAMILIES:
            assert len(grouped.get(family, [])) >= ZOO_FAMILY_FLOOR, family
        for family in ("sparse", "weighted", "forest", "degree3"):
            assert grouped.get(family), family
        inf_pairs = sum(
            1
            for case in grouped["powerlaw"]
            for value in case["expected"]
            if value is None
        )
        assert inf_pairs > 0

    def test_corpus_cases_replay_identically_through_server(self):
        """Corpus cases fired through QueryServer by 8 threads at once.

        Ground truth is the serial dict-backend answer; every response
        out of every client thread must match it byte-identically
        (value AND type, INF included) -- across coalescing, the result
        cache, and duplicate-pair collapsing.  Two cases per family
        keep the sweep representative without multiplying server
        spin-ups by the full 100+-case corpus.
        """
        corpus = json.loads(CORPUS_PATH.read_text())
        corpus = {
            "cases": [
                case
                for cases in _cases_by_family(corpus).values()
                for case in cases[:2]
            ]
        }
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for case in corpus["cases"]:
                graph = Graph(case["n"])
                for u, v, w in case["edges"]:
                    graph.add_edge(u, v, w)
                labeling = pruned_landmark_labeling(graph)
                dict_oracle = HubLabelOracle(labeling, backend="dict")
                flat_oracle = HubLabelOracle(labeling, backend="flat")
                pairs = [tuple(pair) for pair in case["pairs"]]
                truth = {
                    pair: dict_oracle.query(*pair).distance
                    for pair in pairs
                }
                failures = []

                def client(index, server=None, truth=truth, pairs=pairs,
                           name=case["name"]):
                    rng = random.Random(1000 + index)
                    shuffled = list(pairs)
                    rng.shuffle(shuffled)
                    futures = [
                        (pair, server.submit(*pair)) for pair in shuffled
                    ]
                    for pair, future in futures:
                        got = future.result(timeout=30)
                        want = truth[pair]
                        if type(got) is not type(want) or not (
                            got == want
                            or (math.isinf(want) and math.isinf(got))
                        ):
                            failures.append((name, index, pair, got, want))

                # Deep queue: this sweep tests answer fidelity, and the
                # clients fire their whole workload without waiting
                # (backpressure has its own tests in test_serve.py).
                with QueryServer(
                    flat_oracle,
                    max_queue=100_000,
                ) as server:
                    threads = [
                        threading.Thread(target=client, args=(i, server))
                        for i in range(8)
                    ]
                    for thread in threads:
                        thread.start()
                    for thread in threads:
                        thread.join()
                assert not failures, failures[:5]
        finally:
            sys.setswitchinterval(switch)

    def test_hard_instance_served_concurrently(self):
        """G(2,1) through the server: sampled pairs, 8 threads."""
        from repro.perf.build import build_flat_labels
        from repro.core.orders import degree_order

        graph = build_degree3_instance(2, 1).graph
        flat = build_flat_labels(graph, degree_order(graph))
        dict_oracle = HubLabelOracle(flat.to_labeling(), backend="dict")
        n = graph.num_vertices
        rng = random.Random(42)
        pairs = [
            (rng.randrange(n), rng.randrange(n)) for _ in range(400)
        ]
        truth = {
            pair: dict_oracle.query(*pair).distance for pair in pairs
        }
        failures = []

        def client(index):
            local = list(pairs)
            random.Random(index).shuffle(local)
            for pair in local:
                got = server.query(*pair, timeout=30)
                want = truth[pair]
                if type(got) is not type(want) or not (
                    got == want
                    or (math.isinf(want) and math.isinf(got))
                ):
                    failures.append((index, pair, got, want))

        with QueryServer(
            HubLabelOracle(flat, backend="flat"),
        ) as server:
            threads = [
                threading.Thread(target=client, args=(i,))
                for i in range(8)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        assert not failures, failures[:5]

    def test_corpus_cases_replay_identically(self):
        corpus = json.loads(CORPUS_PATH.read_text())
        for case in corpus["cases"]:
            graph = Graph(case["n"])
            for u, v, w in case["edges"]:
                graph.add_edge(u, v, w)
            labeling = pruned_landmark_labeling(graph)
            dict_oracle = HubLabelOracle(labeling, backend="dict")
            flat_oracle = HubLabelOracle(labeling, backend="flat")
            pairs = [tuple(pair) for pair in case["pairs"]]
            flat_batch = flat_oracle.batch_query(pairs)
            for index, (u, v) in enumerate(pairs):
                expected = case["expected"][index]
                expected = math.inf if expected is None else expected
                got = dict_oracle.query(u, v).distance
                assert got == expected, (case["name"], u, v, got, expected)
                _assert_identical(
                    got, flat_batch[index], (case["name"], u, v)
                )
