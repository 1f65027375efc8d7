"""Construction-time benchmarks for every labeling algorithm.

Times (pytest-benchmark, single rounds -- constructions are not
microseconds) each construction on the same sparse graph, so the cost
side of the quality/size results in E9 is on record too.
"""

import pytest

from repro.core import (
    greedy_hub_labeling,
    pruned_landmark_labeling,
    rs_hub_labeling,
    separator_hub_labeling,
    sparse_hub_labeling,
)
from repro.graphs import random_sparse_graph


N = 150
SEED = 11


@pytest.fixture(scope="module")
def graph():
    return random_sparse_graph(N, seed=SEED)


def test_build_pll(benchmark, graph):
    labeling = benchmark.pedantic(
        lambda: pruned_landmark_labeling(graph), rounds=3, iterations=1
    )
    assert labeling.total_size() > 0


def test_build_greedy(benchmark, graph):
    labeling = benchmark.pedantic(
        lambda: greedy_hub_labeling(graph), rounds=1, iterations=1
    )
    assert labeling.total_size() > 0


def test_build_sparse_scheme(benchmark, graph):
    result = benchmark.pedantic(
        lambda: sparse_hub_labeling(graph, seed=1), rounds=1, iterations=1
    )
    assert result.labeling.total_size() > 0


def test_build_rs_scheme(benchmark, graph):
    result = benchmark.pedantic(
        lambda: rs_hub_labeling(graph, threshold=3, seed=1),
        rounds=1,
        iterations=1,
    )
    assert result.labeling.total_size() > 0


def test_build_separator_scheme(benchmark, graph):
    labeling = benchmark.pedantic(
        lambda: separator_hub_labeling(graph), rounds=1, iterations=1
    )
    assert labeling.total_size() > 0
