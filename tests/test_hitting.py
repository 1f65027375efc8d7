"""Random hitting sets for far pairs -- property (*) of Section 4."""

import math

import pytest

from repro.core import build_hitting_set, hitting_set_size
from repro.graphs import (
    all_pairs_distances,
    hub_candidates_from_distances,
    path_graph,
    random_sparse_graph,
    random_weighted_graph,
)


class TestSizeFormula:
    def test_formula(self):
        assert hitting_set_size(100, 10) == math.ceil(10 * math.log(10))

    def test_threshold_one_takes_everything(self):
        assert hitting_set_size(50, 1) == 50

    def test_capped_at_n(self):
        assert hitting_set_size(5, 2) <= 5

    def test_invalid_threshold(self):
        with pytest.raises(ValueError):
            hitting_set_size(10, 0)


class TestBuild:
    def test_corrections_complete_the_cover(self):
        # The weighted graph takes the Dijkstra rows and the counted
        # richness test; the unweighted one the distance shortcut.
        threshold = 4
        for g in (
            random_sparse_graph(60, seed=3),
            random_weighted_graph(60, 90, seed=3),
        ):
            result = build_hitting_set(g, threshold, seed=1)
            matrix = all_pairs_distances(g)
            for u in range(60):
                for v in range(u + 1, 60):
                    candidates = hub_candidates_from_distances(
                        matrix[u], matrix[v], matrix[u][v]
                    )
                    if len(candidates) < threshold:
                        continue
                    hit = not result.hitting_set.isdisjoint(candidates)
                    corrected = v in result.corrections.get(u, ())
                    assert hit or corrected

    def test_corrections_symmetric(self):
        g = random_sparse_graph(50, seed=9)
        result = build_hitting_set(g, 5, seed=2)
        for u, partners in result.corrections.items():
            for v in partners:
                assert u in result.corrections[v]

    def test_uncovered_within_probabilistic_bound(self):
        # The proof promises expectation <= n^2 / D; allow slack 4x.
        g = random_sparse_graph(80, seed=5)
        threshold = 5
        result = build_hitting_set(g, threshold, seed=3)
        assert result.num_uncovered <= 4 * result.correction_bound(80)

    def test_rich_pairs_counted(self):
        g = path_graph(20)
        result = build_hitting_set(g, 5, seed=0)
        # On a path, H_uv has dist+1 vertices: pairs at distance >= 4.
        expected = sum(1 for u in range(20) for v in range(u + 1, 20) if v - u >= 4)
        assert result.num_rich_pairs == expected

    def test_matrix_reuse_equivalent(self):
        g = random_sparse_graph(40, seed=7)
        matrix = all_pairs_distances(g)
        a = build_hitting_set(g, 4, seed=11)
        b = build_hitting_set(g, 4, seed=11, matrix=matrix)
        assert a.hitting_set == b.hitting_set
        assert a.corrections == b.corrections

    def test_threshold_one_hits_everything(self):
        g = path_graph(10)
        result = build_hitting_set(g, 1, seed=0)
        assert result.hitting_set == set(range(10))
        assert result.num_uncovered == 0
