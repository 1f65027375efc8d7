"""Ablations over the design choices DESIGN.md calls out.

A. **RS scheme, threshold D**: the construction balances the hitting
   set (``~n log D / D`` per vertex) against the near-pair machinery
   (``D^5``-flavored).  Sweeping D exposes the trade-off the paper
   resolves with ``D = RS(n)^{1/6}``.
B. **RS scheme, vertex cover rule**: true minimum cover (Koenig) vs the
   matching-endpoints 2-approximation the proof's bound charges --
   measures how much the proof's slack costs in practice.
C. **PLL vertex order**: degree vs betweenness vs eccentricity vs
   coverage vs random across families -- the entire tuning surface of
   hierarchical labelings (Section 1.1's practical side).
D. **Hitting-set sample factor**: scaling ``|S|`` around the proof's
   ``(n/D) ln D`` shows the coverage cliff the constant sits on.
E. **Pruning slack**: redundant-hub elimination quantifies how much
   each construction over-provisions -- canonical PLL barely shrinks,
   the generic schemes shrink a lot.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Dict, List

from ..core import (
    betweenness_order,
    coverage_order,
    degree_order,
    eccentricity_order,
    is_valid_cover,
    prune_labeling,
    pruned_landmark_labeling,
    random_order,
    rs_hub_labeling,
    sparse_hub_labeling,
)
from ..core.hitting import hitting_set_size
from ..graphs import (
    Graph,
    all_pairs_distances,
    grid_2d,
    hub_candidates_from_distances,
    random_bounded_degree_graph,
    random_sparse_graph,
    random_tree,
)
from ..graphs.traversal import INF
from .tables import Table

__all__ = [
    "ThresholdRow",
    "run_threshold_sweep",
    "threshold_table",
    "CoverRuleRow",
    "run_cover_rule",
    "cover_rule_table",
    "OrderRow",
    "run_order_ablation",
    "order_table",
    "SampleFactorRow",
    "run_sample_factor",
    "sample_factor_table",
    "PruningRow",
    "run_pruning_slack",
    "pruning_table",
    "GadgetRow",
    "run_gadget_effect",
    "gadget_table",
]


# ----------------------------------------------------------------------
# A. threshold sweep
# ----------------------------------------------------------------------
@dataclass
class ThresholdRow:
    threshold: int
    hitting_component: int
    corrections: int
    conflicts: int
    neighborhoods: int
    total: int
    valid: bool


def run_threshold_sweep(
    n: int = 100, thresholds: List[int] = (2, 3, 4, 5), seed: int = 0
) -> List[ThresholdRow]:
    graph = random_bounded_degree_graph(n, 3, seed=seed)
    rows = []
    for d in thresholds:
        result = rs_hub_labeling(graph, threshold=d, seed=seed)
        rows.append(
            ThresholdRow(
                threshold=d,
                hitting_component=len(result.hitting.hitting_set) * n,
                corrections=result.correction_total,
                conflicts=result.conflict_total,
                neighborhoods=result.neighborhood_total,
                total=result.labeling.total_size(),
                valid=is_valid_cover(graph, result.labeling),
            )
        )
    return rows


def threshold_table(rows: List[ThresholdRow]) -> Table:
    table = Table(
        "Ablation A: RS scheme threshold D",
        ["D", "n|S|", "sum|Q|", "sum|R|", "sum|N(F)|", "total", "valid"],
    )
    for r in rows:
        table.add_row(
            r.threshold,
            r.hitting_component,
            r.corrections,
            r.conflicts,
            r.neighborhoods,
            r.total,
            r.valid,
        )
    return table


# ----------------------------------------------------------------------
# B. cover rule
# ----------------------------------------------------------------------
@dataclass
class CoverRuleRow:
    rule: str
    charges: int
    neighborhoods: int
    total: int
    valid: bool


def run_cover_rule(n: int = 100, seed: int = 0) -> List[CoverRuleRow]:
    graph = random_bounded_degree_graph(n, 3, seed=seed)
    rows = []
    for rule in ("konig", "matching"):
        result = rs_hub_labeling(
            graph, threshold=3, seed=seed, cover_method=rule
        )
        rows.append(
            CoverRuleRow(
                rule=rule,
                charges=result.charge_total,
                neighborhoods=result.neighborhood_total,
                total=result.labeling.total_size(),
                valid=is_valid_cover(graph, result.labeling),
            )
        )
    return rows


def cover_rule_table(rows: List[CoverRuleRow]) -> Table:
    table = Table(
        "Ablation B: vertex-cover rule in Lemma 4.2 charging",
        ["rule", "sum|F|", "sum|N(F)|", "total", "valid"],
    )
    for r in rows:
        table.add_row(r.rule, r.charges, r.neighborhoods, r.total, r.valid)
    return table


# ----------------------------------------------------------------------
# C. PLL order
# ----------------------------------------------------------------------
@dataclass
class OrderRow:
    family: str
    order: str
    total: int
    max_label: int


def run_order_ablation(scale: int = 49, seed: int = 0) -> List[OrderRow]:
    side = max(3, int(round(math.sqrt(scale))))
    families: Dict[str, Graph] = {
        "grid": grid_2d(side, side),
        "tree": random_tree(scale, seed=seed),
        "sparse": random_sparse_graph(scale, seed=seed),
    }
    orders = {
        "degree": degree_order,
        "betweenness": betweenness_order,
        "eccentricity": eccentricity_order,
        "coverage": coverage_order,
        "random": lambda g: random_order(g, seed=seed),
    }
    rows = []
    for fam, graph in families.items():
        for name, fn in orders.items():
            labeling = pruned_landmark_labeling(graph, fn(graph))
            rows.append(
                OrderRow(
                    family=fam,
                    order=name,
                    total=labeling.total_size(),
                    max_label=labeling.max_size(),
                )
            )
    return rows


def order_table(rows: List[OrderRow]) -> Table:
    table = Table(
        "Ablation C: PLL vertex order",
        ["family", "order", "sum|S|", "max|S|"],
    )
    for r in rows:
        table.add_row(r.family, r.order, r.total, r.max_label)
    return table


# ----------------------------------------------------------------------
# D. hitting-set sample factor
# ----------------------------------------------------------------------
@dataclass
class SampleFactorRow:
    factor: float
    sample_size: int
    uncovered: int
    rich_pairs: int


def run_sample_factor(
    n: int = 120,
    threshold: int = 5,
    factors: List[float] = (0.25, 0.5, 1.0, 2.0),
    seed: int = 0,
) -> List[SampleFactorRow]:
    graph = random_sparse_graph(n, seed=seed)
    matrix = all_pairs_distances(graph)
    base = hitting_set_size(n, threshold)
    rng = random.Random(seed)
    rows = []
    for factor in factors:
        size = max(1, min(n, int(round(base * factor))))
        sample = set(rng.sample(range(n), size))
        uncovered = 0
        rich = 0
        for u in range(n):
            for v in range(u + 1, n):
                if matrix[u][v] == INF:
                    continue
                candidates = hub_candidates_from_distances(
                    matrix[u], matrix[v], matrix[u][v]
                )
                if len(candidates) < threshold:
                    continue
                rich += 1
                if sample.isdisjoint(candidates):
                    uncovered += 1
        rows.append(
            SampleFactorRow(
                factor=factor,
                sample_size=size,
                uncovered=uncovered,
                rich_pairs=rich,
            )
        )
    return rows


def sample_factor_table(rows: List[SampleFactorRow]) -> Table:
    table = Table(
        "Ablation D: hitting-set sample size vs (n/D) ln D",
        ["factor", "|S|", "rich pairs", "uncovered"],
    )
    for r in rows:
        table.add_row(r.factor, r.sample_size, r.rich_pairs, r.uncovered)
    return table


# ----------------------------------------------------------------------
# E. pruning slack
# ----------------------------------------------------------------------
@dataclass
class PruningRow:
    construction: str
    total_before: int
    total_after: int
    valid_after: bool

    @property
    def kept_fraction(self) -> float:
        if self.total_before == 0:
            return 1.0
        return self.total_after / self.total_before


def run_pruning_slack(n: int = 60, seed: int = 0) -> List[PruningRow]:
    graph = random_sparse_graph(n, seed=seed)
    constructions = {
        "pll": pruned_landmark_labeling(graph),
        "sparse-D": sparse_hub_labeling(graph, radius=3, seed=seed).labeling,
        "rs-scheme": rs_hub_labeling(graph, threshold=3, seed=seed).labeling,
    }
    rows = []
    for name, labeling in constructions.items():
        pruned = prune_labeling(graph, labeling)
        rows.append(
            PruningRow(
                construction=name,
                total_before=labeling.total_size(),
                total_after=pruned.total_size(),
                valid_after=is_valid_cover(graph, pruned),
            )
        )
    return rows


def pruning_table(rows: List[PruningRow]) -> Table:
    table = Table(
        "Ablation E: redundant-hub pruning slack",
        ["construction", "sum|S| before", "after", "kept", "valid"],
    )
    for r in rows:
        table.add_row(
            r.construction,
            r.total_before,
            r.total_after,
            r.kept_fraction,
            r.valid_after,
        )
    return table


# ----------------------------------------------------------------------
# F. gadget effect on the hard instances
# ----------------------------------------------------------------------
@dataclass
class GadgetRow:
    b: int
    ell: int
    h_vertices: int
    h_avg_hubs: float
    g_vertices: int
    g_avg_hubs: float

    @property
    def dilution(self) -> float:
        """How much the degree-3 gadget expansion dilutes the average."""
        if self.g_avg_hubs == 0:
            return 0.0
        return self.h_avg_hubs / self.g_avg_hubs


def run_gadget_effect(parameters=((1, 1), (2, 1), (1, 2))) -> List["GadgetRow"]:
    """Ablation F: label sizes on the weighted core ``H_{b,l}`` vs its
    degree-3 simulation ``G_{b,l}``.

    The lower bound lives on the grid structure; the gadget expansion
    inflates ``n`` (diluting the *average*) but cannot remove the forced
    midpoints -- both averages stay far above same-size easy graphs.
    """
    from ..lowerbound import build_degree3_instance

    rows = []
    for b, ell in parameters:
        inst = build_degree3_instance(b, ell)
        h_lab = pruned_landmark_labeling(inst.layered.graph)
        g_lab = pruned_landmark_labeling(inst.graph)
        rows.append(
            GadgetRow(
                b=b,
                ell=ell,
                h_vertices=inst.layered.graph.num_vertices,
                h_avg_hubs=h_lab.average_size(),
                g_vertices=inst.graph.num_vertices,
                g_avg_hubs=g_lab.average_size(),
            )
        )
    return rows


def gadget_table(rows: List["GadgetRow"]) -> Table:
    table = Table(
        "Ablation F: weighted core H vs degree-3 simulation G",
        ["b", "l", "|V(H)|", "H avg hubs", "|V(G)|", "G avg hubs", "H/G"],
    )
    for r in rows:
        table.add_row(
            r.b,
            r.ell,
            r.h_vertices,
            r.h_avg_hubs,
            r.g_vertices,
            r.g_avg_hubs,
            r.dilution,
        )
    return table
