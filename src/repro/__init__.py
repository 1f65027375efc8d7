"""repro -- a reproduction of Kosowski, Uznanski, Viennot (PODC 2019),
"Hardness of exact distance queries in sparse graphs through hub
labeling" (arXiv:1902.07055).

Package map (see DESIGN.md for the full inventory):

* :mod:`repro.graphs`     -- self-contained graph substrate;
* :mod:`repro.core`       -- hub labeling: store, baselines (PLL,
  greedy), and the paper's constructions (monotone hubsets, hitting
  sets, the sparse scheme, the Theorem 4.1 RS scheme, degree
  reduction, bound curves);
* :mod:`repro.lowerbound` -- the Theorem 2.1 hard instances ``H_{b,l}``
  / ``G_{b,l}`` with certificates and charging audits;
* :mod:`repro.sumindex`   -- Section 3: ``G'_{b,l}``, Observation 3.1,
  and the Theorem 1.6 simultaneous-message protocol;
* :mod:`repro.rs`         -- Ruzsa-Szemeredi machinery (Behrend sets,
  RS graphs, matchings, Koenig covers);
* :mod:`repro.labeling`   -- bit-accounted distance labeling schemes;
* :mod:`repro.oracles`    -- centralized oracles for the S*T trade-off;
* :mod:`repro.reachability` -- directed 2-hop reachability covers, the
  original [CHKZ03] form of the framework;
* :mod:`repro.runtime`    -- the resilient serving layer: typed errors,
  integrity-checked artifacts, fault injection, and an oracle that
  degrades to exact search instead of answering wrong;
* :mod:`repro.perf`       -- the performance layer: flat-array label
  store (``backend="flat"`` on the oracles), the bit-parallel builder,
  and the ``repro bench`` suite.
"""

from . import (
    core,
    graphs,
    labeling,
    lowerbound,
    oracles,
    perf,
    reachability,
    rs,
    runtime,
    sumindex,
)
from .core import (
    HubLabeling,
    greedy_hub_labeling,
    is_valid_cover,
    pruned_landmark_labeling,
    rs_hub_labeling,
    sparse_hub_labeling,
    verify_cover,
)
from .graphs import Graph, GraphBuilder
from .lowerbound import build_degree3_instance, certificate_for

__version__ = "1.0.0"

__all__ = [
    "core",
    "graphs",
    "labeling",
    "lowerbound",
    "oracles",
    "perf",
    "reachability",
    "rs",
    "runtime",
    "sumindex",
    "HubLabeling",
    "greedy_hub_labeling",
    "is_valid_cover",
    "pruned_landmark_labeling",
    "rs_hub_labeling",
    "sparse_hub_labeling",
    "verify_cover",
    "Graph",
    "GraphBuilder",
    "build_degree3_instance",
    "certificate_for",
    "__version__",
]
