"""Dynamic graphs: incremental hub-label maintenance under edge churn.

Hub labelings are expensive to build -- the hardness results reproduced
by this repository are exactly why -- so a mutating graph cannot afford
a from-scratch rebuild per edge edit.  :class:`DynamicHubLabeling`
wraps a graph plus its PLL labeling, held as one immutable
:class:`~repro.perf.flat.FlatHubLabeling`, and repairs it on
``insert_edge`` / ``delete_edge`` into a new store: the affected hub
roots are detected from two kernel distance rows, their entries masked
out of the CSR, a rank-restricted pruned traversal re-run from each,
and the results spliced into a fresh CSR, falling back to a cached
full rebuild once a staleness/work budget is exceeded.  Every
repaired labeling answers exactly like a from-scratch rebuild on the
mutated graph (value and type, including ``INF``).

:mod:`repro.dynamic.mutations` provides the seeded
:class:`MutationScript` edit-sequence generator that the differential
corpus, the hypothesis properties, and the churn soak harness all
share.

See ``docs/dynamic.md`` for the repair algorithm and its proof sketch.
"""

from .labeling import DynamicHubLabeling, RepairReport
from .mutations import MutationScript, apply_script, mutation_script

__all__ = [
    "DynamicHubLabeling",
    "RepairReport",
    "MutationScript",
    "apply_script",
    "mutation_script",
]
