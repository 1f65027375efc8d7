"""Performance layer: flat labels, fast construction, caching, benches.

The pieces (see docs/performance.md):

* :class:`~repro.perf.flat.FlatHubLabeling` -- immutable CSR-style
  label store (uint16 hubs when ``n <= 2**16``, else int32; narrowest
  exact dist tier) whose arrays the vectorized kernels of
  :mod:`repro.perf.kernels` read in place, selectable on the oracles
  via ``backend="flat"``;
* :func:`~repro.perf.build.build_flat_labels` -- the bit-parallel
  multi-root PLL builder emitting the canonical labeling straight to
  the flat layout (no dict intermediate, no conversion pass);
* :class:`~repro.perf.cache.LabelCache` -- persistent on-disk label
  cache keyed by (graph, order, builder version), behind ``repro
  build`` and the ``--cache-dir`` CLI flag;
* :mod:`repro.perf.bench` -- the pinned benchmark suite behind
  ``python -m repro bench`` (imported lazily: it is a CLI surface, not
  a library dependency).
"""

from .build import BUILDER_VERSION, bitparallel_available, build_flat_labels
from .cache import LabelCache, cache_key
from .flat import FlatHubLabeling

__all__ = [
    "BUILDER_VERSION",
    "FlatHubLabeling",
    "LabelCache",
    "bitparallel_available",
    "build_flat_labels",
    "cache_key",
]
