"""Concurrent serving layer over the distance oracles.

The oracles answer one caller at a time; this package puts them behind
a thread-based :class:`~repro.serve.server.QueryServer` that admits
concurrent requests through a bounded queue, merges whatever is queued
into the one wide ``batch_query`` call the flat backend is fast at, and
rejects overload loudly
(:class:`~repro.runtime.errors.ServerOverloadError`) instead of
degrading silently.  :class:`~repro.serve.sharded.ShardedQueryServer`
lifts the single-process ceiling: N worker processes run that same
pipeline over one zero-copy shared-memory label store, speaking raw
pair-array frames.  ``python -m repro serve`` runs a
self-test server; ``python -m repro loadgen`` drives one for
throughput numbers (``--processes N`` selects the sharded door).

See ``docs/serving.md`` for the architecture walk-through.
"""

from .cache import labeling_digest
from .loadgen import (
    PAIR_DISTRIBUTIONS,
    LoadReport,
    make_pair_sampler,
    run_loadgen,
)
from .server import BatchTicket, QueryServer, ServerStats
from .sharded import FleetHealth, ShardedQueryServer, ShardedTicket

__all__ = [
    "PAIR_DISTRIBUTIONS",
    "BatchTicket",
    "FleetHealth",
    "LoadReport",
    "QueryServer",
    "ServerStats",
    "ShardedQueryServer",
    "ShardedTicket",
    "labeling_digest",
    "make_pair_sampler",
    "run_loadgen",
]
