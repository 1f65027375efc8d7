"""Soak test: sustained mixed load against a chaos-damaged oracle.

Excluded from tier-1 (``soak`` marker, run via ``make soak`` or
``pytest --run-soak``); CI runs it with a small time budget through
``REPRO_SOAK_SECONDS``.

The scenario stacks every resilience layer this repo has and leans on
it for a wall-clock-bounded barrage:

* labels are **corrupted** by the seeded fault injector (``drop-hub``
  and ``perturb`` -- the kinds the artifact envelope cannot catch, so
  the runtime itself must);
* a :class:`ResilientOracle` with exhaustive admission verification
  and exact fallback serves them;
* a :class:`QueryServer` coalesces concurrent clients on top;
* :func:`run_loadgen` fires mixed duration-mode load, grading every
  answer against the pristine labeling.

Pass criterion is absolute: **zero wrong answers, zero dropped
requests** -- resilience may cost throughput (fallback searches), but
never correctness and never silent loss.
"""

import os

import pytest

from repro.core import pruned_landmark_labeling
from repro.graphs import random_sparse_graph
from repro.oracles.oracle import HubLabelOracle
from repro.runtime import ResilientOracle
from repro.runtime.faults import FaultInjector
from repro.serve import QueryServer, run_loadgen

#: Wall-clock budget per corruption kind; CI sets a small value.
SOAK_SECONDS = float(os.environ.get("REPRO_SOAK_SECONDS", "60"))


@pytest.mark.soak
@pytest.mark.parametrize("kind", ["drop-hub", "perturb"])
def test_soak_chaos_load_zero_wrong_zero_dropped(kind):
    graph = random_sparse_graph(150, seed=17)
    pristine = pruned_landmark_labeling(graph)
    ground_oracle = HubLabelOracle(pristine, backend="dict")

    corrupted = FaultInjector(seed=23).corrupt_labeling(kind, pristine)
    oracle = ResilientOracle(
        graph,
        corrupted,
        fallback=True,
        verify_sample=graph.num_vertices,  # exhaustive admission check
        seed=23,
    )

    with QueryServer(
        oracle, max_queue=4096
    ) as server:
        report = run_loadgen(
            server,
            graph.num_vertices,
            clients=8,
            duration=SOAK_SECONDS / 2,  # two kinds share the budget
            seed=29,
            expected=lambda u, v: ground_oracle.query(u, v).distance,
        )
        stats = server.stats()

    assert report.wrong == 0, report.render()
    assert report.dropped == 0, report.render()
    assert report.errors == 0, report.render()
    assert report.requests > 0
    assert stats.responses >= report.requests
    # The damaged labels must have actually exercised the resilience
    # machinery -- otherwise this soak proves nothing.
    health = oracle.health
    assert (
        len(health.quarantined) > 0
        or health.fallbacks > 0
        or health.admission_violations > 0
    ), "corruption was a no-op; the soak exercised nothing"


@pytest.mark.soak
def test_soak_churn_hot_swap_zero_wrong_zero_stale():
    """Mutate the graph under live multi-process load.

    A churn thread applies seeded edge edits through
    :class:`DynamicHubLabeling`'s incremental repair and hot-swaps each
    repaired labeling into a running :class:`ShardedQueryServer` via
    ``set_oracle``.  After every swap it grades probe queries against
    the repaired labeling -- the sharded door guarantees requests
    admitted after ``set_oracle`` returns are answered by the new
    labeling, so any probe mismatch is a stale or wrong answer.  Pass
    criteria: zero wrong, zero dropped, zero errors, a strictly
    increasing ``serve.generation`` gauge, and at least one mutation
    actually landing inside the window.
    """
    from repro.dynamic import DynamicHubLabeling, mutation_script
    from repro.obs.catalog import SERVE_GENERATION
    from repro.obs.registry import get_registry
    from repro.runtime.errors import ServerOverloadError
    from repro.serve import ShardedQueryServer, run_loadgen

    graph = random_sparse_graph(120, seed=31)
    dyn = DynamicHubLabeling(graph)
    n = graph.num_vertices
    registry = get_registry()

    cursor = iter(())
    refill = [0]
    generations = []
    probe_state = {"index": 0}

    def churn():
        nonlocal cursor
        op = next(cursor, None)
        if op is None:
            # Refill from the *current* graph state so every edit stays
            # legal; the seed sequence keeps refills deterministic.
            refill[0] += 1
            cursor = iter(
                mutation_script(dyn.graph, 16, seed=31 + refill[0])
            )
            op = next(cursor, None)
            if op is None:  # pragma: no cover - graph stuck
                return False
        kind, u, v, w = op
        if kind == "insert":
            dyn.insert_edge(u, v, w)
        else:
            dyn.delete_edge(u, v)
        server.set_oracle(HubLabelOracle(dyn.flat(), backend="flat"))
        generations.append(registry.get(SERVE_GENERATION).value)
        for _ in range(4):  # post-swap probes, graded against repair
            i = probe_state["index"] = probe_state["index"] + 1
            a, b = (i * 13) % n, (i * 29 + 7) % n
            try:
                got = server.query(a, b)
            except ServerOverloadError:
                continue
            want = dyn.query(a, b)
            assert got == want and type(got) is type(want), (
                f"stale/wrong answer after swap {len(generations)}: "
                f"dist({a},{b}) = {got!r}, want {want!r}"
            )
        return True

    server = ShardedQueryServer(
        HubLabelOracle(dyn.flat(), backend="flat"), processes=2
    )
    with server:
        report = run_loadgen(
            server,
            n,
            clients=4,
            duration=SOAK_SECONDS / 2,
            seed=37,
            batch_size=32,
            churn=churn,
            churn_interval=0.01,
        )

    assert report.wrong == 0, report.render()
    assert report.dropped == 0, report.render()
    assert report.errors == 0, report.render()
    assert report.requests > 0
    assert report.mutations >= 1, "no mutation landed; the soak proved nothing"
    assert report.mutations == len(generations)
    # The generation gauge must be strictly monotone: one bump per
    # swap, never a repeat, never a rollback.
    assert generations == sorted(set(generations))
    assert generations[-1] == server.generation_seq
    # And the final repaired labeling still matches a full rebuild.
    from repro.perf.build import build_flat_labels

    rebuilt = build_flat_labels(dyn.graph, dyn.order)
    for u in range(0, n, 3):
        for v in range(0, n, 7):
            got, want = dyn.query(u, v), rebuilt.query(u, v)
            assert got == want and type(got) is type(want), (u, v)
