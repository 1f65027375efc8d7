"""Deterministic fault injection for chaos-testing the oracle runtime.

Four fault families, mirroring how labeling artifacts actually break:

* ``bit-flip``  -- flip random bits of the serialized artifact (storage
  or transport corruption);
* ``truncate``  -- cut the serialized artifact short (interrupted
  writes, partial downloads);
* ``drop-hub``  -- delete random hub entries from the in-memory
  labeling (builder bugs, partial construction);
* ``perturb``   -- shift random stored hub distances (stale artifacts,
  unit mixups).

Everything is seeded: the same ``(seed, kind, trial)`` triple always
produces the same corruption, so a chaos failure is a reproducible test
case, not a flake.  :func:`chaos_sweep` drives the full loop -- corrupt,
load through the envelope, serve through
:class:`~repro.runtime.resilient.ResilientOracle`, compare every answer
against ground truth -- and reports, per fault, whether it was detected
at load time, degraded to exact fallback, or (the one unacceptable
outcome) silently answered wrong.  ``python -m repro.cli chaos`` and
``tests/test_failure_injection.py`` both run it.  Outcomes are also
mirrored into per-kind ``chaos.*`` counters on the active metrics
registry (``chaos.wrong_answers`` is the one that must stay 0).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..core.hublabel import HubLabeling
from ..graphs.graph import Graph
from ..graphs.shortest_paths import all_pairs_distances
from ..obs.catalog import (
    CHAOS_DETECTED_AT_LOAD,
    CHAOS_FALLBACKS,
    CHAOS_INJECTIONS,
    CHAOS_WRONG_ANSWERS,
)
from ..obs.registry import get_registry
from .errors import ReproError
from .resilient import ResilientOracle

__all__ = [
    "FAULT_KINDS",
    "FaultInjector",
    "ChaosOutcome",
    "ChaosReport",
    "chaos_sweep",
]

#: The supported fault families, in canonical order.
FAULT_KINDS = ("bit-flip", "truncate", "drop-hub", "perturb")

#: Fault kinds applied to serialized bytes (vs the in-memory labeling).
BYTE_FAULTS = ("bit-flip", "truncate")


class FaultInjector:
    """Seeded corruption of labelings and their serialized artifacts.

    ``seed`` is anything :class:`random.Random` accepts (the chaos sweep
    passes ``"seed:kind:trial"`` strings, which hash deterministically).
    """

    def __init__(self, seed=0) -> None:
        self._rng = random.Random(seed)

    # -- byte-level -----------------------------------------------------
    def bit_flip(self, blob: bytes, *, flips: int = 1) -> bytes:
        """Flip ``flips`` random bits anywhere in ``blob``."""
        if not blob:
            return blob
        mangled = bytearray(blob)
        for _ in range(max(1, flips)):
            position = self._rng.randrange(len(mangled) * 8)
            mangled[position // 8] ^= 1 << (position % 8)
        return bytes(mangled)

    def truncate(self, blob: bytes) -> bytes:
        """Cut ``blob`` to a random strictly-shorter prefix."""
        if len(blob) <= 1:
            return b""
        return blob[: self._rng.randrange(len(blob))]

    # -- label-level ----------------------------------------------------
    def drop_hubs(self, labeling: HubLabeling, *, count: int = 1) -> HubLabeling:
        """A copy of ``labeling`` with up to ``count`` hub entries removed."""
        mangled = labeling.copy()
        entries = [
            (v, hub)
            for v in range(labeling.num_vertices)
            for hub in labeling.hubs(v)
        ]
        if not entries:
            return mangled
        for v, hub in self._rng.sample(entries, min(count, len(entries))):
            mangled.discard_hub(v, hub)
        return mangled

    def perturb_distances(
        self, labeling: HubLabeling, *, count: int = 1, max_shift: int = 3
    ) -> HubLabeling:
        """A copy with up to ``count`` hub distances shifted by ±1..max_shift."""
        mangled = labeling.copy()
        entries = [
            (v, hub, dist)
            for v in range(labeling.num_vertices)
            for hub, dist in labeling.hubs(v).items()
        ]
        if not entries:
            return mangled
        for v, hub, dist in self._rng.sample(
            entries, min(count, len(entries))
        ):
            shift = self._rng.choice((-1, 1)) * self._rng.randint(1, max_shift)
            mangled.discard_hub(v, hub)
            mangled.add_hub(v, hub, max(0, int(dist) + shift))
        return mangled

    def corrupt_blob(self, kind: str, blob: bytes) -> bytes:
        if kind == "bit-flip":
            return self.bit_flip(blob, flips=self._rng.randint(1, 4))
        if kind == "truncate":
            return self.truncate(blob)
        raise ValueError(f"{kind!r} is not a byte-level fault")

    def corrupt_labeling(self, kind: str, labeling: HubLabeling) -> HubLabeling:
        if kind == "drop-hub":
            return self.drop_hubs(labeling, count=self._rng.randint(1, 8))
        if kind == "perturb":
            return self.perturb_distances(
                labeling, count=self._rng.randint(1, 8)
            )
        raise ValueError(f"{kind!r} is not a label-level fault")


@dataclass(frozen=True)
class ChaosOutcome:
    """One injected fault and how the runtime coped with it."""

    kind: str
    trial: int
    detected_at_load: bool
    queries: int = 0
    label_answers: int = 0
    fallbacks: int = 0
    wrong: int = 0
    error: Optional[str] = None

    @property
    def ok(self) -> bool:
        return self.wrong == 0


@dataclass
class ChaosReport:
    """Aggregate of a chaos sweep; ``ok`` iff nothing answered wrong."""

    outcomes: List[ChaosOutcome] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(outcome.ok for outcome in self.outcomes)

    @property
    def num_injections(self) -> int:
        return len(self.outcomes)

    def by_kind(self) -> Dict[str, Dict[str, int]]:
        summary: Dict[str, Dict[str, int]] = {}
        for outcome in self.outcomes:
            row = summary.setdefault(
                outcome.kind,
                {
                    "injections": 0,
                    "detected_at_load": 0,
                    "queries": 0,
                    "fallbacks": 0,
                    "wrong": 0,
                },
            )
            row["injections"] += 1
            row["detected_at_load"] += int(outcome.detected_at_load)
            row["queries"] += outcome.queries
            row["fallbacks"] += outcome.fallbacks
            row["wrong"] += outcome.wrong
        return summary

    def render(self) -> str:
        header = (
            f"{'fault':<10} {'inject':>6} {'at-load':>7} "
            f"{'queries':>7} {'fallback':>8} {'wrong':>5}"
        )
        lines = [header, "-" * len(header)]
        for kind in sorted(self.by_kind()):
            row = self.by_kind()[kind]
            lines.append(
                f"{kind:<10} {row['injections']:>6} "
                f"{row['detected_at_load']:>7} {row['queries']:>7} "
                f"{row['fallbacks']:>8} {row['wrong']:>5}"
            )
        verdict = "OK (zero wrong answers)" if self.ok else "FAILED"
        lines.append(f"total injections: {self.num_injections} -> {verdict}")
        return "\n".join(lines)


def chaos_sweep(
    graph: Graph,
    labeling: HubLabeling,
    *,
    kinds: Sequence[str] = FAULT_KINDS,
    trials_per_kind: int = 50,
    queries_per_trial: int = 10,
    seed: int = 0,
    backend: str = "dict",
) -> ChaosReport:
    """Inject ``trials_per_kind`` faults of each kind and grade the runtime.

    ``backend`` selects the serving store of the graded
    :class:`ResilientOracle` (``"flat"`` exercises the
    :class:`~repro.perf.flat.FlatHubLabeling` path); the grades must be
    identical for both backends -- the flat store changes layout, not
    answers.

    Byte-level faults are applied to the enveloped serialization and must
    be caught at load.  Label-level faults are admitted through a *full*
    verification gate (``verify_sample = n``), which quarantines every
    violating endpoint, so each graded query is answered either by
    still-correct labels or by exact fallback.  Any silently-wrong answer
    is recorded (and fails :attr:`ChaosReport.ok`).
    """
    from ..core.io import labeling_to_bytes, labeling_from_bytes

    unknown = set(kinds) - set(FAULT_KINDS)
    if unknown:
        raise ValueError(f"unknown fault kind(s): {sorted(unknown)}")
    truth = all_pairs_distances(graph)
    blob = labeling_to_bytes(labeling)
    n = graph.num_vertices
    report = ChaosReport()
    registry = get_registry()

    def record(outcome: ChaosOutcome) -> None:
        # Appends to the report and mirrors it into per-kind counters
        # (all four counters are created even while still zero, so the
        # exposition shows `chaos.wrong_answers = 0` rather than
        # nothing at all on a healthy run).
        report.outcomes.append(outcome)
        if not registry.enabled:
            return
        kind = outcome.kind
        registry.counter(CHAOS_INJECTIONS, kind=kind).inc()
        registry.counter(CHAOS_DETECTED_AT_LOAD, kind=kind).inc(
            int(outcome.detected_at_load)
        )
        registry.counter(CHAOS_FALLBACKS, kind=kind).inc(outcome.fallbacks)
        registry.counter(CHAOS_WRONG_ANSWERS, kind=kind).inc(outcome.wrong)

    for kind in kinds:
        for trial in range(trials_per_kind):
            injector = FaultInjector(seed=f"{seed}:{kind}:{trial}")
            pair_rng = random.Random(f"{seed}:pairs:{kind}:{trial}")
            if kind in BYTE_FAULTS:
                mangled_blob = injector.corrupt_blob(kind, blob)
                try:
                    mangled = labeling_from_bytes(mangled_blob)
                except ReproError as exc:
                    record(
                        ChaosOutcome(
                            kind=kind,
                            trial=trial,
                            detected_at_load=True,
                            error=type(exc).__name__,
                        )
                    )
                    continue
                # Astronomically unlikely (CRC collision); grade whatever
                # decoded rather than hiding it.
                detected = False
            else:
                mangled = injector.corrupt_labeling(kind, labeling)
                detected = False
            if mangled.num_vertices != n:
                record(
                    ChaosOutcome(kind=kind, trial=trial, detected_at_load=True)
                )
                continue
            oracle = ResilientOracle(
                graph,
                mangled,
                fallback=True,
                verify_sample=n,  # exhaustive admission: see docstring
                seed=trial,
                backend=backend,
            )
            detected = detected or not oracle.health.healthy
            queries = label_answers = fallbacks = wrong = 0
            for _ in range(queries_per_trial):
                u = pair_rng.randrange(n)
                v = pair_rng.randrange(n)
                before = oracle.health.fallbacks
                outcome = oracle.query(u, v)
                queries += 1
                if oracle.health.fallbacks > before:
                    fallbacks += 1
                else:
                    label_answers += 1
                if outcome.distance != truth[u][v]:
                    wrong += 1
            record(
                ChaosOutcome(
                    kind=kind,
                    trial=trial,
                    detected_at_load=detected,
                    queries=queries,
                    label_answers=label_answers,
                    fallbacks=fallbacks,
                    wrong=wrong,
                )
            )
    return report
