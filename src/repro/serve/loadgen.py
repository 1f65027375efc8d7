"""Multi-threaded load generation against a :class:`QueryServer`.

The serving layer's correctness claims are concurrency claims, so they
need a concurrent workload to mean anything.  :func:`run_loadgen`
spawns ``clients`` threads, each with its own seeded RNG, firing random
``(u, v)`` queries through :meth:`QueryServer.submit` -- or, with
``batch_size`` set, through the batch-native
:meth:`QueryServer.submit_batch` fast path, one ticket per window:

* **overloads** are handled the way a well-behaved client would --
  back off briefly and retry (up to ``MAX_RETRIES`` times); a request that
  still cannot be admitted is tallied as *dropped*, which the soak test
  requires to be zero;
* with ``expected`` (a ``(u, v) -> distance`` callable), every answer
  is graded against ground truth -- value *and* type, matching the
  byte-identical contract the differential tests enforce -- and
  mismatches are tallied as *wrong*;
* ``requests_per_client`` runs a fixed-size workload (benchmarks),
  ``duration`` runs a wall-clock-bounded one (the soak test);
* ``distribution`` shapes the query-pair stream: ``"uniform"``
  (independent endpoints), ``"zipf"`` (endpoints drawn from a Zipf
  popularity ranking -- the few-hot-vertices skew of real traffic), or
  ``"hotspot"`` (a handful of hot *pairs* gets ``hot_fraction`` of all
  requests -- the result cache's best case).  All three are built by
  :func:`make_pair_sampler`, which is public so tests and benchmarks
  can sample the same streams without a server.

Everything lands in a :class:`LoadReport`; ``report.ok`` is the single
bit CI cares about: no wrong answers, no drops, no unexpected errors.
"""

from __future__ import annotations

import bisect
import random
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Tuple

from ..runtime.errors import ServerOverloadError
from .server import QueryServer

__all__ = ["LoadReport", "PAIR_DISTRIBUTIONS", "make_pair_sampler", "run_loadgen"]

#: The query-pair distributions ``run_loadgen`` (and the CLIs) accept.
PAIR_DISTRIBUTIONS = ("uniform", "zipf", "hotspot")

#: Admission retries per overloaded request before it counts as dropped.
MAX_RETRIES = 50

#: Base back-off between retries, in seconds (scaled by 1..8).
BACKOFF = 0.002


def make_pair_sampler(
    num_vertices: int,
    distribution: str = "uniform",
    *,
    seed: int = 0,
    zipf_s: float = 1.1,
    hot_pairs: int = 16,
    hot_fraction: float = 0.9,
) -> Callable[[random.Random], Tuple[int, int]]:
    """Build a ``sampler(rng) -> (u, v)`` for one workload shape.

    The sampler's *shape* (the Zipf popularity ranking, the hot-pair
    set) is pinned by ``seed`` via its own ``random.Random(seed)``, so
    every client thread sees the same skew; the per-call randomness
    comes from the ``rng`` each caller passes in, which keeps
    multi-threaded runs deterministic per client.

    * ``"uniform"``  -- both endpoints independent uniform;
    * ``"zipf"``     -- each endpoint is the vertex of rank ``r`` with
      probability proportional to ``r ** -zipf_s`` over a seeded
      random ranking (``zipf_s > 0``);
    * ``"hotspot"``  -- with probability ``hot_fraction`` the pair is
      one of ``hot_pairs`` fixed hot pairs, otherwise uniform.
    """
    if num_vertices < 1:
        raise ValueError("num_vertices must be positive")
    if distribution == "uniform":

        def uniform_sampler(rng: random.Random) -> Tuple[int, int]:
            return rng.randrange(num_vertices), rng.randrange(num_vertices)

        return uniform_sampler
    shape_rng = random.Random(seed)
    if distribution == "zipf":
        if zipf_s <= 0:
            raise ValueError("zipf_s must be positive")
        ranking = list(range(num_vertices))
        shape_rng.shuffle(ranking)
        cumulative: List[float] = []
        acc = 0.0
        for rank in range(1, num_vertices + 1):
            acc += rank ** -zipf_s
            cumulative.append(acc)
        total = cumulative[-1]

        def pick(rng: random.Random) -> int:
            return ranking[
                bisect.bisect_left(cumulative, rng.random() * total)
            ]

        def zipf_sampler(rng: random.Random) -> Tuple[int, int]:
            return pick(rng), pick(rng)

        return zipf_sampler
    if distribution == "hotspot":
        if not 0.0 <= hot_fraction <= 1.0:
            raise ValueError("hot_fraction must be in [0, 1]")
        if hot_pairs < 1:
            raise ValueError("hot_pairs must be positive")
        hot = [
            (
                shape_rng.randrange(num_vertices),
                shape_rng.randrange(num_vertices),
            )
            for _ in range(hot_pairs)
        ]

        def hotspot_sampler(rng: random.Random) -> Tuple[int, int]:
            if rng.random() < hot_fraction:
                return hot[rng.randrange(len(hot))]
            return rng.randrange(num_vertices), rng.randrange(num_vertices)

        return hotspot_sampler
    raise ValueError(
        f"unknown distribution {distribution!r}; pick from "
        f"{', '.join(PAIR_DISTRIBUTIONS)}"
    )


@dataclass
class LoadReport:
    """Aggregated outcome of one load-generation run."""

    clients: int = 0
    requests: int = 0          # answers received
    wrong: int = 0             # answers disagreeing with ground truth
    dropped: int = 0           # requests rejected even after retries
    retries: int = 0           # overload retries that eventually succeeded
    errors: int = 0            # queries resolved with an exception
    mutations: int = 0         # churn mutations applied during the run
    duration_s: float = 0.0
    mismatches: List[Tuple[int, int, object, object]] = field(
        default_factory=list
    )

    @property
    def throughput(self) -> float:
        """Answered requests per second of wall time."""
        return self.requests / self.duration_s if self.duration_s else 0.0

    @property
    def ok(self) -> bool:
        """True iff nothing was wrong, dropped, or errored."""
        return not (self.wrong or self.dropped or self.errors)

    def render(self) -> str:
        lines = [
            f"clients:    {self.clients}",
            f"requests:   {self.requests}",
            f"throughput: {self.throughput:,.0f} req/s",
            f"duration:   {self.duration_s:.3f}s",
            f"retries:    {self.retries}",
            f"dropped:    {self.dropped}",
            f"errors:     {self.errors}",
            f"mutations:  {self.mutations}",
            f"wrong:      {self.wrong}",
            f"verdict:    {'OK' if self.ok else 'FAILED'}",
        ]
        for u, v, got, want in self.mismatches[:5]:
            lines.append(f"  mismatch: dist({u},{v}) = {got!r}, want {want!r}")
        return "\n".join(lines)


def run_loadgen(
    server: QueryServer,
    num_vertices: int,
    *,
    clients: int = 4,
    requests_per_client: int = 250,
    duration: Optional[float] = None,
    seed: int = 0,
    expected: Optional[Callable[[int, int], object]] = None,
    batch_size: Optional[int] = None,
    distribution: str = "uniform",
    sampler: Optional[Callable[[random.Random], Tuple[int, int]]] = None,
    zipf_s: float = 1.1,
    hot_pairs: int = 16,
    hot_fraction: float = 0.9,
    churn: Optional[Callable[[], object]] = None,
    churn_interval: float = 0.01,
) -> LoadReport:
    """Fire a concurrent random-pair workload at ``server``.

    With ``duration`` set, every client loops until the deadline
    instead of counting to ``requests_per_client``.  ``expected`` turns
    the run into a graded sweep (value AND type must match).

    ``batch_size`` switches the clients from per-pair
    :meth:`QueryServer.submit` to the batch-native
    :meth:`QueryServer.submit_batch` door, firing that many pairs per
    ticket (the final window of a fixed-size run may be narrower).
    Overload, grading, and tally semantics are identical -- a rejected
    or failed ticket tallies every pair it carried.

    ``distribution`` (with its ``zipf_s`` / ``hot_pairs`` /
    ``hot_fraction`` knobs) selects the pair stream via
    :func:`make_pair_sampler`; passing an explicit ``sampler`` callable
    overrides it entirely.

    ``churn`` turns the run into a live-mutation harness: the callable
    is invoked repeatedly (every ``churn_interval`` seconds) from one
    dedicated mutator thread while the client threads fire.  Each call
    is expected to perform one graph mutation and hot-swap the repaired
    labeling into ``server`` via ``set_oracle``; returning ``False``
    stops the churn early (such a call is treated as having mutated
    nothing), any other return keeps it going until the clients
    finish.  Mutating calls are tallied in
    ``LoadReport.mutations``; an exception from the callable fails the
    whole run loudly (it re-raises after the clients drain).  Note that
    a static ``expected`` callable grades stale under churn -- grade
    from inside the churn callable (probe after the swap) or hand in a
    generation-aware one.
    """
    if num_vertices < 1:
        raise ValueError("num_vertices must be positive")
    if batch_size is not None and batch_size < 1:
        raise ValueError("batch_size must be positive when set")
    if sampler is None:
        sampler = make_pair_sampler(
            num_vertices,
            distribution,
            seed=seed,
            zipf_s=zipf_s,
            hot_pairs=hot_pairs,
            hot_fraction=hot_fraction,
        )
    report = LoadReport(clients=clients)
    lock = threading.Lock()

    def client(index: int) -> None:
        rng = random.Random(seed * 1_000_003 + index)
        answered = wrong = dropped = retries = errors = 0
        mismatches: List[Tuple[int, int, object, object]] = []
        deadline = (
            time.perf_counter() + duration if duration is not None else None
        )
        count = 0
        while True:
            if deadline is not None:
                if time.perf_counter() >= deadline:
                    break
            elif count >= requests_per_client:
                break
            if batch_size is None:
                count += 1
                u, v = sampler(rng)
                future = None
                for attempt in range(MAX_RETRIES + 1):
                    try:
                        future = server.submit(u, v)
                        retries += attempt
                        break
                    except ServerOverloadError:
                        time.sleep(BACKOFF * (1 + (attempt % 8)))
                if future is None:
                    dropped += 1
                    continue
                try:
                    got = future.result()
                except Exception:
                    errors += 1
                    continue
                answered += 1
                if expected is not None:
                    want = expected(u, v)
                    if got != want or type(got) is not type(want):
                        wrong += 1
                        if len(mismatches) < 5:
                            mismatches.append((u, v, got, want))
                continue
            width = batch_size
            if deadline is None:
                width = min(width, requests_per_client - count)
            count += width
            window = [sampler(rng) for _ in range(width)]
            us = [u for u, _ in window]
            vs = [v for _, v in window]
            ticket = None
            for attempt in range(MAX_RETRIES + 1):
                try:
                    ticket = server.submit_batch(us, vs)
                    retries += attempt
                    break
                except ServerOverloadError:
                    time.sleep(BACKOFF * (1 + (attempt % 8)))
            if ticket is None:
                dropped += width
                continue
            try:
                got_all = ticket.result()
            except Exception:
                errors += width
                continue
            answered += width
            if expected is not None:
                for u, v, got in zip(us, vs, got_all):
                    want = expected(u, v)
                    if got != want or type(got) is not type(want):
                        wrong += 1
                        if len(mismatches) < 5:
                            mismatches.append((u, v, got, want))
        with lock:
            report.requests += answered
            report.wrong += wrong
            report.dropped += dropped
            report.retries += retries
            report.errors += errors
            report.mismatches.extend(mismatches)

    threads = [
        threading.Thread(target=client, args=(i,), name=f"loadgen-{i}")
        for i in range(clients)
    ]
    stop_churn = threading.Event()
    churn_failure: List[BaseException] = []

    def mutator() -> None:
        while not stop_churn.is_set():
            try:
                more = churn()
            except BaseException as exc:  # re-raised after the drain
                churn_failure.append(exc)
                return
            if more is False:  # "no more work": nothing mutated this call
                return
            with lock:
                report.mutations += 1
            stop_churn.wait(churn_interval)

    mutator_thread = (
        threading.Thread(target=mutator, name="loadgen-churn")
        if churn is not None
        else None
    )
    start = time.perf_counter()
    for thread in threads:
        thread.start()
    if mutator_thread is not None:
        mutator_thread.start()
    for thread in threads:
        thread.join()
    if mutator_thread is not None:
        stop_churn.set()
        mutator_thread.join()
    report.duration_s = time.perf_counter() - start
    if churn_failure:
        raise churn_failure[0]
    return report
