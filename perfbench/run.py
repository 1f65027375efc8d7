"""Repository benchmark: two closed-loop workloads over the serving stack.

Usage (from the repository root)::

    python3 perfbench/run.py --workload hard-batch --seed 1 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 16

``--seconds`` defaults to ``run_seconds`` of BENCHMARK.json.
``--trace 0`` reports the end-to-end metrics named in BENCHMARK.json,
``--trace 1`` the per-layer ones (and writes the spans under
``.perfbench_out/``).  The last line of standard output is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``.  The exit code
is 0 only when every graded answer was right and no shared-memory
segment leaked; a generated input that no longer matches its pinned
digest (``pins.json``) stops the run before anything is reported.
See README.md beside this file for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("hard-batch", "ba-churn")


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument(
        "--seconds", type=float, default=None,
        help="length of the measured phase (default: run_seconds of BENCHMARK.json)",
    )
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--print-pins", action="store_true",
        help="print the digests of the generated inputs and exit",
    )
    return parser.parse_args(argv)


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def _print_pins() -> None:
    from churn import BA_ATTACH, BA_N, GRAPH_SEED
    from churn import stream_digest as churn_digest
    from common import graph_digest
    from hard import edit_pair
    from hard import stream_digest as hard_digest
    from repro.graphs.generators import barabasi_albert
    from repro.lowerbound.degree3 import build_degree3_instance

    hard = build_degree3_instance(2, 2).graph
    ba = barabasi_albert(BA_N, BA_ATTACH, seed=GRAPH_SEED)
    pins = {
        "graph.G(2,2)": graph_digest(hard),
        "graph.ba": graph_digest(ba),
        "stream.hard-batch": hard_digest(0, hard.num_vertices, False, edit_pair(hard)),
        "stream.hard-batch.fleet": hard_digest(0, hard.num_vertices, True, edit_pair(hard)),
        "stream.ba-churn": churn_digest(ba, 0),
    }
    print(json.dumps(pins, indent=2, sort_keys=True))


def _run_one(args) -> int:
    from common import OUT_DIR, PinError, Run, Tracer, own_segments, pin_allocator, pin_cpu

    pin_allocator()
    pin_cpu()
    with open(os.path.join(HERE, "pins.json")) as handle:
        pins = json.load(handle)
    spec = _spec()
    run = Run()
    tracer = Tracer(bool(args.trace))
    os.makedirs(OUT_DIR, exist_ok=True)
    try:
        if args.workload == "ba-churn":
            from churn import run_churn

            result = run_churn(args, pins, run, tracer)
        else:
            from hard import run_hard

            result = run_hard(args, pins, run, tracer)
    except PinError as exc:
        print(f"refusing to report: {exc}", file=sys.stderr)
        return 3
    leaked = own_segments()
    if leaked:
        run.attempt(len(leaked))
        run.fail(len(leaked), f"leaked segments {leaked}")
    _stop_resource_tracker()

    if args.trace:
        wanted, produced = spec["per_layer"], result["layers"]
        for name, row in sorted(tracer.summary().items()):
            print(f"# span {name}: {row['count']} calls, {row['total_s']:.4f} s total,"
                  f" {row['self_s']:.4f} s self")
        tracer.write(
            os.path.join(OUT_DIR, f"trace-{args.workload}-seed{args.seed}.json"),
            inputs=result["inputs"],
        )
    else:
        wanted, produced = spec["end_to_end"], result["e2e"]
    print(f"# {args.workload} seed {args.seed} inputs: graph {result['inputs']['graph'][:16]}"
          f" stream {result['inputs']['stream'][:16]}")
    metrics = {}
    for entry in wanted:
        # Every workload measures every end-to-end metric; a layer a
        # workload never calls did no work and reports 0.
        value = produced[entry["name"]] if not args.trace else produced.get(entry["name"], 0.0)
        metrics[entry["name"]] = {"value": float(value), "unit": entry["unit"]}
        print(f"# {args.workload} {entry['name']} = {value:.6g} {entry['unit']}")
    for why in run.errors:
        print(f"# failed: {why}", file=sys.stderr)
    correct = run.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


def _stop_resource_tracker() -> None:
    """Wait for the shared-memory resource tracker, if one was started,
    so no process outlives the run."""
    from multiprocessing import resource_tracker

    tracker = getattr(resource_tracker, "_resource_tracker", None)
    stop = getattr(tracker, "_stop", None)
    if stop is not None and getattr(tracker, "_pid", None) is not None:
        stop()


def _run_all(args) -> int:
    """Every workload in its own process; one table and one summary."""
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for workload in WORKLOADS:
        cmd = [
            sys.executable, os.path.abspath(__file__), "--workload", workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace),
        ]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        for line in lines[:-1]:
            print(line)
        if proc.returncode not in (0, 1) or not lines:
            print(f"# {workload}: exited {proc.returncode}", file=sys.stderr)
            return proc.returncode or 2
        result = json.loads(lines[-1])
        status = status or proc.returncode
        summary["correct"] = summary["correct"] and result["correct"]
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        for name, value in result["metrics"].items():
            summary["metrics"][f"{workload}.{name}"] = value
    print(json.dumps(summary))
    return status


def main(argv=None) -> int:
    args = _parse(argv)
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    try:
        import repro  # the program under test, from this checkout's source
    except ImportError as exc:
        print(f"cannot import the program from src/: {exc}", file=sys.stderr)
        return 2
    if not os.path.abspath(repro.__file__).startswith(src + os.sep):
        print(f"repro imported from {repro.__file__}, not from src/", file=sys.stderr)
        return 2
    if args.print_pins:
        _print_pins()
        return 0
    if args.seconds is None:
        args.seconds = float(_spec()["run_seconds"])
    if args.workload == "all":
        return _run_all(args)
    return _run_one(args)


if __name__ == "__main__":
    sys.exit(main())
