"""Self-test: the benchmark's exact counts repeat exactly.

Runs every workload twice in trace mode with one seed and checks that
both runs graded every answer correct and reported identical values for
the counts later changes may cite as counts (``EXACT``).  Usage, from
the repository root::

    python3 perfbench/selftest.py [--seed 7] [--seconds 4]

Exit code 0 when every check holds.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

from run import HERE, WORKLOADS

EXACT = (
    "build.entries",
    "store.bytes_per_entry",
    "dynamic.affected_roots",
    "dynamic.rebuilds",
    "dynamic.labels_rewritten",
    "dynamic.useful_frac",
)


def traced_run(workload: str, seed: int, seconds: float) -> dict:
    cmd = [
        sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", "1",
    ]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{workload}: run exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=4.0)
    args = parser.parse_args(argv)
    ok = True
    for workload in WORKLOADS:
        first, second = (traced_run(workload, args.seed, args.seconds) for _ in range(2))
        for name in EXACT:
            a = first["metrics"][name]["value"]
            b = second["metrics"][name]["value"]
            same = a == b
            ok = ok and same
            print(f"{workload:10s} {name:26s} {a!r:>22} {b!r:>22} {'ok' if same else 'DIFFERS'}")
        for result in (first, second):
            if not result["correct"] or result["failed"]:
                ok = False
                print(f"{workload}: {result['failed']} failed operations")
    print("selftest", "passed" if ok else "FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
