"""posflow benchmark: seeded scenario workloads, timed end to end and per layer.

Usage, from the repository root:

    python3 perfbench/run.py --workload sim --seed 1 --seconds 45 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 45 --trace 0

One run generates the workload's scenario files from ``--seed``, then runs
closed-loop passes (one client, each operation starts when the previous one
ends) against the ``posflow`` CLI and library for ``--seconds`` seconds, and
checks every operation's output.  Before the timed passes, one untimed pass
on the fixed reference seed is compared with ``reference.json``.

``--trace 0`` reports the end-to-end metrics: set-up time of fresh
processes, the median pass wall time, and the peak resident memory.
``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics of the traced pass with the median wall time, taken from
spans around the program's entry points (see tracing.py), plus the tracing
overhead.  The last line of standard output is one JSON object with the
keys correct, attempted, failed and metrics; the lines before it hold the
environment stamp and a table with each metric's unit and sample count.
Spans and results are written under ``.perfbench/`` in the repository.
The exit code is 0 when the run completed, even if outputs were wrong
(``correct`` says so), and 2 when the run could not start.
"""

from __future__ import annotations

import os

# Pin BLAS threads before numpy loads.  A closed loop with one client on a
# small machine measures the program, not thread contention.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import json  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import scenarios  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = list(scenarios.WORKLOAD_FILES)


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return parser.parse_args(argv)


def run_all(args) -> int:
    """Each workload in its own process, then one combined summary line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, cwd=ROOT,
        )
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{workload}: exited with {proc.returncode}", file=sys.stderr)
            return 2
        print("\n".join(lines[:-1]))
        last = json.loads(lines[-1])
        combined["correct"] &= last["correct"]
        combined["attempted"] += last["attempted"]
        combined["failed"] += last["failed"]
        combined["metrics"][workload] = last["metrics"]
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "posflow" / "__init__.py").is_file():
        print(f"no posflow sources under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("--seconds must be positive", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    import harness

    harness.run_one(args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
