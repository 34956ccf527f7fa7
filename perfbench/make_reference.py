"""Write reference.json: the report values of every operation on the
reference seed, as the current program computes them.

Usage, from the repository root:  python3 perfbench/make_reference.py

Run it only at a commit whose outputs are to become the reference; the
benchmark compares every later commit with what it stores.
"""

import json
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent

import run  # noqa: E402  (pins BLAS threads before numpy loads)
import harness  # noqa: E402
import scenarios  # noqa: E402
import workloads  # noqa: E402


def main() -> int:
    reference = {}
    with tempfile.TemporaryDirectory(dir=BENCH.parent) as tmp:
        tmp = Path(tmp)
        for workload in run.WORKLOADS:
            files = scenarios.write_workload(workload, harness.REFERENCE_SEED, tmp)
            outcomes, entry = {}, {}
            for op in workloads.OPERATIONS[workload]:
                outdir = tmp / f"{workload}-{op.name}"
                outdir.mkdir()
                code = workloads.run_op(op, files[op.scenario], outdir)
                doc = workloads.load_scenario(files[op.scenario])
                out = workloads.load_outcome(op, code, outdir, doc)
                problems = workloads.check(out, outcomes)
                if problems:
                    print(f"{workload} {op.name}: {'; '.join(problems)}", file=sys.stderr)
                    return 1
                outcomes[op.name] = out
                entry[op.name] = workloads.reference_values(out)
            reference[workload] = entry
    payload = {"seed": harness.REFERENCE_SEED, "environment": harness.environment(), **reference}
    (BENCH / "reference.json").write_text(json.dumps(payload, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
