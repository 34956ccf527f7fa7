"""Write the output of every subcommand of a checkout into one directory tree.

    python tools/artifacts.py OUT

runs ``python -m posflow`` in a fresh process against this checkout's
``src`` for ``simulate``, ``simulate --signed``, ``check``,
``admissibility``, ``admissibility --p 1`` (every scenario sets p = 2, and
p = 1 skips the zero-class scan), ``spectrum`` and ``oracle``, on
``scenarios/*.yaml`` and on the benchmark's seed-0 scenarios (written to
``OUT/_scenarios`` by ``perfbench/scenarios.write_workload``).  Each run's
artifacts, stdout, stderr and exit status go to ``OUT/<scenario>-<command>``.
Two checkouts produce the same outputs exactly when ``diff -r`` of their
trees is empty.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))

from scenarios import WORKLOAD_FILES, write_workload  # noqa: E402

RUNS = {
    "simulate": ["simulate"],
    "simulate-signed": ["simulate", "--signed"],
    "check": ["check"],
    "admissibility": ["admissibility"],
    "admissibility-p1": ["admissibility", "--p", "1"],
    "spectrum": ["spectrum"],
    "oracle": ["oracle"],
}


def scenario_files(out: Path) -> list[Path]:
    """The shipped scenarios, then the benchmark's seed-0 scenarios."""
    files = sorted((ROOT / "scenarios").glob("*.yaml"))
    for workload in sorted(WORKLOAD_FILES):
        files += write_workload(workload, 0, out / "_scenarios").values()
    return files


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    out = Path(argv[0]).resolve()
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    for scenario in scenario_files(out):
        for run, args in RUNS.items():
            rundir = out / f"{scenario.stem}-{run}"
            rundir.mkdir(parents=True, exist_ok=True)
            proc = subprocess.run(
                [sys.executable, "-m", "posflow", *args, "--scenario", str(scenario),
                 "--out", str(rundir)],
                cwd=ROOT, env=env, capture_output=True, text=True,
            )
            (rundir / "stdout.txt").write_text(proc.stdout)
            (rundir / "stderr.txt").write_text(proc.stderr)
            (rundir / "exit_code.txt").write_text(f"{proc.returncode}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
