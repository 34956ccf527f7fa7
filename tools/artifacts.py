"""Write the output of every subcommand of a checkout into one directory tree.

    python tools/artifacts.py OUT
    python tools/artifacts.py --compare A B

runs ``python -m posflow`` in a fresh process against this checkout's
``src`` for ``simulate``, ``simulate --signed``, ``check``,
``admissibility``, ``admissibility --p 1`` (every scenario sets p = 2, and
p = 1 skips the zero-class scan), ``spectrum``, ``spectrum --mu-grid=-1000:0:3``
(where e^(-mu l_j/v_k) overflows and H(mu) is refused), ``oracle`` and
:data:`FEEDBACK` (``feedback_admissibility`` with K = 1 and with a signed K), on
``scenarios/*.yaml``, on the benchmark's seed-0 scenarios (written to
``OUT/_scenarios`` by ``perfbench/scenarios.write_workload``) and on
:data:`RAGGED`, :data:`WIDE_RAGGED`, :data:`DEFAULTS`, :data:`SIGNED` and
:data:`NODAL`, written there as ``<name>.yaml``.  Each run's artifacts,
stdout, stderr and exit status go to ``OUT/<scenario>-<command>``.
The malformed variants of ``scenarios/two_cycle.yaml`` in :data:`MALFORMED`
are run with ``simulate`` alone, to ``OUT/malformed-<name>-simulate``.
Two checkouts produce the same outputs exactly when ``diff -r`` of their
trees is empty.  ``--compare A B`` prints, for each run whose files differ
between the trees A and B, the largest relative difference of its numeric
cells and how many of them flip their sign bit (:func:`compare`).
"""

from __future__ import annotations

import math
import os
import re
import subprocess
import sys
from pathlib import Path

import yaml

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
    "spectrum-overflow": ["spectrum", "--mu-grid=-1000:0:3"],
    "oracle": ["oracle"],
}

# feedback_admissibility on the transport handle over the scenario's horizon,
# with K = 1 and with the checkerboard K = 0.5 (-1)^(a + b + 1), whose K F has
# negative entries wherever F is nonzero, so (I - K F)^{-1} is formed.  At most
# 1024 output samples (n_steps d), which bounds that dense inverse.
FEEDBACK = """
import json, sys
import numpy as np
from posflow.scenario import parse_scenario
from posflow.wellposed import TransportHandle, feedback_admissibility
sc = parse_scenario(sys.argv[1])
handle = TransportHandle(sc.system)
d = int(np.prod(handle.input_shape))
n_steps = max(1, min(32, 1024 // d))
signed = 0.5 * (-1.0) ** (1 + np.add.outer(np.arange(d), np.arange(d)))
reports = {name: feedback_admissibility(handle, K, tau=sc.horizon, n_steps=n_steps).as_dict()
           for name, K in (("unit", 1.0), ("signed", signed))}
with open(sys.argv[2] + "/report.json", "w") as fh:
    json.dump(reports, fh, indent=2, sort_keys=True)
"""

# Edge tables of different lengths, which no other scenario has: a constant
# absorption beside a 3-piece per-node table with growing rates, and a
# constant initial state beside a 4-knot table.  Its 13 snapshot times make
# 5 mass chunks of at most 3 times each (ClosedLoopSolution.masses), so
# the time-reversed prefix tables of the growing rates are read in chunks.
RAGGED = {
    "schema_version": 1,
    "name": "ragged",
    "seed": 7,
    "graph": {
        "vertices": 2,
        "edges": [
            {"tail": 1, "head": 2, "length": 1.0, "weight": 1.0},
            {"tail": 2, "head": 1, "length": 0.7, "weight": 1.0},
        ],
        "control_matrix": [[1.0], [0.0]],
    },
    "velocity": {"v_min": 0.8, "v_max": 1.4, "nodes": 3, "rule": "midpoint"},
    "absorption": [
        {"constant": -0.2},
        {"table": {"x": [0.0, 0.2, 0.45, 0.7],
                   "values": [[-0.3, -0.1, 0.0], [0.1, -0.4, -0.2], [-0.5, 0.05, -0.1]]}},
    ],
    "kernel": {"mode": "constant", "value": 0.8},
    "initial_state": [
        {"constant": 0.5},
        {"table": {"x": [0.0, 0.2, 0.5, 0.7], "values": [0.0, 1.0, 0.3, 0.8]}},
    ],
    "inputs": [{"steps": {"times": [0.0, 0.5, 1.5], "values": [0.3, 1.0, 0.0]}}],
    "horizon": 3.0,
    "snapshots": [0.25 * i for i in range(13)],
    "space_samples": 241,
    "tolerances": {"positivity": 1.0e-9},
    "probes": {"count": 12, "p": 2.0},
}

# RAGGED with rows of very different lengths: one absorption piece and two
# initial knots on one edge, five pieces and twelve knots on the other.  Its
# padded kink rows (ClosedLoopSolution._initial_kinks) are two columns wider
# than the longest row of its own kinks, 27 against 25.
WIDE_RAGGED = {
    **RAGGED,
    "name": "wide-ragged",
    "absorption": [
        {"constant": -0.2},
        {"table": {"x": [0.0, 0.1, 0.25, 0.4, 0.55, 0.7],
                   "values": [[-0.3, -0.1, 0.0], [0.1, -0.4, -0.2], [-0.5, 0.05, -0.1],
                              [0.2, 0.0, -0.3], [-0.1, 0.3, 0.1]]}},
    ],
    "initial_state": [
        {"table": {"x": [0.0, 1.0], "values": [0.5, 0.2]}},
        {"table": {"x": [0.0, 0.05, 0.1, 0.2, 0.25, 0.3, 0.35, 0.45, 0.5, 0.6, 0.65, 0.7],
                   "values": [0.0, 1.0, 0.3, 0.8, 0.6, 0.1, 0.9, 0.4, 0.0, 0.7, 0.2, 0.5]}},
    ],
}

# No initial state, absorption or kernel, which every other scenario sets:
# the zero field on the default x-grids, q = 0 and the identity kernel, fed
# by an input that steps inside the horizon.
DEFAULTS = {
    "schema_version": 1,
    "name": "defaults",
    "seed": 3,
    "graph": {
        "vertices": 3,
        "edges": [
            {"tail": 1, "head": 2, "length": 0.9, "weight": 0.6},
            {"tail": 1, "head": 3, "length": 1.3, "weight": 0.4},
            {"tail": 2, "head": 3, "length": 0.6, "weight": 1.0},
            {"tail": 3, "head": 1, "length": 1.1, "weight": 1.0},
        ],
        "control_matrix": [[1.0], [0.0], [0.0]],
    },
    "velocity": {"v_min": 0.7, "v_max": 1.3, "nodes": 2, "rule": "midpoint"},
    "inputs": [{"steps": {"times": [0.0, 0.8, 1.6], "values": [1.0, 0.4, 0.0]}}],
    "horizon": 2.5,
    "snapshots": [0.0, 1.25, 2.5],
    "space_samples": 21,
    "probes": {"count": 8, "p": 2.0},
}

# Signed data reaching -0.0, +-1e300 and 1e-300, whose step input puts jump
# pairs into the trace ledger: repeated -0.0 cells beside +0.0 ones.  The CSV
# byte tests of tests/test_cli.py run it too.  Without --signed, simulate
# refuses it.
SIGNED = {
    "name": "signed",
    "graph": {
        "vertices": 2,
        "edges": [
            {"tail": 1, "head": 2, "length": 1.0, "weight": 1.0},
            {"tail": 2, "head": 1, "length": 0.7, "weight": 1.0},
            {"tail": 2, "head": 2, "length": 0.45, "weight": 1.0},
        ],
        "control_matrix": [[1.0], [0.0]],
    },
    "velocity": {"v_min": 0.8, "v_max": 1.4, "nodes": 3, "rule": "midpoint"},
    "kernel": {"mode": "constant", "value": 0.8},
    "initial_state": [
        {"table": {"x": [0.0, 0.5, 1.0], "values": [-1e300, 3e-300, 1e300]}},
        {"constant": -0.0},
        {"table": {"x": [0.0, 0.45], "values": [-2.5, 1e-300]}},
    ],
    "inputs": [{"steps": {"times": [0.0, 0.5, 1.5], "values": [-0.3, 1e-300, -7.0]}}],
    "horizon": 2.5,
    "snapshots": [0.0, 0.35, 1.2, 2.5],
    "space_samples": 17,
}

# Shared per-edge entries of one value per velocity node, which no other
# scenario has: an initial state constant at each node, an absorption table
# shared by three edges of one length, and input steps given per node.
NODAL = {
    "schema_version": 1,
    "name": "nodal",
    "seed": 5,
    "graph": {
        "vertices": 2,
        "edges": [
            {"tail": 1, "head": 2, "length": 0.8, "weight": 1.0},
            {"tail": 2, "head": 1, "length": 0.8, "weight": 0.5},
            {"tail": 2, "head": 2, "length": 0.8, "weight": 0.5},
        ],
        "control_matrix": [[1.0], [0.0]],
    },
    "velocity": {"v_min": 0.6, "v_max": 1.2, "nodes": 3, "rule": "midpoint"},
    "absorption": {"table": {"x": [0.0, 0.3, 0.8], "values": [[-0.1, 0.0, 0.2], [0.1, -0.3, 0.0]]}},
    "kernel": {"mode": "flux_preserving"},
    "initial_state": {"constant": [0.2, 1.0, 0.5]},
    "inputs": [{"steps": {"times": [0.0, 1.0], "values": [[0.5, 0.0, 1.0], [0.0, 0.25, 0.0]]}}],
    "horizon": 2.0,
    "snapshots": [0.0, 0.5, 1.0, 2.0],
    "space_samples": 33,
    "probes": {"count": 6, "p": 2.0},
}


# scenarios/two_cycle.yaml with one top-level key replaced by a value of the
# wrong shape, sign or type: each must end in exit 2 and one "scenario error:"
# line that names the key, not a traceback or a gate failure.
MALFORMED = {
    "absorption-floats": ("absorption", [1.0, 2.0]),
    "initial-floats": ("initial_state", [1.0, 0.5]),
    "inputs-mapping": ("inputs", {"steps": {"times": [0.0], "values": [1.0]}}),
    "inputs-number": ("inputs", [3]),
    "edges-numbers": ("graph", {"vertices": 2, "edges": [5, 6]}),
    "kernel-list": ("kernel", [1, 2]),
    "kernel-tables-number": ("kernel", {"mode": "table", "tables": 3}),
    "snapshots-nested": ("snapshots", [[0.0, 1.0]]),
    "conservation-string": ("expect_mass_conservation", "no"),
    "kernel-negative": ("kernel", {"mode": "constant", "value": -1.0}),
    "tolerance-negative": ("tolerances", {"positivity": -1.0}),
    "schema-string": ("schema_version", "1"),
    "schema-bool": ("schema_version", True),
    "name-list": ("name", [1, 2]),
}


def malformed_files(out: Path) -> list[Path]:
    """The :data:`MALFORMED` scenarios, written to ``OUT/_scenarios``."""
    files = []
    for name, (key, value) in MALFORMED.items():
        doc = yaml.safe_load((ROOT / "scenarios" / "two_cycle.yaml").read_text())
        doc[key] = value
        files.append(out / "_scenarios" / f"malformed-{name}.yaml")
        files[-1].write_text(yaml.safe_dump(doc, sort_keys=False))
    return files


def scenario_files(out: Path) -> list[Path]:
    """The shipped scenarios, then the benchmark's seed-0 scenarios, then
    :data:`RAGGED`, :data:`WIDE_RAGGED`, :data:`DEFAULTS`, :data:`SIGNED`
    and :data:`NODAL`."""
    files = sorted((ROOT / "scenarios").glob("*.yaml"))
    for workload in sorted(WORKLOAD_FILES):
        files += write_workload(workload, 0, out / "_scenarios").values()
    for extra in (RAGGED, WIDE_RAGGED, DEFAULTS, SIGNED, NODAL):
        files.append(out / "_scenarios" / f"{extra['name']}.yaml")
        files[-1].write_text(yaml.safe_dump(extra, sort_keys=False))
    return files


def capture(rundir: Path, args: list[str], env: dict) -> None:
    """Run ``python *args`` in a fresh process; its stdout, stderr and exit
    status go to ``rundir``."""
    rundir.mkdir(parents=True, exist_ok=True)
    proc = subprocess.run([sys.executable, *args], cwd=ROOT, env=env,
                          capture_output=True, text=True)
    (rundir / "stdout.txt").write_text(proc.stdout)
    (rundir / "stderr.txt").write_text(proc.stderr)
    (rundir / "exit_code.txt").write_text(f"{proc.returncode}\n")


def cells(path: Path) -> list[str]:
    """The cells of an artifact: its text split at whitespace, commas and
    JSON punctuation."""
    return re.split(r'[\s,:\[\]{}"]+', path.read_text())


def compare(a: Path, b: Path) -> int:
    """Print one line per entry of the trees a and b whose files differ: the
    largest relative difference |x - y| / max(|x|, |y|) of its numeric cells
    and the number of cells whose sign bit flips, then any file only in one
    tree or differing in a cell that is not a number.  An entry in one tree
    only is one line.  Returns 1 if an entry differs, else 0."""
    differ = 0
    for run in sorted({p.name for tree in (a, b) for p in tree.iterdir()}):
        if not ((a / run).is_dir() and (b / run).is_dir()):
            differ = 1
            print(f"{run}: only in {a if (a / run).is_dir() else b}")
            continue
        changed, worst, flips, notes = False, 0.0, 0, []
        names = sorted({p.relative_to(tree / run) for tree in (a, b) for p in (tree / run).rglob("*") if p.is_file()})
        for name in names:
            pa, pb = a / run / name, b / run / name
            if not (pa.is_file() and pb.is_file()):
                notes.append(f"{name} only in {a if pa.is_file() else b}")
                continue
            if pa.read_bytes() == pb.read_bytes():
                continue
            changed = True
            ca, cb = cells(pa), cells(pb)
            if len(ca) != len(cb):
                notes.append(f"{name}: {len(ca)} cells against {len(cb)}")
                continue
            for x, y in zip(ca, cb):
                if x == y:
                    continue
                try:
                    fx, fy = float(x), float(y)
                except ValueError:
                    notes.append(f"{name}: {x!r} against {y!r}")
                    break
                scale = max(abs(fx), abs(fy))
                rel = abs(fx - fy) / scale if scale else 0.0
                if math.isnan(rel):
                    notes.append(f"{name}: {x} against {y}")
                    break
                worst, flips = max(worst, rel), flips + (math.copysign(1.0, fx) != math.copysign(1.0, fy))
        if changed or notes:
            differ = 1
            print(f"{run}: largest relative difference {worst:.3g}, {flips} sign flips")
            for note in notes:
                print(f"  {note}")
    return differ


def main(argv: list[str]) -> int:
    if len(argv) == 3 and argv[0] == "--compare":
        return compare(Path(argv[1]), Path(argv[2]))
    if len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    out = Path(argv[0]).resolve()
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    for scenario in scenario_files(out):
        for run, args in RUNS.items():
            rundir = out / f"{scenario.stem}-{run}"
            capture(rundir, ["-m", "posflow", *args, "--scenario", str(scenario),
                             "--out", str(rundir)], env)
        rundir = out / f"{scenario.stem}-feedback"
        capture(rundir, ["-c", FEEDBACK, str(scenario), str(rundir)], env)
    for scenario in malformed_files(out):
        rundir = out / f"{scenario.stem}-simulate"
        capture(rundir, ["-m", "posflow", "simulate", "--scenario", str(scenario),
                         "--out", str(rundir)], env)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
