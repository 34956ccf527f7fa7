"""The benchmark's operations and the checks on their outputs.

A workload is a list of operations run in order; one pass runs each once.
Every operation reads only the generated scenario files, runs through the
``posflow`` CLI entry point (or, for feedback admissibility, the library),
and leaves its artifacts in its own directory.  The check functions read
those artifacts back and return a list of problems; an empty list means the
operation's output is correct.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import yaml

from posflow import scenario as pf_scenario
from posflow import wellposed
from posflow.cli import main as cli_main

from scenarios import midpoint_rule

# Mass balance of the ladder: with flux-preserving scattering and q = 0 the
# only source is the constant-1 input at vertex 1, which feeds the inflow
# flux sum_k w_k v_k, so M(t) = M(0) + t * sum_k w_k v_k.  The solver
# misses it by 5e-5..1.4e-3 of M(0) on seeds 0..39 (the smeared t = 0 jump,
# a known defect), so the tolerance sits above that and far below the error
# of a lost or doubled edge.
MASS_BALANCE_TOL = 5e-3

# Values compared with reference.json, which make_reference.py wrote from
# the program as it was when the benchmark was introduced:
# |a - b| <= REL_TOL * |b| + ABS_TOL.  The floor keeps round-off in error
# metrics that are themselves near zero from counting.
REL_TOL = 1e-8
ABS_TOL = 1e-12

# check's mu grid is every fourth point of spectrum's, so the two commands'
# radii can be compared at three shared values of mu.
SPECTRUM_GRID = "0.5:8.0:9"
CHECK_GRID = "0.5:8.0:3"
SHARED_MU_STRIDE = 4

FEEDBACK_ARGS = dict(K=1.0, tau=0.5, n_steps=32)


@dataclass
class Op:
    """One operation: a CLI subcommand (or ``feedback``) on one scenario."""

    kind: str
    scenario: str
    args: list[str] = field(default_factory=list)

    @property
    def name(self) -> str:
        return f"{self.kind}-{self.scenario}"


# sim: the solver's write side (the per-stamp, per-edge ledger sweep on
# "sweep") and its read side (characteristic reads, knot-split mass and CSV
# on "read").  verify: everything but the solver -- observation_lp and
# input_map_norm (admissibility), transfer-operator assembly and the dense
# radius at N*K = 512 (spectrum, check), io_matrix (feedback) and RK4 (oracle).
OPERATIONS = {
    "sim": [Op("simulate", "sweep"), Op("simulate", "read")],
    "verify": [
        Op("admissibility", "adm", ["--p", "2"]),
        Op("spectrum", "spectral", ["--mu-grid", SPECTRUM_GRID]),
        Op("check", "spectral", ["--mu-grid", CHECK_GRID]),
        Op("feedback", "feedback"),
        Op("oracle", "feedback"),
    ],
}


@dataclass
class Outcome:
    """What one operation left behind: exit code, report and where."""

    op: Op
    code: int
    report: dict
    outdir: Path
    scenario: dict


def run_op(op: Op, path: Path, outdir: Path) -> int:
    """Run one operation on the scenario file ``path`` and return its exit
    code; its report lands in ``outdir/report.json``.  Exceptions propagate."""
    if op.kind == "feedback":
        # through the module attributes, so the tracer's wrappers see the calls
        sc = pf_scenario.parse_scenario(path)
        fb = wellposed.feedback_admissibility(wellposed.TransportHandle(sc.system),
                                              **FEEDBACK_ARGS)
        report = {"scenario_hash": sc.source_hash, "metrics": fb.as_dict()}
        (outdir / "report.json").write_text(json.dumps(report, sort_keys=True))
        return 0
    argv = [op.kind, "--scenario", str(path), "--out", str(outdir), *op.args]
    with contextlib.redirect_stdout(io.StringIO()):
        return cli_main(argv)


def load_outcome(op: Op, code: int, outdir: Path, scenario: dict) -> Outcome:
    report = json.loads((outdir / "report.json").read_text())
    return Outcome(op, code, report, outdir, scenario)


def load_scenario(path: Path) -> dict:
    return yaml.safe_load(path.read_text())


# ---------------------------------------------------------------------------
# checks


def gate_problems(outcome: Outcome) -> list[str]:
    problems = []
    if outcome.code != 0:
        problems.append(f"exit code {outcome.code}")
    failed = [g["name"] for g in outcome.report.get("gates", []) if not g["passed"]]
    if failed:
        problems.append(f"gates failed: {', '.join(failed)}")
    return problems


def count_rows(path: Path) -> int:
    """Data rows of a posflow CSV: lines that are neither comments nor the header."""
    with path.open() as fh:
        return sum(1 for line in fh if line.strip() and not line.startswith("#")) - 1


def mass_balance_err(report: dict, scenario: dict) -> float:
    """max over snapshots of |M(t) - M(0) - inflow t| / M(0)."""
    nodes, weights = midpoint_rule(scenario["velocity"]["nodes"])
    inflow = float(np.dot(weights, nodes))
    times = scenario["snapshots"]
    masses = report["metrics"]["mass_by_time"]
    m0 = masses[0]
    return max(abs(m - m0 - inflow * (t - times[0])) / m0 for t, m in zip(times, masses))


def check_simulate(outcome: Outcome) -> list[str]:
    sc, rep = outcome.scenario, outcome.report
    problems = gate_problems(outcome)
    n_edges = len(sc["graph"]["edges"])
    n_vertices = sc["graph"]["vertices"]
    K = sc["velocity"]["nodes"]
    want = len(sc["snapshots"]) * n_edges * K * sc["space_samples"]
    got = count_rows(outcome.outdir / "snapshots.csv")
    if got != want:
        problems.append(f"snapshots.csv has {got} rows, expected {want}")
    want = rep["metrics"]["stamps"] * n_vertices * K
    got = count_rows(outcome.outdir / "traces.csv")
    if got != want:
        problems.append(f"traces.csv has {got} rows, expected {want}")
    err = mass_balance_err(rep, sc)
    if not err <= MASS_BALANCE_TOL:
        problems.append(f"mass_balance_err {err:.3g} above {MASS_BALANCE_TOL:g}")
    return problems


def check_admissibility(outcome: Outcome) -> list[str]:
    problems = gate_problems(outcome)
    m = outcome.report["metrics"]
    for key in ("kappa", "gamma"):
        value = m[key]["constant_estimate"]
        if not (math.isfinite(value) and value > 0):
            problems.append(f"{key} estimate {value!r} is not a positive number")
    return problems


def check_spectrum(outcome: Outcome) -> list[str]:
    problems = gate_problems(outcome)
    mus = outcome.report["metrics"]["mu_grid"]
    radii = np.asarray(outcome.report["metrics"]["radii"])
    got = count_rows(outcome.outdir / "spectrum.csv")
    if got != len(mus):
        problems.append(f"spectrum.csv has {got} rows, expected {len(mus)}")
    if not np.all(np.isfinite(radii)) or np.any(radii < 0):
        problems.append("spectral radii must be finite and nonnegative")
    # H(mu) decreases entrywise in mu, so its Perron radius cannot grow
    if np.any(np.diff(radii) > 1e-12 * np.max(radii, initial=1.0)):
        problems.append("spectral radius grows with mu")
    return problems


def check_check(outcome: Outcome, spectrum: Outcome | None) -> list[str]:
    problems = gate_problems(outcome)
    if spectrum is None:
        return problems + ["no spectrum report to compare radii with"]
    ours = outcome.report["metrics"]["transfer_radii"]
    theirs = spectrum.report["metrics"]["radii"][::SHARED_MU_STRIDE]
    if len(ours) != len(theirs) or not np.allclose(ours, theirs, rtol=REL_TOL, atol=ABS_TOL):
        problems.append("check and spectrum disagree on the transfer radius")
    return problems


def check_feedback(outcome: Outcome) -> list[str]:
    m = outcome.report["metrics"]
    problems = []
    # every delay exceeds the discretization step, so K F is nilpotent
    if not (m["admissible"] and m["inverse_nonneg"]):
        problems.append("feedback not admissible or (I - K F)^-1 not positive")
    if not (math.isfinite(m["radius"]) and 0.0 <= m["radius"] < 1.0):
        problems.append(f"feedback radius {m['radius']!r} outside [0, 1)")
    return problems


def check_oracle(outcome: Outcome) -> list[str]:
    problems = gate_problems(outcome)
    want = outcome.scenario["probes"]["count"]
    if outcome.report["metrics"]["systems"] != want:
        problems.append(f"oracle ran {outcome.report['metrics']['systems']} systems, not {want}")
    return problems


def check(outcome: Outcome, previous: dict[str, Outcome]) -> list[str]:
    """Problems with one operation's output (empty when correct); ``previous``
    maps the names of the pass's earlier correct operations to their outcomes."""
    kind = outcome.op.kind
    if kind == "simulate":
        return check_simulate(outcome)
    if kind == "admissibility":
        return check_admissibility(outcome)
    if kind == "spectrum":
        return check_spectrum(outcome)
    if kind == "check":
        return check_check(outcome, previous.get(f"spectrum-{outcome.op.scenario}"))
    if kind == "feedback":
        return check_feedback(outcome)
    return check_oracle(outcome)


# ---------------------------------------------------------------------------
# reference values


def reference_values(outcome: Outcome) -> dict:
    """The report values an operation must reproduce on the reference seed."""
    m = outcome.report["metrics"]
    kind = outcome.op.kind
    if kind == "simulate":
        vals = {"mass_by_time": m["mass_by_time"], "stamps": m["stamps"]}
    elif kind == "admissibility":
        vals = {
            "kappa": m["kappa"]["constant_estimate"],
            "gamma": m["gamma"]["constant_estimate"],
            "zero_class": m["zero_class"]["estimates"],
        }
    elif kind == "spectrum":
        vals = {"radii": m["radii"]}
    elif kind == "check":
        vals = {"transfer_radii": m["transfer_radii"]}
    elif kind == "feedback":
        vals = {"radius": m["radius"]}
    else:
        vals = {k: m[k] for k in ("systems", "max_state_error", "max_cone_defect",
                                  "neumann_error", "neumann_tail_bound")}
    return {"scenario_hash": outcome.report["scenario_hash"], "values": vals}


def reference_problems(got: dict, want: dict) -> list[str]:
    """Differences between an outcome's reference values and the stored ones."""
    if got["scenario_hash"] != want["scenario_hash"]:
        return ["generated scenario differs from the one the reference was made on"]
    problems = []
    for key, ref in want["values"].items():
        a = np.atleast_1d(np.asarray(got["values"].get(key, np.nan), dtype=float))
        b = np.atleast_1d(np.asarray(ref, dtype=float))
        if a.shape != b.shape or not np.all(np.abs(a - b) <= REL_TOL * np.abs(b) + ABS_TOL):
            problems.append(f"{key} differs from the reference")
    return problems
