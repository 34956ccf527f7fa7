"""Command-line harness: scenario-driven runs with bit-stable artifacts.

Subcommands front the library modules:

  simulate       closed-loop solve, snapshot + trace CSVs, mass metrics
  check          structural assumptions, characteristic gate, positivity spot checks
  admissibility  kappa-hat / gamma-hat estimates and the zero-class fit
  spectrum       transfer-operator radius sweep over a mu grid
  oracle         finite-dimensional property battery

Every run writes one ``report.json`` with {schema_version, scenario_hash,
gates, metrics}; the exit status is 0 exactly when no gate failed.  Metrics
hold report dataclasses and numpy values as they are: one json hook,
:func:`_jsonable`, decides their JSON form.  Malformed grid options are
usage errors (exit 2) before the scenario is read.  All
randomness is seeded from the scenario (or ``--seed``), so identical inputs
produce byte-identical reports.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import poslti
from .scenario import Scenario, ScenarioError, parse_scenario
from .solver import NegativeDataError, closed_loop_solve
from .transport import (
    dirichlet_apply,
    resolvent_apply,
    semigroup_apply,
    transfer_max_entry,
    transfer_operator,  # noqa: F401  wrapped by perfbench/tracing.py
    transfer_radius,
)
from .wellposed import (
    TransportHandle,
    control_admissibility,
    observation_admissibility,
    zero_class_scan,
)

REPORT_SCHEMA = 1
SNAPSHOT_HEADER = "# schema=posflow.snapshots.v1\ntime,edge,x,v,value\n"
TRACE_HEADER = "# schema=posflow.traces.v1\ntime,vertex,v,value\n"
SPECTRUM_HEADER = "# schema=posflow.spectrum.v1\nmu,spectral_radius,max_entry\n"


def _cells(values) -> list[str]:
    """CSV cells of ``values`` in C order, 17 significant digits each, which
    round-trips every float64."""
    return list(map("{:.17g}".format, np.asarray(values, dtype=float).ravel().tolist()))


def _mu_grid(spec: str) -> np.ndarray:
    """--mu-grid a:b:n with finite a and b and an integer n >= 1."""
    try:
        a, b, n = spec.split(":")
        a, b, n = float(a), float(b), int(n)
        ok = n >= 1 and math.isfinite(a) and math.isfinite(b)
    except ValueError:
        ok = False
    if not ok:
        raise argparse.ArgumentTypeError(f"expected a:b:n with finite a, b and n >= 1, got {spec!r}")
    return np.linspace(a, b, n)


def _tau_grid(spec: str) -> list[float]:
    """--tau-grid t1,t2,...: at least one value, each finite and positive."""
    try:
        taus = [float(s) for s in spec.split(",") if s]
    except ValueError:
        taus = []
    if not taus or not all(0.0 < t < math.inf for t in taus):
        raise argparse.ArgumentTypeError(f"expected finite positive taus t1,t2,..., got {spec!r}")
    return taus


def _lp_exponent(text: str) -> float:
    """--p: finite and >= 1."""
    try:
        p = float(text)
    except ValueError:
        p = math.nan
    if not 1.0 <= p < math.inf:
        raise argparse.ArgumentTypeError(f"expected a finite p >= 1, got {text!r}")
    return p


def _gate(name: str, passed: bool, value=None, threshold=None) -> dict:
    g = {"name": name, "passed": bool(passed)}
    if value is not None:
        g["value"] = float(value)
    if threshold is not None:
        g["threshold"] = float(threshold)
    return g


def _jsonable(obj):
    """The report.json form of what json cannot encode: a report dataclass as
    its non-None fields, a numpy array or scalar as ``.tolist()``."""
    if dataclasses.is_dataclass(obj):
        fields = ((f.name, getattr(obj, f.name)) for f in dataclasses.fields(obj))
        return {name: value for name, value in fields if value is not None}
    if isinstance(obj, (np.ndarray, np.generic)):
        return obj.tolist()
    raise TypeError(f"{type(obj).__name__} has no report.json form")


def _write_report(outdir: Path, payload: dict) -> Path:
    path = outdir / "report.json"
    path.write_text(json.dumps(payload, sort_keys=True, indent=2, default=_jsonable) + "\n")
    return path


# ---------------------------------------------------------------------------
# subcommands


def cmd_simulate(sc: Scenario, args) -> tuple[list[dict], dict]:
    sys_ = sc.system
    try:
        sol = closed_loop_solve(sys_, sc.initial, sc.control, sc.horizon, positive=not args.signed)
    except NegativeDataError as exc:
        raise ScenarioError(f"{exc}; pass --signed to simulate signed data") from None
    outdir = Path(args.out)

    # Rows go out one (time, edge, node) block at a time, so no whole file is
    # held in memory.  Snapshot fields sample on the system's x-grids, so each
    # (edge, node) block is one row template with the coordinates formatted
    # once, the time left as "\0" and one %.17g slot per value ({:.17g} to
    # the byte): a block is one replace and one %.
    v_cells = _cells(sys_.vgrid.nodes)
    block_rows = []
    for j in range(sys_.n_edges):
        x_cells = _cells(sys_.xgrid(j))
        block_rows.append(
            ["".join(f"\0,{j + 1},{x},{v},%.17g\n" for x in x_cells) for v in v_cells]
        )
    snapshot_min = np.inf
    masses = []
    with (outdir / "snapshots.csv").open("w") as fh:
        fh.write(SNAPSHOT_HEADER)
        for t, t_cell in zip(sc.snapshot_times, _cells(sc.snapshot_times)):
            fld, mass = sol.observe(float(t))
            snapshot_min = min(snapshot_min, fld.min_value())
            masses.append(mass)
            for rows, block in zip(block_rows, fld.values):
                for row, vals in zip(rows, block):
                    fh.write(row.replace("\0", t_cell) % tuple(vals.tolist()))

    led = sol.ledger
    stamp_rows = "".join(
        f"\0,{i + 1},{v_cell},%.17g\n" for i in range(sys_.n_vertices) for v_cell in v_cells
    )
    with (outdir / "traces.csv").open("w") as fh:
        fh.write(TRACE_HEADER)
        for t_cell, block in zip(_cells(led.times), led.values):
            fh.write(stamp_rows.replace("\0", t_cell) % tuple(block.ravel().tolist()))

    pos_tol = float(sc.tolerances["positivity"])
    drift = 0.0
    if masses:
        m0 = masses[0]
        drift = max(abs(m - m0) for m in masses) / max(abs(m0), 1e-30)
    min_state = min(sol.min_state, snapshot_min)
    gates = []
    if not args.signed:
        gates.append(_gate("positivity", min_state >= -pos_tol,
                           value=min_state, threshold=-pos_tol))
    if sc.expect_mass_conservation:
        tol = float(sc.tolerances["mass_drift"])
        gates.append(_gate("mass_drift", drift <= tol, value=drift, threshold=tol))
    metrics = {
        "mass_by_time": masses,
        "mass_drift": drift,
        "min_state": min_state,
        "generations": sol.generations,
        "stamps": sol.stamp_count,
        "events_complete": sol.events_complete,
    }
    return gates, metrics


def cmd_check(sc: Scenario, args) -> tuple[list[dict], dict]:
    sys_ = sc.system
    report = sys_.assumptions()
    q_sup = sys_.q_sup
    mus = args.mu_grid if args.mu_grid is not None else np.linspace(q_sup + 0.5, q_sup + 8.0, 16)
    radii = [transfer_radius(sys_, float(mu)) for mu in mus]
    char_ok = any(r < 1.0 for r in radii)

    rng = np.random.default_rng(args.seed if args.seed is not None else sc.seed)
    f = TransportHandle(sys_).random_positive_state(rng)
    g = rng.uniform(0.0, 1.0, (sys_.n_vertices, sys_.n_nodes))
    mu_pos = q_sup + 2.0
    t_spot = 0.7 * sys_.min_delay
    spots = {
        "semigroup": semigroup_apply(sys_, f, t_spot).min_value(),
        "dirichlet": dirichlet_apply(sys_, g, mu_pos).min_value(),
        "resolvent": resolvent_apply(sys_, f, mu_pos).min_value(),
    }
    pos_tol = float(sc.tolerances["positivity"])

    gates = [
        _gate("assumption_a2", report.a2_ok),
        _gate("assumption_a3", report.a3_ok, value=np.max(np.abs(report.a3_residuals))),
        _gate("characteristic", char_ok, value=min(radii)),
    ]
    gates += [
        _gate(f"positivity_{name}", val >= -pos_tol, value=val, threshold=-pos_tol)
        for name, val in spots.items()
    ]
    metrics = {
        "assumptions": report,
        "mu_grid": mus,
        "transfer_radii": radii,
        "transfer_rank": sys_.scatter_basis.shape[1],
        "q_sup": q_sup,
        "warnings": sc.warnings,
    }
    return gates, metrics


def cmd_admissibility(sc: Scenario, args) -> tuple[list[dict], dict]:
    handle = TransportHandle(sc.system)
    seed = args.seed if args.seed is not None else sc.seed
    p = args.p if args.p is not None else float(sc.probes.get("p", 2.0))
    n_probes = int(sc.probes.get("count", 16))
    taus = args.tau_grid or [0.4, 0.2, 0.1, 0.05, 0.025]

    kappa = control_admissibility(handle, max(taus), p, n_probes=n_probes, seed=seed)
    gamma = observation_admissibility(handle, max(taus), p, n_probes=n_probes, seed=seed)
    metrics = {"kappa": kappa, "gamma": gamma}
    if p > 1:
        metrics["zero_class"] = zero_class_scan(
            handle, p, sorted(taus, reverse=True), n_probes=n_probes, seed=seed
        )
    else:
        metrics["zero_class"] = {"skipped": "zero-class scaling is not claimed at p = 1"}
    gates = [_gate("probes_nondegenerate", not (kappa.degenerate or gamma.degenerate))]
    return gates, metrics


def cmd_spectrum(sc: Scenario, args) -> tuple[list[dict], dict]:
    q_sup = sc.system.q_sup
    mus = args.mu_grid if args.mu_grid is not None else np.linspace(q_sup + 0.5, q_sup + 8.0, 31)
    rows = [SPECTRUM_HEADER]
    radii = []
    for mu in mus:
        r = transfer_radius(sc.system, float(mu))
        radii.append(r)
        rows.append(",".join(_cells([mu, r, transfer_max_entry(sc.system, float(mu))])) + "\n")
    (Path(args.out) / "spectrum.csv").write_text("".join(rows))
    metrics = {
        "mu_grid": mus,
        "radii": radii,
        "transfer_rank": sc.system.scatter_basis.shape[1],
    }
    return [], metrics


def _random_positive_system(rng: np.random.Generator) -> poslti.PosLTI:
    n = int(rng.integers(2, 6))
    m = int(rng.integers(1, 4))
    p = int(rng.integers(1, 4))
    A = rng.uniform(0.0, 1.0, (n, n))
    A -= np.diag(np.diag(A))
    A -= np.diag(A.sum(axis=1) + rng.uniform(1.0, 2.0, n))
    B = 0.4 * rng.uniform(0.0, 1.0, (n, m))
    C = 0.4 * rng.uniform(0.0, 1.0, (p, n))
    D = 0.2 * rng.uniform(0.0, 1.0, (p, m))
    return poslti.PosLTI(A, B, C, D)


def cmd_oracle(sc: Scenario, args) -> tuple[list[dict], dict]:
    seed = args.seed if args.seed is not None else sc.seed
    rng = np.random.default_rng(seed)
    count = int(sc.probes.get("count", 16))
    tgrid = np.linspace(0.0, 5.0, 26)

    max_state_err = 0.0
    max_cone_defect = 0.0
    refusals_ok = True
    internal_implies_external = True
    for _ in range(count):
        sys_fd = _random_positive_system(rng)
        K = 0.3 * rng.uniform(0.0, 1.0, (sys_fd.m, sys_fd.p))
        fb = poslti.feedback_compose(sys_fd, K)
        if not fb.admissible:
            continue
        x0 = rng.uniform(0.0, 1.0, sys_fd.n)
        v = rng.uniform(0.0, 1.0, sys_fd.m)
        closed = fb.closed_loop()
        z_formula = poslti.simulate_mild(closed, x0, np.tile(v, (tgrid.size - 1, 1)), tgrid)
        z_direct, _ = poslti.simulate_interconnection(sys_fd, K, x0, v, tgrid)
        max_state_err = max(max_state_err, float(np.max(np.abs(z_formula - z_direct))))
        max_cone_defect = max(
            max_cone_defect,
            -min(
                0.0,
                float(np.min(closed.A - np.diag(np.diag(closed.A)))),
                float(np.min(closed.B)),
                float(np.min(closed.C)),
                float(np.min(closed.D)),
            ),
        )
        cls = poslti.positivity_classify(sys_fd, np.linspace(0.0, 3.0, 7))
        if cls["internal"] and not cls["external"]:
            internal_implies_external = False
        # inadmissible composition must be refused
        D_bad = np.ones((sys_fd.p, sys_fd.m))
        bad = poslti.feedback_compose(
            poslti.PosLTI(sys_fd.A, sys_fd.B, sys_fd.C, D_bad),
            np.ones((sys_fd.m, sys_fd.p)),
        )
        if bad.admissible:
            refusals_ok = False

    # Neumann series against the dense inverse
    A = np.array([[-3.0, 0.5], [0.2, -4.0]])
    B = np.array([[0.4, 0.1], [0.0, 0.3]])
    res = poslti.neumann_resolvent(A, B, mu=1.0, n_terms=60)
    exact = np.linalg.inv(1.0 * np.eye(2) - A - B)
    neumann_err = float(np.max(np.abs(res.value - exact)))

    gates = [
        _gate("feedback_equivalence", max_state_err <= 1e-8, value=max_state_err, threshold=1e-8),
        _gate("closed_loop_positive", max_cone_defect <= 1e-12, value=max_cone_defect),
        _gate("inadmissible_refused", refusals_ok),
        _gate("internal_implies_external", internal_implies_external),
        _gate("neumann_vs_dense", neumann_err <= res.tail_bound + 1e-12,
              value=neumann_err, threshold=res.tail_bound + 1e-12),
    ]
    metrics = {
        "systems": count,
        "max_state_error": max_state_err,
        "max_cone_defect": max_cone_defect,
        "neumann_error": neumann_err,
        "neumann_tail_bound": res.tail_bound,
    }
    return gates, metrics


COMMANDS = {
    "simulate": cmd_simulate,
    "check": cmd_check,
    "admissibility": cmd_admissibility,
    "spectrum": cmd_spectrum,
    "oracle": cmd_oracle,
}


def run_command(command: str, sc: Scenario, args) -> int:
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    gates, metrics = COMMANDS[command](sc, args)
    payload = {
        "schema_version": REPORT_SCHEMA,
        "command": command,
        "scenario": sc.name,
        "scenario_hash": sc.source_hash,
        "seed": args.seed if args.seed is not None else sc.seed,
        "gates": gates,
        "metrics": metrics,
    }
    _write_report(outdir, payload)
    failed = [g["name"] for g in gates if not g["passed"]]
    if failed:
        print(f"FAIL {command}: gates failed: {', '.join(failed)}", file=sys.stderr)
        return 1
    print(f"ok {command}: {len(gates)} gates passed")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="posflow",
        description="Positive transport flows on metric graphs: simulate and verify.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--scenario", required=True, help="scenario YAML file")
        p.add_argument("--out", default="posflow-out", help="artifact directory")
        p.add_argument("--seed", type=int, default=None, help="override the scenario seed")
        if name == "simulate":
            p.add_argument("--signed", action="store_true", help="signed data, no positivity gate")
        if name in ("check", "spectrum"):
            p.add_argument("--mu-grid", type=_mu_grid, default=None, help="mu sweep as a:b:n")
        if name == "admissibility":
            p.add_argument("--tau-grid", type=_tau_grid, default=None,
                           help="comma-separated tau values")
            p.add_argument("--p", type=_lp_exponent, default=None, help="Lp exponent, >= 1")
    return parser


def _attach_mu_grid(argv: list[str]) -> list[str]:
    """Join ``--mu-grid`` and its value into ``--mu-grid=value``, so a grid
    that starts below zero (``-1:2:3``) is not taken for an option."""
    out = []
    for arg in argv:
        if out and out[-1] == "--mu-grid":
            out[-1] = f"--mu-grid={arg}"
        else:
            out.append(arg)
    return out


def main(argv=None) -> int:
    args = build_parser().parse_args(_attach_mu_grid(sys.argv[1:] if argv is None else list(argv)))
    try:
        return run_command(args.command, parse_scenario(args.scenario), args)
    except ScenarioError as exc:
        print(f"scenario error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
