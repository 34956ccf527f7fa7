"""Scenario files: one YAML document describing a complete experiment.

A scenario pins everything a run needs: the weighted graph, the velocity
grid, absorption and scattering data, initial state, control inputs, horizon
and snapshot times, tolerances, and the seed for probe randomization, so
every artifact is reproducible from the file alone.  Validation failures
that break well-posedness (negative lengths, v_min <= 0, bad indices) are
hard errors; violations of the structural assumptions A2/A3 are attached as
warnings and only turn into gate failures in the `check` subcommand.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import yaml

from .graph import MetricGraph, check_assumptions
from .lattice import Quadrature
from .signals import StepSignal
from .transport import Absorption, ScatteringKernel, StateField, TransportSystem

SCHEMA_VERSION = 1


class ScenarioError(ValueError):
    """Malformed scenario file (syntax or semantic), annotated with context."""


def _require(mapping: dict, key: str, ctx: str):
    if key not in mapping:
        raise ScenarioError(f"{ctx}: missing required key '{key}'")
    return mapping[key]


def _as_float(value, ctx: str) -> float:
    try:
        return float(value)
    except (TypeError, ValueError):
        raise ScenarioError(f"{ctx}: expected a number, got {value!r}") from None


@dataclass
class Scenario:
    """Parsed scenario: the built system plus run data and provenance."""

    system: TransportSystem
    initial: StateField
    control: StepSignal | None
    horizon: float
    snapshot_times: np.ndarray
    seed: int
    tolerances: dict
    probes: dict
    expect_mass_conservation: bool
    name: str
    source_hash: str
    warnings: list[str] = field(default_factory=list)


def _build_graph(section: dict) -> MetricGraph:
    n = int(_require(section, "vertices", "graph"))
    edges = _require(section, "edges", "graph")
    if not isinstance(edges, list) or not edges:
        raise ScenarioError("graph.edges: need a nonempty list")
    tails, heads, lengths, weights = [], [], [], []
    for idx, e in enumerate(edges):
        ctx = f"graph.edges[{idx}]"
        tail = int(_require(e, "tail", ctx))
        head = int(_require(e, "head", ctx))
        length = _as_float(_require(e, "length", ctx), ctx + ".length")
        if length <= 0:
            raise ScenarioError(f"{ctx}: edge length must be positive, got {length}")
        if not (1 <= tail <= n and 1 <= head <= n):
            raise ScenarioError(f"{ctx}: vertex index out of range 1..{n}")
        tails.append(tail - 1)
        heads.append(head - 1)
        lengths.append(length)
        weights.append(_as_float(e.get("weight", 1.0), ctx + ".weight"))
    control = section.get("control_matrix")
    control = None if control is None else np.asarray(control, dtype=float)
    try:
        return MetricGraph(n, tails, heads, lengths, weights, control)
    except ValueError as exc:
        raise ScenarioError(f"graph: {exc}") from exc


def _build_vgrid(section: dict) -> Quadrature:
    v_min = _as_float(_require(section, "v_min", "velocity"), "velocity.v_min")
    v_max = _as_float(_require(section, "v_max", "velocity"), "velocity.v_max")
    nodes = int(section.get("nodes", 4))
    rule = section.get("rule", "midpoint")
    if v_min <= 0:
        raise ScenarioError(f"velocity.v_min must be positive, got {v_min}")
    if v_max < v_min:
        raise ScenarioError("velocity.v_max must be >= v_min")
    if v_max == v_min:
        raise ScenarioError("velocity interval must have positive length (use a window around the target speed)")
    if rule == "midpoint":
        return Quadrature.midpoint(v_min, v_max, nodes)
    if rule == "gauss":
        return Quadrature.gauss_legendre(v_min, v_max, nodes)
    raise ScenarioError(f"velocity.rule must be 'midpoint' or 'gauss', got {rule!r}")


def _build_absorption(section, graph: MetricGraph, n_nodes: int) -> Absorption:
    if section is None:
        return Absorption.zero(graph.lengths, n_nodes)
    if isinstance(section, dict):
        section = [section] * graph.n_edges
    if len(section) != graph.n_edges:
        raise ScenarioError("absorption: need one entry per edge (or a single shared entry)")
    breaks, values = [], []
    for j, entry in enumerate(section):
        ctx = f"absorption[{j}]"
        l = float(graph.lengths[j])
        if "constant" in entry:
            breaks.append(np.array([0.0, l]))
            values.append(
                np.broadcast_to(np.asarray(entry["constant"], dtype=float), (1, n_nodes)).copy()
            )
        elif "table" in entry:
            tbl = entry["table"]
            xs = np.asarray(_require(tbl, "x", ctx), dtype=float)
            vals = np.asarray(_require(tbl, "values", ctx), dtype=float)
            if vals.ndim == 1:
                vals = np.repeat(vals[:, None], n_nodes, axis=1)
            breaks.append(xs)
            values.append(vals)
        else:
            raise ScenarioError(f"{ctx}: expected 'constant' or 'table'")
    try:
        return Absorption(tuple(breaks), tuple(values))
    except ValueError as exc:
        raise ScenarioError(f"absorption: {exc}") from exc


def flux_preserving_kernel(vgrid: Quadrature, n_edges: int) -> ScatteringKernel:
    """Kernel tables with sum_k w_k v_k ell(v_k, v') = v' on the quadrature,
    so vertex scattering preserves the velocity-weighted flux exactly."""
    v, w = vgrid.nodes, vgrid.weights
    mat = np.outer(v, v) / float(np.dot(w, v * v))
    return ScatteringKernel(tuple(mat.copy() for _ in range(n_edges)))


def _build_kernel(section, graph: MetricGraph, vgrid: Quadrature) -> ScatteringKernel:
    if section is None:
        return ScatteringKernel.identity()
    mode = section.get("mode", "identity")
    if mode == "identity":
        return ScatteringKernel.identity()
    if mode == "constant":
        c = _as_float(_require(section, "value", "kernel"), "kernel.value")
        return ScatteringKernel.constant(c, graph.n_edges, vgrid.n)
    if mode == "flux_preserving":
        return flux_preserving_kernel(vgrid, graph.n_edges)
    if mode == "table":
        tables = _require(section, "tables", "kernel")
        if len(tables) != graph.n_edges:
            raise ScenarioError("kernel.tables: need one table per edge")
        try:
            return ScatteringKernel(tuple(np.asarray(t, dtype=float) for t in tables))
        except ValueError as exc:
            raise ScenarioError(f"kernel: {exc}") from exc
    raise ScenarioError(f"kernel.mode must be identity|constant|flux_preserving|table, got {mode!r}")


def _build_initial(section, system: TransportSystem) -> StateField:
    if section is None:
        return StateField.zeros(system)
    if isinstance(section, dict):
        section = [section] * system.n_edges
    if len(section) != system.n_edges:
        raise ScenarioError("initial_state: need one entry per edge (or a single shared entry)")
    tables = []
    for j, entry in enumerate(section):
        ctx = f"initial_state[{j}]"
        if "constant" in entry:
            c = _as_float(entry["constant"], ctx)
            # two knots suffice: keeps the solver's event closure minimal
            xs = np.array([0.0, float(system.graph.lengths[j])])
            tables.append((xs, np.full((system.n_nodes, 2), c)))
        elif "table" in entry:
            tbl = entry["table"]
            xs = np.asarray(_require(tbl, "x", ctx), dtype=float)
            vals = np.asarray(_require(tbl, "values", ctx), dtype=float)
            if vals.ndim == 1:
                vals = np.repeat(vals[None, :], system.n_nodes, axis=0)
            if vals.shape != (system.n_nodes, xs.size):
                raise ScenarioError(f"{ctx}: values must be (nodes, len(x))")
            tables.append((xs, vals))
        else:
            raise ScenarioError(f"{ctx}: expected 'constant' or 'table'")
    try:
        return StateField(system, [t[0] for t in tables], [t[1] for t in tables])
    except ValueError as exc:
        raise ScenarioError(f"initial_state: {exc}") from exc


def _build_inputs(section, system: TransportSystem, horizon: float) -> StepSignal | None:
    n_controls = system.graph.n_controls
    if section in (None, []):
        if n_controls == 0:
            return None
        return StepSignal.zero((n_controls, system.n_nodes), max(horizon, 1.0))
    if len(section) != n_controls:
        raise ScenarioError(
            f"inputs: need one entry per control channel ({n_controls}), got {len(section)}"
        )
    span = max(horizon, 1.0)
    all_breaks = [np.array([0.0])]
    channel_tables = []
    for c, entry in enumerate(section):
        ctx = f"inputs[{c}]"
        steps = _require(entry, "steps", ctx)
        times = np.asarray(_require(steps, "times", ctx), dtype=float)
        vals = np.asarray(_require(steps, "values", ctx), dtype=float)
        if times.ndim != 1 or times.size == 0 or times[0] != 0.0 or np.any(np.diff(times) <= 0):
            raise ScenarioError(f"{ctx}: step times must increase strictly from 0")
        if vals.ndim == 1:
            vals = np.repeat(vals[:, None], system.n_nodes, axis=1)
        if vals.shape != (times.size, system.n_nodes):
            raise ScenarioError(f"{ctx}: values must be (len(times), nodes) or a flat list")
        all_breaks.append(times)
        channel_tables.append((times, vals))
    breaks = np.unique(np.concatenate(all_breaks + [np.array([span])]))
    breaks = breaks[breaks <= span]
    if breaks[-1] < span:
        breaks = np.append(breaks, span)
    values = np.zeros((breaks.size - 1, n_controls, system.n_nodes))
    for c, (times, vals) in enumerate(channel_tables):
        idx = np.clip(np.searchsorted(times, breaks[:-1], side="right") - 1, 0, vals.shape[0] - 1)
        values[:, c, :] = vals[idx]
    return StepSignal(breaks, values)


def parse_scenario(path: str | Path) -> Scenario:
    """Load, validate and build a scenario file.

    Hard errors raise :class:`ScenarioError` with the offending location;
    A2/A3 violations are returned as warnings on the scenario.
    """
    path = Path(path)
    if not path.exists():
        raise ScenarioError(f"scenario file not found: {path}")
    text = path.read_bytes()
    try:
        raw = yaml.load(text, Loader=getattr(yaml, "CSafeLoader", yaml.SafeLoader))
    except yaml.MarkedYAMLError as exc:
        mark = exc.problem_mark
        where = f" at line {mark.line + 1}, column {mark.column + 1}" if mark else ""
        raise ScenarioError(f"{path}: YAML syntax error{where}: {exc.problem}") from exc
    if not isinstance(raw, dict):
        raise ScenarioError(f"{path}: scenario must be a mapping")
    version = raw.get("schema_version", SCHEMA_VERSION)
    if version != SCHEMA_VERSION:
        raise ScenarioError(f"unsupported schema_version {version} (expected {SCHEMA_VERSION})")

    graph = _build_graph(_require(raw, "graph", "scenario"))
    vgrid = _build_vgrid(_require(raw, "velocity", "scenario"))
    absorption = _build_absorption(raw.get("absorption"), graph, vgrid.n)
    kernel = _build_kernel(raw.get("kernel"), graph, vgrid)
    space_samples = int(raw.get("space_samples", 129))
    try:
        system = TransportSystem(graph, vgrid, absorption, kernel, space_samples)
    except ValueError as exc:
        raise ScenarioError(str(exc)) from exc

    horizon = _as_float(raw.get("horizon", 1.0), "horizon")
    if horizon < 0:
        raise ScenarioError("horizon must be nonnegative")
    initial = _build_initial(raw.get("initial_state"), system)
    control = _build_inputs(raw.get("inputs"), system, horizon)
    snapshots = np.asarray(raw.get("snapshots", [0.0, horizon]), dtype=float)
    if np.any(snapshots < 0) or np.any(snapshots > horizon + 1e-12):
        raise ScenarioError("snapshot times must lie in [0, horizon]")

    tolerances = {"positivity": 1e-9, "mass_drift": 1e-8}
    tolerances.update(raw.get("tolerances", {}) or {})
    probes = {"count": 16, "p": 2.0}
    probes.update(raw.get("probes", {}) or {})
    p = _as_float(probes["p"], "probes.p")
    if not 1.0 <= p < np.inf:
        raise ScenarioError(f"probes.p: expected a finite p >= 1, got {probes['p']!r}")

    warnings = []
    report = check_assumptions(graph)
    for v in report.a2_failures:
        warnings.append(f"(A2) vertex {v + 1} has no outgoing edge")
    if not report.a3_ok:
        worst = int(np.argmax(np.abs(report.a3_residuals)))
        warnings.append(
            f"(A3) weights at vertex {worst + 1} sum to "
            f"{1.0 + report.a3_residuals[worst]:.12g}, residual "
            f"{report.a3_residuals[worst]:.3g}"
        )

    return Scenario(
        system=system,
        initial=initial,
        control=control,
        horizon=horizon,
        snapshot_times=snapshots,
        seed=int(raw.get("seed", 0)),
        tolerances=tolerances,
        probes=probes,
        expect_mass_conservation=bool(raw.get("expect_mass_conservation", False)),
        name=str(raw.get("name", path.stem)),
        source_hash=hashlib.sha256(text).hexdigest(),
        warnings=warnings,
    )
