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

from .graph import AssumptionReport, MetricGraph, check_assumptions
from .lattice import Quadrature
from .signals import StepSignal, distinct_sorted, piece_index
from .transport import Absorption, ScatteringKernel, StateField, TransportSystem

SCHEMA_VERSION = 1


class ScenarioError(ValueError):
    """Malformed scenario file (syntax or semantic), annotated with context."""


def _mapping(value, ctx: str) -> dict:
    """``value`` itself if it is a mapping; any other shape is refused."""
    if not isinstance(value, dict):
        raise ScenarioError(f"{ctx}: expected a mapping, got {value!r}")
    return value


def _list(value, ctx: str) -> list:
    """``value`` itself if it is a list; any other shape is refused."""
    if not isinstance(value, list):
        raise ScenarioError(f"{ctx}: expected a list, got {value!r}")
    return value


def _require(mapping, key: str, ctx: str):
    """``mapping[key]`` of the mapping at ``ctx``."""
    if key not in _mapping(mapping, ctx):
        raise ScenarioError(f"{ctx}: missing required key '{key}'")
    return mapping[key]


def _as_float(value, ctx: str) -> float:
    """A finite float; non-numbers, NaN and infinities are refused."""
    try:
        number = float(value)
    except (TypeError, ValueError):
        number = np.nan
    if not np.isfinite(number):
        raise ScenarioError(f"{ctx}: expected a finite number, got {value!r}")
    return number


def _as_array(value, ctx: str) -> np.ndarray:
    """A float array of finite entries; non-numbers, nulls (which numpy
    reads as NaN), NaN, infinities and ragged lists are refused."""
    try:
        array = np.asarray(value, dtype=float)
    except (TypeError, ValueError):
        array = None
    if array is None or not np.isfinite(array).all():
        raise ScenarioError(f"{ctx}: expected an array of finite numbers, got {value!r}")
    return array


def _as_int(value, ctx: str) -> int:
    """An integer, or a float with an integral value; strings, booleans and
    fractional values are refused."""
    integral = isinstance(value, int) or (isinstance(value, float) and value.is_integer())
    if isinstance(value, bool) or not integral:
        raise ScenarioError(f"{ctx}: expected an integer, got {value!r}")
    return int(value)


def _settings(raw: dict, key: str, defaults: dict) -> dict:
    """The keys of ``defaults`` read from the mapping ``raw[key]``, with the
    default value where it has none; a missing or null section is empty."""
    given = _mapping({} if raw.get(key) is None else raw[key], key)
    return {name: given.get(name, value) for name, value in defaults.items()}


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
    assumptions: AssumptionReport
    warnings: list[str] = field(default_factory=list)


def _build_graph(section: dict) -> MetricGraph:
    n = _as_int(_require(section, "vertices", "graph"), "graph.vertices")
    edges = _require(section, "edges", "graph")
    if not isinstance(edges, list) or not edges:
        raise ScenarioError("graph.edges: need a nonempty list")
    tails, heads, lengths, weights = [], [], [], []
    for idx, e in enumerate(edges):
        ctx = f"graph.edges[{idx}]"
        tail = _as_int(_require(e, "tail", ctx), ctx + ".tail")
        head = _as_int(_require(e, "head", ctx), ctx + ".head")
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
    control = None if control is None else _as_array(control, "graph.control_matrix")
    try:
        return MetricGraph(n, tails, heads, lengths, weights, control)
    except ValueError as exc:
        raise ScenarioError(f"graph: {exc}") from exc


def _build_vgrid(section: dict) -> Quadrature:
    v_min = _as_float(_require(section, "v_min", "velocity"), "velocity.v_min")
    v_max = _as_float(_require(section, "v_max", "velocity"), "velocity.v_max")
    nodes = _as_int(section.get("nodes", 4), "velocity.nodes")
    rule = section.get("rule", "midpoint")
    if v_min <= 0:
        raise ScenarioError(f"velocity.v_min must be positive, got {v_min}")
    if v_max < v_min:
        raise ScenarioError("velocity.v_max must be >= v_min")
    if v_max == v_min:
        raise ScenarioError("velocity interval must have positive length (use a window around the target speed)")
    try:
        if rule == "midpoint":
            return Quadrature.midpoint(v_min, v_max, nodes)
        if rule == "gauss":
            return Quadrature.gauss_legendre(v_min, v_max, nodes)
    except ValueError as exc:
        raise ScenarioError(f"velocity: {exc}") from exc
    raise ScenarioError(f"velocity.rule must be 'midpoint' or 'gauss', got {rule!r}")


def _node_table(values, ctx: str, n_nodes: int, node_axis: int) -> np.ndarray:
    """A table of values with one row (``node_axis`` 0) or column (1) per
    velocity node; a flat list is read at every node."""
    table = _as_array(values, ctx)
    if table.ndim == 1:
        table = np.repeat(np.expand_dims(table, node_axis), n_nodes, axis=node_axis)
    return table


def _edge_tables(section, ctx: str, lengths: np.ndarray, n_nodes: int, node_axis: int):
    """The knot rows and value tables of a per-edge section: one entry shared
    by every edge, or a list of one entry per edge.  ``{constant: c}`` is one
    value, or one per velocity node, on the knots 0 and l_j (two knots keep
    the solver's event closure minimal); ``{table: {x, values}}`` reads
    ``values`` by :func:`_node_table`.  Values on pieces have their nodes on
    axis 1, (pieces, nodes), and values on knots on axis 0, (nodes, knots).
    A shared entry is read once."""
    shared, n_edges = isinstance(section, dict), lengths.size
    entries = [section] if shared else _list(section, ctx)
    if len(entries) != (1 if shared else n_edges):
        raise ScenarioError(f"{ctx}: need one entry per edge (or a single shared entry)")
    knots, tables = [], []
    for j, entry in enumerate(entries):
        at = f"{ctx}[{j}]"
        if "constant" in _mapping(entry, at):
            value = _as_array(entry["constant"], at + ".constant")
            try:
                value = np.broadcast_to(value, (n_nodes,))
            except ValueError:
                raise ScenarioError(f"{at}.constant: expected one value or one per velocity node, "
                                    f"got {entry['constant']!r}") from None
            knots.append(None)
            tables.append(value[None, :] if node_axis else np.column_stack([value, value]))
        elif "table" in entry:
            tbl = entry["table"]
            knots.append(_as_array(_require(tbl, "x", at + ".table"), at + ".table.x"))
            tables.append(_node_table(_require(tbl, "values", at + ".table"), at + ".table.values",
                                      n_nodes, node_axis))
        else:
            raise ScenarioError(f"{at}: expected 'constant' or 'table'")
    if shared:
        knots, tables = knots * n_edges, tables * n_edges
    return [np.array([0.0, l]) if x is None else x for x, l in zip(knots, lengths.tolist())], tables


def _build_absorption(section, graph: MetricGraph, n_nodes: int) -> Absorption:
    if section is None:
        return Absorption.zero(graph.lengths, n_nodes)
    breaks, values = _edge_tables(section, "absorption", graph.lengths, n_nodes, 1)
    try:
        return Absorption(breaks, values)
    except ValueError as exc:
        raise ScenarioError(f"absorption: {exc}") from exc


def flux_preserving_kernel(vgrid: Quadrature, n_edges: int) -> ScatteringKernel:
    """Kernel tables with sum_k w_k v_k ell(v_k, v') = v' on the quadrature,
    so vertex scattering preserves the velocity-weighted flux exactly."""
    v, w = vgrid.nodes, vgrid.weights
    mat = np.outer(v, v) / float(np.dot(w, v * v))
    return ScatteringKernel(np.broadcast_to(mat, (n_edges,) + mat.shape))


def _build_kernel(section, graph: MetricGraph, vgrid: Quadrature) -> ScatteringKernel:
    if section is None:
        return ScatteringKernel.identity()
    mode = _mapping(section, "kernel").get("mode", "identity")
    if mode == "identity":
        return ScatteringKernel.identity()
    if mode == "constant":
        c = _as_float(_require(section, "value", "kernel"), "kernel.value")
        try:
            return ScatteringKernel.constant(c, graph.n_edges, vgrid.n)
        except ValueError as exc:
            raise ScenarioError(f"kernel.value: {exc}") from exc
    if mode == "flux_preserving":
        return flux_preserving_kernel(vgrid, graph.n_edges)
    if mode == "table":
        tables = _list(_require(section, "tables", "kernel"), "kernel.tables")
        if len(tables) != graph.n_edges:
            raise ScenarioError("kernel.tables: need one table per edge")
        tables = tuple(_as_array(t, f"kernel.tables[{j}]") for j, t in enumerate(tables))
        try:
            return ScatteringKernel(tables)
        except ValueError as exc:
            raise ScenarioError(f"kernel: {exc}") from exc
    raise ScenarioError(f"kernel.mode must be identity|constant|flux_preserving|table, got {mode!r}")


def _build_initial(section, system: TransportSystem) -> StateField:
    if section is None:
        return StateField.zeros(system)
    xs, values = _edge_tables(section, "initial_state", system.graph.lengths, system.n_nodes, 0)
    try:
        return StateField(system, xs, values)
    except ValueError as exc:
        raise ScenarioError(f"initial_state: {exc}") from exc


def _build_inputs(section, system: TransportSystem, horizon: float) -> StepSignal | None:
    n_controls = system.graph.n_controls
    if section in (None, []):
        if n_controls == 0:
            return None
        return StepSignal.zero((n_controls, system.n_nodes), max(horizon, 1.0))
    if len(_list(section, "inputs")) != n_controls:
        raise ScenarioError(
            f"inputs: need one entry per control channel ({n_controls}), got {len(section)}"
        )
    span = max(horizon, 1.0)
    all_breaks = [np.array([0.0])]
    channel_tables = []
    for c, entry in enumerate(section):
        ctx = f"inputs[{c}]"
        steps = _require(entry, "steps", ctx)
        times = _as_array(_require(steps, "times", ctx + ".steps"), ctx + ".steps.times")
        vals = _node_table(_require(steps, "values", ctx + ".steps"), ctx + ".steps.values",
                           system.n_nodes, 1)
        if times.ndim != 1 or times.size == 0 or times[0] != 0.0 or np.any(np.diff(times) <= 0):
            raise ScenarioError(f"{ctx}: step times must increase strictly from 0")
        if vals.shape != (times.size, system.n_nodes):
            raise ScenarioError(f"{ctx}: values must be (len(times), nodes) or a flat list")
        all_breaks.append(times)
        channel_tables.append((times, vals))
    breaks = distinct_sorted(np.concatenate(all_breaks + [np.array([span])]))
    breaks = breaks[breaks <= span]
    values = np.zeros((breaks.size - 1, n_controls, system.n_nodes))
    for c, (times, vals) in enumerate(channel_tables):
        values[:, c, :] = vals[piece_index(times, breaks[:-1], "right", vals.shape[0] - 1)]
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
    if isinstance(version, bool) or version != SCHEMA_VERSION:  # YAML true == 1 in Python
        raise ScenarioError(f"unsupported schema_version {version!r} (expected {SCHEMA_VERSION})")
    name = raw.get("name")
    if isinstance(name, (list, dict)):
        raise ScenarioError(f"name: expected a string, got {name!r}")

    graph = _build_graph(_require(raw, "graph", "scenario"))
    vgrid = _build_vgrid(_require(raw, "velocity", "scenario"))
    absorption = _build_absorption(raw.get("absorption"), graph, vgrid.n)
    kernel = _build_kernel(raw.get("kernel"), graph, vgrid)
    space_samples = _as_int(raw.get("space_samples", 129), "space_samples")
    try:
        system = TransportSystem(graph, vgrid, absorption, kernel, space_samples)
    except ValueError as exc:
        raise ScenarioError(str(exc)) from exc

    horizon = _as_float(raw.get("horizon", 1.0), "horizon")
    if horizon < 0:
        raise ScenarioError("horizon must be nonnegative")
    initial = _build_initial(raw.get("initial_state"), system)
    control = _build_inputs(raw.get("inputs"), system, horizon)
    snapshots = _as_array(raw.get("snapshots", [0.0, horizon]), "snapshots")
    if snapshots.ndim != 1:
        raise ScenarioError(f"snapshots: expected a flat list of times, got {raw['snapshots']!r}")
    if np.any(snapshots < 0) or np.any(snapshots > horizon + 1e-12):
        raise ScenarioError("snapshot times must lie in [0, horizon]")

    given = _settings(raw, "tolerances", {"positivity": 1e-9, "mass_drift": 1e-8})
    tolerances = {key: _as_float(value, f"tolerances.{key}") for key, value in given.items()}
    for key, value in tolerances.items():
        if value < 0:
            raise ScenarioError(f"tolerances.{key}: expected a nonnegative tolerance, got {value}")
    given = _settings(raw, "probes", {"count": 16, "p": 2.0})
    probes = {"count": _as_int(given["count"], "probes.count"),
              "p": _as_float(given["p"], "probes.p")}
    if probes["count"] < 1:
        raise ScenarioError(f"probes.count: expected at least one probe, got {given['count']!r}")
    if probes["p"] < 1.0:
        raise ScenarioError(f"probes.p: expected a finite p >= 1, got {given['p']!r}")
    seed = _as_int(raw.get("seed", 0), "seed")
    if seed < 0:
        raise ScenarioError(f"seed: expected a nonnegative integer, got {seed}")
    conserve = raw.get("expect_mass_conservation", False)
    if not isinstance(conserve, bool):
        raise ScenarioError(f"expect_mass_conservation: expected true or false, got {conserve!r}")

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
        seed=seed,
        tolerances=tolerances,
        probes=probes,
        expect_mass_conservation=conserve,
        name=path.stem if name is None else str(name),
        source_hash=hashlib.sha256(text).hexdigest(),
        assumptions=report,
        warnings=warnings,
    )
