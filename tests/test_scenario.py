import sys
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from posflow import (
    Absorption,
    MetricGraph,
    Quadrature,
    ScatteringKernel,
    ScenarioError,
    StateField,
    TransportSystem,
    parse_scenario,
)
from posflow.scenario import _build_absorption, _build_initial

ROOT = Path(__file__).resolve().parents[1]
SCENARIOS = ROOT / "scenarios"
sys.path.insert(0, str(ROOT / "tools"))

from artifacts import MALFORMED  # noqa: E402

MINIMAL = """
schema_version: 1
name: mini
seed: 7
graph:
  vertices: 1
  edges:
    - {{tail: 1, head: 1, length: {length}, weight: {weight}}}
  control_matrix: [[1.0]]
velocity: {{v_min: {v_min}, v_max: 1.5, nodes: 1}}
absorption:
  - {{constant: 0.0}}
kernel: {{mode: identity}}
initial_state:
  - {{constant: 1.0}}
horizon: 1.0
"""


def write(tmp_path, text):
    p = tmp_path / "scenario.yaml"
    p.write_text(text)
    return p


def test_minimal_loop_parses_clean(tmp_path):
    sc = parse_scenario(write(tmp_path, MINIMAL.format(length=1.0, weight=1.0, v_min=0.5)))
    assert sc.warnings == []
    assert sc.system.n_edges == 1
    assert sc.system.vgrid.nodes[0] == 1.0
    assert sc.seed == 7
    assert len(sc.source_hash) == 64


def test_shipped_scenarios_parse(tmp_path):
    for name in ("loop.yaml", "conservation.yaml", "two_cycle.yaml", "blocked.yaml"):
        sc = parse_scenario(SCENARIOS / name)
        assert sc.warnings == []


def test_unnormalized_weights_warn_but_parse(tmp_path):
    sc = parse_scenario(write(tmp_path, MINIMAL.format(length=1.0, weight=0.9, v_min=0.5)))
    assert any("(A3)" in w for w in sc.warnings)


def test_negative_length_names_the_edge(tmp_path):
    with pytest.raises(ScenarioError, match=r"edges\[0\]"):
        parse_scenario(write(tmp_path, MINIMAL.format(length=-1.0, weight=1.0, v_min=0.5)))


def test_nonpositive_vmin_rejected(tmp_path):
    with pytest.raises(ScenarioError, match="v_min"):
        parse_scenario(write(tmp_path, MINIMAL.format(length=1.0, weight=1.0, v_min=0.0)))


def test_vertex_index_out_of_range(tmp_path):
    text = MINIMAL.format(length=1.0, weight=1.0, v_min=0.5).replace("head: 1", "head: 3")
    with pytest.raises(ScenarioError, match="out of range"):
        parse_scenario(write(tmp_path, text))


def test_yaml_syntax_error_is_positioned(tmp_path):
    p = tmp_path / "bad.yaml"
    p.write_text("graph:\n  vertices: [unclosed\n")
    with pytest.raises(ScenarioError, match="line"):
        parse_scenario(p)


def test_missing_file(tmp_path):
    with pytest.raises(ScenarioError, match="not found"):
        parse_scenario(tmp_path / "nope.yaml")


def test_unsupported_schema_version(tmp_path):
    text = MINIMAL.format(length=1.0, weight=1.0, v_min=0.5).replace(
        "schema_version: 1", "schema_version: 99"
    )
    with pytest.raises(ScenarioError, match="schema_version"):
        parse_scenario(write(tmp_path, text))


def test_integral_float_schema_version_parses(tmp_path):
    """1.0 counts as 1, as for every integer field (YAML true is refused:
    the ``schema-bool`` malformed case)."""
    text = MINIMAL.format(length=1.0, weight=1.0, v_min=0.5).replace(
        "schema_version: 1", "schema_version: 1.0"
    )
    assert parse_scenario(write(tmp_path, text)).name == "mini"


@pytest.mark.parametrize("line, want", [("name: null", "scenario"), ("", "scenario"),
                                        ("name: 7", "7"), ("name: two words", "two words")])
def test_null_or_missing_name_is_the_file_stem(tmp_path, line, want):
    text = MINIMAL.format(length=1.0, weight=1.0, v_min=0.5).replace("name: mini", line)
    assert parse_scenario(write(tmp_path, text)).name == want


@pytest.mark.parametrize("name", ["{a: 1}", "[]"])
def test_list_or_mapping_name_is_refused(tmp_path, name):
    text = MINIMAL.format(length=1.0, weight=1.0, v_min=0.5).replace("name: mini", f"name: {name}")
    with pytest.raises(ScenarioError, match="name: expected a string"):
        parse_scenario(write(tmp_path, text))


def test_input_channel_count_checked(tmp_path):
    text = MINIMAL.format(length=1.0, weight=1.0, v_min=0.5) + (
        "inputs:\n"
        "  - steps: {times: [0.0], values: [1.0]}\n"
        "  - steps: {times: [0.0], values: [1.0]}\n"
    )
    with pytest.raises(ScenarioError, match="control channel"):
        parse_scenario(write(tmp_path, text))


def test_control_signal_assembly(tmp_path):
    text = MINIMAL.format(length=1.0, weight=1.0, v_min=0.5) + (
        "inputs:\n"
        "  - steps: {times: [0.0, 0.4], values: [1.0, 2.0]}\n"
    )
    sc = parse_scenario(write(tmp_path, text))
    assert sc.control is not None
    assert sc.control.eval(0.1)[0, 0] == 1.0
    assert sc.control.eval(0.4)[0, 0] == 2.0
    assert sc.control.horizon == sc.horizon


def test_control_breaks_are_the_distinct_step_times_up_to_the_span(tmp_path):
    """Shared, repeated and late step times of two channels: the breaks are
    those of np.unique, cut at max(horizon, 1) with that span included."""
    text = """
schema_version: 1
graph:
  vertices: 2
  edges:
    - {tail: 1, head: 2, length: 1.0, weight: 1.0}
    - {tail: 2, head: 1, length: 1.0, weight: 1.0}
  control_matrix: [[1.0, 0.5], [0.0, 1.0]]
velocity: {v_min: 0.5, v_max: 1.5, nodes: 1}
inputs:
  - steps: {times: [0.0, 0.25, 0.5], values: [1.0, 2.0, 3.0]}
  - steps: {times: [0.0, 0.5, 0.75, 3.0], values: [4.0, 5.0, 6.0, 7.0]}
horizon: 0.5
"""
    sc = parse_scenario(write(tmp_path, text))
    assert sc.control.breaks.tolist() == [0.0, 0.25, 0.5, 0.75, 1.0]
    assert sc.control.values[:, :, 0].tolist() == [[1.0, 4.0], [2.0, 4.0], [3.0, 5.0], [3.0, 6.0]]


def test_initial_table_broadcasts_over_nodes(tmp_path):
    sc = parse_scenario(SCENARIOS / "conservation.yaml")
    f = sc.initial
    assert f.values[0].shape[0] == sc.system.n_nodes
    mid = f.eval(0, 1, np.array([0.5]))[0]
    assert mid == 1.0


TABLES = """
name: tables
graph:
  vertices: 2
  edges:
    - {tail: 1, head: 2, length: 1.0, weight: 1.0}
    - {tail: 2, head: 1, length: 0.8, weight: 1.0}
  control_matrix: [[1.0], [0.0]]
velocity: {v_min: 0.5, v_max: 1.5, nodes: 3, rule: gauss}
absorption:
  - {table: {x: [0.0, 0.4, 1.0], values: [0.1, 0.3]}}
  - {table: {x: [0.0, 0.8], values: [[0.2, 0.0, 0.5]]}}
kernel:
  mode: table
  tables:
"""


def test_table_absorption_table_kernel_and_gauss_rule(tmp_path):
    """Absorption tables (flat and per node), kernel tables and the Gauss
    velocity rule, none of which a shipped scenario uses."""
    rng = np.random.default_rng(3)
    tables = [rng.uniform(0.0, 0.5, (3, 3)) for _ in range(2)]
    rows = "".join(f"    - {t.tolist()}\n" for t in tables)
    sc = parse_scenario(write(tmp_path, TABLES + rows + "horizon: 1.0\n"))
    system = sc.system

    x, w = np.polynomial.legendre.leggauss(3)
    np.testing.assert_allclose(system.vgrid.nodes, 1.0 + 0.5 * x, rtol=1e-15)
    np.testing.assert_allclose(system.vgrid.weights, 0.5 * w, rtol=1e-15)

    q = system.absorption
    # padded once: each row repeats its last break and its last piece
    np.testing.assert_array_equal(q.breaks, [[0.0, 0.4, 1.0, 1.0], [0.0, 0.8, 0.8, 0.8]])
    np.testing.assert_array_equal(q.values, [[[0.1] * 3, [0.3] * 3, [0.3] * 3], [[0.2, 0.0, 0.5]] * 3])

    np.testing.assert_array_equal(system.scatter, np.stack(tables) * system.vgrid.weights)

    with pytest.raises(ScenarioError, match="one table per edge"):
        parse_scenario(write(tmp_path, TABLES + rows.split("\n")[0] + "\nhorizon: 1.0\n"))


@pytest.mark.parametrize("p", ["0.5", "-2", ".nan", ".inf", "two"])
def test_probe_exponent_must_be_finite_and_at_least_one(tmp_path, p):
    text = MINIMAL.format(length=1.0, weight=1.0, v_min=0.5) + f"probes: {{p: {p}}}\n"
    with pytest.raises(ScenarioError, match=r"probes\.p"):
        parse_scenario(write(tmp_path, text))


def test_probe_exponent_one_parses(tmp_path):
    text = MINIMAL.format(length=1.0, weight=1.0, v_min=0.5) + "probes: {p: 1}\n"
    assert parse_scenario(write(tmp_path, text)).probes["p"] == 1


SHARED = """
name: shared
graph:
  vertices: 2
  edges:
    - {{tail: 1, head: 2, length: 1.0, weight: 1.0}}
    - {{tail: 2, head: 1, length: 0.8, weight: 0.5}}
    - {{tail: 2, head: 2, length: 1.3, weight: 0.5}}
  control_matrix: [[1.0], [0.0]]
velocity: {{v_min: 0.5, v_max: 1.5, nodes: 3}}
absorption: {absorption}
initial_state: {initial}
horizon: 1.0
"""


@pytest.mark.parametrize("rate", ["0.3", "-0.0", "[0.1, -0.2, 0.4]", "[0.25]"])
def test_shared_constant_matches_per_edge_entries(tmp_path, rate):
    """A shared {constant: c} builds the padded tables of three per-edge
    {constant: c} entries, bit for bit."""
    shared = parse_scenario(write(tmp_path, SHARED.format(
        absorption=f"{{constant: {rate}}}", initial="{constant: -0.0}")))
    per_edge = parse_scenario(write(tmp_path, SHARED.format(
        absorption=f"[{', '.join([f'{{constant: {rate}}}'] * 3)}]",
        initial="[{constant: -0.0}, {constant: -0.0}, {constant: -0.0}]")))
    assert_same_fields(shared.system.absorption, per_edge.system.absorption,
                       shared.initial, per_edge.initial)


@pytest.mark.parametrize("absorption, edge", [
    ("{constant: [0.1, 0.2]}", 0),
    ("[{constant: 0.0}, {constant: 0.0}, {constant: [0.1, 0.2]}]", 2),
])
def test_constant_absorption_must_fit_the_velocity_nodes(tmp_path, absorption, edge):
    """A scenario error naming the entry, not a numpy broadcast traceback."""
    text = SHARED.format(absorption=absorption, initial="{constant: 1.0}")
    with pytest.raises(ScenarioError,
                       match=rf"absorption\[{edge}\]\.constant: expected one value or one per velocity node"):
        parse_scenario(write(tmp_path, text))


def loop_system(lengths, n_nodes: int) -> TransportSystem:
    """One vertex with a loop per edge length and ``n_nodes`` velocity nodes."""
    m = len(lengths)
    graph = MetricGraph(1, [0] * m, [0] * m, lengths, [1.0 / m] * m)
    vgrid = Quadrature.midpoint(0.5, 1.5, n_nodes)
    return TransportSystem(graph, vgrid, Absorption.zero(graph.lengths, n_nodes),
                           ScatteringKernel.identity(), 5)


@st.composite
def edge_entry(draw, length: float, n_nodes: int, on_pieces: bool):
    """One per-edge entry and the (knots, values) tables it stands for:
    a constant, scalar or per node, or a table, flat or per node, whose
    values lie on pieces, (pieces, nodes), or on knots, (nodes, knots)."""
    number = st.one_of(st.just(-0.0), st.floats(-2.0, 2.0))
    per_node = draw(st.booleans())
    if draw(st.booleans()):
        c = draw(st.lists(number, min_size=n_nodes, max_size=n_nodes)) if per_node else draw(number)
        c = np.broadcast_to(np.asarray(c, dtype=float), (n_nodes,))
        values = c[None, :] if on_pieces else np.column_stack([c, c])
        return {"constant": c.tolist() if per_node else float(c[0])}, np.array([0.0, length]), values
    tenths = sorted(draw(st.sets(st.integers(1, 9), max_size=3)))
    x = np.array([0.0] + [length * i / 10 for i in tenths] + [length])
    n = x.size - 1 if on_pieces else x.size
    if per_node:
        shape = (n, n_nodes) if on_pieces else (n_nodes, n)
        values = np.array(draw(st.lists(number, min_size=shape[0] * shape[1],
                                        max_size=shape[0] * shape[1]))).reshape(shape)
        flat = values.tolist()
    else:
        flat = draw(st.lists(number, min_size=n, max_size=n))
        values = np.array([flat] * n_nodes)
        values = values.T.copy() if on_pieces else values
    return {"table": {"x": x.tolist(), "values": flat}}, x, values


@st.composite
def per_edge_sections(draw):
    """Random M, K and edge lengths, with one absorption and one initial
    state entry per edge."""
    m, k = draw(st.integers(1, 5)), draw(st.integers(1, 4))
    lengths = draw(st.lists(st.floats(0.25, 2.0), min_size=m, max_size=m))
    absorption = [draw(edge_entry(l, k, True)) for l in lengths]
    initial = [draw(edge_entry(l, k, False)) for l in lengths]
    return loop_system(lengths, k), absorption, initial


@st.composite
def shared_sections(draw):
    """One absorption and one initial state entry shared by M edges: on
    edges of one length if either is a table."""
    m, k = draw(st.integers(1, 5)), draw(st.integers(1, 4))
    length = draw(st.floats(0.25, 2.0))
    absorption, initial = draw(edge_entry(length, k, True)), draw(edge_entry(length, k, False))
    if "table" in absorption[0] or "table" in initial[0]:
        lengths = [length] * m
    else:
        lengths = draw(st.lists(st.floats(0.25, 2.0), min_size=m, max_size=m))
    return loop_system(lengths, k), absorption[0], initial[0]


def assert_same_tables(pairs):
    """Equal shapes, values and signs of zero."""
    for got, want in pairs:
        assert got.shape == want.shape and np.array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))


def assert_same_fields(q, want_q, f, want_f):
    assert_same_tables([(q.breaks, want_q.breaks), (q.values, want_q.values), *zip(q._table, want_q._table),
                        *zip(f._grid, want_f._grid), *zip(f._table, want_f._table)])


@settings(max_examples=60, deadline=None)
@given(per_edge_sections())
def test_per_edge_lists_parse_to_the_tables_they_stand_for(case):
    """Each entry of a per-edge list, a constant (scalar or per node) or a
    table (flat or per node), builds the Absorption and StateField tables
    of its numbers, bit for bit."""
    system, absorption, initial = case
    (q_entries, breaks, rates), (f_entries, xs, samples) = zip(*absorption), zip(*initial)
    assert_same_fields(_build_absorption(list(q_entries), system.graph, system.n_nodes),
                       Absorption(breaks, rates),
                       _build_initial(list(f_entries), system), StateField(system, xs, samples))


@settings(max_examples=60, deadline=None)
@given(shared_sections())
def test_shared_entry_matches_a_list_of_copies(case):
    """A shared entry, constant or table, builds the tables of a list of M
    copies of it, bit for bit."""
    system, absorption, initial = case
    m = system.n_edges
    assert_same_fields(_build_absorption(absorption, system.graph, system.n_nodes),
                       _build_absorption([absorption] * m, system.graph, system.n_nodes),
                       _build_initial(initial, system), _build_initial([initial] * m, system))


# where each malformed variant of tools/artifacts.py is refused
MALFORMED_AT = {
    "absorption-floats": r"absorption\[0\]: expected a mapping",
    "initial-floats": r"initial_state\[0\]: expected a mapping",
    "inputs-mapping": r"inputs: expected a list",
    "inputs-number": r"inputs\[0\]: expected a mapping",
    "edges-numbers": r"graph\.edges\[0\]: expected a mapping",
    "kernel-list": r"kernel: expected a mapping",
    "kernel-tables-number": r"kernel\.tables: expected a list",
    "snapshots-nested": r"snapshots: expected a flat list",
    "conservation-string": r"expect_mass_conservation: expected true or false",
    "kernel-negative": r"kernel\.value: kernel constant must be nonnegative",
    "tolerance-negative": r"tolerances\.positivity: expected a nonnegative tolerance",
    "schema-string": r"unsupported schema_version '1' \(expected 1\)",
    "schema-bool": r"unsupported schema_version True \(expected 1\)",
    "name-list": r"name: expected a string, got \[1, 2\]",
}


def two_cycle_with(tmp_path, key, value):
    """scenarios/two_cycle.yaml with one top-level key replaced."""
    doc = yaml.safe_load((SCENARIOS / "two_cycle.yaml").read_text())
    doc[key] = value
    return write(tmp_path, yaml.safe_dump(doc))


@pytest.mark.parametrize("name", sorted(MALFORMED))
def test_malformed_shape_names_its_location(tmp_path, name):
    """A section or entry of the wrong shape is a scenario error at its
    location, not a TypeError or AttributeError from inside the parser; a
    nested snapshot list does not reach the solver, and the string 'no' is
    not read as True."""
    assert set(MALFORMED_AT) == set(MALFORMED)
    with pytest.raises(ScenarioError, match=MALFORMED_AT[name]):
        parse_scenario(two_cycle_with(tmp_path, *MALFORMED[name]))


@pytest.mark.parametrize("value", ["true", 1, None])
def test_expect_mass_conservation_must_be_a_boolean(tmp_path, value):
    with pytest.raises(ScenarioError, match="expect_mass_conservation: expected true or false"):
        parse_scenario(two_cycle_with(tmp_path, "expect_mass_conservation", value))
    assert parse_scenario(two_cycle_with(tmp_path, "expect_mass_conservation", False)) \
        .expect_mass_conservation is False
