from pathlib import Path

import numpy as np
import pytest

from posflow import ScenarioError, parse_scenario

SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"

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
    np.testing.assert_array_equal(q.breaks[0], [0.0, 0.4, 1.0])
    np.testing.assert_array_equal(q.values[0], [[0.1] * 3, [0.3] * 3])
    np.testing.assert_array_equal(q.breaks[1], [0.0, 0.8])
    np.testing.assert_array_equal(q.values[1], [[0.2, 0.0, 0.5]])

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
