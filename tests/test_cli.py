import json
from pathlib import Path

import numpy as np
import pytest
import yaml

from posflow.cli import main
from posflow.scenario import parse_scenario
from posflow.transport import transfer_operator

SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"


def run(args):
    return main([str(a) for a in args])


def load_report(outdir: Path) -> dict:
    return json.loads((outdir / "report.json").read_text())


class TestSimulate:
    def test_loop_mass_constant(self, tmp_path):
        out = tmp_path / "out"
        code = run(["simulate", "--scenario", SCENARIOS / "loop.yaml", "--out", out])
        assert code == 0
        report = load_report(out)
        masses = report["metrics"]["mass_by_time"]
        assert max(abs(m - masses[0]) for m in masses) <= 1e-8 * abs(masses[0])
        assert all(g["passed"] for g in report["gates"])

    def test_snapshot_csv_schema(self, tmp_path):
        out = tmp_path / "out"
        run(["simulate", "--scenario", SCENARIOS / "loop.yaml", "--out", out])
        lines = (out / "snapshots.csv").read_text().splitlines()
        assert lines[0] == "# schema=posflow.snapshots.v1"
        assert lines[1] == "time,edge,x,v,value"
        first = lines[2].split(",")
        assert len(first) == 5
        traces = (out / "traces.csv").read_text().splitlines()
        assert traces[0] == "# schema=posflow.traces.v1"
        assert traces[1] == "time,vertex,v,value"

    def test_conservation_scenario_gate(self, tmp_path):
        out = tmp_path / "out"
        code = run(["simulate", "--scenario", SCENARIOS / "conservation.yaml", "--out", out])
        assert code == 0
        report = load_report(out)
        gate = {g["name"]: g for g in report["gates"]}
        assert gate["mass_drift"]["passed"]
        assert gate["mass_drift"]["value"] < 1e-8


class TestCheck:
    def test_loop_passes(self, tmp_path):
        out = tmp_path / "out"
        code = run(["check", "--scenario", SCENARIOS / "loop.yaml", "--out", out])
        assert code == 0
        report = load_report(out)
        names = {g["name"] for g in report["gates"]}
        assert {"assumption_a2", "assumption_a3", "characteristic"} <= names

    def test_characteristic_gate_fails_on_blocked_scenario(self, tmp_path):
        out = tmp_path / "out"
        code = run([
            "check", "--scenario", SCENARIOS / "blocked.yaml", "--out", out,
            "--mu-grid", "1.0:4.0:6",
        ])
        assert code == 1
        report = load_report(out)
        gate = {g["name"]: g for g in report["gates"]}
        assert not gate["characteristic"]["passed"]
        assert gate["characteristic"]["value"] >= 1.0

    def test_blocked_scenario_recovers_at_large_mu(self, tmp_path):
        out = tmp_path / "out"
        code = run([
            "check", "--scenario", SCENARIOS / "blocked.yaml", "--out", out,
            "--mu-grid", "1.0:10.0:10",
        ])
        assert code == 0


class TestAdmissibility:
    def test_loop_reports(self, tmp_path):
        out = tmp_path / "out"
        code = run(["admissibility", "--scenario", SCENARIOS / "loop.yaml", "--out", out])
        assert code == 0
        report = load_report(out)
        kappa = report["metrics"]["kappa"]
        assert not kappa["degenerate"]
        fit = report["metrics"]["zero_class"]["fit"]
        assert 0.4 <= fit["exponent"] <= 0.6

    def test_p1_skips_zero_class(self, tmp_path):
        out = tmp_path / "out"
        code = run([
            "admissibility", "--scenario", SCENARIOS / "loop.yaml", "--out", out,
            "--p", "1.0",
        ])
        assert code == 0
        report = load_report(out)
        assert "skipped" in report["metrics"]["zero_class"]


class TestSpectrum:
    def test_sweep_csv(self, tmp_path):
        out = tmp_path / "out"
        code = run([
            "spectrum", "--scenario", SCENARIOS / "loop.yaml", "--out", out,
            "--mu-grid", "1.0:4.0:7",
        ])
        assert code == 0
        lines = (out / "spectrum.csv").read_text().splitlines()
        assert lines[0] == "# schema=posflow.spectrum.v1"
        assert lines[1] == "mu,spectral_radius,max_entry"
        mus = [float(l.split(",")[0]) for l in lines[2:]]
        radii = [float(l.split(",")[1]) for l in lines[2:]]
        assert len(mus) == 7
        # loop with identity kernel: radius e^{-mu}
        assert all(abs(r - np.exp(-m)) < 1e-12 for m, r in zip(mus, radii))


def ladder_yaml(path: Path, n: int, nodes: int, rng, cycle: bool = False) -> Path:
    """A Kirchhoff network with two out-edges per vertex to random heads, or
    with both out-edges to the next vertex of one long directed cycle."""
    edges = [
        {"tail": i + 1, "head": (i + 1) % n + 1 if cycle else int(h) + 1,
         "length": float(l), "weight": 0.5}
        for i in range(n)
        for h, l in zip(rng.integers(0, n, 2), rng.uniform(0.5, 1.5, 2))
    ]
    doc = {
        "graph": {"vertices": n, "edges": edges},
        "velocity": {"v_min": 0.5, "v_max": 1.5, "nodes": nodes, "rule": "midpoint"},
        "kernel": {"mode": "flux_preserving"},
        "space_samples": 9,
    }
    path.write_text(yaml.safe_dump(doc))
    return path


class TestLargeBoundarySpace:
    @pytest.mark.parametrize("cycle", [False, True])
    def test_check_and_spectrum_beyond_512(self, tmp_path, rng, cycle):
        scenario = ladder_yaml(tmp_path / "ladder.yaml", 130, 4, rng, cycle)
        system = parse_scenario(scenario).system
        assert system.n_vertices * system.n_nodes > 512  # the dense path once refused
        for cmd, key in (("check", "transfer_radii"), ("spectrum", "radii")):
            out = tmp_path / cmd
            code = run([cmd, "--scenario", scenario, "--out", out, "--mu-grid", "0.5:4.0:3"])
            assert code == 0
            metrics = load_report(out)["metrics"]
            for mu, r in zip(metrics["mu_grid"], metrics[key]):
                H = transfer_operator(system, mu).matrix
                exact = float(np.max(np.abs(np.linalg.eigvals(H))))
                assert abs(r - exact) <= 1e-12 * exact


class TestOracle:
    def test_battery_passes(self, tmp_path):
        out = tmp_path / "out"
        code = run(["oracle", "--scenario", SCENARIOS / "loop.yaml", "--out", out])
        assert code == 0
        report = load_report(out)
        assert all(g["passed"] for g in report["gates"])

    def test_seeded_determinism(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        run(["oracle", "--scenario", SCENARIOS / "loop.yaml", "--out", a, "--seed", "5"])
        run(["oracle", "--scenario", SCENARIOS / "loop.yaml", "--out", b, "--seed", "5"])
        assert (a / "report.json").read_bytes() == (b / "report.json").read_bytes()


def test_unknown_command_rejected():
    with pytest.raises(SystemExit):
        run(["frobnicate", "--scenario", SCENARIOS / "loop.yaml"])


def test_scenario_error_exit_code(tmp_path):
    bad = tmp_path / "bad.yaml"
    bad.write_text("graph: {vertices: 1, edges: []}\nvelocity: {v_min: 1, v_max: 2}\n")
    assert run(["check", "--scenario", bad, "--out", tmp_path / "o"]) == 2
