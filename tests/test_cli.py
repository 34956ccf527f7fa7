import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml

from posflow.cli import (
    SNAPSHOT_HEADER,
    SPECTRUM_HEADER,
    TRACE_HEADER,
    _write_block,
    main,
)
from posflow.scenario import parse_scenario
from posflow.solver import ClosedLoopSolution, closed_loop_solve
from posflow.transport import StateField, transfer_operator, transfer_radius
from conftest import ladder_yaml, make_loop

ROOT = Path(__file__).resolve().parents[1]
SCENARIOS = ROOT / "scenarios"
sys.path.insert(0, str(ROOT / "tools"))

from artifacts import SIGNED, compare  # noqa: E402


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

    def test_one_masses_call_then_one_grid_read_per_snapshot(self, tmp_path, monkeypatch):
        scenario = SCENARIOS / "conservation.yaml"
        times = parse_scenario(scenario).snapshot_times.tolist()
        calls = []
        masses, samples = ClosedLoopSolution.masses, ClosedLoopSolution.samples

        def counted_masses(self, times):
            calls.append(("masses", list(times)))
            return masses(self, times)

        def counted_samples(self, t):
            calls.append(("samples", t))
            return samples(self, t)

        monkeypatch.setattr(ClosedLoopSolution, "masses", counted_masses)
        monkeypatch.setattr(ClosedLoopSolution, "samples", counted_samples)
        assert run(["simulate", "--scenario", scenario, "--out", tmp_path / "out"]) == 0
        assert calls == [("masses", times)] + [("samples", t) for t in times]

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

    @pytest.mark.parametrize("inflow, drift", [("1.0", 1.0), ("0.0", 0.0)])
    def test_mass_drift_from_zero_initial_mass(self, tmp_path, inflow, drift):
        """With no initial mass the drift is relative to the largest mass, and
        0 when every mass is 0, not a division by a 1e-30 floor."""
        doc = (SCENARIOS / "loop.yaml").read_text()
        doc = doc.replace("- {constant: 1.0}", "- {constant: 0.0}").replace(
            "values: [0.0]}", f"values: [{inflow}]}}")
        scenario, out = tmp_path / "zero.yaml", tmp_path / "out"
        scenario.write_text(doc)
        run(["simulate", "--scenario", scenario, "--out", out])
        metrics = load_report(out)["metrics"]
        assert metrics["mass_by_time"][0] == 0.0
        assert max(metrics["mass_by_time"]) > 0.0 if drift else not any(metrics["mass_by_time"])
        assert metrics["mass_drift"] == drift


def _fmt(x) -> str:
    return format(float(x), ".17g")


def reference_csvs(scenario: Path, signed: bool = False) -> dict[str, str]:
    """snapshots.csv, traces.csv and spectrum.csv as written by the reference
    per-row loops: one ``format(float(x), ".17g")`` per cell.  The radius
    column comes from ``transfer_radius``; its accuracy against the dense
    eigenvalues is pinned in tests/test_transport.py::TestTransferRadius."""
    sc = parse_scenario(scenario)
    sol = closed_loop_solve(sc.system, sc.initial, sc.control, sc.horizon, positive=not signed)
    rows = [SNAPSHOT_HEADER]
    for t in sc.snapshot_times:
        fld = sol.snapshot(float(t))
        for j in range(sc.system.n_edges):
            for k, v in enumerate(sc.system.vgrid.nodes):
                for x, val in zip(fld.xs[j], fld.values[j][k]):
                    rows.append(f"{_fmt(t)},{j + 1},{_fmt(x)},{_fmt(v)},{_fmt(val)}\n")
    snapshots = "".join(rows)
    rows = [TRACE_HEADER]
    led = sol.ledger
    for s, t in enumerate(led.times):
        for i in range(sc.system.n_vertices):
            for k, v in enumerate(sc.system.vgrid.nodes):
                rows.append(f"{_fmt(t)},{i + 1},{_fmt(v)},{_fmt(led.values[s, i, k])}\n")
    traces = "".join(rows)
    rows = [SPECTRUM_HEADER]
    q_sup = sc.system.q_sup
    for mu in np.linspace(q_sup + 0.5, q_sup + 8.0, 31):
        H = transfer_operator(sc.system, float(mu))
        r = transfer_radius(sc.system, float(mu))
        rows.append(f"{_fmt(mu)},{_fmt(r)},{_fmt(np.max(np.abs(H)))}\n")
    return {"snapshots.csv": snapshots, "traces.csv": traces, "spectrum.csv": "".join(rows)}


def signed_yaml(path: Path) -> Path:
    """The signed-extremes scenario of tools/artifacts.py: a signed two-cycle
    whose data reach -0.0, +-1e300 and 1e-300, with a step input whose
    breaks put jump pairs into the trace ledger."""
    path.write_text(yaml.safe_dump(SIGNED))
    return path


class TestCsvBytes:
    """The block writers match the per-row reference byte for byte."""

    def assert_matches_reference(self, scenario: Path, out: Path, signed: bool) -> dict:
        flags = ["--signed"] if signed else []
        run(["simulate", "--scenario", scenario, "--out", out, *flags])
        run(["spectrum", "--scenario", scenario, "--out", out])
        want = reference_csvs(scenario, signed)
        for name, text in want.items():
            assert (out / name).read_bytes() == text.encode(), name
        return want

    @pytest.mark.parametrize("name", ["loop", "conservation", "two_cycle", "blocked"])
    def test_shipped_scenarios(self, tmp_path, name):
        self.assert_matches_reference(SCENARIOS / f"{name}.yaml", tmp_path / "out", False)

    def test_signed_extremes_and_jump_pairs(self, tmp_path):
        want = self.assert_matches_reference(
            signed_yaml(tmp_path / "signed.yaml"), tmp_path / "out", True
        )
        cells = {
            line.rsplit(",", 1)[1]
            for name in ("snapshots.csv", "traces.csv")
            for line in want[name].splitlines()[2:]
        }
        assert "-0" in cells
        assert any(c.startswith("-") and c != "-0" for c in cells)
        assert any(c.endswith("e+300") for c in cells)
        assert any(c.endswith("e-300") for c in cells)
        stamps = [line.split(",", 1)[0] for line in want["traces.csv"].splitlines()[2:]]
        times = stamps[:: 2 * 3]  # one row per (vertex, velocity node) per stamp
        assert len(times) > len(set(times))  # jump pairs: left limit, then right limit


def write_block(values, t_cells, rows_per_group) -> str:
    """_write_block's text for groups of rows "t,r,value" on a StringIO."""
    out = io.StringIO()
    heads = np.array([f",{r}," for r in range(rows_per_group)], dtype=object)
    _write_block(out, heads, t_cells, values)
    return out.getvalue()


def block_reference(values, t_cells, rows_per_group) -> str:
    cells = [_fmt(x) for x in np.ravel(values)]
    return "".join(
        f"{t},{r},{cells[g * rows_per_group + r]}\n"
        for g, t in enumerate(t_cells) for r in range(rows_per_group)
    )


class TestWriteBlock:
    """The distinct-value table writes the per-row reference byte for byte,
    whatever share of a block's values is distinct."""

    @pytest.mark.parametrize("distinct", [64, 33, 32, 1])
    def test_any_share_of_distinct_values(self, rng, distinct):
        pool = rng.standard_normal(distinct) * 10.0 ** rng.integers(-20, 20, distinct)
        values = np.concatenate([pool, pool[rng.integers(0, distinct, 64 - distinct)]])
        values = rng.permutation(values).reshape(4, 2, 8)
        assert write_block(values, ["0.5"], 64) == block_reference(values, ["0.5"], 64)

    @pytest.mark.parametrize("values", [
        [-0.0, 0.0, -0.0, 0.0, -0.0, 1.0],
        [5e-324, -5e-324, 2.2250738585072014e-308 / 3, 5e-324, -5e-324, 5e-324],
        [1e300, -1e300, 1e300, 1e300, -1e300, -0.0],
        [np.nextafter(1.0, 2.0), 1.0, np.nextafter(1.0, 2.0), 1.0, 0.1, 0.1],
    ])
    @pytest.mark.parametrize("fill", [[-0.0] * 6, np.arange(1.0, 7.0) / 3.0])  # repeats, or distinct
    def test_signed_zeros_subnormals_and_extremes(self, values, fill):
        values = np.concatenate([values, fill])
        text = write_block(values, ["1e-300", "-0"], 6)
        assert text == block_reference(values, ["1e-300", "-0"], 6)
        assert text.count(",-0\n") == int(np.sum((values == 0) & np.signbit(values)))

    def test_trace_chunks_split_a_jump_pair(self, tmp_path):
        """Chunks of stamps written one call each equal the per-row ledger,
        also when a chunk ends between the left and right copies of a jump."""
        sc = parse_scenario(signed_yaml(tmp_path / "signed.yaml"))
        sol = closed_loop_solve(sc.system, sc.initial, sc.control, sc.horizon, positive=False)
        led = sol.ledger
        pair = int(np.flatnonzero(led.times[1:] == led.times[:-1])[0])
        assert not np.array_equal(led.values[pair], led.values[pair + 1])
        t_cells = [_fmt(t) for t in led.times]
        width = sc.system.n_vertices * sc.system.n_nodes
        bounds = [0, pair + 1, len(t_cells)]
        got = "".join(
            write_block(led.values[a:b], t_cells[a:b], width) for a, b in zip(bounds, bounds[1:])
        )
        assert got == block_reference(led.values, t_cells, width)


class TestSignedData:
    def test_negative_data_without_flag_is_a_scenario_error(self, tmp_path, capsys):
        scenario = signed_yaml(tmp_path / "signed.yaml")
        assert run(["simulate", "--scenario", scenario, "--out", tmp_path / "out"]) == 2
        err = capsys.readouterr().err.strip()
        assert err.count("\n") == 0
        assert "nonnegative initial data" in err and "--signed" in err

    def test_signed_run_skips_positivity_gate(self, tmp_path):
        scenario, out = signed_yaml(tmp_path / "signed.yaml"), tmp_path / "out"
        assert run(["simulate", "--scenario", scenario, "--out", out, "--signed"]) == 0
        report = load_report(out)
        assert "positivity" not in {g["name"] for g in report["gates"]}
        assert report["metrics"]["min_state"] < 0

    def test_unsigned_run_keeps_positivity_gate(self, tmp_path):
        out = tmp_path / "out"
        run(["simulate", "--scenario", SCENARIOS / "loop.yaml", "--out", out])
        assert "positivity" in {g["name"] for g in load_report(out)["gates"]}

    @pytest.mark.parametrize("values", ["[1.0e+6, -1.0e-4, 1.0e+6]", "[1.0, -1.0e-4, 1.0]"])
    def test_one_bound_at_every_scale(self, tmp_path, capsys, values):
        """-1e-4 is refused beside samples of 1e6 as beside samples of 1:
        the initial state gets the inputs' absolute bound -1e-9."""
        doc = (SCENARIOS / "loop.yaml").read_text()
        scenario = tmp_path / "negative.yaml"
        scenario.write_text(doc.replace(
            "- {constant: 1.0}", f"- {{table: {{x: [0.0, 0.5, 1.0], values: {values}}}}}"))
        assert run(["simulate", "--scenario", scenario, "--out", tmp_path / "out"]) == 2
        err = capsys.readouterr().err
        assert "nonnegative initial data" in err and "--signed" in err

    def test_values_down_to_the_bound_count_as_nonnegative(self):
        loop = make_loop()
        x0 = StateField(loop, [[0.0, 0.5, 1.0]], [[[1.0, -5e-10, 1.0]]])
        assert closed_loop_solve(loop, x0, None, 1.0).min_state == -5e-10


class TestOptions:
    """Each subcommand registers only the options it reads."""

    @pytest.mark.parametrize("cmd, flags", [
        ("check", ["--signed"]),
        ("simulate", ["--mu-grid", "1:2:3"]),
        ("spectrum", ["--p", "2"]),
        ("oracle", ["--tau-grid", "0.1,0.2"]),
    ])
    def test_unread_option_is_a_usage_error(self, tmp_path, capsys, cmd, flags):
        with pytest.raises(SystemExit) as exc:
            run([cmd, "--scenario", SCENARIOS / "loop.yaml", "--out", tmp_path, *flags])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize("cmd, flags", [
        ("check", ["--mu-grid", "1:2"]),
        ("check", ["--mu-grid", "2:1:0"]),
        ("check", ["--mu-grid", "nan:2:3"]),
        ("spectrum", ["--mu-grid", "1:2:0"]),
        ("spectrum", ["--mu-grid", "1:inf:3"]),
        ("spectrum", ["--mu-grid", "1:2:2.5"]),
        ("admissibility", ["--tau-grid", "0.1,x"]),
        ("admissibility", ["--tau-grid", "0"]),
        ("admissibility", ["--tau-grid", ","]),
        ("admissibility", ["--tau-grid", "0.1,inf"]),
        ("admissibility", ["--tau-grid", "0.1,0.1,0.1,0.1,0.1"]),
        ("admissibility", ["--tau-grid", "0.4,0.2,0.4"]),
        ("admissibility", ["--p", "0.5"]),
        ("admissibility", ["--p", "nan"]),
        ("admissibility", ["--p", "two"]),
        ("oracle", ["--seed", "-1"]),
        ("check", ["--seed", "abc"]),
    ])
    def test_bad_grid_value_is_a_usage_error(self, tmp_path, capsys, cmd, flags):
        """Rejected by the parser, before the (missing) scenario is read."""
        with pytest.raises(SystemExit) as exc:
            run([cmd, "--scenario", tmp_path / "missing.yaml", "--out", tmp_path, *flags])
        assert exc.value.code == 2
        assert f"error: argument {flags[0]}: expected" in capsys.readouterr().err


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

    @pytest.mark.parametrize("p", ["1.0", "2.0"])
    def test_kappa_at_max_tau_is_the_first_scan_point(self, tmp_path, monkeypatch, p):
        """One input-map norm per probe and tau: kappa-hat at max(tau) is
        not computed a second time for the zero-class scan."""
        from posflow.wellposed import TransportHandle

        calls = []
        norm = TransportHandle.input_map_norm
        monkeypatch.setattr(TransportHandle, "input_map_norm",
                            lambda self, u, tau: calls.append(tau) or norm(self, u, tau))
        out = tmp_path / "out"
        code = run(["admissibility", "--scenario", SCENARIOS / "loop.yaml", "--out", out,
                    "--p", p, "--tau-grid", "0.1,0.4,0.2"])
        assert code == 0
        metrics = load_report(out)["metrics"]
        taus = [0.4] if p == "1.0" else [0.4, 0.2, 0.1]
        assert calls == [tau for tau in taus for _ in range(12)]  # loop.yaml has 12 probes
        if p == "2.0":
            assert metrics["zero_class"]["taus"] == taus
            assert metrics["zero_class"]["estimates"][0] == metrics["kappa"]["constant_estimate"]


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

    def test_negative_mu_grid_start(self, tmp_path):
        """A grid starting below zero is a value, not an option."""
        spaced, joined = tmp_path / "spaced", tmp_path / "joined"
        scenario = SCENARIOS / "loop.yaml"
        assert run(["spectrum", "--scenario", scenario, "--out", spaced, "--mu-grid", "-1:2:3"]) == 0
        assert run(["spectrum", "--scenario", scenario, "--out", joined, "--mu-grid=-1:2:3"]) == 0
        metrics = load_report(spaced)["metrics"]
        assert metrics["mu_grid"] == [-1.0, 0.5, 2.0]
        assert all(abs(r - np.exp(-m)) < 1e-12 for m, r in zip(metrics["mu_grid"], metrics["radii"]))
        for name in ("spectrum.csv", "report.json"):
            assert (spaced / name).read_bytes() == (joined / name).read_bytes()


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
                H = transfer_operator(system, mu)
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


def test_module_entry_point(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "posflow", "spectrum",
         "--scenario", str(SCENARIOS / "loop.yaml"), "--out", str(tmp_path / "out")],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "out" / "spectrum.csv").is_file()


@pytest.mark.parametrize("command", ["check", "spectrum"])
def test_overflowing_mu_grid_is_a_scenario_error(tmp_path, command):
    """At mu = -1000 H(mu) overflows: exit 2 and one stderr line naming
    --mu-grid and mu, with no traceback and no numpy warning."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "posflow", command, "--scenario", str(SCENARIOS / "two_cycle.yaml"),
         "--out", str(tmp_path / "out"), "--mu-grid=-1000:0:3"],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("scenario error: --mu-grid: ") and proc.stderr.count("\n") == 1
    assert "mu=-1000.0" in proc.stderr


NO_SCIPY_PROBE = """
import sys
import posflow.cli
loaded = []
for command in ("simulate", "check", "spectrum", "admissibility", "oracle"):
    assert posflow.cli.main([command, "--scenario", sys.argv[1], "--out", sys.argv[2] + "/" + command]) == 0
    loaded.append(any(name == "scipy" or name.startswith("scipy.") for name in sys.modules))
print(loaded)
"""


def test_no_command_imports_scipy(tmp_path):
    # A fresh process: the matrix exponential is numpy's own, so scipy is a
    # test dependency only.
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", NO_SCIPY_PROBE, str(SCENARIOS / "loop.yaml"), str(tmp_path)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[False, False, False, False, False]"


NUMPY_MA_PROBE = """
import sys
import posflow.cli
loaded = []
for command in ("check", "spectrum", "admissibility"):
    assert posflow.cli.main([command, "--scenario", sys.argv[1], "--out", sys.argv[2] + "/" + command]) == 0
    loaded.append("numpy.ma" in sys.modules)
print(loaded)
"""


def test_parsing_inputs_does_not_import_numpy_ma(tmp_path):
    # A fresh process: np.unique imports numpy.ma (about 14 ms) on its first
    # call, and none of these commands needs it.  loop.yaml has an input.
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", NUMPY_MA_PROBE, str(SCENARIOS / "loop.yaml"), str(tmp_path)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[False, False, False]"


def test_unknown_command_rejected():
    with pytest.raises(SystemExit):
        run(["frobnicate", "--scenario", SCENARIOS / "loop.yaml"])


def test_bad_probe_exponent_is_a_scenario_error(tmp_path, capsys):
    doc = (SCENARIOS / "loop.yaml").read_text().replace("p: 2.0}", "p: 0.5}")
    scenario = tmp_path / "bad_p.yaml"
    scenario.write_text(doc)
    assert run(["admissibility", "--scenario", scenario, "--out", tmp_path / "o"]) == 2
    err = capsys.readouterr().err.strip()
    assert err.count("\n") == 0 and "probes.p" in err


def test_scenario_error_exit_code(tmp_path):
    bad = tmp_path / "bad.yaml"
    bad.write_text("graph: {vertices: 1, edges: []}\nvelocity: {v_min: 1, v_max: 2}\n")
    assert run(["check", "--scenario", bad, "--out", tmp_path / "o"]) == 2


@pytest.mark.parametrize("field, bad, where", [
    ("seed: 12345", "seed: abc", "seed"),
    ("seed: 12345", "seed: -1", "seed"),
    ("seed: 12345", "seed: true", "seed"),
    ("probes: {count: 12", "probes: {count: abc", "probes.count"),
    ("probes: {count: 12", "probes: {count: 0", "probes.count"),
    ("probes: {count: 12", "probes: {count: 2.5", "probes.count"),
    ("probes: {count: 12, p: 2.0}", "probes: [12]", "probes"),
    ("probes: {count: 12, p: 2.0}", "probes: []", "probes"),
    ("space_samples: 101", "space_samples: abc", "space_samples"),
    ("space_samples: 101", "space_samples: 100.5", "space_samples"),
    ("nodes: 1,", "nodes: abc,", "velocity.nodes"),
    ("nodes: 1,", "nodes: 0,", "velocity"),
    ("nodes: 1, rule: midpoint", "nodes: 0, rule: gauss", "velocity"),
    ("vertices: 1", "vertices: one", "graph.vertices"),
    ("{tail: 1,", "{tail: '1',", "graph.edges[0].tail"),
    ("head: 1,", "head: 1.5,", "graph.edges[0].head"),
    ("positivity: 1.0e-9", "positivity: abc", "tolerances.positivity"),
    ("mass_drift: 1.0e-8", "mass_drift: abc", "tolerances.mass_drift"),
    ("snapshots: [0.0, 1.0, 2.0, 3.0]", "snapshots: [0.0, x]", "snapshots"),
    ("snapshots: [0.0, 1.0, 2.0, 3.0]", "snapshots: [[0.0], [1.0, 2.0]]", "snapshots"),
    ("- {constant: 1.0}", "- {table: {x: [0.0, 1.0], values: [1.0, a]}}",
     "initial_state[0].table.values"),
    ("- {constant: 1.0}", "- {table: {x: [0.0, b], values: [1.0, 1.0]}}", "initial_state[0].table.x"),
    ("absorption:\n  - {constant: 0.0}", "absorption: {constant: abc}", "absorption[0].constant"),
    ("absorption:\n  - {constant: 0.0}", "absorption: {table: {x: [0.0, 1.0], values: [c]}}",
     "absorption[0].table.values"),
    ("control_matrix: [[1.0]]", "control_matrix: [[x], [0.0]]", "graph.control_matrix"),
    ("control_matrix: [[1.0]]", "control_matrix: [[1.0], [0.0, 1.0]]", "graph.control_matrix"),
    ("kernel: {mode: identity}", "kernel: {mode: table, tables: [[[k]]]}", "kernel.tables[0]"),
    ("values: [0.0]}", "values: [q]}", "inputs[0].steps.values"),
    ("times: [0.0]", "times: [0.0, {t: 1}]", "inputs[0].steps.times"),
    ("snapshots: [0.0, 1.0, 2.0, 3.0]", "snapshots: null", "snapshots"),
    ("- {constant: 0.0}", "- {constant: null}", "absorption[0].constant"),
    ("values: [0.0]}", "values: [.nan]}", "inputs[0].steps.values"),
    ("values: [0.0]}", "values: [.inf]}", "inputs[0].steps.values"),
    ("horizon: 3.0", "horizon: .nan", "horizon"),
    ("horizon: 3.0", "horizon: .inf", "horizon"),
    ("length: 1.0,", "length: .nan,", "graph.edges[0].length"),
    ("length: 1.0,", "length: .inf,", "graph.edges[0].length"),
    ("positivity: 1.0e-9", "positivity: .nan", "tolerances.positivity"),
    ("- {constant: 0.0}", "- {constant: .inf}", "absorption[0].constant"),
    ("- {constant: 1.0}", "- {constant: .nan}", "initial_state[0].constant"),
    ("- {constant: 1.0}", "- {table: {x: [0.0, 0.6, 0.4, 1.0], values: [1.0, 2.0, 3.0, 1.0]}}",
     "initial_state: grid of edge 0"),
    ("- {constant: 1.0}", "- {table: {x: [0.0, 0.5, 0.5, 1.0], values: [1.0, 2.0, 3.0, 1.0]}}",
     "initial_state: grid of edge 0"),
    ("- {constant: 1.0}", "- {table: {x: [[0.0, 1.0]], values: [1.0, 1.0]}}",
     "initial_state: grid of edge 0"),
    ("absorption:\n  - {constant: 0.0}", "absorption: {table: {x: [[0.0, 1.0]], values: [0.0]}}",
     "absorption: absorption breaks of edge 0"),
])
def test_malformed_numeric_field_is_a_scenario_error(tmp_path, capsys, field, bad, where):
    """Exit 2 with one stderr line naming the field, not a traceback with the
    failed-gate status 1."""
    doc = (SCENARIOS / "loop.yaml").read_text()
    assert doc.count(field) == 1
    scenario = tmp_path / "bad.yaml"
    scenario.write_text(doc.replace(field, bad))
    assert run(["admissibility", "--scenario", scenario, "--out", tmp_path / "o"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"scenario error: {where}: ") and err.count("\n") == 1


def test_artifact_compare_reports_differences_per_run(tmp_path, capsys):
    """tools/artifacts.py --compare: per differing run, the largest relative
    difference of its numeric cells and its sign-bit flips; a run in one
    tree only, or a cell that is no number, is named."""
    a, b = tmp_path / "a", tmp_path / "b"
    for tree, cells in ((a, "1.0,-0.0,x"), (b, "1.0000000000000002,0.0,x")):
        for run in ("same", "moved"):
            (tree / run).mkdir(parents=True)
        (tree / "same" / "report.json").write_text('{"m": [1.5, -0.0]}')
        (tree / "moved" / "traces.csv").write_text(cells)
    (b / "new").mkdir()
    (b / "moved" / "stdout.txt").write_text("ok")
    assert compare(a, a) == 0 and capsys.readouterr().out == ""
    assert compare(a, b) == 1
    assert capsys.readouterr().out.splitlines() == [
        "moved: largest relative difference 2.22e-16, 1 sign flips",
        f"  stdout.txt only in {b}",
        f"new: only in {b}",
    ]
    (b / "same" / "report.json").write_text('{"m": [1.5, "none"]}')
    assert compare(a, b) == 1
    assert "  report.json: '-0.0' against 'none'" in capsys.readouterr().out.splitlines()
