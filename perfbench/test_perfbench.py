"""Self-test of the benchmark: python3 -m pytest perfbench -q

Checks that every output check counts a corrupted artifact as a failure,
that every metric the command prints is declared in BENCHMARK.json with its
unit, that per-layer self times account for the traced pass, and that the
command refuses to run without the program's sources.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402,F401  (pins BLAS threads before numpy loads)
import harness  # noqa: E402
import scenarios  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())


# ---------------------------------------------------------------------------
# corrupted artifacts must count as failed operations


@pytest.fixture(scope="module")
def artifacts(tmp_path_factory):
    """Real outputs of every operation on the reference seed, by op name."""
    base = tmp_path_factory.mktemp("artifacts")
    made = {}
    for workload, ops in workloads.OPERATIONS.items():
        files = scenarios.write_workload(workload, harness.REFERENCE_SEED, base / workload)
        for op in ops:
            outdir = base / workload / op.name
            outdir.mkdir()
            assert workloads.run_op(op, files[op.scenario], outdir) == 0
            made[op.name] = (outdir, files)
    return made


def _count_failures(tmp_path, artifacts, workload, corrupt, reference=False):
    """Run one pass whose operations hand back copies of the stored
    artifacts after ``corrupt(op_name, outdir)``, which returns the exit
    code; returns (failed, attempted)."""
    r = harness.Run(workload, tmp_path)
    files = artifacts[r.ops[0].name][1]
    docs = {name: workloads.load_scenario(p) for name, p in files.items()}

    def fake_run_op(op, path, outdir):
        shutil.copytree(artifacts[op.name][0], outdir, dirs_exist_ok=True)
        return corrupt(op.name, outdir)

    ref = json.loads((BENCH / "reference.json").read_text())[workload] if reference else None
    original = workloads.run_op
    workloads.run_op = fake_run_op
    try:
        r.one_pass(files, docs, "test", reference=ref)
    finally:
        workloads.run_op = original
    return r.failed, r.attempted


def _edit_report(outdir: Path, edit) -> None:
    path = outdir / "report.json"
    report = json.loads(path.read_text())
    edit(report)
    path.write_text(json.dumps(report))


def _drop_last_row(path: Path) -> None:
    lines = path.read_text().splitlines(keepends=True)
    path.write_text("".join(lines[:-1]))


def _fail_first_gate(report):
    report["gates"][0]["passed"] = False


def _keep(name, outdir):
    return 0


@pytest.mark.parametrize("workload", list(workloads.OPERATIONS))
def test_intact_artifacts_pass(tmp_path, artifacts, workload):
    n_ops = len(workloads.OPERATIONS[workload])
    assert _count_failures(tmp_path, artifacts, workload, _keep, reference=True) == (0, n_ops)


@pytest.mark.parametrize("workload, target, corrupt", [
    ("sim", "simulate-sweep", lambda o: _edit_report(o, _fail_first_gate)),
    ("sim", "simulate-read", lambda o: _drop_last_row(o / "snapshots.csv")),
    ("sim", "simulate-sweep", lambda o: _drop_last_row(o / "traces.csv")),
    ("sim", "simulate-sweep",
     lambda o: _edit_report(o, lambda r: r["metrics"]["mass_by_time"].__setitem__(-1, 15.0))),
    ("verify", "admissibility-adm", lambda o: _edit_report(o, _fail_first_gate)),
    ("verify", "admissibility-adm",
     lambda o: _edit_report(o, lambda r: r["metrics"]["gamma"].update(constant_estimate=0.0))),
    ("verify", "spectrum-spectral", lambda o: _drop_last_row(o / "spectrum.csv")),
    ("verify", "spectrum-spectral",
     lambda o: _edit_report(o, lambda r: r["metrics"]["radii"].__setitem__(-1, 2.0))),
    ("verify", "check-spectral", lambda o: _edit_report(o, _fail_first_gate)),
    ("verify", "feedback-feedback",
     lambda o: _edit_report(o, lambda r: r["metrics"].update(inverse_nonneg=False))),
    ("verify", "oracle-feedback", lambda o: _edit_report(o, _fail_first_gate)),
])
def test_corrupted_artifact_counts_a_failure(tmp_path, artifacts, workload, target, corrupt):
    def apply(name, outdir):
        if name == target:
            corrupt(outdir)
        return 0

    failed, attempted = _count_failures(tmp_path, artifacts, workload, apply)
    assert attempted == len(workloads.OPERATIONS[workload])
    # a bad spectrum also fails check, which compares its radii with spectrum's
    assert failed == (2 if target.startswith("spectrum") else 1)


def test_nonzero_exit_counts_a_failure(tmp_path, artifacts):
    def exit_one(name, outdir):
        return 1 if name == "simulate-read" else 0

    assert _count_failures(tmp_path, artifacts, "sim", exit_one) == (1, 2)


def test_raising_operation_counts_a_failure(tmp_path, artifacts):
    def boom(name, outdir):
        if name == "simulate-sweep":
            raise RuntimeError("injected")
        return 0

    assert _count_failures(tmp_path, artifacts, "sim", boom) == (1, 2)


def test_reference_mismatch_counts_a_failure(tmp_path, artifacts):
    def nudge(name, outdir):
        if name == "admissibility-adm":
            _edit_report(outdir, lambda r: r["metrics"]["kappa"].update(
                constant_estimate=r["metrics"]["kappa"]["constant_estimate"] * (1 + 1e-6)))
        return 0

    assert _count_failures(tmp_path, artifacts, "verify", nudge, reference=True) == (1, 5)


# ---------------------------------------------------------------------------
# the command's output


@pytest.fixture(scope="module")
def printed():
    """stdout of one short run per trace mode."""
    out = {}
    for trace in (0, 1):
        proc = subprocess.run(
            [sys.executable, str(BENCH / "run.py"), "--workload", "sim", "--seed", "3",
             "--seconds", "1", "--trace", str(trace)],
            capture_output=True, text=True, cwd=ROOT, timeout=170,
        )
        assert proc.returncode == 0, proc.stderr
        out[trace] = proc.stdout.strip().splitlines()
    return out


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_printed_metric_is_declared(printed, trace, section):
    declared = {m["name"]: m["unit"] for m in DECLARED[section]}
    last = json.loads(printed[trace][-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] and last["failed"] == 0 and last["attempted"] >= 1
    assert {k: m["unit"] for k, m in last["metrics"].items()} == declared
    everything = {m["name"]: m["unit"]
                  for part in ("end_to_end", "per_layer") for m in DECLARED[part]}
    table = [line.split() for line in printed[trace] if line.startswith("sim ")]
    assert table and all(everything.get(row[1]) == row[3] for row in table)


def test_environment_is_stamped(printed):
    env = json.loads(printed[0][0].removeprefix("env "))
    for key in ("nproc", "cpu_model", "python", "numpy", "scipy", "blas", "blas_threads",
                "git_commit", "repo.src_lines"):
        assert key in env


def test_layer_self_times_account_for_the_pass(printed):
    metrics = {k: m["value"] for k, m in json.loads(printed[1][-1])["metrics"].items()}
    parts = sum(metrics[name] for name in tracing.SPAN_METRICS) + metrics["other_s"]
    assert parts == pytest.approx(metrics["trace.pass_s"], rel=1e-9)


def test_self_times_subtract_direct_children():
    spans = [["root", 0.0, 10.0, -1], ["a", 1.0, 4.0, 0], ["b", 2.0, 3.0, 1],
             ["a", 5.0, 6.0, 0]]
    assert tracing.self_times(spans) == {"root": 6.0, "a": 3.0, "b": 1.0}


def test_refuses_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sim", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=tmp_path, timeout=170,
    )
    assert proc.returncode != 0 and proc.stdout == ""


def test_generator_is_seeded(tmp_path):
    a = scenarios.write_workload("verify", 5, tmp_path / "a")
    b = scenarios.write_workload("verify", 5, tmp_path / "b")
    c = scenarios.write_workload("verify", 6, tmp_path / "c")
    assert all(a[k].read_bytes() == b[k].read_bytes() for k in a)
    assert a["spectral"].read_bytes() != c["spectral"].read_bytes()
    lengths = [sorted(e["length"] for e in workloads.load_scenario(p[k])["graph"]["edges"])
               for p in (a, c) for k in ("spectral",)]
    assert lengths[0] == lengths[1]
