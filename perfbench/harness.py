"""Measurement behind run.py: environment stamp, passes, checks, metrics.

Import it only after run.py has pinned the BLAS threads; it puts the
checkout's ``src`` first on the import path so the benchmark measures the
program in this tree, not an installed copy.
"""

from __future__ import annotations

import contextlib
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import scenarios  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

REFERENCE_SEED = 0
SETUP_REPEATS = 5

# name -> unit for every metric this command can print
END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}
PER_LAYER_TIMES = [
    "scenario.parse_s", "solver.closure_s", "solver.sweep_s", "solver.snapshot_s",
    "solver.mass_s", "cli.csv_s", "wellposed.observation_lp_s",
    "wellposed.control_admissibility_s", "wellposed.io_matrix_s", "wellposed.feedback_s",
    "transport.transfer_operator_s", "transport.spot_checks_s", "lattice.eig_s",
    "lattice.power_iter_s", "poslti.rk4_s", "poslti.mild_s", "other_s",
    "trace.pass_s", "trace.overhead_s",
]
PER_LAYER_COUNTS = [
    "solver.stamps", "solver.eval_edge_calls",
    "wellposed.flow_trace_calls", "wellposed.input_map_norm_calls",
    "transport.io_map_calls", "transport.transfer_operator_calls", "lattice.eig_calls",
    "poslti.rk4_steps", "lattice.power_iterations",
]
PER_LAYER = {
    **{name: "s" for name in PER_LAYER_TIMES},
    **{name: "count" for name in PER_LAYER_COUNTS},
    "solver.events_complete": "flag",
    "solver.stamps_per_s": "1/s",
    "solver.ledger_bytes": "B",
    "cli.csv_bytes": "B",
    "lattice.eig_dim": "count",
    "solver.mass_balance_err": "ratio",
    "failed_frac": "ratio",
    "repo.src_lines": "lines",
}


# ---------------------------------------------------------------------------
# environment stamp


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def src_lines() -> int:
    return sum(len(p.read_text().splitlines()) for p in sorted((SRC / "posflow").rglob("*.py")))


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "git_commit": _git_commit(),
        "repo.src_lines": src_lines(),
    }


# ---------------------------------------------------------------------------
# passes


class Run:
    """One benchmark run: its scenario files, outcomes and failure counts."""

    def __init__(self, workload: str, workdir: Path):
        self.workload = workload
        self.ops = workloads.OPERATIONS[workload]
        self.workdir = workdir
        self.attempted = 0
        self.failed = 0
        self.mass_err = 0.0
        self.first_reports: dict[tuple, str] = {}

    def _fail(self, what: str, problems: list[str]) -> None:
        self.failed += 1
        print(f"FAIL {self.workload} {what}: {'; '.join(problems)}", file=sys.stderr)

    def one_pass(self, files, docs, tag: str, tracer=None, reference=None):
        """Run every operation once; returns (wall seconds, outcomes).

        Only the operations are timed; checks run after the pass.  With
        ``reference`` (the workload's entry of reference.json) each output
        must also reproduce the stored values.
        """
        outdirs = [self.workdir / "out" / f"{i}-{op.name}" for i, op in enumerate(self.ops)]
        for outdir in outdirs:  # no artifact of an earlier pass may pass for this one's
            shutil.rmtree(outdir, ignore_errors=True)
            outdir.mkdir(parents=True)
        results = []
        gc.collect()
        with tracer or contextlib.nullcontext():
            start = time.perf_counter()
            with tracer.span(tracing.ROOT) if tracer else contextlib.nullcontext():
                for op, outdir in zip(self.ops, outdirs):
                    results.append(self._attempt(op, files[op.scenario], outdir))
            wall = time.perf_counter() - start

        outcomes = {}
        for i, (op, outdir, (code, error)) in enumerate(zip(self.ops, outdirs, results)):
            self.attempted += 1
            if error is not None:
                self._fail(op.name, [error])
                continue
            problems = self._problems(i, op, code, outdir, docs, outcomes, tag, reference)
            if problems:
                self._fail(op.name, problems)
        return wall, outcomes

    def _problems(self, i, op, code, outdir, docs, outcomes, tag, reference) -> list[str]:
        try:
            out = workloads.load_outcome(op, code, outdir, docs[op.scenario])
            problems = workloads.check(out, outcomes)
            if op.kind == "simulate":
                self.mass_err = max(self.mass_err,
                                    workloads.mass_balance_err(out.report, out.scenario))
            if reference is not None:
                want = reference.get(op.name)
                problems += (workloads.reference_problems(workloads.reference_values(out), want)
                             if want else ["no stored reference"])
        except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
            return [f"unreadable output: {exc!r}"]
        # every pass of one seed must reproduce the first byte for byte
        blob = (outdir / "report.json").read_text()
        if blob != self.first_reports.setdefault((tag, i), blob):
            problems.append("report.json differs from the first pass")
        if not problems:
            outcomes[op.name] = out
        return problems

    @staticmethod
    def _attempt(op, path, outdir):
        """(exit code, None), or (None, traceback text) when the operation raised."""
        try:
            return workloads.run_op(op, path, outdir), None
        except Exception:  # the loop must go on; the failure is counted
            return None, traceback.format_exc(limit=-3).strip().replace("\n", " | ")

    def reference_pass(self, reference: dict) -> None:
        """One untimed pass on the reference seed, checked against reference.json."""
        files = scenarios.write_workload(self.workload, REFERENCE_SEED,
                                         self.workdir / "scenarios" / "reference")
        docs = {name: workloads.load_scenario(p) for name, p in files.items()}
        self.one_pass(files, docs, "reference", reference=reference.get(self.workload, {}))


def setup_times(files) -> list[float]:
    """Set-up seconds of fresh processes: start to parsed scenarios."""
    probe = BENCH / "setup_probe.py"
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.monotonic()
        proc = subprocess.run(
            [sys.executable, str(probe), *map(str, files.values())],
            capture_output=True, text=True, timeout=120, check=True, cwd=ROOT,
        )
        times.append(json.loads(proc.stdout.strip().splitlines()[-1])["parsed_at"] - start)
    return times


def layer_metrics(tracer, outcomes) -> dict[str, float]:
    """Per-layer numbers of one traced pass."""
    selfs = tracing.self_times(tracer.spans)
    counts = tracer.counts
    m = {name: selfs.get(name, 0.0) for name in PER_LAYER_TIMES}
    m.update({name: counts.get(name, 0) for name in PER_LAYER_COUNTS})
    root = tracer.spans[0]
    m["trace.pass_s"] = root[2] - root[1]
    solves = counts.get("solver.solves", 0)
    m["solver.events_complete"] = int(solves > 0 and counts["solver.complete_solves"] == solves)
    solve_s = m["solver.sweep_s"] + m["solver.closure_s"]
    m["solver.stamps_per_s"] = m["solver.stamps"] / solve_s if solve_s > 0 else 0.0
    m["solver.ledger_bytes"] = counts.get("solver.ledger_bytes", 0)
    m["lattice.eig_dim"] = counts.get("lattice.eig_dim", 0)
    m["cli.csv_bytes"] = sum((out.outdir / f).stat().st_size
                             for out in outcomes.values() if out.op.kind == "simulate"
                             for f in ("snapshots.csv", "traces.csv"))
    return m


def measure(args) -> dict:
    reference = json.loads((BENCH / "reference.json").read_text())
    base = ROOT / ".perfbench"
    base.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=base))
    try:
        run = Run(args.workload, workdir)
        files = scenarios.write_workload(args.workload, args.seed, workdir / "scenarios" / "seed")
        docs = {name: workloads.load_scenario(p) for name, p in files.items()}
        setups = [] if args.trace else setup_times(files)
        run.reference_pass(reference)

        plain, traced = [], []
        deadline = time.monotonic() + args.seconds
        while time.monotonic() < deadline or (args.trace and not traced):
            if args.trace and len(plain) > len(traced):
                tracer = tracing.Tracer()
                wall, outcomes = run.one_pass(files, docs, "seed", tracer)
                traced.append((wall, layer_metrics(tracer, outcomes), tracer.spans))
            else:
                plain.append(run.one_pass(files, docs, "seed")[0])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed_frac = run.failed / max(run.attempted, 1)
    # sample count behind each printed value
    samples = {"wall_s": len(plain), "failed_frac": run.attempted}
    if args.trace:
        traced.sort(key=lambda t: t[0])
        median_wall, metrics, _ = traced[(len(traced) - 1) // 2]
        samples.update({name: len(traced) for name in metrics})
        metrics["trace.overhead_s"] = median_wall - statistics.median(plain)
        metrics["solver.mass_balance_err"] = run.mass_err
        metrics["failed_frac"] = failed_frac
        metrics["repo.src_lines"] = src_lines()
        units = PER_LAYER
    else:
        metrics = {
            "setup_s": statistics.median(setups),
            "wall_s": statistics.median(plain),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        samples["setup_s"] = len(setups)
        units = END_TO_END
    return {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
        "samples": samples,
        "spans": [t[2] for t in traced],
        "extra": {"failed_frac": failed_frac, "solver.mass_balance_err": run.mass_err},
    }


def print_table(workload: str, result: dict) -> None:
    samples = result["samples"]
    rows = dict(result["metrics"])
    for name, value in result["extra"].items():
        rows.setdefault(name, {"value": value, "unit": PER_LAYER[name]})
    print(f"{'workload':<14} {'metric':<36} {'value':>14} {'unit':<6} samples")
    for name, m in rows.items():
        n = samples.get(name, 1)
        print(f"{workload:<14} {name:<36} {m['value']:>14.6g} {m['unit']:<6} {n}")


def run_one(args) -> None:
    """Measure one workload and print the stamp, the table and the result line."""
    env = environment()
    result = measure(args)

    out = ROOT / ".perfbench" / "results"
    out.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    spans = result.pop("spans")
    if spans:
        (out / f"{stem}-spans.json").write_text(json.dumps(spans))
    (out / f"{stem}.json").write_text(json.dumps({"env": env, **result}, indent=1))

    print("env " + json.dumps(env, sort_keys=True))
    print_table(args.workload, result)
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))
