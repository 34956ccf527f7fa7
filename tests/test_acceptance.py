"""Acceptance suite: every release criterion at its pinned tolerance.

Each test prints one ``[ACCEPTANCE] ... PASS`` line (visible with ``-s``);
a failed assertion marks the criterion FAIL.  The whole module runs in well
under five minutes on a laptop.
"""

import json
from pathlib import Path

import numpy as np

from posflow import (
    PosLTI,
    PosLTIHandle,
    StepSignal,
    TransportHandle,
    boundary_traces,
    closed_loop_resolvent,
    closed_loop_solve,
    control_admissibility,
    dirichlet_apply,
    feedback_compose,
    input_map,
    io_map,
    regularity_probe,
    resolvent_apply,
    semigroup_apply,
    simulate_interconnection,
    simulate_mild,
    zero_class_scan,
)
from posflow.cli import main as cli_main
from posflow.scenario import flux_preserving_kernel

from conftest import make_loop, make_two_cycle, random_field, random_network
from test_solver import coarse_hat, laplace_of_solution
from test_transport import hat_field, laplace_of_semigroup

SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"


def report(criterion: str, detail: str = ""):
    print(f"[ACCEPTANCE] {criterion}: PASS {detail}".rstrip())


def test_c01_semigroup_law():
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(3):
        sys = random_network(rng)
        for _ in range(20):
            f = random_field(rng, sys)
            t, s = rng.uniform(0.05, 0.9, 2)
            lhs = semigroup_apply(sys, f, t + s)
            rhs = semigroup_apply(sys, semigroup_apply(sys, f, s), t)
            worst = max(worst, (lhs - rhs.sampled()).norm() / f.norm())
    assert worst <= 1e-10
    report("C1 semigroup-law", f"max rel defect {worst:.3e} <= 1e-10")


def test_c02_positivity_cone_preservation():
    rng = np.random.default_rng(202)
    tol = 1e-9
    worst = 0.0
    for _ in range(5):
        sys = random_network(rng)
        f = random_field(rng, sys)
        u = StepSignal(
            np.array([0.0, 0.3, 1.0]),
            rng.uniform(0.0, 1.0, (2, sys.n_vertices, sys.n_nodes)),
        )
        g = rng.uniform(0.0, 1.0, (sys.n_vertices, sys.n_nodes))
        mu = sys.q_sup + 1.5
        mins = [
            semigroup_apply(sys, f, 0.45).min_value(),
            input_map(sys, u, 0.8).min_value(),
            dirichlet_apply(sys, g, mu).min_value(),
            resolvent_apply(sys, f, mu).min_value(),
        ]
        uc = StepSignal(
            np.array([0.0, 0.5, 1.2]),
            rng.uniform(0.0, 0.5, (2, sys.graph.n_controls, sys.n_nodes)),
        )
        sol = closed_loop_solve(sys, f, uc, 1.2, stamp_budget=4000)
        mins.append(sol.min_state)
        mins.append(sol.snapshot(0.8).min_value())
        worst = min(worst, min(mins))
        assert min(mins) >= -tol
    report("C2 positivity", f"min value {worst:.3e} >= -1e-9")


def test_c03_resolvent_oracle():
    rng = np.random.default_rng(303)
    # Laplace-transform oracle at 1e-4 relative
    sys = make_loop(n_nodes=2, v_lo=0.8, v_hi=1.2, q=-0.4, space_samples=161)
    f = hat_field(sys, 161)
    mu = sys.q_sup + 2.0
    # tail: T(t)f dies at l/v_min anyway; e^{(q_sup - mu) T} < 1e-6 for T = 8
    direct = resolvent_apply(sys, f, mu)
    oracle = laplace_of_semigroup(sys, f, mu, T=8.0, panels=1500)
    rel = (direct - oracle).norm() / direct.norm()
    assert rel <= 1e-4
    # resolvent identity at 1e-6
    sys2 = make_loop(n_nodes=2, space_samples=2001)
    f2 = random_field(rng, sys2, 2001)
    r2, r3 = resolvent_apply(sys2, f2, 2.0), resolvent_apply(sys2, f2, 3.0)
    lhs = r2 - r3
    rhs = resolvent_apply(sys2, r3, 2.0)
    ident = (lhs - rhs).norm() / max(lhs.norm(), 1e-30)
    assert ident <= 1e-6
    report("C3 resolvent-oracle", f"laplace rel {rel:.3e} <= 1e-4, identity {ident:.3e} <= 1e-6")


def test_c04_dirichlet_identities():
    rng = np.random.default_rng(404)
    # right inverse at 1e-12 across random networks
    worst_trace = 0.0
    for _ in range(5):
        sys = random_network(rng)
        g = rng.uniform(0.0, 1.0, (sys.n_vertices, sys.n_nodes))
        lift = dirichlet_apply(sys, g, sys.q_sup + 1.0)
        back = boundary_traces(sys, lift)["G"]
        worst_trace = max(worst_trace, float(np.max(np.abs(back - g))))
    assert worst_trace <= 1e-12
    # interior equation residual below 1e-6 on refined grids
    sys = make_loop(n_nodes=2, v_lo=0.9, v_hi=1.3, q=-0.5)
    lift = dirichlet_apply(sys, np.ones((sys.n_vertices, sys.n_nodes)), 1.5)
    worst_resid = 0.0
    for n in (2001, 4001):
        for k, v in enumerate(sys.vgrid.nodes):
            xs = np.linspace(0.0, sys.graph.lengths[0], n)
            d = lift.eval(0, k, xs)
            h = xs[1] - xs[0]
            dp = (d[2:] - d[:-2]) / (2 * h)
            resid = 1.5 * d[1:-1] - v * dp - (-0.5) * d[1:-1]
            worst_resid = max(worst_resid, float(np.max(np.abs(resid))))
    assert worst_resid <= 1e-6
    report("C4 dirichlet", f"trace {worst_trace:.3e} <= 1e-12, residual {worst_resid:.3e} <= 1e-6")


def test_c05_delay_structure():
    rng = np.random.default_rng(505)
    for _ in range(3):
        sys = random_network(rng)
        u = StepSignal.constant(rng.uniform(0.5, 1.0, (sys.n_vertices, sys.n_nodes)), 5.0)
        delta = sys.min_delay
        times = np.linspace(0.0, np.nextafter(delta, 0.0), 17)
        out = io_map(sys, u, times)
        assert np.all(out == 0.0)  # bit-zero before the first transit
    report("C5 delay-structure", "io map bit-zero on [0, min l/v_max)")


def test_c06_closed_loop_consistency():
    # Laplace consistency on the loop
    sys = make_loop(space_samples=201)
    x0 = coarse_hat(sys, knots=5)
    sol = closed_loop_solve(sys, x0, None, 8.0)
    numeric = laplace_of_solution(sol, 3.0, 8.0, panels=1600)
    exact = closed_loop_resolvent(sys, x0.resampled(201), 3.0)
    rel_loop = (numeric - exact).norm() / exact.norm()
    assert rel_loop <= 1e-4
    # Laplace consistency on a two-vertex network
    from posflow import ScatteringKernel

    sys2 = make_two_cycle(
        n_nodes=2, v_lo=0.8, v_hi=1.2,
        kernel=ScatteringKernel.constant(0.9, 2, 2), space_samples=121,
    )
    x02 = coarse_hat(sys2, knots=4)
    sol2 = closed_loop_solve(sys2, x02, None, 7.0)
    numeric2 = laplace_of_solution(sol2, 3.0, 7.0, panels=1600)
    exact2 = closed_loop_resolvent(sys2, x02.resampled(121), 3.0)
    rel_two = (numeric2 - exact2).norm() / exact2.norm()
    assert rel_two <= 1e-4
    # mass conservation in the flux-preserving configuration
    base = make_loop(n_nodes=3, v_lo=0.5, v_hi=1.5, space_samples=101)
    sys3 = make_loop(
        n_nodes=3, v_lo=0.5, v_hi=1.5,
        kernel=flux_preserving_kernel(base.vgrid, 1), space_samples=101,
    )
    sol3 = closed_loop_solve(sys3, coarse_hat(sys3, knots=5), None, 2.0)
    m0 = sol3.total_mass(0.0)
    drift = max(abs(sol3.total_mass(t) - m0) for t in (0.5, 1.0, 1.5, 2.0)) / abs(m0)
    assert drift < 1e-8
    report(
        "C6 closed-loop",
        f"laplace rel {max(rel_loop, rel_two):.3e} <= 1e-4, mass drift {drift:.3e} < 1e-8",
    )


def test_c07_zero_class_scaling():
    handle = TransportHandle(make_loop(n_nodes=1, v_lo=0.5, v_hi=1.5))
    taus = [0.4, 0.2, 0.1, 0.05, 0.025]
    scan = zero_class_scan(handle, 2.0, taus, n_probes=12, seed=707)
    assert scan.fit is not None and 0.4 <= scan.fit.exponent <= 0.6
    kappas = [
        control_admissibility(handle, tau, 1.0, n_probes=12, seed=707).constant_estimate
        for tau in taus
    ]
    assert all(0.9 <= k <= 1.1 for k in kappas)
    report(
        "C7 zero-class",
        f"p=2 exponent {scan.fit.exponent:.3f} in [0.4,0.6], p=1 kappa range "
        f"[{min(kappas):.3f},{max(kappas):.3f}] in [0.9,1.1]",
    )


def test_c08_oracle_equivalence():
    rng = np.random.default_rng(808)
    grid = np.linspace(0.0, 5.0, 26)
    worst = 0.0
    refused = 0
    checked = 0
    while checked < 50:
        n = int(rng.integers(2, 7))
        m = int(rng.integers(1, 4))
        p = int(rng.integers(1, 4))
        A = rng.uniform(0.0, 1.0, (n, n))
        A -= np.diag(np.diag(A))
        A -= np.diag(A.sum(axis=1) + rng.uniform(1.0, 2.0, n))
        sys = PosLTI(
            A,
            0.4 * rng.uniform(0, 1, (n, m)),
            0.4 * rng.uniform(0, 1, (p, n)),
            0.2 * rng.uniform(0, 1, (p, m)),
        )
        K = 0.3 * rng.uniform(0, 1, (m, p))
        fb = feedback_compose(sys, K)
        if not fb.admissible:
            continue
        checked += 1
        x0 = rng.uniform(0, 1, n)
        v = rng.uniform(0, 1, m)
        z1 = simulate_mild(fb.closed_loop(), x0, np.tile(v, (25, 1)), grid)
        z2, _ = simulate_interconnection(sys, K, x0, v, grid)
        worst = max(worst, float(np.max(np.abs(z1 - z2))))
        # inadmissible feedback must always be refused
        bad = feedback_compose(
            PosLTI(sys.A, sys.B, np.ones((p, n)), np.ones((p, m))), np.ones((m, p))
        )
        assert not bad.admissible
        refused += 1
    assert worst <= 1e-8
    assert refused == 50
    report("C8 oracle-equivalence", f"50 systems, sup error {worst:.3e} <= 1e-8, refusals 50/50")


def test_c09_regularity_monotonicity():
    # transport: H(mu) g decreasing to the zero feedthrough
    handle_t = TransportHandle(make_loop(n_nodes=2, v_lo=0.8, v_hi=1.2))
    g = np.ones((1, 2))
    rep_t = regularity_probe(handle_t, np.linspace(1.0, 16.0, 16), g)
    assert rep_t.monotone and rep_t.limit_gap <= 1e-4
    # finite-dimensional: H(mu) decreasing to D
    rng = np.random.default_rng(909)
    A = rng.uniform(0, 1, (4, 4))
    A -= np.diag(np.diag(A)) + np.diag(A.sum(axis=1) + 1.0)
    sys = PosLTI(A, rng.uniform(0, 1, (4, 2)), rng.uniform(0, 1, (2, 4)),
                 rng.uniform(0, 1, (2, 2)))
    handle_f = PosLTIHandle(sys)
    mus = [1.0, 10.0, 100.0, 1e3, 1e4, 1e5, 1e6]
    rep_f = regularity_probe(handle_f, mus, np.ones(2))
    assert rep_f.monotone and rep_f.limit_gap <= 1e-4
    report(
        "C9 regularity",
        f"monotone on both classes, limit gaps {rep_t.limit_gap:.2e} / {rep_f.limit_gap:.2e} <= 1e-4",
    )


def test_c10_determinism(tmp_path):
    battery = ["simulate", "check", "admissibility", "spectrum", "oracle"]
    artifacts = {"simulate": ["snapshots.csv", "traces.csv"], "spectrum": ["spectrum.csv"]}
    digests = []
    for tag in ("a", "b"):
        blobs = []
        for cmd in battery:
            out = tmp_path / tag / cmd
            code = cli_main([
                cmd, "--scenario", str(SCENARIOS / "loop.yaml"),
                "--out", str(out), "--seed", "424242",
            ])
            assert code == 0
            names = ["report.json", *artifacts.get(cmd, [])]
            blobs.append({name: (out / name).read_bytes() for name in names})
        digests.append(blobs)
    for cmd, blob_a, blob_b in zip(battery, digests[0], digests[1]):
        for name in blob_a:
            assert blob_a[name] == blob_b[name], f"{name} differs between runs for {cmd}"
    # reports are valid JSON with the pinned schema
    sample = json.loads(digests[0][0]["report.json"].decode())
    assert sample["schema_version"] == 1 and "scenario_hash" in sample
    report("C10 determinism", "byte-identical report.json and CSVs across the CLI battery")
