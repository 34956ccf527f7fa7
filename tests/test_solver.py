import dataclasses
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from posflow import (
    Absorption,
    CharacteristicGateError,
    MetricGraph,
    Quadrature,
    ScatteringKernel,
    StateField,
    StepSignal,
    closed_loop_resolvent,
    closed_loop_solve,
    resolvent_apply,
    solver,
    transport,
)
from posflow.lattice import gauss_panels
from posflow.scenario import flux_preserving_kernel, parse_scenario
from posflow.solver import ClosedLoopSolution, TraceLedger, _event_stamps
from posflow.transport import (
    CharacteristicPath,
    TransportSystem,
    characteristic_read,
    flow_trace,
    read_kinks,
)

from conftest import make_loop, make_two_cycle, random_field, random_network

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))

from artifacts import SIGNED  # noqa: E402


def coarse_hat(system, knots=5):
    """Tent profile stored on a coarse knot grid (few PL breakpoints keeps
    the solver's event closure small and exact)."""
    xs, values = [], []
    for j in range(system.n_edges):
        l = system.graph.lengths[j]
        grid = np.linspace(0.0, l, knots)
        prof = np.minimum(grid, l - grid) * (2.0 / l)
        xs.append(grid)
        values.append(np.tile(prof, (system.n_nodes, 1)))
    return StateField(system, xs, values)


def laplace_of_solution(sol, mu, T, panels=1200):
    """Numerical Laplace transform of the trajectory, one field of samples."""
    sys_ = sol.system
    gl_x, gl_w = np.polynomial.legendre.leggauss(4)
    edges = np.linspace(0.0, T, panels + 1)
    acc = [np.zeros((sys_.n_nodes, sys_.space_samples)) for _ in range(sys_.n_edges)]
    grids = [np.linspace(0.0, l, sys_.space_samples) for l in sys_.graph.lengths]
    for a, b in zip(edges[:-1], edges[1:]):
        mid, half = 0.5 * (a + b), 0.5 * (b - a)
        for xi, wi in zip(gl_x, gl_w):
            t = mid + half * xi
            scale = half * wi * np.exp(-mu * t)
            for j in range(sys_.n_edges):
                for k in range(sys_.n_nodes):
                    acc[j][k] += scale * sol.eval_edge(j, k, grids[j], t)
    return StateField(sys_, grids, acc)


class TestClosedLoopSolve:
    def test_zero_data_zero_solution(self):
        sys = make_loop(n_nodes=2)
        sol = closed_loop_solve(sys, StateField.zeros(sys), None, 2.0)
        assert sol.ledger.values.max() == 0.0
        assert sol.snapshot(1.3).max_abs() == 0.0

    def test_constant_is_a_fixed_point(self):
        sys = make_loop(n_nodes=3)
        sol = closed_loop_solve(sys, StateField.constant(sys, 1.0), None, 3.0)
        for t in (0.0, 0.5, 1.7, 3.0):
            snap = sol.snapshot(t)
            assert np.max(np.abs(np.concatenate([v.ravel() for v in snap.values]) - 1.0)) < 1e-12

    def test_mass_conservation_flux_preserving(self):
        sys = make_loop(n_nodes=3, v_lo=0.5, v_hi=1.5, space_samples=101)
        sys = make_loop(
            n_nodes=3, v_lo=0.5, v_hi=1.5,
            kernel=flux_preserving_kernel(sys.vgrid, 1), space_samples=101,
        )
        x0 = coarse_hat(sys, knots=5)
        horizon = 2.0  # one full transit at the slowest speed
        sol = closed_loop_solve(sys, x0, None, horizon)
        assert sol.events_complete
        m0 = sol.total_mass(0.0)
        drift = max(
            abs(sol.total_mass(t) - m0) for t in (0.4, 0.9, 1.3, 2.0)
        ) / abs(m0)
        assert drift < 1e-8

    def test_mass_conservation_two_vertex(self):
        base = make_two_cycle(n_nodes=2, v_lo=0.8, v_hi=1.2, space_samples=61)
        sys = make_two_cycle(
            n_nodes=2, v_lo=0.8, v_hi=1.2,
            kernel=flux_preserving_kernel(base.vgrid, 2), space_samples=61,
        )
        x0 = coarse_hat(sys, knots=4)
        sol = closed_loop_solve(sys, x0, None, 1.5)
        m0 = sol.total_mass(0.0)
        drift = max(abs(sol.total_mass(t) - m0) for t in (0.5, 1.0, 1.5)) / abs(m0)
        assert drift < 1e-8

    def test_mass_cuts_at_absorption_break_feet(self):
        # a piecewise absorption table: the read kinks where the foot x + v t
        # crosses a break, so the mass quadrature must cut at breaks - v t
        loop = make_loop(n_nodes=1, v_lo=0.5, v_hi=1.5)
        q = Absorption((np.array([0.0, 0.3, 0.7, 1.0]),), (np.array([[0.0], [-2.0], [0.0]]),))
        sys = dataclasses.replace(loop, absorption=q)
        # what {constant: c} parses to: two knots
        x0 = StateField(sys, [np.array([0.0, 1.0])], [np.full((1, 2), 1.5)])
        sol = closed_loop_solve(sys, x0, None, 0.5)
        x = np.linspace(0.0, 1.0, 2_000_001)
        for t in (0.1, 0.25, 0.45):
            vals = np.concatenate([sol.eval_edge(0, 0, c, t) for c in np.array_split(x, 8)])
            trapezoid = (x[1] - x[0]) * (vals.sum() - 0.5 * (vals[0] + vals[-1]))
            assert sol._edge_masses(t)[0, 0] == pytest.approx(trapezoid, rel=1e-10)

    def test_positive_battery(self, rng):
        for _ in range(4):
            sys = random_network(rng)
            x0 = random_field(rng, sys)
            u = StepSignal(
                np.array([0.0, 0.3, 1.2]),
                rng.uniform(0.0, 0.5, (2, sys.graph.n_controls, sys.n_nodes)),
            )
            sol = closed_loop_solve(sys, x0, u, 1.2, stamp_budget=4000)
            assert sol.min_state >= -1e-9
            assert sol.snapshot(0.9).min_value() >= -1e-9

    def test_generation_count(self):
        sys = make_loop(n_nodes=3, v_lo=0.5, v_hi=1.5)  # v_max = 4/3... midpoint nodes
        v_max = sys.vgrid.nodes[-1]
        horizon = 2.5
        sol = closed_loop_solve(sys, StateField.zeros(sys), None, horizon)
        assert sol.generations == int(np.ceil(horizon * v_max / 1.0))

    def test_positivity_mode_rejects_signed_data(self):
        sys = make_loop()
        bad = StateField.constant(sys, -1.0)
        with pytest.raises(ValueError):
            closed_loop_solve(sys, bad, None, 1.0)
        closed_loop_solve(sys, bad, None, 1.0, positive=False)  # signed mode runs

    def test_rejects_negative_horizon(self):
        sys = make_loop()
        with pytest.raises(ValueError):
            closed_loop_solve(sys, StateField.zeros(sys), None, -1.0)

    def test_wavefront_tie_reads_initial_datum(self):
        # at t = l / v_1 the entry time t - l / v_1 is exactly 0 while v_1 t
        # overshoots l by one ulp: the characteristic still carries the
        # initial datum, so node 1 reads datum 1 plus input 2 (a foot test
        # v t <= l would drop the datum and give 2)
        sys = make_loop(n_nodes=4, length=0.9, control=np.ones((1, 1)))
        v = sys.vgrid.nodes[1]
        t = 0.9 / v
        assert v == 0.875 and v * t > 0.9 and t - 0.9 / v == 0.0
        u = StepSignal.constant(np.full((1, 4), 2.0), 2.0)
        sol = closed_loop_solve(sys, StateField.constant(sys, 1.0), u, 2.0)
        (stamp,) = np.flatnonzero(sol.ledger.times == t)
        assert sol.ledger.values[stamp, 0].tolist() == [3.0, 3.0, 5.0, 5.0]

    def test_matches_open_loop_input_map_before_first_return(self, rng):
        # zero initial data: until the first transit the scattered echo is
        # zero and the closed loop IS the open-loop input map, including the
        # jump images of the step input
        from posflow import input_map

        sys = make_loop(n_nodes=2, v_lo=0.8, v_hi=1.2)
        u = StepSignal(
            np.array([0.0, 0.3, 1.0]),
            rng.uniform(0.2, 1.0, (2, 1, 2)),
        )
        sol = closed_loop_solve(sys, StateField.zeros(sys), u, 1.0)
        # not a multiple of the grid spacing, so no sample sits exactly on
        # the measure-zero corner where the two branch conventions differ
        t = 0.7531 * sys.min_delay
        open_loop = input_map(sys, u, t)
        for k in range(2):
            xs = np.linspace(0.0, sys.graph.lengths[0], 401)
            a = sol.eval_edge(0, k, xs, t)
            b = open_loop.eval(0, k, xs)
            assert np.max(np.abs(a - b)) < 1e-12

    def test_control_channel_fills_loop(self):
        # loop with control weight 1: u enters the vertex like boundary data
        sys = make_loop()
        u = StepSignal.constant(np.ones((1, 1)), 2.0)
        sol = closed_loop_solve(sys, StateField.zeros(sys), u, 2.0)
        # after one transit the loop re-feeds itself: value at t=1.5, x=0.5
        # is u + (scattered echo of u) = 1 + 1 (identity kernel, w = 1)
        val = sol.eval_edge(0, 0, np.array([0.5]), 1.75)[0]
        assert abs(val - 2.0) < 1e-12


SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"


def snapshot_ref(sol, t):
    """The snapshot as its own read: the x-grid samples alone."""
    return StateField.from_function(sol.system, lambda j, x, k: sol.eval_edge(j, k, x, t))


def edge_mass_ref(sol, j, t, refine=1):
    """The edge mass as its own read: Gauss panels cut wherever the read can
    kink, at the images of all ledger stamps among them, each panel split
    into ``refine`` equal parts."""
    sys_ = sol.system
    l = float(sys_.graph.lengths[j])
    total = 0.0
    for k in range(sys_.n_nodes):
        # the ledger-fed read kinks at the stamp images, the initial-fed one
        # at the feet of the absorption breaks and of the initial knots
        knots = np.concatenate([sys_.absorption.breaks[j], sol.initial.xs[j]])
        feet = knots - sys_.vgrid.nodes[k] * t
        kinks = np.concatenate([read_kinks(sys_, t, sol.ledger.times)[j, k], feet])
        cuts = np.unique(np.clip(np.concatenate([[0.0, l], kinks]), 0.0, l))
        steps = np.arange(refine)[:, None] / refine
        fine = (cuts[:-1] + steps * np.diff(cuts)).ravel()
        pts, wts = gauss_panels(fine, l)
        vals = sol.eval_edge(j, k, pts.ravel(), t).reshape(pts.shape)
        total += sys_.vgrid.weights[k] * float(np.sum(wts * vals))
    return total


def strong_rate_solution(q, horizon, knots=None):
    """The loop with constant rate q at two velocity nodes, a weak kernel and
    a step input; the constant-1 initial state on the default grid, or on
    ``knots`` equally spaced knots."""
    loop = make_loop(n_nodes=2, v_lo=0.5, v_hi=1.5, control=np.ones((1, 1)),
                     kernel=ScatteringKernel.constant(1e-6, 1, 2))
    sys_ = dataclasses.replace(loop, absorption=Absorption.constant(q, [1.0], 2))
    u = StepSignal(np.array([0.0, 0.7, horizon]), np.array([[[1.0, 2.0]], [[0.5, 3.0]]]))
    x0 = (StateField.constant(sys_, 1.0) if knots is None
          else StateField(sys_, [np.linspace(0.0, 1.0, knots)], [np.ones((2, knots))]))
    return closed_loop_solve(sys_, x0, u, horizon)


def jumpy_kirchhoff_solution(rng, space_samples=41):
    """A random Kirchhoff network with piecewise absorption (q != 0) driven by
    a step input, so the ledger holds jump pairs."""
    base = random_network(rng, q_range=(-0.5, -0.1), space_samples=space_samples)
    breaks, values = [], []
    for l in base.graph.lengths:
        breaks.append(np.array([0.0, rng.uniform(0.2, 0.8) * l, l]))
        values.append(rng.uniform(-0.6, 0.2, (2, base.n_nodes)))
    sys = dataclasses.replace(base, absorption=Absorption(tuple(breaks), tuple(values)))
    u = StepSignal(np.array([0.0, 0.35, 0.8, 1.4]),
                   rng.uniform(0.0, 1.0, (3, sys.graph.n_controls, sys.n_nodes)))
    sol = closed_loop_solve(sys, random_field(rng, sys, 9), u, 1.4, stamp_budget=3000)
    assert np.any(np.diff(sol.ledger.times) == 0.0)
    return sol, np.array([0.0, 0.35, 0.6, 0.8, 1.1, 1.4])


@st.composite
def sweep_cases(draw, positive=None):
    """A Kirchhoff network with 1-3 control channels and piecewise
    absorption, driven by a step input with breaks inside the horizon (so
    the ledger holds jump pairs); positive or signed data, or the one
    ``positive`` asks for."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(1, 3))
    m = draw(st.integers(n, n + 3))
    n_nodes = draw(st.integers(1, 3))
    channels = draw(st.integers(1, n))  # a graph has at most n channels
    positive = draw(st.booleans()) if positive is None else positive
    tails = np.concatenate([np.arange(n), rng.integers(0, n, m - n)])
    weights = np.zeros(m)
    for v in range(n):
        out = np.flatnonzero(tails == v)
        raw = rng.uniform(0.2, 1.0, out.size)
        weights[out] = raw / raw.sum()
    lengths = rng.uniform(0.5, 1.5, m)
    graph = MetricGraph(n, tails, rng.integers(0, n, m), lengths, weights,
                        rng.uniform(0.0, 1.0, (n, channels)))
    vgrid = Quadrature.midpoint(0.5, 1.5, n_nodes)
    breaks = [np.array([0.0, rng.uniform(0.2, 0.8) * l, l]) for l in lengths]
    absorption = Absorption(tuple(breaks), tuple(rng.uniform(-0.6, 0.2, (m, 2, n_nodes))))
    kernel = ScatteringKernel.constant(0.8 * rng.uniform(0.3, 1.0), m, n_nodes)
    system = TransportSystem(graph, vgrid, absorption, kernel, 9)

    lo = 0.0 if positive else -1.0
    x0 = StateField.from_samples(system, list(rng.uniform(lo, 1.0, (m, n_nodes, 9))))
    horizon = system.min_delay * draw(st.floats(1.0, 3.0))
    inner = np.sort(rng.uniform(0.05, 0.95, draw(st.integers(1, 3)))) * horizon
    u_breaks = np.concatenate([[0.0], inner, [horizon]])
    u = StepSignal(u_breaks, rng.uniform(lo, 1.0, (u_breaks.size - 1, channels, n_nodes)))
    dt_max = system.min_delay * draw(st.floats(1 / 16, 1 / 2))
    return system, x0, u, horizon, dt_max, positive


class TestSnapshotAndMass:
    """snapshot gives the samples, bit for bit as the x-grid read alone, and
    total_mass the mass: Gauss panels on the initial-fed part plus
    closed-form prefix integrals of the ledger, within 1e-12 of Gauss panels
    cut at every ledger stamp image."""

    def assert_matches_separate_reads(self, sol, times, refine=1):
        for t in times:
            fld, mass = sol.snapshot(float(t)), sol.total_mass(float(t))
            ref = snapshot_ref(sol, float(t))
            for got, want in zip(fld.values, ref.values):
                assert np.array_equal(got, want)
            edges = range(sol.system.n_edges)
            edge_masses = [edge_mass_ref(sol, j, float(t), refine) for j in edges]
            assert mass == pytest.approx(sum(edge_masses), rel=1e-12, abs=0.0)
            got = sol._edge_masses(float(t))[0]
            for j, m in enumerate(edge_masses):
                assert got[j] == pytest.approx(m, rel=1e-12, abs=0.0)
            x = np.linspace(0.0, sol.system.graph.lengths[0], 7)
            assert np.array_equal(fld.eval(0, 0, x), sol.eval_edge(0, 0, x, float(t)))

    @pytest.mark.parametrize("name", ["loop", "conservation", "two_cycle", "blocked"])
    def test_shipped_scenarios(self, name):
        sc = parse_scenario(SCENARIOS / f"{name}.yaml")
        sol = closed_loop_solve(sc.system, sc.initial, sc.control, sc.horizon)
        self.assert_matches_separate_reads(sol, sc.snapshot_times)

    def test_random_kirchhoff_network_with_jump_pairs(self, rng):
        for _ in range(2):
            self.assert_matches_separate_reads(*jumpy_kirchhoff_solution(rng))

    @settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(sweep_cases(positive=True))
    def test_mass_matches_refined_panels(self, case):
        """Random Kirchhoff networks with piecewise absorption and jump
        pairs, against Gauss panels refined 8 times, at the input breaks,
        at stamp-free times and at the ends."""
        system, x0, u, horizon, dt_max, _ = case
        sol = closed_loop_solve(system, x0, u, horizon, dt_max=dt_max, stamp_budget=400)
        times = np.concatenate([u.breaks, [0.37 * horizon, 0.81 * horizon]])
        self.assert_matches_separate_reads(sol, times, refine=8)

    @pytest.mark.parametrize("q, horizon", [(-400.0, 2.0), (10.0, 6.0)])
    def test_strong_absorption_and_growth(self, q, horizon):
        """q = -400: e^{|q| t} overflows past t = 1.78.  q = +10: a prefix
        from t = 0 weighs the first transit e^{60} above the last.  The mass
        stays finite and matches the refined panels either way."""
        sol = strong_rate_solution(q, horizon)
        times = np.linspace(0.0, horizon, 7)
        self.assert_matches_separate_reads(sol, times, refine=8)
        assert all(np.isfinite(sol.total_mass(t)) for t in times)

    def test_one_grid_read_per_snapshot_and_chunked_mass_reads(self, monkeypatch):
        """samples(t) is one read of the cached grid path and no eval_edge;
        masses(times) makes ceil(T / rows) eval_edge calls, each over at most
        M K n Gauss points (one snapshot) unless it holds a single time, and
        rows is the most times that fit."""
        sc = parse_scenario(SCENARIOS / "loop.yaml")
        sol = closed_loop_solve(sc.system, sc.initial, sc.control, sc.horizon)
        reads, calls = [], []
        read, eval_edge = CharacteristicPath.read, ClosedLoopSolution.eval_edge

        def counted_read(self, *args, **kwargs):
            reads.append(self)
            return read(self, *args, **kwargs)

        def counted_eval(self, j, k, x, t):
            calls.append(np.shape(x))
            return eval_edge(self, j, k, x, t)

        monkeypatch.setattr(CharacteristicPath, "read", counted_read)
        monkeypatch.setattr(ClosedLoopSolution, "eval_edge", counted_eval)
        times = np.linspace(0.0, sc.horizon, 11)
        for t in times.tolist():
            sol.samples(t)
        assert len(reads) == times.size and calls == []
        assert all(path is sol._grid_path for path in reads)

        reads.clear()
        sol.masses(times)
        rows = sol._mass_rows
        assert rows > 1
        assert len(calls) == len(reads) == -(-times.size // rows)
        sys_ = sol.system
        budget = sys_.n_edges * sys_.n_nodes * sys_.space_samples
        per_time = int(np.prod(calls[0][1:]))
        assert [shape[0] for shape in calls] == [min(rows, times.size - a)
                                                 for a in range(0, times.size, rows)]
        assert rows * per_time <= budget < (rows + 1) * per_time

    def test_rejects_times_outside_the_horizon(self):
        sys = make_loop()
        sol = closed_loop_solve(sys, StateField.constant(sys, 1.0), None, 1.0)
        for t in (-0.1, 1.1):
            with pytest.raises(ValueError, match="outside the solved horizon"):
                sol.snapshot(t)
            with pytest.raises(ValueError, match="outside the solved horizon"):
                sol.total_mass(t)


def same_bits(a, b) -> bool:
    """Equal shapes and equal float64 bit patterns (-0.0 is not +0.0)."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


class TestChunkedReads:
    """samples(t) equals the grid read of a path built for that read alone,
    and masses(times), read in chunks of times, equals the per-time masses
    of total_mass, bit for bit.  Times include -0.0, the wavefronts
    t = l_j / v_k and the ends, and the chunked reads take 1, rows - 1,
    rows and rows + 1 times and all of them."""

    def assert_bitwise(self, sol, times=()):
        sys_ = sol.system
        rows = sol._mass_rows
        fronts = np.unique(sys_.delays[sys_.delays <= sol.horizon])
        times = np.concatenate([[-0.0, 0.0], fronts, np.asarray(times, dtype=float),
                                np.linspace(0.0, sol.horizon, rows + 2)])
        for t in times.tolist():
            assert same_bits(sol.samples(t), snapshot_ref(sol, t)._table[1])
        per_time = [sol.total_mass(t) for t in times.tolist()]
        per_edge = [sol._edge_masses(t)[0] for t in times.tolist()]
        for count in sorted({1, rows - 1, rows, rows + 1, times.size} - {0}):
            assert same_bits(sol.masses(times[:count]), per_time[:count])
            assert same_bits(sol._edge_masses(times[:count]), per_edge[:count])
        assert same_bits(sol.masses(times[::-1]), per_time[::-1])

    @pytest.mark.parametrize("name", ["loop", "conservation", "two_cycle", "blocked"])
    def test_shipped_scenarios(self, name):
        sc = parse_scenario(SCENARIOS / f"{name}.yaml")
        sol = closed_loop_solve(sc.system, sc.initial, sc.control, sc.horizon)
        self.assert_bitwise(sol, sc.snapshot_times)

    def test_signed_zeros_and_extremes(self, tmp_path):
        """The signed scenario of tools/artifacts.py: -0.0 samples beside
        +0.0 ones, +-1e300 and 1e-300, jump pairs in the ledger."""
        path = tmp_path / "signed.yaml"
        path.write_text(yaml.safe_dump(SIGNED))
        sc = parse_scenario(path)
        sol = closed_loop_solve(sc.system, sc.initial, sc.control, sc.horizon, positive=False)
        assert any(np.signbit(sol.samples(t)[sol.samples(t) == 0.0]).any()
                   for t in sc.snapshot_times.tolist())
        self.assert_bitwise(sol, sc.snapshot_times)

    @pytest.mark.parametrize("space_samples", [41, 401])
    def test_random_kirchhoff_network_with_jump_pairs(self, rng, space_samples):
        for _ in range(2):
            sol, times = jumpy_kirchhoff_solution(rng, space_samples)
            self.assert_bitwise(sol, times)

    @pytest.mark.parametrize("q, horizon", [(-400.0, 2.0), (10.0, 6.0)])
    @pytest.mark.parametrize("knots", [None, 2])
    def test_strong_absorption_and_growth(self, q, horizon, knots):
        """The cases of TestSnapshotAndMass; with a two-knot initial state a chunk
        holds several times, so growing rates read the time-reversed prefix
        tables in chunks."""
        sol = strong_rate_solution(q, horizon, knots)
        assert (sol._mass_rows > 1) == (knots is not None)
        self.assert_bitwise(sol, np.linspace(0.0, horizon, 7))


def jump_closure_ref(breaks, delays, horizon, budget):
    """Reference jump set: one shift generation at a time, keeping points
    < horizon, stopping before a generation would exceed ``budget``."""
    jumps = set(breaks)
    front = set(breaks) if len(jumps) <= budget else set()
    while front:
        fresh = {t + d for t in front for d in delays if t + d < horizon} - jumps
        if len(jumps) + len(fresh) > budget:
            break
        jumps |= fresh
        front = fresh
    return np.array(sorted(jumps))


class TestEventStamps:
    def test_jumps_are_closed_stamps(self, rng):
        truncated = 0
        for _ in range(5):
            sys = random_network(rng, max_nodes=3)
            horizon = 2.5 * sys.min_delay
            breaks = np.concatenate([[0.0], np.sort(rng.uniform(0.0, horizon, 3)), [horizon]])
            u = StepSignal(breaks, rng.uniform(0.0, 1.0, (4, 1, sys.n_nodes)))
            x0 = random_field(rng, sys, n_x=3)
            delays = np.unique(sys.delays)
            for budget in (60_000, 12, 5, 2):
                stamps, jumps, complete = _event_stamps(sys, x0, u, horizon, horizon, budget)
                assert np.all(np.isin(jumps, stamps))
                ref = jump_closure_ref(breaks[1:-1], delays, horizon, budget)
                assert np.array_equal(jumps, ref)
                if budget == 60_000:
                    assert complete and jumps.size >= 3
                    shifted = (jumps[:, None] + delays).ravel()
                    assert np.all(np.isin(shifted[shifted < horizon], jumps))
                truncated += not complete
        assert truncated > 0

    def test_stamp_gaps_below_min_delay(self, rng):
        # the sweep reads the ledger at t - l_j / v_k, which lies before the
        # previous stamp only while every stamp gap is below min_delay
        truncated = 0
        for _ in range(6):
            sys = random_network(rng, max_nodes=3)
            horizon = 2.5 * sys.min_delay
            breaks = np.concatenate([[0.0], np.sort(rng.uniform(0.0, horizon, 3)), [horizon]])
            u = StepSignal(breaks, rng.uniform(0.0, 1.0, (4, 1, sys.n_nodes)))
            x0 = random_field(rng, sys, n_x=3)
            for budget in (60_000, 12, 5, 2):
                for dt_max in (None, 4.0 * sys.min_delay):  # a coarse dt_max is clamped
                    sol = closed_loop_solve(sys, x0, u, horizon, dt_max=dt_max,
                                            stamp_budget=budget)
                    assert np.diff(sol.ledger.times).max() < sys.min_delay
                    truncated += not sol.events_complete
        assert truncated > 0

    def test_jump_at_horizon_takes_no_budget(self):
        # delays 1.0 and 0.6: the break 0.5 shifts to 1.1 and to the horizon 1.5
        sys = make_two_cycle(n_nodes=1, v_lo=0.5, v_hi=1.5, lengths=(1.0, 0.6))
        u = StepSignal(np.array([0.0, 0.5, 1.5]), np.ones((2, 2, 1)))
        x0 = random_field(np.random.default_rng(0), sys, n_x=3)
        _, jumps, _ = _event_stamps(sys, x0, u, 1.5, 1.5, budget=2)
        assert np.array_equal(jumps, [0.5, 0.5 + 0.6])


class TestClosedLoopResolvent:
    def test_zero_kernel_reduces_to_resolvent(self, rng):
        sys = make_loop(n_nodes=2, kernel=ScatteringKernel.constant(0.0, 1, 2))
        f = random_field(rng, sys)
        mu = 2.0
        a = closed_loop_resolvent(sys, f, mu)
        b = resolvent_apply(sys, f, mu)
        assert (a - b).norm() == 0.0

    def test_positive_for_positive_data(self, rng):
        sys = random_network(rng)
        f = random_field(rng, sys)
        out = closed_loop_resolvent(sys, f, sys.q_sup + 3.0)
        assert out.min_value() >= -1e-12

    def test_characteristic_gate_refusal(self):
        sys = make_loop(kernel=ScatteringKernel.constant(100.0, 1, 1))
        with pytest.raises(CharacteristicGateError) as err:
            closed_loop_resolvent(sys, StateField.constant(sys, 1.0), 3.0)
        assert err.value.radius >= 1.0

    def test_laplace_consistency_loop(self):
        sys = make_loop(space_samples=201)
        x0 = coarse_hat(sys, knots=5)
        mu, T = 3.0, 8.0
        sol = closed_loop_solve(sys, x0, None, T)
        numeric = laplace_of_solution(sol, mu, T, panels=1600)
        exact = closed_loop_resolvent(sys, x0.resampled(sys.space_samples), mu)
        assert (numeric - exact).norm() <= 1e-4 * exact.norm()

    def test_laplace_consistency_two_vertex(self):
        base = make_two_cycle(n_nodes=2, v_lo=0.8, v_hi=1.2, space_samples=121)
        sys = make_two_cycle(
            n_nodes=2, v_lo=0.8, v_hi=1.2,
            kernel=ScatteringKernel.constant(0.9, 2, 2), space_samples=121,
        )
        x0 = coarse_hat(sys, knots=4)
        mu, T = 3.0, 7.0
        sol = closed_loop_solve(sys, x0, None, T)
        numeric = laplace_of_solution(sol, mu, T, panels=1600)
        exact = closed_loop_resolvent(sys, x0.resampled(sys.space_samples), mu)
        assert (numeric - exact).norm() <= 1e-4 * exact.norm()


# ---------------------------------------------------------------------------
# the sweep against its loop over (time, side) stamps


def sweep_ref(system, x0, u, horizon, dt_max, budget):
    """The ledger of the forward sweep, stamped from a list of (time, side)
    tuples with each jump time > 0 doubled (left limit first): at each stamp
    the (M, K) outflow trace reads the initial data where s <= 0 and the
    ledger where s > 0, is routed once, and gets the control read by
    ``StepSignal.eval`` on the stamp's side."""
    times, jumps, _ = _event_stamps(system, x0, u, horizon, dt_max, budget)
    jump_set = set(jumps.tolist())
    expanded = []
    for t in times.tolist():
        if t in jump_set and t > 0.0:
            expanded.append((t, "left"))
        expanded.append((t, "right"))
    stamp_times = np.array([t for t, _ in expanded])
    G = np.zeros((stamp_times.size, system.n_vertices, system.n_nodes))
    ledger = TraceLedger(stamp_times, G)
    edges, tails = np.arange(system.n_edges)[:, None], system.graph.tails[:, None]
    node_idx = np.arange(system.n_nodes)
    for s_idx, (t, side) in enumerate(expanded):
        s_arr = t - system.delays
        first = characteristic_read(system, edges, node_idx, 0.0, t, initial=x0)
        vals = ledger.eval_channel(tails, node_idx, s_arr, side=side)
        G[s_idx] = system.route(np.where(s_arr > 0.0, system.edge_gain * vals, first))
        if u is not None and system.graph.n_controls:
            G[s_idx] += system.graph.control @ u.eval(t, side=side)
    return stamp_times, G


class TestSweepLayout:
    """The sweep reads stamp sides and the control inflow from arrays laid
    out once; it reproduces the per-stamp loop bit for bit."""

    @settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(sweep_cases())
    def test_matches_per_stamp_loop(self, case):
        system, x0, u, horizon, dt_max, positive = case
        sol = closed_loop_solve(system, x0, u, horizon, dt_max=dt_max, stamp_budget=400,
                                positive=positive)
        times, values = sweep_ref(system, x0, u, horizon, dt_max, 400)
        assert np.any(np.diff(times) == 0.0)  # jump pairs are present
        assert np.array_equal(sol.ledger.times, times)
        assert np.array_equal(sol.ledger.values, values)
        assert sol.stamp_count == times.size

    @settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(sweep_cases(), st.sampled_from([1, 3]))
    def test_capped_windows_match_per_stamp_loop(self, case, rows):
        """Windows capped at one or three stamps, plus the right copy of a
        jump pair whose left copy ends the cap."""
        system, x0, u, horizon, dt_max, positive = case
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(solver, "_BLOCK_BYTES", 8 * system.delays.size * rows)
            sol = closed_loop_solve(system, x0, u, horizon, dt_max=dt_max, stamp_budget=400,
                                    positive=positive)
        times, values = sweep_ref(system, x0, u, horizon, dt_max, 400)
        assert np.array_equal(sol.ledger.values, values)
        assert sol.sweep_windows >= times.size / (rows + 1)

    def test_window_end_uses_the_reads_rounding(self, tmp_path):
        """The benchmark's seed-0 admissibility network has stamps at
        T = 0.875 + 1 ulp and t = 1.3125 + 1 ulp with Delta = 0.4375 + 1 ulp:
        t <= fl(T + Delta), yet the read fl(t - Delta) lands one ulp past T.
        A window that ends at T must leave t out."""
        edges = [(1, 2, 0.5833333333333334), (1, 3, 0.75), (2, 3, 1.4166666666666665),
                 (2, 2, 1.0833333333333335), (3, 1, 0.9166666666666667), (3, 3, 1.25)]
        doc = {
            "schema_version": 1,
            "graph": {"vertices": 3, "control_matrix": [[1.0], [0.0], [0.0]],
                      "edges": [{"tail": a, "head": b, "length": l, "weight": 0.5}
                                for a, b, l in edges]},
            "velocity": {"v_min": 0.5, "v_max": 1.5, "nodes": 3, "rule": "midpoint"},
            "absorption": {"constant": 0.0},
            "kernel": {"mode": "flux_preserving"},
            "initial_state": {"constant": 1.0},
            "inputs": [{"steps": {"times": [0.0], "values": [1.0]}}],
            "horizon": 2.0,
            "space_samples": 33,
        }
        path = tmp_path / "adm.yaml"
        path.write_text(yaml.safe_dump(doc))
        sc = parse_scenario(path)
        delta = sc.system.min_delay
        dt_max = min(delta / 16.0, sc.horizon / 512.0)
        sol = closed_loop_solve(sc.system, sc.initial, sc.control, sc.horizon, dt_max=dt_max)
        T, t = np.nextafter(0.875, 1.0), np.nextafter(1.3125, 2.0)
        assert delta == np.nextafter(0.4375, 1.0)
        assert T in sol.ledger.times and t in sol.ledger.times
        assert t <= T + delta and t - delta > T
        times, values = sweep_ref(sc.system, sc.initial, sc.control, sc.horizon, dt_max, 60_000)
        assert np.array_equal(sol.ledger.times, times)
        assert np.array_equal(sol.ledger.values, values)

    @staticmethod
    def assert_initial_rows_match_flow_trace(system, x0, horizon, **kwargs):
        """Without input, the ledger rows at stamps t <= Delta are the
        pair-loop Gamma T(t) x0 bit for bit, sign bits included."""
        sol = closed_loop_solve(system, x0, None, horizon, **kwargs)
        early = sol.ledger.times <= system.min_delay
        assert early.any()
        want = flow_trace(system, x0, sol.ledger.times[early])
        assert np.array_equal(sol.ledger.values[early].view(np.int64), want.view(np.int64))

    @pytest.mark.parametrize("name", ["loop", "conservation", "two_cycle", "blocked"])
    def test_initial_rows_are_flow_trace_on_shipped_scenarios(self, name):
        sc = parse_scenario(SCENARIOS / f"{name}.yaml")
        self.assert_initial_rows_match_flow_trace(sc.system, sc.initial, sc.horizon)

    @settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(sweep_cases())
    def test_initial_rows_are_flow_trace(self, case):
        system, x0, _, horizon, dt_max, positive = case
        self.assert_initial_rows_match_flow_trace(system, x0, horizon, dt_max=dt_max,
                                                  stamp_budget=400, positive=positive)

    def test_call_counts(self, monkeypatch):
        def refused(self, *args, **kwargs):
            raise AssertionError("the sweep reads the control from its table")

        monkeypatch.setattr(StepSignal, "eval", refused)
        sol, _ = jumpy_kirchhoff_solution(np.random.default_rng(7))

        calls = []
        primitive = Absorption.primitive

        def counted(self, *args):
            calls.append(args)
            return primitive(self, *args)

        monkeypatch.setattr(Absorption, "primitive", counted)
        sol.eval_edge(0, 0, np.linspace(0.0, sol.system.graph.lengths[0], 5), 0.9)
        assert len(calls) == 2  # P_j at x and at the foot

    def test_one_characteristic_read_per_window(self, monkeypatch):
        """Every window makes one characteristic_read that takes the initial
        data and the ledger together, and one more when it holds the left
        copy of a jump pair; the pair loop of flow_trace is never called."""
        def refused(*args, **kwargs):
            raise AssertionError("the sweep reads the initial data in its windows")

        monkeypatch.setattr(transport, "flow_trace", refused)
        reads, windows = [], []
        read, sweep = solver.characteristic_read, solver._sweep_window

        def counted_read(*args, **kwargs):
            reads.append(kwargs)
            return read(*args, **kwargs)

        def counted_sweep(system, x0, ledger, times, left, out):
            before = len(reads)
            sweep(system, x0, ledger, times, left, out)
            windows.append((len(reads) - before, 1 + bool(left.any())))

        monkeypatch.setattr(solver, "characteristic_read", counted_read)
        monkeypatch.setattr(solver, "_sweep_window", counted_sweep)
        for block_bytes in (solver._BLOCK_BYTES, 1):  # 1: windows of one stamp or one jump pair
            monkeypatch.setattr(solver, "_BLOCK_BYTES", block_bytes)
            windows.clear()
            sol, _ = jumpy_kirchhoff_solution(np.random.default_rng(7))
            assert len(windows) == sol.sweep_windows
            assert [got for got, _ in windows] == [want for _, want in windows]
        assert {want for _, want in windows} == {1, 2}
        assert all(set(kw) == {"initial", "inflow"} for kw in reads)
