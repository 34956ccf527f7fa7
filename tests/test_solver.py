import numpy as np
import pytest

from posflow import (
    CharacteristicGateError,
    ScatteringKernel,
    StateField,
    StepSignal,
    closed_loop_resolvent,
    closed_loop_solve,
    resolvent_apply,
)
from posflow.scenario import flux_preserving_kernel

from conftest import make_loop, make_two_cycle, random_field, random_network


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
    grids = [sys_.xgrid(j) for j in range(sys_.n_edges)]
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
            xs = sys.xgrid(0, 401)
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
