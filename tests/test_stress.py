"""Cross-operator consistency on harder configurations: piecewise
absorption tables, parallel edges, weight splitting, and signed data."""

import numpy as np
import pytest

from posflow import (
    Absorption,
    MetricGraph,
    Quadrature,
    ScatteringKernel,
    StateField,
    StepSignal,
    TransportSystem,
    boundary_traces,
    closed_loop_resolvent,
    closed_loop_solve,
    dirichlet_apply,
    resolvent_apply,
    semigroup_apply,
)

from conftest import random_field
from test_solver import laplace_of_solution
from test_transport import laplace_of_semigroup


def piecewise_loop(space_samples=161):
    """Loop edge with a two-piece absorption profile and two speeds."""
    graph = MetricGraph(1, [0], [0], [1.0], [1.0], np.ones((1, 1)))
    vgrid = Quadrature.midpoint(0.8, 1.2, 2)
    absorption = Absorption(
        (np.array([0.0, 0.35, 1.0]),),
        (np.array([[-0.8, -0.5], [0.2, -1.1]]),),
    )
    return TransportSystem(graph, vgrid, absorption, ScatteringKernel.identity(), space_samples)


def parallel_network(space_samples=121):
    """Two vertices; vertex 1 splits its outflow over two parallel edges to
    vertex 2, which returns over a single edge."""
    graph = MetricGraph(
        2,
        [0, 0, 1],
        [1, 1, 0],
        [1.0, 0.6, 0.8],
        [0.3, 0.7, 1.0],
        np.ones((2, 1)),
    )
    vgrid = Quadrature.midpoint(0.9, 1.3, 2)
    absorption = Absorption.constant(0.0, graph.lengths, vgrid.n)
    return TransportSystem(graph, vgrid, absorption, ScatteringKernel.identity(), space_samples)


class TestPiecewiseAbsorption:
    def test_semigroup_law_survives_tables(self, rng):
        sys = piecewise_loop()
        for _ in range(5):
            f = random_field(rng, sys)
            t, s = rng.uniform(0.05, 0.8, 2)
            lhs = semigroup_apply(sys, f, t + s)
            rhs = semigroup_apply(sys, semigroup_apply(sys, f, s), t)
            assert (lhs - rhs.sampled()).norm() <= 1e-10 * f.norm()

    def test_semigroup_matches_pointwise_exponent(self):
        # one sample point, integral of q along the characteristic by hand
        sys = piecewise_loop()
        f = StateField.constant(sys, 1.0)
        t, x, k = 0.4, 0.1, 0  # v = 0.9: x + vt = 0.46, crosses the break at 0.35
        v = sys.vgrid.nodes[k]
        out = semigroup_apply(sys, f, t)
        # int_x^{x+vt} q: piece 1 on [0.1, 0.35] at -0.8, piece 2 on [0.35, 0.46] at 0.2
        manual = (-0.8 * (0.35 - 0.1) + 0.2 * (0.1 + v * t - 0.35)) / v
        got = out.eval(0, k, np.array([x]))[0]
        assert abs(got - np.exp(manual)) < 1e-14

    def test_resolvent_vs_laplace_oracle(self):
        sys = piecewise_loop()
        f = StateField.from_function(sys, lambda j, x, k: np.sin(np.pi * x) ** 2 + 0.1)
        mu = sys.q_sup + 2.0
        direct = resolvent_apply(sys, f, mu)
        oracle = laplace_of_semigroup(sys, f, mu, T=8.0, panels=1500)
        assert (direct - oracle).norm() <= 1e-4 * direct.norm()

    def test_resolvent_identity_with_tables(self, rng):
        sys = piecewise_loop(space_samples=1601)
        f = random_field(rng, sys, 1601)
        r2 = resolvent_apply(sys, f, sys.q_sup + 0.7)
        r3 = resolvent_apply(sys, f, sys.q_sup + 1.9)
        lhs = r2 - r3
        rhs = resolvent_apply(sys, r3, sys.q_sup + 0.7).scaled(1.2)
        assert (lhs - rhs).norm() <= 1e-6 * max(lhs.norm(), 1e-30)

    def test_closed_loop_laplace_with_tables(self):
        sys = piecewise_loop()
        xs = np.linspace(0.0, 1.0, 5)
        prof = np.minimum(xs, 1.0 - xs) * 2.0
        x0 = StateField(sys, [xs], [np.tile(prof, (2, 1))])
        mu, T = sys.q_sup + 2.0, 7.0
        sol = closed_loop_solve(sys, x0, None, T)
        numeric = laplace_of_solution(sol, mu, T, panels=1600)
        exact = closed_loop_resolvent(sys, x0.resampled(sys.space_samples), mu)
        assert (numeric - exact).norm() <= 1e-4 * exact.norm()


class TestParallelEdges:
    def test_dirichlet_trace_roundtrip(self, rng):
        sys = parallel_network()
        g = rng.uniform(0.2, 1.0, (2, 2))
        lift = dirichlet_apply(sys, g, 1.5)
        back = boundary_traces(sys, lift)["G"]
        assert np.max(np.abs(back - g)) < 1e-12

    def test_weight_split_on_parallel_edges(self):
        sys = parallel_network()
        g = np.ones((sys.n_vertices, sys.n_nodes))
        lift = dirichlet_apply(sys, g, 0.0)  # no decay: pure weight pattern
        # inflow ends carry w_j * g_{tail}: 0.3 and 0.7 on the parallel pair
        assert abs(lift.eval(0, 0, np.array([1.0]))[0] - 0.3) < 1e-14
        assert abs(lift.eval(1, 0, np.array([0.6]))[0] - 0.7) < 1e-14

    def test_closed_loop_mass_conservation(self):
        sys = parallel_network()
        xs0 = [np.linspace(0.0, float(l), 4) for l in sys.graph.lengths]
        values = [
            np.tile(np.minimum(x, x[-1] - x) * 2.0, (2, 1)) for x in xs0
        ]
        x0 = StateField(sys, xs0, values)
        sol = closed_loop_solve(sys, x0, None, 1.5)
        # identity kernel + Kirchhoff weights + q = 0 conserve mass
        m0 = sol.total_mass(0.0)
        drift = max(abs(sol.total_mass(t) - m0) for t in (0.5, 1.0, 1.5)) / m0
        assert drift < 1e-8

    def test_positivity_through_the_battery(self, rng):
        sys = parallel_network()
        f = random_field(rng, sys)
        u = StepSignal(np.array([0.0, 0.4, 2.0]), rng.uniform(0.0, 1.0, (2, 1, 2)))
        sol = closed_loop_solve(sys, f, u, 2.0, stamp_budget=8000)
        assert sol.min_state >= -1e-9
        assert resolvent_apply(sys, f, 1.0).min_value() >= -1e-12


class TestSignedData:
    def test_solver_signed_mode_is_linear(self, rng):
        # z(f_plus) - z(f_minus) must equal z(f) run in signed mode
        sys = parallel_network(space_samples=61)
        xs0 = [np.linspace(0.0, float(l), 4) for l in sys.graph.lengths]
        plus = [rng.uniform(0.0, 1.0, (2, 4)) for _ in range(3)]
        minus = [rng.uniform(0.0, 1.0, (2, 4)) for _ in range(3)]
        f_plus = StateField(sys, xs0, plus)
        f_minus = StateField(sys, xs0, minus)
        f = StateField(sys, xs0, [a - b for a, b in zip(plus, minus)])
        t = 1.1
        sols = [
            closed_loop_solve(sys, fld, None, 1.5, positive=pos)
            for fld, pos in ((f_plus, True), (f_minus, True), (f, False))
        ]
        for j in range(sys.n_edges):
            for k in range(2):
                x = np.linspace(0, sys.graph.lengths[j], 37)
                diff = sols[0].eval_edge(j, k, x, t) - sols[1].eval_edge(j, k, x, t)
                signed = sols[2].eval_edge(j, k, x, t)
                assert np.max(np.abs(diff - signed)) < 1e-10
