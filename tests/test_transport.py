import dataclasses
from pathlib import Path

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
    flow_trace,
    flux_preserving_kernel,
    input_map,
    io_map,
    resolvent_apply,
    semigroup_apply,
    transfer_max_entry,
    transfer_operator,
    transfer_radius,
)
from posflow.lattice import dense_spectral_radius
from posflow.transport import CharacteristicPath, characteristic_read
from posflow.scenario import parse_scenario
from conftest import make_loop, make_two_cycle, random_field, random_network

SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"


def hat_field(system, n_x=None):
    """Piecewise-linear tent profile per edge, positive in the interior."""

    def fn(j, x, k):
        l = system.graph.lengths[j]
        return np.minimum(x, l - x) * (2.0 / l) * (1.0 + 0.1 * k)

    xs = None if n_x is None else np.linspace(0.0, system.graph.lengths, n_x, axis=1)
    return StateField.from_function(system, fn, xs=xs)


def laplace_of_semigroup(system, f, mu, T, panels=1200):
    """Time-quadrature oracle int_0^T e^{-mu t} T(t) f dt (4-point panels)."""
    T_eff = min(T, float(np.max(system.graph.lengths)) / float(system.vgrid.nodes[0]))
    gl_x, gl_w = np.polynomial.legendre.leggauss(4)
    edges = np.linspace(0.0, T_eff, panels + 1)
    acc = [np.zeros_like(v) for v in f.values]
    for a, b in zip(edges[:-1], edges[1:]):
        mid, half = 0.5 * (a + b), 0.5 * (b - a)
        for xi, wi in zip(gl_x, gl_w):
            t = mid + half * xi
            fld = semigroup_apply(system, f, t)
            scale = half * wi * np.exp(-mu * t)
            for j in range(system.n_edges):
                acc[j] += scale * fld.values[j]
    return StateField(system, f.xs, acc)


class TestSemigroup:
    def test_time_zero_is_identity(self, rng):
        sys = make_loop(n_nodes=3)
        f = random_field(rng, sys)
        out = semigroup_apply(sys, f, 0.0)
        for a, b in zip(out.values, f.values):
            assert np.array_equal(a, b)

    def test_loop_pure_shift(self):
        sys = make_loop()
        f = StateField.constant(sys, 1.0)
        out = semigroup_apply(sys, f, 0.3)
        xs = np.linspace(0.0, sys.graph.lengths[0], sys.space_samples)
        vals = out.values[0][0]
        assert np.all(vals[xs < 0.699] == 1.0)
        assert np.all(vals[xs > 0.701] == 0.0)

    def test_constant_absorption_factor(self):
        sys = make_loop(q=-2.0)
        f = StateField.constant(sys, 1.0)
        out = semigroup_apply(sys, f, 0.3)
        xs = np.linspace(0.0, sys.graph.lengths[0], sys.space_samples)
        inside = out.values[0][0][xs < 0.699]
        assert np.max(np.abs(inside - np.exp(-0.6))) < 1e-14

    def test_rejects_negative_time(self):
        sys = make_loop()
        with pytest.raises(ValueError):
            semigroup_apply(sys, StateField.zeros(sys), -0.1)

    def test_semigroup_law_on_random_networks(self, rng):
        for _ in range(3):
            sys = random_network(rng)
            for _ in range(5):
                f = random_field(rng, sys)
                t, s = rng.uniform(0.05, 0.8, 2)
                lhs = semigroup_apply(sys, f, t + s)
                rhs = semigroup_apply(sys, semigroup_apply(sys, f, s), t)
                assert (lhs - rhs.sampled()).norm() <= 1e-10 * f.norm()

    def test_cone_preservation(self, rng):
        sys = random_network(rng)
        f = random_field(rng, sys)
        for t in (0.1, 0.55, 1.3):
            assert semigroup_apply(sys, f, t).min_value() >= -1e-12


class TestResolvent:
    def test_zero_field(self):
        sys = make_loop()
        out = resolvent_apply(sys, StateField.zeros(sys), 2.0)
        assert out.max_abs() == 0.0

    def test_loop_closed_form(self):
        sys = make_loop(space_samples=401)
        f = StateField.constant(sys, 1.0)
        mu = 2.0
        out = resolvent_apply(sys, f, mu)
        xs = np.linspace(0.0, sys.graph.lengths[0], 401)
        exact = (1.0 - np.exp(-mu * (1.0 - xs))) / mu
        assert np.max(np.abs(out.values[0][0] - exact)) < 1e-8

    def test_resolvent_identity(self, rng):
        sys = make_loop(n_nodes=2, space_samples=2001)
        f = random_field(rng, sys, 2001)
        mu, lam = 2.0, 3.0
        r_mu = resolvent_apply(sys, f, mu)
        r_lam = resolvent_apply(sys, f, lam)
        lhs = r_mu - r_lam
        rhs = resolvent_apply(sys, r_lam, mu).scaled(lam - mu)
        assert (lhs - rhs).norm() <= 1e-6 * max(lhs.norm(), 1e-30)

    def test_positivity(self, rng):
        sys = random_network(rng)
        f = random_field(rng, sys)
        out = resolvent_apply(sys, f, sys.q_sup + 1.5)
        assert out.min_value() >= -1e-12

    def test_mu_guard(self):
        sys = make_loop(q=-2.0)
        with pytest.raises(ValueError):
            resolvent_apply(sys, StateField.zeros(sys), 1.5)

    def test_matches_laplace_oracle(self, rng):
        sys = make_loop(n_nodes=2, v_lo=0.8, v_hi=1.2, space_samples=161)
        f = hat_field(sys, 161)
        mu = 2.0
        direct = resolvent_apply(sys, f, mu)
        # T(t)f vanishes for t >= l/v_min, so the truncation is exact
        oracle = laplace_of_semigroup(sys, f, mu, T=8.0, panels=1500)
        err = (direct - oracle).norm()
        assert err <= 1e-4 * direct.norm()

    def test_norm_lower_bound_stable_under_refinement(self, rng):
        sys = make_loop(n_nodes=2, q=-0.3)
        for mu in (sys.q_sup + 1.0, sys.q_sup + 2.0):
            ratios = {}
            for n_x in (101, 201):
                worst = np.inf
                for _ in range(50):
                    f = random_field(rng, sys, n_x)
                    worst = min(worst, resolvent_apply(sys, f, mu).norm() / f.norm())
                ratios[n_x] = worst
            assert ratios[101] > 0.01 and ratios[201] > 0.01
            assert abs(ratios[101] - ratios[201]) < 0.2 * ratios[101] + 0.05


class TestDirichlet:
    def test_zero_boundary(self):
        sys = make_loop()
        out = dirichlet_apply(sys, np.zeros((1, 1)), 2.0)
        assert out.max_abs() == 0.0

    def test_loop_exponential_profile(self):
        sys = make_loop()
        out = dirichlet_apply(sys, np.ones((1, 1)), 2.0)
        xs = np.linspace(0.0, sys.graph.lengths[0], sys.space_samples)
        exact = np.exp(-2.0 * (1.0 - xs))
        assert np.max(np.abs(out.values[0][0] - exact)) < 1e-14

    def test_right_inverse_of_trace(self, rng):
        for _ in range(5):
            sys = random_network(rng)
            g = rng.uniform(0.0, 1.0, (sys.n_vertices, sys.n_nodes))
            lift = dirichlet_apply(sys, g, sys.q_sup + 1.0)
            back = boundary_traces(sys, lift)["G"]
            assert np.max(np.abs(back - g)) < 1e-12

    def test_positive_for_any_mu(self, rng):
        sys = random_network(rng)
        g = rng.uniform(0.0, 1.0, (sys.n_vertices, sys.n_nodes))
        for mu in (-1.0, 0.0, 5.0):
            assert dirichlet_apply(sys, g, mu).min_value() >= 0.0

    def test_interior_equation_residual(self):
        # (mu - A_m) D_mu g = 0: central differences on refined grids
        sys = make_loop(n_nodes=2, v_lo=0.9, v_hi=1.3, q=-0.5)
        g = np.ones((1, 2))
        mu = 1.5
        lift = dirichlet_apply(sys, g, mu)
        for n in (2001, 4001):
            for k, v in enumerate(sys.vgrid.nodes):
                xs = np.linspace(0.0, sys.graph.lengths[0], n)
                d = lift.eval(0, k, xs)
                h = xs[1] - xs[0]
                dp = (d[2:] - d[:-2]) / (2 * h)
                q = -0.5
                residual = mu * d[1:-1] - v * dp - q * d[1:-1]
                assert np.max(np.abs(residual)) < 1e-6


class TestBoundaryOperators:
    def test_vanishing_near_endpoints(self):
        sys = make_loop(n_nodes=2)

        def fn(j, x, k):
            return np.clip(np.minimum(x - 0.3, 0.7 - x), 0.0, None)

        f = StateField.from_function(sys, fn)
        tr = boundary_traces(sys, f)
        assert tr["G"].max() == 0.0 and tr["Gamma"].max() == 0.0

    def test_identity_kernel_routes_without_mixing(self, rng):
        sys = make_two_cycle(n_nodes=3)
        f = random_field(rng, sys)
        tr = boundary_traces(sys, f)
        for j in range(sys.n_edges):
            head = sys.graph.heads[j]
            expected = np.array([f.eval(j, k, np.array([0.0]))[0] for k in range(3)])
            assert np.allclose(tr["Gamma"][head], expected, atol=1e-14)

    def test_constant_kernel_integrates_velocity(self):
        sys = make_loop(n_nodes=6, v_lo=1.0, v_hi=2.0,
                        kernel=ScatteringKernel.constant(1.0, 1, 6))

        def fn(j, x, k):
            return np.full_like(x, sys.vgrid.nodes[k])

        f = StateField.from_function(sys, fn)
        gam = boundary_traces(sys, f)["Gamma"]
        oracle = float(np.dot(sys.vgrid.weights, sys.vgrid.nodes))
        assert np.max(np.abs(gam[0] - oracle)) < 1e-13


class TestInputMap:
    def test_zero_input(self):
        sys = make_loop()
        u = StepSignal.zero((1, 1), 1.0)
        assert input_map(sys, u, 0.8).max_abs() == 0.0

    def test_unreached_region_is_exactly_zero(self, rng):
        sys = random_network(rng)
        u = StepSignal.constant(rng.uniform(0.5, 1.0, (sys.n_vertices, sys.n_nodes)), 2.0)
        t = 0.3
        out = input_map(sys, u, t)
        for j in range(sys.n_edges):
            l = sys.graph.lengths[j]
            for k, v in enumerate(sys.vgrid.nodes):
                xs = out.xs[j]
                unreached = t < (l - xs) / v
                assert np.all(out.values[j][k][unreached] == 0.0)

    def test_loop_boundary_fill(self):
        sys = make_loop()
        u = StepSignal.constant(np.ones((1, 1)), 0.4)
        out = input_map(sys, u, 0.4)
        xs = np.linspace(0.0, sys.graph.lengths[0], sys.space_samples)
        vals = out.values[0][0]
        assert np.all(vals[xs > 0.601] == 1.0)
        assert np.all(vals[xs < 0.599] == 0.0)

    def test_short_history_rejected(self):
        sys = make_loop()
        with pytest.raises(ValueError):
            input_map(sys, StepSignal.zero((1, 1), 0.3), 0.5)

    def test_positivity(self, rng):
        sys = random_network(rng)
        u = StepSignal(
            np.array([0.0, 0.4, 1.0]),
            rng.uniform(0.0, 1.0, (2, sys.n_vertices, sys.n_nodes)),
        )
        assert input_map(sys, u, 0.9).min_value() >= 0.0

    def test_laplace_pair_with_dirichlet(self):
        # frozen (constant) input: int_0^inf e^{-mu t} Phi_t u0 dt = D_mu u0 / mu
        sys = make_loop(n_nodes=2, v_lo=0.8, v_hi=1.2, q=-0.4)
        mu, panels = 2.5, 1400
        # Phi_t u is constant in t once every characteristic has filled
        # (t >= l / v_min), so integrate panels up to the fill time and add
        # the exact exponential tail of the frozen state.
        t_fill = 1.0 / sys.vgrid.nodes[0] + 1e-9
        u0 = np.ones((1, 2))
        u = StepSignal.constant(u0, 2.0 * t_fill)
        gl_x, gl_w = np.polynomial.legendre.leggauss(4)
        edges = np.linspace(0.0, t_fill, panels + 1)
        acc = np.zeros((2, sys.space_samples))
        for a, b in zip(edges[:-1], edges[1:]):
            mid, half = 0.5 * (a + b), 0.5 * (b - a)
            for xi, wi in zip(gl_x, gl_w):
                t = mid + half * xi
                fld = input_map(sys, u, t)
                acc += half * wi * np.exp(-mu * t) * fld.values[0]
        acc += np.exp(-mu * t_fill) / mu * input_map(sys, u, t_fill).values[0]
        predicted = dirichlet_apply(sys, u0, mu)
        num = StateField(sys, [np.linspace(0.0, sys.graph.lengths[0], sys.space_samples)], [acc])
        ref = StateField(sys, predicted.xs, [predicted.values[0] / mu])
        assert (num - ref).norm() <= 1e-4 * ref.norm()


class TestIOMap:
    def test_zero_input(self):
        sys = make_loop()
        out = io_map(sys, StepSignal.zero((1, 1), 3.0), np.linspace(0, 2, 21))
        assert out.shape == (21, 1, 1) and np.all(out == 0.0)

    def test_bit_zero_before_first_transit(self, rng):
        for _ in range(3):
            sys = random_network(rng)
            u = StepSignal.constant(
                rng.uniform(0.5, 1.0, (sys.n_vertices, sys.n_nodes)), 5.0
            )
            delta = sys.min_delay
            times = np.linspace(0.0, 0.999 * delta, 13)
            out = io_map(sys, u, times)
            assert np.all(out == 0.0)

    def test_loop_is_pure_delay(self):
        sys = make_loop()
        breaks = np.array([0.0, 0.7, 1.3, 2.0, 3.0])
        vals = np.array([1.0, 0.2, 0.9, 0.5]).reshape(4, 1, 1)
        u = StepSignal(breaks, vals)
        times = np.linspace(0.0, 2.9, 59)
        out = io_map(sys, u, times)
        for i, t in enumerate(times):
            expected = u.eval(t - 1.0)[0, 0] if t >= 1.0 else 0.0
            assert abs(out[i, 0, 0] - expected) < 1e-12


def scatter_ref(system, j, trace):
    """J_j applied to velocity samples (trailing axis), written out per edge."""
    if system.kernel.is_identity:
        return trace
    return (trace * system.vgrid.weights) @ system.kernel.matrices[j].T


def route_ref(system, traces):
    """Reference Gamma: scatter each edge's trace and add it into its head."""
    out = np.zeros(traces.shape[:-2] + (system.n_vertices, system.n_nodes))
    for j in range(system.n_edges):
        out[..., system.graph.heads[j], :] += scatter_ref(system, j, traces[..., j, :])
    return out


def io_map_per_node(system, u, times):
    """Reference F u: one read per (edge, velocity node), arrival at t >= l_j / v_k."""
    out = np.zeros((times.size, system.n_vertices, system.n_nodes))
    for j in range(system.n_edges):
        l = system.graph.lengths[j]
        trace = np.zeros((times.size, system.n_nodes))
        for k, v in enumerate(system.vgrid.nodes):
            arrived = times >= l / v
            prim = system.absorption.primitive
            gain = np.exp((prim(j, k, l) - prim(j, k, 0.0)) / v) * system.graph.weights[j]
            vals = u.eval_channel(system.graph.tails[j], k, times[arrived] - l / v)
            trace[arrived, k] = gain * vals
        out[:, system.graph.heads[j], :] += scatter_ref(system, j, trace)
    return out


class TestArrayForms:
    def network(self, rng):
        sys = random_network(rng)
        assert sys.q_sup > 0 and not sys.kernel.is_identity
        # probe the wavefront itself: every transit time l_j / v_k
        arrivals = np.concatenate([l / sys.vgrid.nodes for l in sys.graph.lengths])
        return sys, np.union1d(np.linspace(0.0, 2.0, 41), arrivals[arrivals <= 2.0])

    def test_flow_trace_over_times_matches_scalar_calls(self, rng):
        for _ in range(3):
            sys, times = self.network(rng)
            f = random_field(rng, sys)
            batched = flow_trace(sys, f, times)
            scalar = np.stack([flow_trace(sys, f, t) for t in times])
            np.testing.assert_allclose(batched, scalar, rtol=1e-14, atol=0.0)

    def test_io_map_matches_per_node_loop(self, rng):
        for _ in range(3):
            sys, times = self.network(rng)
            u = StepSignal(
                np.linspace(0.0, 2.0, 9), rng.uniform(0.0, 1.0, (8, sys.n_vertices, sys.n_nodes))
            )
            got = io_map(sys, u, times)
            np.testing.assert_allclose(got, io_map_per_node(sys, u, times), rtol=1e-14, atol=0.0)


class TestRoute:
    def test_matches_per_edge_loop_with_parallel_edges(self, rng):
        for _ in range(3):
            k = int(rng.integers(2, 7))
            # edges 0, 3 and 4 all run 0 -> 1: parallel edges into one head
            tails, heads = [0, 1, 2, 0, 0, 1, 2], [1, 1, 1, 1, 1, 0, 0]
            graph = MetricGraph(3, tails, heads, rng.uniform(0.5, 1.5, 7),
                                [1 / 3, 0.5, 0.5, 1 / 3, 1 / 3, 0.5, 0.5])
            vgrid = Quadrature.midpoint(0.5, 1.5, k)
            kernel = ScatteringKernel(tuple(rng.uniform(0.0, 1.0, (7, k, k))))
            sys = TransportSystem(graph, vgrid, Absorption.zero(graph.lengths, k), kernel)
            for shape in ((), (5,), (4, 3)):
                traces = rng.uniform(0.0, 1.0, shape + (7, k))
                np.testing.assert_allclose(
                    sys.route(traces), route_ref(sys, traces), rtol=1e-14, atol=0.0
                )

    def test_adds_parallel_edges_in_edge_order_bit_for_bit(self, rng):
        k = 4
        # edges 0, 1, 3 and 4 run 0 -> 1, edge 2 runs 2 -> 1: five edges into
        # vertex 1, four of them parallel
        tails, heads = [0, 0, 2, 0, 0, 1], [1, 1, 1, 1, 1, 0]
        graph = MetricGraph(3, tails, heads, rng.uniform(0.5, 1.5, 6),
                            [0.25, 0.25, 1.0, 0.25, 0.25, 1.0])
        vgrid = Quadrature.midpoint(0.5, 1.5, k)
        kernel = ScatteringKernel(tuple(rng.uniform(0.0, 1.0, (6, k, k))))
        sys = TransportSystem(graph, vgrid, Absorption.zero(graph.lengths, k), kernel)
        for shape in ((), (7,)):
            # magnitudes spread over many decades, so any other summation
            # order rounds differently
            traces = rng.uniform(0.0, 1.0, shape + (6, k)) * 10.0 ** rng.integers(-8, 9, (6, 1))
            scattered = np.einsum("jkl,...jl->...jk", sys.scatter, traces)
            want = np.zeros(shape + (3, k))
            for j in range(6):
                want[..., heads[j], :] += scattered[..., j, :]
            assert np.array_equal(sys.route(traces), want)

    def test_identity_kernel_is_exact(self, rng):
        sys = make_two_cycle()
        assert np.array_equal(sys.scatter, np.broadcast_to(np.eye(3), (2, 3, 3)))
        traces = rng.uniform(0.0, 1.0, (9, 2, 3))
        assert np.array_equal(sys.route(traces), route_ref(sys, traces))


class TestKernelTables:
    def test_scatter_is_the_stacked_tables_times_weights(self, rng):
        k = 5
        graph = MetricGraph(3, [0, 0, 2, 0, 1, 1], [1, 1, 1, 2, 0, 2], rng.uniform(0.5, 1.5, 6),
                            [1 / 3, 1 / 3, 1.0, 1 / 3, 0.5, 0.5])
        # unequal, asymmetric weights, so a weight on the wrong axis shows
        vgrid = Quadrature(np.linspace(0.6, 1.4, k), [0.1, 0.3, 0.2, 0.25, 0.15], 0.5, 1.5)
        tables = tuple(rng.uniform(0.0, 1.0, (6, k, k)))
        one = rng.uniform(0.0, 1.0, (k, k))
        cases = [
            (tables, tables),
            (np.stack(tables), tables),
            (np.broadcast_to(one, (6, k, k)), (one,) * 6),
        ]
        for given, stacked in cases:
            sys = TransportSystem(graph, vgrid, Absorption.zero(graph.lengths, k),
                                  ScatteringKernel(given))
            assert np.array_equal(sys.scatter, np.stack(stacked) * vgrid.weights)

    def test_shared_tables_are_stored_once(self):
        vgrid = make_two_cycle(n_nodes=4).vgrid
        for kernel in (flux_preserving_kernel(vgrid, 7), ScatteringKernel.constant(0.5, 7, 4)):
            assert kernel.matrices.shape == (7, 4, 4)
            assert kernel.matrices.strides[0] == 0

    def test_rejects_bad_tables(self):
        with pytest.raises(ValueError, match="square"):
            ScatteringKernel(np.ones((2, 3, 2)))
        with pytest.raises(ValueError, match="one size"):
            ScatteringKernel((np.ones((2, 2)), np.ones((3, 3))))
        with pytest.raises(ValueError, match="nonnegative"):
            ScatteringKernel(-np.ones((2, 3, 3)))
        with pytest.raises(ValueError, match="every edge"):
            make_two_cycle(n_nodes=3, kernel=ScatteringKernel(np.ones((3, 3, 3))))
        with pytest.raises(ValueError, match="velocity grid"):
            make_two_cycle(n_nodes=3, kernel=ScatteringKernel(np.ones((2, 2, 2))))


def transfer_ref(system, mu):
    """H(mu) assembled one edge block at a time, in edge order."""
    N, K = system.n_vertices, system.n_nodes
    H = np.zeros((N * K, N * K))
    for j in range(system.n_edges):
        tail, head = system.graph.tails[j], system.graph.heads[j]
        block = system.scatter[j] * (system.edge_gain[j] * np.exp(-mu * system.delays[j]))
        H[head * K : (head + 1) * K, tail * K : (tail + 1) * K] += block
    return H


class TestTransferOperator:
    def test_matches_edge_loop_with_parallel_edges(self, rng):
        for _ in range(4):
            k = int(rng.integers(2, 7))
            # edges 0, 3 and 4 all run 0 -> 1: parallel edges into one block
            tails, heads = [0, 1, 2, 0, 0, 1, 2], [1, 1, 1, 1, 1, 0, 0]
            lengths = rng.uniform(0.5, 1.5, 7)
            graph = MetricGraph(3, tails, heads, lengths,
                                [1 / 3, 0.5, 0.5, 1 / 3, 1 / 3, 0.5, 0.5])
            vgrid = Quadrature.midpoint(0.5, 1.5, k)
            kernel = ScatteringKernel(tuple(rng.uniform(0.0, 1.0, (7, k, k))))
            absorption = Absorption.constant(rng.uniform(-0.8, 0.4, 7), lengths, k)
            for sys in (TransportSystem(graph, vgrid, absorption, kernel), random_network(rng)):
                for mu in rng.uniform(-1.0, 5.0, 5):
                    assert np.array_equal(transfer_operator(sys, mu), transfer_ref(sys, mu))
                    assert transfer_max_entry(sys, mu) == np.max(np.abs(transfer_ref(sys, mu)))

    @pytest.mark.parametrize("name", ["loop", "conservation", "two_cycle", "blocked"])
    def test_matches_edge_loop_on_shipped_scenarios(self, name):
        sys = parse_scenario(SCENARIOS / f"{name}.yaml").system
        for mu in np.linspace(sys.q_sup + 0.5, sys.q_sup + 8.0, 31):
            assert np.array_equal(transfer_operator(sys, mu), transfer_ref(sys, mu))
            assert transfer_max_entry(sys, mu) == np.max(np.abs(transfer_ref(sys, mu)))

    def test_loop_identity_kernel(self):
        sys = make_loop()
        for mu in (1.0, 2.0, 4.0):
            H = transfer_operator(sys, mu)
            assert H.shape == (1, 1)
            assert abs(H[0, 0] - np.exp(-mu)) < 1e-14
            assert abs(dense_spectral_radius(H) - np.exp(-mu)) < 1e-14

    def test_zero_boundary_maps_to_zero(self):
        sys = make_two_cycle()
        g = np.zeros((sys.n_vertices, sys.n_nodes))
        assert np.all(transfer_operator(sys, 2.0) @ g.ravel() == 0.0)
        assert np.all(boundary_traces(sys, dirichlet_apply(sys, g, 2.0))["Gamma"] == 0.0)

    def test_entrywise_monotone_in_mu(self, rng):
        for _ in range(3):
            sys = random_network(rng)
            lam = sys.q_sup + 0.5
            H1 = transfer_operator(sys, lam)
            H2 = transfer_operator(sys, lam + 2.0)
            assert np.all(H2 <= H1 + 1e-14)

    def test_matches_gamma_dirichlet_composition(self, rng):
        # H(mu) g = Gamma D_mu g, with g an (N, K) array and H acting on its
        # vertex-major ravel
        systems = [make_two_cycle(q=-0.3, kernel=ScatteringKernel.constant(0.4, 2, 3))]
        systems += [random_network(rng) for _ in range(5)]
        for sys in systems:
            assert sys.q_sup > 0
            g = rng.uniform(0.0, 1.0, (sys.n_vertices, sys.n_nodes))
            mu = sys.q_sup + 1.7
            via_matrix = (transfer_operator(sys, mu) @ g.ravel()).reshape(g.shape)
            via_ops = boundary_traces(sys, dirichlet_apply(sys, g, mu))["Gamma"]
            assert via_ops.shape == g.shape
            assert np.max(np.abs(via_matrix - via_ops)) < 1e-12


def with_kernel(system, kernel):
    return TransportSystem(system.graph, system.vgrid, system.absorption, kernel,
                           system.space_samples)


def ranked_kernels(rng, system):
    """(kernel, R) pairs on ``system`` whose tables span a known R-dimensional
    column space."""
    M, K = system.n_edges, system.n_nodes
    shared = rng.uniform(0.0, 1.0, (K, 2))  # one column space for every table
    cols, rows = rng.uniform(0.0, 1.0, (2, M, K))  # rank one, a new column per edge
    return [
        (flux_preserving_kernel(system.vgrid, M), 1),
        (ScatteringKernel.constant(0.6, M, K), 1),
        (ScatteringKernel(tuple(shared @ rng.uniform(0.0, 1.0, (M, 2, K)))), 2),
        (ScatteringKernel(tuple(cols[:, :, None] * rows[:, None, :])), min(M, K)),
        (ScatteringKernel(tuple(rng.uniform(0.0, 1.0, (M, K, K)))), K),
        (ScatteringKernel.identity(), K),
        (ScatteringKernel.constant(0.0, M, K), 0),
    ]


class TestTransferRadius:
    def cases(self, rng):
        for _ in range(5):
            base = random_network(rng)
            for kernel, rank in ranked_kernels(rng, base):
                sys = with_kernel(base, kernel)
                yield sys, rank, base.q_sup + np.array([-1.0, 0.3, 2.0])

    def test_matches_dense_eigenvalues(self, rng):
        for sys, rank, mus in self.cases(rng):
            for mu in mus:
                r = transfer_radius(sys, mu)
                exact = float(np.max(np.abs(np.linalg.eigvals(transfer_operator(sys, mu)))))
                assert abs(r - exact) <= 1e-12 * exact, (rank, mu)
                if rank == 0:
                    assert r == 0.0

    def test_basis_rank_and_orthonormality(self, rng):
        for sys, rank, _ in self.cases(rng):
            A = sys.scatter_basis
            assert A.shape == (sys.n_nodes, rank)
            np.testing.assert_allclose(A.T @ A, np.eye(rank), rtol=0.0, atol=1e-14)
            if rank == sys.n_nodes:
                assert np.array_equal(A, np.eye(rank))

    def test_full_rank_is_bit_identical(self, rng):
        for sys, rank, mus in self.cases(rng):
            if rank == sys.n_nodes:
                for mu in mus:
                    assert transfer_radius(sys, mu) == dense_spectral_radius(
                        transfer_operator(sys, mu))

    @pytest.mark.parametrize("path", sorted(SCENARIOS.glob("*.yaml")), ids=lambda p: p.stem)
    def test_overflowing_coupling_is_refused_naming_mu(self, path):
        """At mu = -1000 an edge factor e^(-mu l_j/v_k) overflows: H(mu) is
        refused before any eigensolve, with a ValueError naming mu, and the
        closed-loop resolvent inherits the refusal."""
        sc = parse_scenario(path)
        refusal = r"H\(mu\) is not finite at mu=-1000\.0"
        for op in (transfer_radius, transfer_max_entry, transfer_operator):
            with pytest.raises(ValueError, match=refusal):
                op(sc.system, -1000.0)
        with pytest.raises(ValueError, match=refusal):
            closed_loop_resolvent(sc.system, sc.initial, -1000.0)

    def test_conservation_closed_form(self):
        # one loop edge, rank-one flux-preserving kernel, q = 0: the only
        # nonzero eigenvalue is sum w v^2 e^{-mu l/v} / sum w v^2
        sys = parse_scenario(SCENARIOS / "conservation.yaml").system
        v, w, l = sys.vgrid.nodes, sys.vgrid.weights, sys.graph.lengths[0]
        assert sys.scatter_basis.shape == (3, 1)
        for mu in np.linspace(0.5, 8.0, 31):
            exact = np.sum(w * v * v * np.exp(-mu * l / v)) / np.sum(w * v * v)
            assert abs(transfer_radius(sys, mu) - exact) <= 1e-15 * exact


class TestSystemGrid:
    """One cached x-grid per system, np.linspace(0, l_j, space_samples) per
    edge, read-only and shared by every field sampled on the default grids."""

    def test_default_fields_and_snapshots_share_the_grid(self):
        sys = parse_scenario(SCENARIOS / "two_cycle.yaml").system
        g = np.ones((sys.n_vertices, sys.n_nodes))
        sol = closed_loop_solve(sys, StateField.constant(sys, 1.0), None, 1.0)
        fields = [
            StateField.constant(sys, 1.0),
            StateField.zeros(sys),
            dirichlet_apply(sys, g, sys.q_sup + 1.0),
            input_map(sys, StepSignal.constant(g, 1.0), 0.5),
            sol.snapshot(0.5),
            sol.snapshot(1.0),
        ]
        for f in fields:
            assert f._grid is sys.grid

    def test_grid_is_read_only(self):
        sys = make_two_cycle()
        for a in sys.grid:
            assert not a.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                a[0] = a[0]

    def test_rows_are_linspace_bit_for_bit(self, rng):
        for n in (2, 3, 33, 129, 401):
            sys = random_network(rng, space_samples=n)
            knots, sizes, _ = sys.grid
            assert sizes.tolist() == [n] * sys.n_edges
            for j, l in enumerate(sys.graph.lengths):
                assert knots[j, :n].tobytes() == np.linspace(0.0, l, n).tobytes()
                assert knots[j, n] == l  # the padded column repeats l_j


def where_read(system, j, k, x, t, initial=None, inflow=None):
    """The characteristic read as one np.where per source over every point."""
    l = system.graph.lengths[j]
    v = system.vgrid.nodes[k]
    x = np.minimum(np.maximum(np.asarray(x, dtype=float), 0.0), l)
    s = t - (l - x) / v
    at_x = system.absorption.primitive(j, k, x)
    out = np.zeros(np.shape(s))
    if initial is not None:
        foot = np.minimum(x + v * t, l)
        grow = np.exp((system.absorption.primitive(j, k, foot) - at_x) / v)
        out = np.where(s <= 0.0, grow * initial.eval(j, k, foot), out)
    if inflow is not None:
        fed = inflow(system.graph.tails[j], k, s)
        grow = np.exp((system.edge_primitive[j, k] - at_x) / v)
        out = np.where(s > 0.0, grow * system.graph.weights[j] * fed, out)
    return out


def same_bits(a, b) -> bool:
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


class TestCharacteristicPath:
    """CharacteristicPath(...).read equals the np.where form bit for bit:
    scalar and array (edge, node) indices, array times, points outside
    [0, l_j], each source alone and both with mixed branch masks, sampled
    initial data and data with an exact evaluator."""

    def case(self, rng):
        base = random_network(rng, q_range=(-0.5, 0.3), space_samples=17)
        breaks = [np.array([0.0, rng.uniform(0.2, 0.8) * l, l]) for l in base.graph.lengths]
        values = [rng.uniform(-0.6, 0.4, (2, base.n_nodes)) for _ in breaks]
        sys = dataclasses.replace(base, absorption=Absorption(tuple(breaks), tuple(values)))
        f = random_field(rng, sys, 9)
        u = StepSignal(np.array([0.0, 0.4, 1.1, 3.0]),
                       rng.uniform(-1.0, 1.0, (3, sys.n_vertices, sys.n_nodes)))
        return sys, (f, semigroup_apply(sys, f, 0.3)), u

    def sources(self, initial, u):
        return [dict(initial=initial), dict(inflow=u.eval_channel),
                dict(initial=initial, inflow=u.eval_channel)]

    def test_scalar_pairs_with_array_times(self, rng):
        for _ in range(3):
            sys, fields, u = self.case(rng)
            for j in range(sys.n_edges):
                l = sys.graph.lengths[j]
                x = np.concatenate([[-0.3, -0.0, 0.0], np.linspace(0.0, l, 13), [l, l + 0.2]])
                k = int(rng.integers(sys.n_nodes))
                t = np.concatenate([[0.0, -0.0, sys.delays[j, k]], np.linspace(0.0, 2.5, 9)])[:, None]
                for initial in fields:
                    for src in self.sources(initial, u):
                        path = CharacteristicPath(sys, j, k, x)
                        assert same_bits(path.read(t, **src), where_read(sys, j, k, x, t, **src))
                        assert same_bits(characteristic_read(sys, j, k, x, t, **src),
                                         where_read(sys, j, k, x, t, **src))

    def test_array_pairs_reused_across_times(self, rng):
        for _ in range(3):
            sys, fields, u = self.case(rng)
            M, K = sys.n_edges, sys.n_nodes
            j, k = np.arange(M)[:, None, None], np.arange(K)[:, None]
            x = np.linspace(-0.2, sys.graph.lengths + 0.2, 23, axis=1)[:, None, :]
            path = CharacteristicPath(sys, j, k, x)
            fronts = np.unique(sys.delays)
            for t in [0.0, -0.0, *fronts[:3].tolist(), 0.77, 5.0, np.linspace(0.0, 2.0, 5)[:, None, None, None]]:
                for initial in fields:
                    for src in self.sources(initial, u):
                        assert same_bits(path.read(t, **src), where_read(sys, j, k, x, t, **src))

    def test_each_point_reads_only_its_own_source(self, rng):
        sys, (f, _), u = self.case(rng)
        j, k = np.arange(sys.n_edges)[:, None], np.arange(sys.n_nodes)
        path = CharacteristicPath(sys, j, k, 0.4 * sys.graph.lengths[:, None])
        seen = {"initial": 0, "inflow": 0}

        def ev(jj, x, kk):
            seen["initial"] += np.size(x)
            return f.eval(jj, kk, x)

        def inflow(i, kk, s):
            seen["inflow"] += np.size(s)
            return u.eval_channel(i, kk, s)

        field = StateField._padded(sys, f._grid, f._table[1], ev)
        for t in (0.0, 0.6, 0.9, 4.0):
            s = t - path.transit
            seen.update(initial=0, inflow=0)
            path.read(t, initial=field, inflow=inflow)
            assert seen == {"initial": int(np.sum(s <= 0.0)), "inflow": int(np.sum(s > 0.0))}
            seen.update(initial=0, inflow=0)
            path.read(t, inflow=inflow)  # one source reads every point
            assert seen == {"initial": 0, "inflow": s.size}
