import dataclasses
from pathlib import Path

import numpy as np
import pytest

from posflow import (
    Absorption,
    PosLTI,
    PosLTIHandle,
    ScatteringKernel,
    StateField,
    StepSignal,
    TransportHandle,
    closed_loop_solve,
    control_admissibility,
    feedback_admissibility,
    io_matrix,
    observation_admissibility,
    regularity_probe,
    step_probes,
    zero_class_scan,
)
from posflow.lattice import dense_spectral_radius
from posflow.scenario import parse_scenario
from posflow.transport import flow_trace

from conftest import ladder_yaml, make_loop, make_two_cycle, random_network

SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"
GL5 = np.polynomial.legendre.leggauss(5)


def with_piecewise_absorption(rng, system):
    """The same network with a random table of 1-3 absorption pieces per edge."""
    breaks, values = [], []
    for l in system.graph.lengths:
        pieces = int(rng.integers(1, 4))
        breaks.append(np.concatenate([[0.0], np.sort(rng.uniform(0.0, l, pieces - 1)), [l]]))
        values.append(rng.uniform(-1.0, 0.5, (pieces, system.n_nodes)))
    return dataclasses.replace(system, absorption=Absorption(tuple(breaks), tuple(values)))


def input_map_norm_by_substitution(system, u, tau):
    """Reference ||Phi_tau u||: the substitution x = l - v (tau - s) turns the
    x-integral into a time integral of |u| times the absorption growth, on
    Gauss panels cut at the steps of u and the images of the absorption breaks."""
    gl_x, gl_w = GL5
    total = 0.0
    for j in range(system.n_edges):
        l, w, tail = system.graph.lengths[j], system.graph.weights[j], system.graph.tails[j]
        for k, v in enumerate(system.vgrid.nodes):
            lo = max(0.0, tau - l / v)
            imgs = tau - (l - system.absorption.breaks[j]) / v
            knots = np.unique(np.clip(np.concatenate([u.breaks, imgs, [lo, tau]]), lo, tau))
            a, b = knots[:-1], knots[1:]
            mid, half = 0.5 * (a + b), 0.5 * (b - a)
            s = (mid[:, None] + half[:, None] * gl_x[None, :]).ravel()
            grow = system.growth(j, k, l - v * (tau - s), l)
            vals = np.abs(u.eval_channel(tail, k, np.minimum(s, u.horizon)))
            panel = (grow * vals).reshape(mid.size, 5) @ gl_w
            total += system.vgrid.weights[k] * w * v * float(np.dot(half, panel))
    return total


def observation_lp_by_cuts(system, x, alpha, p):
    """Reference (int_0^alpha ||Gamma T(t) x||^p dt)^{1/p} on Gauss panels cut
    at the times sigma / v_k the knots sigma of x and the absorption breaks
    reach x = 0."""
    cuts = [np.array([0.0, alpha])]
    for j in range(system.n_edges):
        knots = np.union1d(x.xs[j], system.absorption.breaks[j])
        arr = (knots[:, None] / system.vgrid.nodes[None, :]).ravel()
        cuts.append(arr[(arr > 0) & (arr < alpha)])
    knots = np.unique(np.concatenate(cuts))
    gl_x, gl_w = GL5
    a, b = knots[:-1], knots[1:]
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    ts = (mid[:, None] + half[:, None] * gl_x[None, :]).ravel()
    norms = (np.abs(flow_trace(system, x, ts)) @ system.vgrid.weights).sum(axis=1)
    return float(np.dot(half, (norms**p).reshape(mid.size, 5) @ gl_w)) ** (1.0 / p)


@pytest.fixture
def unit_loop_handle():
    # single velocity node at v = 1, unit loop, no absorption
    return TransportHandle(make_loop(n_nodes=1, v_lo=0.5, v_hi=1.5))


class TestControlAdmissibility:
    def test_unit_loop_mass_bookkeeping(self, unit_loop_handle):
        for tau in (0.3, 0.6, 1.0):
            rep = control_admissibility(unit_loop_handle, tau, p=1.0, n_probes=8, seed=1)
            assert abs(rep.constant_estimate - 1.0) < 1e-6
            assert not rep.degenerate

    def test_short_probe_refused(self, unit_loop_handle):
        # a probe on [0, 0.5] has no values on (0.5, 1]; extending it would
        # count its Lp norm on [0, 0.5] only and read kappa-hat(1) = 2
        short = StepSignal.constant(np.ones((1, 1)), 0.5)
        with pytest.raises(ValueError, match="input history covers"):
            control_admissibility(unit_loop_handle, 1.0, 1.0, probes=[short])

    def test_degenerate_probes_flagged(self, unit_loop_handle):
        zero = StepSignal.zero((1, 1), 0.5)
        rep = control_admissibility(unit_loop_handle, 0.5, 1.0, probes=[zero])
        assert rep.degenerate and rep.constant_estimate == 0.0

    def test_signed_equals_positive_on_the_loop(self, unit_loop_handle):
        pos = control_admissibility(unit_loop_handle, 0.8, 1.0, n_probes=12, seed=3)
        sgn = control_admissibility(
            unit_loop_handle, 0.8, 1.0, n_probes=12, seed=3, signed=True
        )
        assert sgn.constant_estimate <= pos.constant_estimate + 1e-9
        assert abs(sgn.constant_estimate - pos.constant_estimate) < 1e-9

    def test_monotone_in_tau(self, unit_loop_handle):
        vals = [
            control_admissibility(unit_loop_handle, tau, 2.0, n_probes=6, seed=5).constant_estimate
            for tau in (0.2, 0.4, 0.8)
        ]
        assert vals[0] <= vals[1] + 1e-12 and vals[1] <= vals[2] + 1e-12

    def test_monotone_in_probe_count(self, unit_loop_handle):
        small = control_admissibility(unit_loop_handle, 0.5, 2.0, n_probes=4, seed=7)
        large = control_admissibility(unit_loop_handle, 0.5, 2.0, n_probes=12, seed=7)
        assert large.constant_estimate >= small.constant_estimate - 1e-15


class TestZeroClass:
    def test_p2_exponent_near_half(self, unit_loop_handle):
        scan = zero_class_scan(
            unit_loop_handle, 2.0, [0.4, 0.2, 0.1, 0.05, 0.025], n_probes=8, seed=2
        )
        assert scan.fit is not None
        assert 0.4 <= scan.fit.exponent <= 0.6
        assert scan.fit.r_squared > 0.99

    def test_p1_refused(self, unit_loop_handle):
        with pytest.raises(ValueError):
            zero_class_scan(unit_loop_handle, 1.0, [0.4, 0.2, 0.1, 0.05, 0.025])

    def test_p1_constant_does_not_vanish(self, unit_loop_handle):
        # the non-zero-class regime: kappa-hat stays near 1 as tau -> 0
        for tau in (0.4, 0.1, 0.025):
            rep = control_admissibility(unit_loop_handle, tau, 1.0, n_probes=6, seed=4)
            assert 0.9 <= rep.constant_estimate <= 1.1

    def test_large_p_exponent_approaches_one(self, unit_loop_handle):
        scan = zero_class_scan(
            unit_loop_handle, 8.0, [0.4, 0.2, 0.1, 0.05, 0.025], n_probes=6, seed=6
        )
        assert scan.fit is not None
        assert 0.8 <= scan.fit.exponent <= 0.95  # 1/q = 7/8

    def test_fit_needs_five_points(self, unit_loop_handle):
        scan = zero_class_scan(unit_loop_handle, 2.0, [0.4, 0.2, 0.1], n_probes=4, seed=8)
        assert scan.fit is None


class TestObservationAdmissibility:
    def test_unit_loop_bounded_by_one(self, unit_loop_handle, rng):
        for alpha in (0.5, 1.0):
            rep = observation_admissibility(unit_loop_handle, alpha, 1.0, n_probes=8, seed=9)
            assert rep.constant_estimate <= 1.0 + 1e-6
            assert rep.constant_estimate > 0.1

    def test_degenerate_states_flagged(self, unit_loop_handle):
        sys = unit_loop_handle.system
        rep = observation_admissibility(
            unit_loop_handle, 0.5, 1.0, states=[StateField.zeros(sys)]
        )
        assert rep.degenerate

    def test_monotone_in_alpha(self, unit_loop_handle):
        a = observation_admissibility(unit_loop_handle, 0.4, 1.0, n_probes=6, seed=10)
        b = observation_admissibility(unit_loop_handle, 0.9, 1.0, n_probes=6, seed=10)
        assert a.constant_estimate <= b.constant_estimate + 1e-12

    def test_poslti_handle(self, rng):
        sys = PosLTI([[-1.0]], [[1.0]], [[1.0]], [[0.0]])
        rep = observation_admissibility(PosLTIHandle(sys), 1.0, 2.0, n_probes=6, seed=11)
        # ||C T(t) x|| = e^{-t} |x|: gamma = sqrt((1 - e^{-2})/2)
        exact = np.sqrt((1 - np.exp(-2.0)) / 2.0)
        assert abs(rep.constant_estimate - exact) < 1e-10

    def test_l1_case_bounded_on_random_networks(self, rng):
        # positive boundary observation with an L1 output space: the
        # time-integrated trace of every unit-mass probe stays bounded
        from conftest import random_network

        for _ in range(2):
            handle = TransportHandle(random_network(rng, max_nodes=4, space_samples=21))
            rep = observation_admissibility(handle, 1.0, 1.0, n_probes=3, seed=12)
            assert not rep.degenerate
            assert 0.0 < rep.constant_estimate < 100.0


class TestReferenceIntegrals:
    """The characteristic-read integrals against the per-integral panel codes
    they replaced, on networks with piecewise absorption tables."""

    def test_input_map_norm_matches_substitution(self, rng):
        for _ in range(40):
            sys = with_piecewise_absorption(rng, random_network(rng, max_nodes=4, space_samples=9))
            handle = TransportHandle(sys)
            tau = float(rng.uniform(0.3, 2.5))
            for signed in (False, True):
                for u in step_probes(rng, handle.input_shape, tau, 4, signed=signed):
                    ref = input_map_norm_by_substitution(sys, u, tau)
                    assert handle.input_map_norm(u, tau) == pytest.approx(ref, rel=1e-13)

    def test_observation_lp_matches_cut_loop(self, rng):
        for _ in range(16):
            sys = with_piecewise_absorption(rng, random_network(rng, max_nodes=4, space_samples=9))
            handle = TransportHandle(sys)
            x = handle.random_positive_state(rng)
            alpha = float(rng.uniform(0.3, 3.0))
            for p in (1.0, 2.0, 3.5):
                ref = observation_lp_by_cuts(sys, x, alpha, p)
                assert handle.observation_lp(x, alpha, p) == pytest.approx(ref, rel=1e-13)


class TestRegularity:
    def test_transport_loop_decays_to_zero(self, unit_loop_handle):
        g = np.ones((1, 1))
        rep = regularity_probe(unit_loop_handle, np.linspace(1.0, 14.0, 14), g)
        assert rep.monotone
        assert rep.limit_gap < 1e-4
        assert abs(rep.outputs[0][0, 0] - np.exp(-1.0)) < 1e-12

    def test_poslti_scalar_limit(self):
        sys = PosLTI([[-1.0]], [[1.0]], [[1.0]], [[0.25]])
        handle = PosLTIHandle(sys)
        rep = regularity_probe(handle, [1.0, 10.0, 100.0, 1000.0, 1e4, 1e5], np.ones(1))
        assert rep.monotone
        assert rep.limit_gap < 1e-4  # limit is the feedthrough 0.25

    def test_zero_vector_is_constant_zero(self, unit_loop_handle):
        rep = regularity_probe(unit_loop_handle, [1.0, 2.0, 4.0], np.zeros((1, 1)))
        assert rep.monotone and rep.max_violation == 0.0 and rep.limit_gap == 0.0

    def test_violation_reported(self):
        class Wobbly:
            def transfer_apply(self, mu, g):
                return np.array([np.sin(mu)])

            def feedthrough_apply(self, g):
                return np.zeros(1)

        rep = regularity_probe(Wobbly(), [1.0, 4.0, 7.0], np.ones(1))
        assert not rep.monotone and rep.max_violation > 0.1


class TestFeedbackAdmissibility:
    def test_before_first_transit_radius_zero(self, unit_loop_handle):
        rep = feedback_admissibility(unit_loop_handle, 1.0, tau=0.8, n_steps=16)
        assert rep.radius == 0.0 and rep.admissible and rep.inverse_nonneg

    def test_zero_feedback(self, unit_loop_handle):
        rep = feedback_admissibility(unit_loop_handle, 0.0, tau=2.0, n_steps=16)
        assert rep.radius == 0.0 and rep.admissible

    def test_pure_delay_is_nilpotent(self, unit_loop_handle):
        rep = feedback_admissibility(unit_loop_handle, 1.0, tau=2.5, n_steps=20)
        assert rep.radius == 0.0
        assert rep.admissible and rep.inverse_nonneg

    def test_radius_invariant_under_grid_refinement(self, unit_loop_handle):
        r1 = feedback_admissibility(unit_loop_handle, 1.0, tau=2.5, n_steps=20).radius
        r2 = feedback_admissibility(unit_loop_handle, 1.0, tau=2.5, n_steps=40).radius
        assert abs(r1 - r2) <= 1e-8

    def test_volterra_substitution_matches_closed_loop(self, unit_loop_handle):
        # pure-delay loop: the Volterra solve closes in 3 generations and
        # reproduces the exact ledger at binary-exact sample times
        handle = unit_loop_handle
        sys = handle.system
        tau, n_steps = 2.5, 20  # h = 1/8, delay 1.0 = 8 h exactly
        h = tau / n_steps
        times = h * np.arange(n_steps)

        def hat(j, x, k):
            return np.minimum(x, 1.0 - x) * 2.0

        x0 = StateField.from_function(sys, hat)
        psi = np.array([handle.observe_flow(x0, t).ravel() for t in times]).ravel()
        F = io_matrix(handle, tau, n_steps)
        v = np.zeros_like(psi)
        for _ in range(3):
            v = psi + F @ v
        assert np.allclose(F @ v + psi, v, atol=1e-14)  # closed after 3 rounds

        sol = closed_loop_solve(sys, x0, None, tau)
        ledger_vals = np.array([sol.ledger.eval(t).ravel() for t in times]).ravel()
        assert np.max(np.abs(v - ledger_vals)) < 1e-8

    def test_poslti_feedthrough_shows_up(self):
        sys = PosLTI([[-1.0]], [[1.0]], [[1.0]], [[0.5]])
        rep = feedback_admissibility(PosLTIHandle(sys), 1.0, tau=1.0, n_steps=12)
        assert rep.radius >= 0.5 - 1e-9  # diagonal D blocks bound r(KF) below
        assert rep.admissible

    def test_volterra_is_strictly_block_lower_for_transport(self):
        # zero feedthrough and a positive transit delay: sample s never sees
        # input pieces r >= s, whatever the kernel couples in velocity
        from posflow import ScatteringKernel
        from conftest import make_two_cycle

        sys = make_two_cycle(n_nodes=2, kernel=ScatteringKernel.constant(0.7, 2, 2))
        handle = TransportHandle(sys)
        n_steps, d = 10, 4
        F = io_matrix(handle, 2.0, n_steps)
        for s in range(n_steps):
            for r in range(s, n_steps):
                block = F[s * d : (s + 1) * d, r * d : (r + 1) * d]
                assert np.all(block == 0.0)

    def test_transport_volterra_is_the_probe_matrix(self, tmp_path, rng):
        # the shipped scenarios (delay/step ties on blocked and conservation)
        # and an 8-vertex, 4-node ladder network
        systems = [parse_scenario(SCENARIOS / f"{name}.yaml").system
                   for name in ("loop", "conservation", "two_cycle", "blocked")]
        systems.append(parse_scenario(ladder_yaml(tmp_path / "ladder.yaml", 8, 4, rng)).system)
        for sys in systems:
            handle = TransportHandle(sys)
            for tau, n_steps in ((0.5, 32), (1.0, 24), (2.0, 48)):
                F = handle.volterra(tau, n_steps)
                assert np.array_equal(F, io_matrix(handle, tau, n_steps))

    def test_poslti_radius_is_the_feedthrough_radius_on_every_grid(self):
        rng = np.random.default_rng(7)
        for _ in range(3):
            n = m = 3
            A = rng.uniform(0.0, 1.0, (n, n))
            A -= np.diag(np.diag(A) + A.sum(axis=1) + 1.0)
            sys = PosLTI(A, rng.uniform(0.0, 1.0, (n, m)), rng.uniform(0.0, 1.0, (m, n)),
                         rng.uniform(0.0, 1.0, (m, m)))
            K = 0.3 * rng.uniform(0.0, 1.0, (m, m))
            exact = dense_spectral_radius(K @ sys.D)
            for n_steps in (6, 12, 24):
                rep = feedback_admissibility(PosLTIHandle(sys), K, tau=1.0, n_steps=n_steps)
                assert rep.radius == exact

    @pytest.mark.parametrize("signed", [False, True])
    def test_inverse_sign_matches_dense_inverse(self, signed):
        sys = make_two_cycle(n_nodes=2, kernel=ScatteringKernel.constant(0.7, 2, 2))
        handle = TransportHandle(sys)
        K = np.array([[0.9, 0.2, 0.0, 0.1], [0.3, 0.5, 0.2, 0.0],
                      [0.0, 0.4, 0.8, 0.3], [0.2, 0.0, 0.1, 0.6]])
        if signed:
            K[1, 2] = -0.4
        tau, n_steps = 3.0, 24
        rep = feedback_admissibility(handle, K, tau=tau, n_steps=n_steps)
        KF = (K @ io_matrix(handle, tau, n_steps).reshape(n_steps, 4, -1)).reshape(96, 96)
        assert np.any(KF < 0.0) == signed
        inv = np.linalg.inv(np.eye(96) - KF)
        assert rep.admissible
        assert rep.inverse_nonneg == bool(np.all(inv >= -1e-10))
        assert rep.inverse_nonneg != signed
