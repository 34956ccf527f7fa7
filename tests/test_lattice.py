import numpy as np
import pytest

from posflow import (
    Quadrature,
    decompose_pm,
    dense_spectral_radius,
    is_nonneg,
    spectral_radius,
    state_norm,
    trapezoid_weights,
)


class TestDecompose:
    def test_componentwise_example(self):
        plus, minus = decompose_pm(np.array([3.0, -2.0]))
        assert np.array_equal(plus, [3.0, 0.0])
        assert np.array_equal(minus, [0.0, 2.0])

    def test_positive_element_untouched(self):
        f = np.array([0.5, 1.0, 0.0])
        plus, minus = decompose_pm(f)
        assert np.array_equal(plus, f)
        assert np.array_equal(minus, np.zeros(3))

    def test_reassembly_exact(self, rng):
        f = rng.normal(size=200)
        plus, minus = decompose_pm(f)
        assert np.array_equal(plus - minus, f)

    def test_parts_are_disjoint(self, rng):
        f = rng.normal(size=500)
        plus, minus = decompose_pm(f)
        assert np.all(np.minimum(plus, minus) == 0.0)
        assert np.all(plus >= 0) and np.all(minus >= 0)

    def test_tolerant_cone_membership(self):
        assert is_nonneg(np.array([1.0, -1e-13]))
        assert not is_nonneg(np.array([1.0, -1e-6]))


class TestQuadrature:
    def test_midpoint_weights_sum(self):
        q = Quadrature.midpoint(0.5, 1.5, 7)
        assert abs(q.weights.sum() - 1.0) < 1e-12
        assert np.all(np.diff(q.nodes) > 0)

    def test_gauss_exactness(self):
        q = Quadrature.gauss_legendre(0.0, 2.0, 5)
        assert abs(q.integrate(q.nodes**7) - 2.0**8 / 8) < 1e-10

    def test_rejects_bad_nodes(self):
        with pytest.raises(ValueError):
            Quadrature(np.array([1.0, 1.0]), np.array([0.5, 0.5]), 0.0, 1.0)
        with pytest.raises(ValueError):
            Quadrature(np.array([0.2, 0.8]), np.array([0.5, -0.5]), 0.0, 1.0)


class TestStateNorm:
    def test_zero(self):
        assert state_norm([(np.zeros(5), np.ones(5))]) == 0.0

    def test_unit_rectangle(self):
        # constant 1 on one edge of length 2, velocity interval of length 1
        xw = trapezoid_weights(np.linspace(0, 2, 41))
        vw = Quadrature.midpoint(1.0, 2.0, 4).weights
        samples = np.ones((4, 41))
        assert abs(state_norm([(samples, np.outer(vw, xw))]) - 2.0) < 1e-12

    def test_cone_additivity(self, rng):
        w = rng.uniform(0.1, 1.0, 64)
        f = rng.uniform(0.0, 1.0, 64)
        g = rng.uniform(0.0, 1.0, 64)
        lhs = state_norm([(f + g, w)])
        rhs = state_norm([(f, w)]) + state_norm([(g, w)])
        assert abs(lhs - rhs) < 1e-12

    def test_abs_decomposition_identity(self, rng):
        w = rng.uniform(0.1, 1.0, 64)
        f = rng.normal(size=64)
        plus, minus = decompose_pm(f)
        lhs = state_norm([(np.abs(f), w)])
        rhs = state_norm([(plus, w)]) + state_norm([(minus, w)])
        # each norm is the correctly rounded true sum; the split can differ
        # from the joint sum by at most one rounding of the final addition
        assert abs(lhs - rhs) <= 2 * np.finfo(float).eps * lhs

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            state_norm([(np.ones(3), np.ones(4))])


class TestSpectralRadius:
    def test_identity(self):
        res = spectral_radius(np.eye(3))
        assert res.converged and abs(res.value - 1.0) < 1e-12

    def test_nilpotent(self):
        res = spectral_radius(np.array([[0.0, 2.0], [0.0, 0.0]]))
        assert res.converged and res.value == 0.0

    def test_matches_dense_eig(self, rng):
        for _ in range(10):
            m = rng.uniform(0.0, 1.0, (5, 5))
            res = spectral_radius(m, tol=1e-10, max_iter=20000)
            assert res.converged
            assert abs(res.value - dense_spectral_radius(m)) < 1e-8

    def test_monotone_in_entries(self, rng):
        tol = 1e-10
        for _ in range(10):
            m = rng.uniform(0.0, 1.0, (6, 6))
            bump = rng.uniform(0.0, 0.5, (6, 6))
            r1 = spectral_radius(m, tol=tol, max_iter=20000)
            r2 = spectral_radius(m + bump, tol=tol, max_iter=20000)
            assert r1.value <= r2.value + 2 * tol

    def test_negative_entries_fall_back_to_dense(self):
        m = np.array([[0.0, -1.0], [1.0, 0.0]])
        res = spectral_radius(m)
        assert res.converged and abs(res.value - 1.0) < 1e-12

    def test_nonconvergence_is_flagged(self):
        # period-2 structure: the Collatz-Wielandt bracket oscillates forever
        m = np.array([[0.0, 2.0], [0.5, 0.0]])
        res = spectral_radius(m, tol=1e-12, max_iter=200)
        assert not res.converged
        assert res.iterations == 200
