import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from posflow import Quadrature, dense_spectral_radius, spectral_radius
from posflow.lattice import gauss_block, gauss_panels, gauss_rule


class TestQuadrature:
    def test_midpoint_weights_sum(self):
        q = Quadrature.midpoint(0.5, 1.5, 7)
        assert abs(q.weights.sum() - 1.0) < 1e-12
        assert np.all(np.diff(q.nodes) > 0)

    def test_gauss_exactness(self):
        q = Quadrature.gauss_legendre(0.0, 2.0, 5)
        assert abs(np.dot(q.weights, q.nodes**7) - 2.0**8 / 8) < 1e-10

    def test_rejects_bad_nodes(self):
        with pytest.raises(ValueError):
            Quadrature(np.array([1.0, 1.0]), np.array([0.5, 0.5]), 0.0, 1.0)
        with pytest.raises(ValueError):
            Quadrature(np.array([0.2, 0.8]), np.array([0.5, -0.5]), 0.0, 1.0)


def gauss_panels_ref(knots, lo, hi):
    """The panel rule before :func:`gauss_block`: the cuts [lo, hi] and the
    clipped knots sorted, panels between equal cuts dropped."""
    cuts = np.sort(np.minimum(np.maximum(np.concatenate(([lo, hi], knots)), lo), hi))
    keep = cuts[1:] > cuts[:-1]
    return gauss_rule(cuts[:-1][keep], cuts[1:][keep])


@st.composite
def knot_sets(draw):
    """Knots in and around [0, hi], some repeated, some 1 ulp from another
    knot, from 0 or from hi."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    hi = float(rng.uniform(0.1, 3.0))
    knots = rng.uniform(-0.5, hi + 0.5, draw(st.integers(0, 12)))
    near = np.concatenate([knots, [0.0, hi]])[rng.integers(0, knots.size + 2, 4)]
    knots = np.concatenate([knots, near, np.nextafter(near, np.inf), np.nextafter(near, -np.inf)])
    return rng.permutation(knots), hi


class TestGaussPanels:
    @settings(max_examples=80, deadline=None, derandomize=True, database=None)
    @given(knot_sets())
    def test_matches_the_previous_rule_bit_for_bit(self, case):
        """The same panels, bit for bit, except that the previous rule also
        kept a panel between 0 and the subnormal 1 ulp above it, whose
        weights round to 0."""
        knots, hi = case
        pts, wts = gauss_panels(knots, hi)
        want_pts, want_wts = gauss_panels_ref(knots, 0.0, hi)
        weighted = want_wts[:, 0] > 0.0
        assert np.all(want_wts[~weighted] == 0.0)
        want_pts, want_wts = want_pts[weighted], want_wts[weighted]
        assert np.array_equal(pts, want_pts) and np.array_equal(wts, want_wts)
        assert np.array_equal(np.signbit(pts), np.signbit(want_pts))

    def test_ulp_apart_cuts_keep_their_panel(self):
        """Two cuts 1 ulp apart give a panel of positive weight whose five
        points coincide; it is kept, as before."""
        a = 0.7
        pts, wts = gauss_panels([a, np.nextafter(a, 1.0)], 1.0)
        assert pts.shape == (3, 5) and np.all(wts > 0.0)
        assert np.all(pts[1] == pts[1, 0])

    def test_block_rows_keep_empty_panels(self):
        """Every row of a block has Q + 1 panels; the rows' nonempty panels
        are those of :func:`gauss_panels` on the row."""
        kinks = np.array([[[0.2, 0.2, 5.0]], [[-1.0, 0.5, 0.3]]])
        end = np.array([[1.0], [0.4]])
        pts, wts = gauss_block(kinks, end)
        assert pts.shape == wts.shape == (2, 1, 4, 5)
        for row, e, p, w in zip(kinks[:, 0], end[:, 0], pts[:, 0], wts[:, 0]):
            keep = w[:, 0] > 0.0
            want_pts, want_wts = gauss_panels(row, e)
            assert np.array_equal(p[keep], want_pts) and np.array_equal(w[keep], want_wts)
            assert np.all(w[~keep] == 0.0)


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
