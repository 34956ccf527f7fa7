import inspect

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from posflow import (
    PosLTI,
    expm_apply,
    feedback_compose,
    io_response,
    neumann_resolvent,
    positivity_classify,
    simulate_interconnection,
    simulate_mild,
    transfer,
)
from posflow.poslti import _THETA, _expm


def random_positive_system(rng, n_max=6, m_max=3, p_max=3, gain=0.4):
    n = int(rng.integers(2, n_max + 1))
    m = int(rng.integers(1, m_max + 1))
    p = int(rng.integers(1, p_max + 1))
    A = rng.uniform(0.0, 1.0, (n, n))
    A -= np.diag(np.diag(A))
    A -= np.diag(A.sum(axis=1) + rng.uniform(1.0, 2.0, n))
    return PosLTI(
        A,
        gain * rng.uniform(0.0, 1.0, (n, m)),
        gain * rng.uniform(0.0, 1.0, (p, n)),
        0.5 * gain * rng.uniform(0.0, 1.0, (p, m)),
    )


def rel_err(E, R):
    return np.linalg.norm(E - R, 1) / np.linalg.norm(R, 1)


@st.composite
def square_matrices(draw, lo, hi, max_norm):
    """An n x n matrix, n <= 8, of entries in [lo, hi], rescaled to a 1-norm in
    [0, max_norm]."""
    n = draw(st.integers(1, 8))
    M = draw(arrays(float, (n, n), elements=st.floats(lo, hi)))
    norm = np.abs(M).sum(axis=0).max()
    return M * (draw(st.floats(0.0, max_norm)) / norm) if norm > 1e-8 else M


class TestExpm:
    # scipy.linalg.expm misses e^M by up to 5.5e-12 relative on non-normal
    # matrices of 1-norm 5-140, where _expm stays below 3.5e-14 (both against
    # 40-digit mpmath), so scipy is the reference only up to 1-norm 3 and on
    # nilpotent M; Metzler M of larger norm are checked against the positive
    # series, which has no cancellation.
    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(square_matrices(-1.0, 1.0, 3.0))
    def test_matches_scipy_up_to_norm_3(self, M):
        import scipy.linalg

        assert rel_err(_expm(M), scipy.linalg.expm(M)) <= 1e-13

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(st.integers(1, 8).flatmap(lambda n: arrays(float, (n, n), elements=st.floats(-3, 3))))
    def test_nilpotent_matches_scipy(self, M):
        import scipy.linalg

        N = np.triu(M, 1)
        assert rel_err(_expm(N), scipy.linalg.expm(N)) <= 1e-13

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(st.floats(-700.0, 700.0))
    def test_scalar_is_scipy_exactly(self, a):
        import scipy.linalg

        M = np.array([[a]])
        assert np.array_equal(_expm(M), scipy.linalg.expm(M))

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(square_matrices(0.0, 1.0, 1.0), st.floats(0.0, 2.0), st.floats(0.01, 5.0))
    def test_metzler_matches_the_positive_series(self, P, slack, t):
        # M = t (P - diag(colsum(P) + slack)), 1-norm up to 20, above theta_13;
        # e^M = e^{-c} sum_k N^k / k! with N = M + c I >= 0
        n = P.shape[0]
        M = t * (P - np.diag(np.diag(P) + P.sum(axis=0) + slack))
        c = -float(np.min(np.diag(M)))
        N = M + c * np.eye(n)
        term, series = np.eye(n), np.eye(n)
        for k in range(1, 200):
            term = term @ N / k
            series += term
        assert np.all(np.isfinite(series))
        assert rel_err(_expm(M), np.exp(-c) * series) <= 1e-13

    def test_identity_at_zero(self, rng):
        for n in range(1, 9):
            for zero in (np.zeros((n, n)), -np.zeros((n, n))):
                assert np.array_equal(_expm(zero), np.eye(n))
        A = rng.normal(size=(4, 4))
        x = rng.normal(size=4)
        assert np.allclose(expm_apply(A, 0.0, x), x, atol=0, rtol=0)

    def test_every_degree_and_scaling_is_reached(self):
        # just below each bound, one degree; above theta_13, degree 13 squared
        import scipy.linalg

        M = np.array([[-0.5, 0.3], [0.2, -0.4]])
        M /= np.abs(M).sum(axis=0).max()
        for norm in [t for _, t in _THETA] + [20.0]:
            assert rel_err(_expm(norm * M), scipy.linalg.expm(norm * M)) <= 1e-13

    def test_non_finite_matrix_is_refused(self):
        with pytest.raises(ValueError, match="non-finite"):
            _expm(np.array([[0.0, np.nan], [0.0, 0.0]]))

    def test_diagonal_closed_form(self):
        out = expm_apply(np.diag([-1.0, -2.0]), 1.0, np.ones(2))
        assert np.allclose(out, [np.exp(-1), np.exp(-2)], rtol=1e-12)

    def test_metzler_preserves_cone(self, rng):
        A = rng.uniform(0, 1, (5, 5))
        A -= np.diag(np.diag(A)) + 3 * np.eye(5)
        x = rng.uniform(0, 1, 5)
        for t in (0.1, 1.0, 4.0):
            assert expm_apply(A, t, x).min() >= -1e-12

    def test_small_step_oracle(self, rng):
        A = rng.normal(size=(4, 4))
        x = rng.normal(size=4)
        direct = expm_apply(A, 1.0, x)
        stepped = x.copy()
        for _ in range(1024):
            stepped = expm_apply(A, 1.0 / 1024, stepped)
        assert np.linalg.norm(direct - stepped) <= 1e-10 * np.linalg.norm(direct)

    def test_rejects_negative_time(self):
        with pytest.raises(ValueError):
            expm_apply(np.eye(2), -0.1, np.ones(2))


class TestSimulateMild:
    def test_free_motion(self, rng):
        sys = random_positive_system(rng)
        x0 = rng.uniform(0, 1, sys.n)
        grid = np.linspace(0, 2, 9)
        traj = simulate_mild(sys, x0, np.zeros((8, sys.m)), grid)
        for i, t in enumerate(grid):
            assert np.allclose(traj[i], expm_apply(sys.A, t, x0), atol=1e-12)

    def test_scalar_step_response(self):
        sys = PosLTI([[-1.0]], [[1.0]], [[1.0]], [[0.0]])
        grid = np.linspace(0, 5, 101)
        traj = simulate_mild(sys, [0.0], np.ones((100, 1)), grid)
        exact = 1.0 - np.exp(-grid)
        assert np.max(np.abs(traj[:, 0] - exact)) < 1e-10

    def test_positive_data_stays_in_cone(self, rng):
        for _ in range(5):
            sys = random_positive_system(rng)
            grid = np.linspace(0, 3, 31)
            traj = simulate_mild(
                sys, rng.uniform(0, 1, sys.n), rng.uniform(0, 1, (30, sys.m)), grid
            )
            assert traj.min() >= -1e-12


class TestIOResponse:
    def test_zero_data_zero_output(self, rng):
        sys = random_positive_system(rng)
        grid = np.linspace(0, 1, 5)
        y = io_response(sys, np.zeros(sys.n), np.zeros((4, sys.m)), grid)
        assert np.all(y == 0)

    def test_external_positivity(self, rng):
        for _ in range(5):
            sys = random_positive_system(rng)
            grid = np.linspace(0, 2, 21)
            y = io_response(sys, np.zeros(sys.n), rng.uniform(0, 1, (20, sys.m)), grid)
            assert y.min() >= -1e-12

    def test_scalar_closed_form(self):
        sys = PosLTI([[-1.0]], [[1.0]], [[1.0]], [[0.0]])
        grid = np.linspace(0, 4, 81)
        y = io_response(sys, [0.0], np.ones((80, 1)), grid)
        assert np.max(np.abs(y[:, 0] - (1 - np.exp(-grid)))) < 1e-10


class TestTransfer:
    def test_scalar_resolvent(self):
        sys = PosLTI([[-1.0]], [[1.0]], [[1.0]], [[0.0]])
        assert abs(transfer(sys, 2.0)[0, 0] - 1.0 / 3.0) < 1e-14

    def test_limit_is_feedthrough(self):
        sys = PosLTI([[-1.0]], [[1.0]], [[1.0]], [[0.25]])
        assert abs(transfer(sys, 1e6)[0, 0] - 0.25) < 1e-4

    def test_monotone_decrease_on_cone(self, rng):
        for _ in range(5):
            sys = random_positive_system(rng)
            lam = float(np.max(np.linalg.eigvals(sys.A).real)) + 0.5
            H1, H2 = transfer(sys, lam), transfer(sys, lam + 3.0)
            assert np.all(H2 <= H1 + 1e-12)

    def test_rejects_eigenvalue(self):
        sys = PosLTI([[-1.0]], [[1.0]], [[1.0]], [[0.0]])
        with pytest.raises(ValueError):
            transfer(sys, -1.0)


class TestPositivityClassify:
    def test_internal_and_external(self):
        sys = PosLTI([[-1.0, 2.0], [0.0, -1.0]], np.eye(2), np.eye(2), np.zeros((2, 2)))
        cls = positivity_classify(sys, np.linspace(0, 4, 17))
        assert cls == {"internal": True, "external": True}

    def test_negative_offdiagonal_breaks_internal(self):
        sys = PosLTI([[-1.0, -1.0], [0.0, -1.0]], np.eye(2), np.eye(2), np.zeros((2, 2)))
        assert positivity_classify(sys, np.linspace(0, 4, 17))["internal"] is False

    def test_rotation_breaks_external(self):
        # impulse response e^{-t} cos t changes sign on [0, 4]
        sys = PosLTI([[-1.0, -1.0], [1.0, -1.0]], [[1.0], [0.0]], [[1.0, 0.0]], [[0.0]])
        cls = positivity_classify(sys, np.linspace(0, 4, 41))
        assert cls["internal"] is False and cls["external"] is False

    def test_internal_implies_external(self, rng):
        for _ in range(10):
            sys = random_positive_system(rng)
            cls = positivity_classify(sys, np.linspace(0, 3, 13))
            assert cls["external"] or not cls["internal"]


class TestFeedback:
    def test_zero_feedthrough_collapses(self, rng):
        sys = random_positive_system(rng)
        sys = PosLTI(sys.A, sys.B, sys.C, np.zeros((sys.p, sys.m)))
        K = rng.uniform(0, 0.5, (sys.m, sys.p))
        fb = feedback_compose(sys, K)
        assert fb.admissible
        assert np.allclose(fb.A_K, sys.A + sys.B @ K @ sys.C)
        assert np.array_equal(fb.B_K, sys.B)
        assert np.array_equal(fb.C_K, sys.C)
        assert np.all(fb.D_K == 0)

    def test_scalar_arithmetic(self):
        sys = PosLTI([[-1.0]], [[1.0]], [[1.0]], [[0.5]])
        fb = feedback_compose(sys, np.array([[1.0]]))
        assert fb.admissible and abs(fb.r_KD - 0.5) < 1e-14
        assert abs(fb.D_K[0, 0] - 1.0) < 1e-14
        assert abs(fb.B_K[0, 0] - 2.0) < 1e-14
        assert abs(fb.C_K[0, 0] - 2.0) < 1e-14
        assert abs(fb.A_K[0, 0] - 1.0) < 1e-14

    def test_refusal_at_radius_one(self):
        sys = PosLTI([[-1.0]], [[1.0]], [[1.0]], [[1.0]])
        fb = feedback_compose(sys, np.array([[2.0]]))
        assert not fb.admissible and abs(fb.r_KD - 2.0) < 1e-14
        with pytest.raises(ValueError):
            fb.closed_loop()

    def test_closed_loop_stays_positive(self, rng):
        for _ in range(10):
            sys = random_positive_system(rng)
            K = 0.3 * rng.uniform(0, 1, (sys.m, sys.p))
            fb = feedback_compose(sys, K)
            assert fb.admissible
            assert fb.closed_loop().is_positive_system(tol=1e-12)

    def test_matches_direct_interconnection(self, rng):
        grid = np.linspace(0.0, 5.0, 26)
        worst = 0.0
        for _ in range(10):
            sys = random_positive_system(rng)
            K = 0.3 * rng.uniform(0, 1, (sys.m, sys.p))
            fb = feedback_compose(sys, K)
            assert fb.admissible
            x0 = rng.uniform(0, 1, sys.n)
            v = rng.uniform(0, 1, sys.m)
            z1 = simulate_mild(fb.closed_loop(), x0, np.tile(v, (25, 1)), grid)
            z2, _ = simulate_interconnection(sys, K, x0, v, grid)
            worst = max(worst, float(np.max(np.abs(z1 - z2))))
        assert worst < 1e-8


def rk4_per_substep(sys, K, x0, v, tgrid, substeps):
    """Reference: classical RK4 marched one substep at a time on z."""
    K = np.atleast_2d(np.asarray(K, dtype=float))
    inv_DK = np.linalg.inv(np.eye(sys.p) - sys.D @ K)

    def rhs(z):
        y = inv_DK @ (sys.C @ z + sys.D @ v)
        return sys.A @ z + sys.B @ (K @ y + v)

    states = np.empty((tgrid.size, sys.n))
    outputs = np.empty((tgrid.size, sys.p))
    z = np.asarray(x0, dtype=float).copy()
    states[0] = z
    outputs[0] = inv_DK @ (sys.C @ z + sys.D @ v)
    for idx in range(tgrid.size - 1):
        h = (tgrid[idx + 1] - tgrid[idx]) / substeps
        for _ in range(substeps):
            k1 = rhs(z)
            k2 = rhs(z + 0.5 * h * k1)
            k3 = rhs(z + 0.5 * h * k2)
            k4 = rhs(z + h * k3)
            z = z + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        states[idx + 1] = z
        outputs[idx + 1] = inv_DK @ (sys.C @ z + sys.D @ v)
    return states, outputs


class TestInterconnectionRK4:
    """The step-matrix march equals the per-substep RK4 loop to round-off."""

    @pytest.mark.parametrize("substeps", [1, 7, 64])
    def test_matches_per_substep_loop(self, rng, substeps):
        # two distinct step lengths, interleaved
        grid = np.concatenate([[0.0], np.cumsum(np.tile([0.13, 0.31], 6))])
        for _ in range(8):
            sys = random_positive_system(rng)
            assert np.all(sys.D > 0)
            K = 0.3 * rng.uniform(0, 1, (sys.m, sys.p))
            x0 = rng.uniform(0, 1, sys.n)
            v = rng.uniform(0, 1, sys.m)
            z, y = simulate_interconnection(sys, K, x0, v, grid, substeps=substeps)
            z_ref, y_ref = rk4_per_substep(sys, K, x0, v, grid, substeps)
            np.testing.assert_allclose(z, z_ref, rtol=0, atol=1e-12)
            np.testing.assert_allclose(y, y_ref, rtol=0, atol=1e-12)

    def test_substeps_is_a_keyword_parameter(self):
        param = inspect.signature(simulate_interconnection).parameters["substeps"]
        assert param.kind is inspect.Parameter.POSITIONAL_OR_KEYWORD
        assert param.default == 64


class TestNeumann:
    def test_unperturbed(self, rng):
        A = rng.normal(size=(3, 3)) - 4 * np.eye(3)
        res = neumann_resolvent(A, np.zeros((3, 3)), 1.0, 5)
        assert np.allclose(res.value, np.linalg.inv(np.eye(3) - A), atol=1e-13)
        assert res.radius == 0.0

    def test_scalar_geometric_series(self):
        res = neumann_resolvent([[-2.0]], [[1.0]], 1.0, 40)
        # sum_{k>=0} (1/3)^k * (1/3) = 1/2 = R(1, -1); float summation caps
        # the achievable error at the rounding level
        assert abs(res.value[0, 0] - 0.5) < 1e-15
        assert res.tail_bound < 1e-18

    def test_dominates_unperturbed_resolvent(self, rng):
        A = rng.uniform(0, 1, (4, 4))
        A -= np.diag(np.diag(A)) + np.diag(A.sum(axis=1) + 1.0)
        B = 0.3 * rng.uniform(0, 1, (4, 4))
        mu = 2.0
        res = neumann_resolvent(A, B, mu, 80)
        R = np.linalg.inv(mu * np.eye(4) - A)
        assert np.all(res.value >= R - 1e-12)

    def test_matches_dense_inverse_within_tail(self, rng):
        for _ in range(5):
            A = rng.uniform(0, 1, (4, 4))
            A -= np.diag(np.diag(A)) + np.diag(A.sum(axis=1) + 1.0)
            B = 0.3 * rng.uniform(0, 1, (4, 4))
            res = neumann_resolvent(A, B, 2.0, 60)
            exact = np.linalg.inv(2.0 * np.eye(4) - A - B)
            assert np.max(np.abs(res.value - exact)) <= res.tail_bound + 1e-12

    def test_divergence_detected(self):
        with pytest.raises(ValueError):
            neumann_resolvent([[-1.0]], [[5.0]], 1.0, 10)
