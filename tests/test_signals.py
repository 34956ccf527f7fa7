import numpy as np
import pytest

from posflow import StepSignal
from posflow.solver import TraceLedger


class TestStepSignal:
    def test_right_continuity(self):
        u = StepSignal(np.array([0.0, 0.5, 1.0]), np.array([[1.0], [2.0]]))
        assert u.eval(0.0)[0] == 1.0
        assert u.eval(0.5)[0] == 2.0
        assert u.eval(0.5, side="left")[0] == 1.0
        assert u.eval(1.0)[0] == 2.0  # last piece closed at the horizon

    def test_eval_channel_vectorized(self):
        u = StepSignal(
            np.array([0.0, 0.4, 1.0]),
            np.array([[[1.0, 5.0]], [[2.0, 6.0]]]),  # (pieces, channels=1, nodes=2)
        )
        got = u.eval_channel(0, 1, np.array([0.0, 0.39, 0.4, 0.9]))
        assert got.tolist() == [5.0, 5.0, 6.0, 6.0]

    def test_out_of_history_rejected(self):
        u = StepSignal.constant(np.ones(1), 1.0)
        with pytest.raises(ValueError):
            u.eval(1.5)

    def test_lp_norm_exact(self):
        u = StepSignal(np.array([0.0, 0.25, 1.0]), np.array([[2.0], [-1.0]]))
        # integral of |u|^2: 4 * 0.25 + 1 * 0.75
        assert abs(u.lp_norm(2.0) - np.sqrt(1.75)) < 1e-15
        assert abs(u.lp_norm(1.0) - (0.5 + 0.75)) < 1e-15

    def test_lp_norm_vector_valued(self):
        u = StepSignal(np.array([0.0, 1.0]), np.array([[[1.0, 3.0]]]))
        uw = np.array([0.5, 0.5])
        assert abs(u.lp_norm(1.0, unit_weights=uw) - 2.0) < 1e-15

    def test_restriction(self):
        u = StepSignal(np.array([0.0, 0.4, 1.0]), np.array([[1.0], [2.0]]))
        r = u.restricted(0.7)
        assert r.horizon == 0.7
        assert r.eval(0.6)[0] == 2.0
        with pytest.raises(ValueError):
            u.restricted(2.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            StepSignal(np.array([0.1, 1.0]), np.array([[1.0]]))  # must start at 0
        with pytest.raises(ValueError):
            StepSignal(np.array([0.0, 0.5]), np.array([[1.0], [2.0]]))  # piece mismatch


class TestTraceLedger:
    def test_linear_interpolation(self):
        times = np.array([0.0, 1.0, 2.0])
        values = np.array([0.0, 2.0, 2.0]).reshape(3, 1, 1)
        led = TraceLedger(times, values, 2.0)
        assert led.eval_channel(0, 0, np.array([0.5]))[0] == 1.0
        assert led.eval_channel(0, 0, np.array([1.5]))[0] == 2.0

    def test_jump_pair_sides(self):
        # duplicated stamp at t = 1: left value 1, right value 5
        times = np.array([0.0, 1.0, 1.0, 2.0])
        values = np.array([0.0, 1.0, 5.0, 5.0]).reshape(4, 1, 1)
        led = TraceLedger(times, values, 2.0)
        assert led.eval_channel(0, 0, np.array([1.0]))[0] == 5.0
        assert led.eval_channel(0, 0, np.array([1.0]), side="left")[0] == 1.0
        # approach from below interpolates toward the left value
        assert abs(led.eval_channel(0, 0, np.array([0.999]))[0] - 0.999) < 1e-12
        assert led.eval_channel(0, 0, np.array([1.5]))[0] == 5.0

    def test_eval_slice(self):
        times = np.array([0.0, 1.0])
        values = np.arange(4.0).reshape(2, 1, 2)
        led = TraceLedger(times, values, 1.0)
        assert led.eval(0.5).tolist() == [[1.0, 2.0]]
