import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
        assert abs(u.lp_norm(2.0, unit_weights=np.ones(1)) - np.sqrt(1.75)) < 1e-15
        assert abs(u.lp_norm(1.0, unit_weights=np.ones(1)) - (0.5 + 0.75)) < 1e-15

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

    def test_unknown_side_rejected(self):
        u = StepSignal.constant(np.ones(1), 1.0)
        with pytest.raises(ValueError):
            u.eval(0.5, side="middle")


class TestTraceLedger:
    def test_linear_interpolation(self):
        times = np.array([0.0, 1.0, 2.0])
        values = np.array([0.0, 2.0, 2.0]).reshape(3, 1, 1)
        led = TraceLedger(times, values)
        assert led.eval_channel(0, 0, np.array([0.5]))[0] == 1.0
        assert led.eval_channel(0, 0, np.array([1.5]))[0] == 2.0

    def test_jump_pair_sides(self):
        # duplicated stamp at t = 1: left value 1, right value 5
        times = np.array([0.0, 1.0, 1.0, 2.0])
        values = np.array([0.0, 1.0, 5.0, 5.0]).reshape(4, 1, 1)
        led = TraceLedger(times, values)
        assert led.eval_channel(0, 0, np.array([1.0]))[0] == 5.0
        assert led.eval_channel(0, 0, np.array([1.0]), side="left")[0] == 1.0
        # approach from below interpolates toward the left value
        assert abs(led.eval_channel(0, 0, np.array([0.999]))[0] - 0.999) < 1e-12
        assert led.eval_channel(0, 0, np.array([1.5]))[0] == 5.0


# ---------------------------------------------------------------------------
# the one piece rule against the two rules it replaced


def step_piece_ref(breaks, t, side, pieces):
    """StepSignal's piece before piece_index: any side but 'right' read left."""
    idx = np.searchsorted(breaks, t, side="right" if side == "right" else "left") - 1
    return np.minimum(np.maximum(idx, 0), pieces - 1)


def ledger_ref(times, values, vertex, node, t, side):
    """TraceLedger's read before piece_index: a left read that hits a stamp
    anchors at the first stamp equal to t, with a fraction of 0."""
    if side == "left":
        idx = np.searchsorted(times, t, side="left")
        hit = (idx < times.size) & (times[np.minimum(idx, times.size - 1)] == t)
        idx = np.where(hit, idx, idx - 1)
    else:
        idx = np.searchsorted(times, t, side="right") - 1
    idx = np.clip(idx, 0, times.size - 1)
    nxt = np.minimum(idx + 1, times.size - 1)
    t0, t1 = times[idx], times[nxt]
    gap = t1 - t0
    safe = np.where(gap > 0, gap, 1.0)
    frac = np.clip(np.where(gap > 0, (t - t0) / safe, 0.0), 0.0, 1.0)
    return (1.0 - frac) * values[idx, vertex, node] + frac * values[nxt, vertex, node]


@st.composite
def stamped_queries(draw):
    """Strictly increasing breaks from 0, the stamps with some breaks doubled
    into jump pairs, signed values, and query times at every stamp, between
    stamps, at 0, past the last stamp and at random."""
    gaps = draw(st.lists(st.floats(1e-3, 2.0), min_size=1, max_size=12))
    breaks = np.concatenate([[0.0], np.cumsum(gaps)])
    pairs = np.array(draw(st.lists(st.booleans(), min_size=len(gaps), max_size=len(gaps))))
    times = np.sort(np.concatenate([breaks, breaks[1:][pairs]]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    queries = np.concatenate([
        times, (breaks[:-1] + breaks[1:]) / 2.0, [0.0, breaks[-1] + draw(st.floats(1e-3, 1.0))],
        rng.uniform(0.0, breaks[-1], 8),
    ])
    return breaks, times, rng.normal(size=(times.size, 2, 3)), queries


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(stamped_queries(), st.sampled_from(["left", "right"]))
def test_one_piece_rule(case, side):
    """TraceLedger reads every query as the parent's anchor rule did, and a
    left read at a jump pair gives the left value; StepSignal picks the
    parent's piece."""
    breaks, times, values, queries = case
    vertex, node = np.arange(2)[:, None, None], np.arange(3)[:, None]
    led = TraceLedger(times, values)
    got = led.eval_channel(vertex, node, queries, side=side)
    assert np.array_equal(got, ledger_ref(times, values, vertex, node, queries, side))
    # at a stamp: the first of a jump pair on the left, the second on the right
    at = np.searchsorted(times, times, side=side) - (side == "right")
    got = led.eval_channel(vertex, node, times, side=side)
    assert np.array_equal(got, values[at, vertex, node])

    pieces = breaks.size - 1
    u = StepSignal(breaks, values[:pieces])
    idx = step_piece_ref(breaks, queries, side, pieces)
    assert np.array_equal(u.eval_channel(vertex, node, queries, side=side), values[idx, vertex, node])
    for t in queries[queries <= breaks[-1]]:
        assert np.array_equal(u.eval(t, side=side), values[step_piece_ref(breaks, t, side, pieces)])
