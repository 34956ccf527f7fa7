"""The padded edge tables against the per-edge code they replaced.

``Absorption`` and ``StateField`` pad their per-edge tables once and read and
reduce them from the padded arrays.  The references below are the per-edge
loops that did the same work on the ragged tables: the L1 norm as an fsum
over trapezoid weights, the sample extremes edge by edge, the primitive
table from per-edge cumulative sums, and the solver's absorption pieces and
initial-fed kinks from per-edge concatenations.  Every result must agree to
the bit.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from posflow import (
    Absorption,
    MetricGraph,
    Quadrature,
    ScatteringKernel,
    StateField,
    TransportSystem,
    closed_loop_solve,
)
from posflow.transport import _increasing_rows, _pad_rows

# ---------------------------------------------------------------------------
# the per-edge references


def flat_table_ref(xs, ys):
    """Per-row tables xs[j] (n_j,) and ys[j] (K, n_j) padded to one grid
    table, continued in unit steps, and one value table."""
    xp = _pad_rows(xs)
    past_end = np.arange(xp.shape[1]) - np.array([x.size for x in xs])[:, None] + 1
    return xp + np.maximum(past_end, 0), _pad_rows(ys)


def primitive_table_ref(breaks, values):
    cums = [np.vstack([np.zeros(v.shape[1]), np.cumsum(v * np.diff(b)[:, None], axis=0)])
            for b, v in zip(breaks, values)]
    return flat_table_ref(breaks, [c.T for c in cums])


def trapezoid_weights_ref(x):
    w = np.zeros_like(x)
    dx = np.diff(x)
    w[:-1] += 0.5 * dx
    w[1:] += 0.5 * dx
    return w


def norm_ref(system, xs, values):
    terms = []
    for x, v in zip(xs, values):
        w = np.outer(system.vgrid.weights, trapezoid_weights_ref(x))
        terms.extend((w.ravel() * np.abs(v).ravel()).tolist())
    return math.fsum(terms)


def pieces_ref(breaks, values):
    """edge, b_i, b_{i+1} and the rates of every absorption piece."""
    edge = np.repeat(np.arange(len(values)), [v.shape[0] for v in values])
    lo = np.concatenate([b[:-1] for b in breaks])
    hi = np.concatenate([b[1:] for b in breaks])
    return edge, lo, hi, np.concatenate(values)


def initial_kinks_ref(breaks, xs):
    rows = [np.concatenate([b, b, x]) for b, x in zip(breaks, xs)]
    shifts = [np.repeat([0.0, 1.0], [b.size, b.size + x.size]) for b, x in zip(breaks, xs)]
    return _pad_rows(rows), _pad_rows(shifts)


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))


# ---------------------------------------------------------------------------
# ragged networks


@st.composite
def ragged_networks(draw):
    """A one-vertex network of 1-5 loop edges with 1-4 absorption pieces per
    edge and per-node rates, some of them +-0.0, and a field whose grids mix
    2-knot and n-knot edges, its samples signed with some -0.0."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    M, K = draw(st.integers(1, 5)), draw(st.integers(1, 3))
    lengths = rng.uniform(0.5, 2.0, M)
    breaks, rates, xs, values = [], [], [], []
    for l in lengths:
        p = int(rng.integers(1, 5))
        breaks.append(np.concatenate([[0.0], np.sort(rng.uniform(0.0, l, p - 1)), [l]]))
        q = rng.uniform(-1.0, 0.5, (p, K))
        q[rng.uniform(size=q.shape) < 0.2] = 0.0
        q[rng.uniform(size=q.shape) < 0.1] = -0.0
        rates.append(q)
        n = 2 if rng.uniform() < 0.4 else int(rng.integers(3, 9))
        xs.append(np.concatenate([[0.0], np.sort(rng.uniform(0.0, l, n - 2)), [l]]))
        v = rng.normal(size=(K, n))
        v[rng.uniform(size=v.shape) < 0.2] = -0.0
        values.append(v)
    graph = MetricGraph(1, [0] * M, [0] * M, lengths, [1.0 / M] * M, np.ones((1, 1)))
    absorption = Absorption(tuple(breaks), tuple(rates))
    system = TransportSystem(graph, Quadrature.midpoint(0.5, 1.5, K), absorption,
                             ScatteringKernel.identity(), 9)
    return system, breaks, rates, xs, values


PROPERTY = settings(max_examples=60, deadline=None, derandomize=True, database=None)


@PROPERTY
@given(ragged_networks())
def test_absorption_is_padded_once(case):
    """Rows repeat their last break and their last piece; the primitive
    table and q_sup are those of the per-edge code."""
    system, breaks, rates, _, _ = case
    q = system.absorption
    assert q.pieces.tolist() == [v.shape[0] for v in rates]
    assert same_bits(q.breaks, _pad_rows(breaks))
    assert same_bits(q.values, _pad_rows([v.T for v in rates]).transpose(0, 2, 1))
    for got, want in zip(q._table, primitive_table_ref(breaks, rates)):
        assert same_bits(got, want)
    assert q.q_sup == max(float(np.max(np.abs(v))) for v in rates)


@PROPERTY
@given(ragged_networks())
def test_field_reductions_match_the_per_edge_code(case):
    """norm, min_value and max_abs of a sampled field, of a field with an
    evaluator and of its samples agree with the per-edge loops; so does the
    table a sampled field reads from."""
    system, _, _, xs, values = case
    f = StateField(system, xs, values)
    for got, want in zip(f._table, flat_table_ref(xs, values)):
        assert same_bits(got, want)
    exact = StateField.from_function(system, lambda j, x, k: np.sin(3.0 * x + k) - 0.5 * j, xs=xs)
    for field in (f, exact, exact.sampled()):
        assert same_bits(field.norm(), norm_ref(system, field.xs, field.values))
        assert same_bits(field.min_value(), min(float(v.min()) for v in field.values))
        assert same_bits(field.max_abs(), max(float(np.max(np.abs(v))) for v in field.values))
    assert all(same_bits(a, b) for a, b in zip(f.xs, xs))
    assert all(same_bits(a, b) for a, b in zip(f.values, values))


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(ragged_networks())
def test_solver_pieces_and_kinks_match_the_concatenations(case):
    """The solver's absorption pieces and initial-fed kink rows equal the
    per-edge concatenations they replaced."""
    system, breaks, rates, xs, values = case
    f = StateField(system, xs, [np.abs(v) for v in values])
    sol = closed_loop_solve(system, f, None, 0.5, stamp_budget=500)
    for got, want in zip(sol._pieces, pieces_ref(breaks, rates)):
        assert same_bits(got, want)
    for got, want in zip(sol._initial_kinks, initial_kinks_ref(breaks, xs)):
        assert same_bits(got, want)


@pytest.mark.parametrize("rates", [0.3, [0.3, -0.0, 0.0], [[0.1, -0.2], [0.0, 0.4], [-0.5, 0.5]]])
def test_constant_absorption_matches_the_per_edge_tables(rates):
    """One scalar, one scalar per edge or one per-node row per edge."""
    lengths, K = [1.0, 0.7, 1.3], 2
    per_edge = [rates] * 3 if np.isscalar(rates) else rates
    breaks = [np.array([0.0, l]) for l in lengths]
    values = [np.broadcast_to(np.asarray(r, dtype=float), (1, K)) for r in per_edge]
    q = Absorption.constant(rates, lengths, K)
    assert q.pieces.tolist() == [1, 1, 1]
    for got, want in zip(q._table, primitive_table_ref(breaks, values)):
        assert same_bits(got, want)


@pytest.mark.parametrize("shape", [(1, 2), (3, 5), (4, 2, 3), (2, 3, 1, 4)])
def test_rectangular_rows_pad_as_their_rows(rng, shape):
    """One (M, ..., n) array pads, with one copy of its last column, to the
    bits of its M rows padded one by one; so do increasing grid rows."""
    rows = rng.standard_normal(shape)
    rows[rows > 1.0] = -0.0
    assert same_bits(_pad_rows(rows), _pad_rows(list(rows)))
    grid = np.cumsum(rng.uniform(0.1, 1.0, shape[:1] + shape[-1:]), axis=1)
    grid -= grid[:, :1]
    for got, want in zip(_increasing_rows(grid, "grid", grid[:, -1]),
                         _increasing_rows(list(grid), "grid", grid[:, -1])):
        assert same_bits(got, want)


def test_ragged_rows_repeat_their_last_entry():
    rows = [np.array([0.0, 1.0]), np.array([0.0, 0.25, -0.0, 2.0]), np.array([0.0, 0.5, 3.0])]
    want = [[0.0, 1.0, 1.0, 1.0, 1.0], [0.0, 0.25, -0.0, 2.0, 2.0], [0.0, 0.5, 3.0, 3.0, 3.0]]
    assert same_bits(_pad_rows(rows), np.array(want))
    xp, sizes, grid = _increasing_rows([rows[0], rows[2]], "grid")
    assert same_bits(xp, np.array([[0.0, 1.0, 1.0, 1.0], [0.0, 0.5, 3.0, 3.0]]))
    assert sizes.tolist() == [2, 3]
    assert same_bits(grid, np.array([[0.0, 1.0, 2.0, 3.0], [0.0, 0.5, 3.0, 4.0]]))


@pytest.mark.parametrize("rows, edge", [([[0.0, 1.0], [0.0, 0.0]], 1), ([[0.0], [0.0]], 0),
                                        ([[0.5, 1.0], [0.0, 1.0]], 0)])
def test_bad_rectangular_rows_name_the_edge(rows, edge):
    for given in (np.array(rows), [np.array(r) for r in rows]):
        with pytest.raises(ValueError, match=f"grid of edge {edge}:"):
            _increasing_rows(given, "grid")


def test_tables_given_as_arrays_match_the_per_edge_tables(rng):
    """Absorption and StateField given (M, ...) arrays store the bits the
    per-edge rows give."""
    lengths, K, n = np.array([1.0, 0.7, 1.3]), 2, 5
    breaks = lengths[:, None] * np.array([0.0, 0.4, 1.0])
    rates = rng.uniform(-1.0, 1.0, (3, 2, K))
    whole, rows = Absorption(breaks, rates), Absorption(tuple(breaks), tuple(rates))
    for name in ("breaks", "values", "pieces"):
        assert same_bits(getattr(whole, name), getattr(rows, name))
    for got, want in zip(whole._table, rows._table):
        assert same_bits(got, want)
    graph = MetricGraph(3, [0, 1, 2], [1, 2, 0], lengths, [1.0, 1.0, 1.0], np.ones((3, 1)))
    system = TransportSystem(graph, Quadrature.midpoint(0.5, 1.5, K), whole,
                             ScatteringKernel.identity(), n)
    xs = np.linspace(0.0, lengths, n, axis=1)
    values = rng.standard_normal((3, K, n))
    fields = StateField(system, xs, values), StateField(system, list(xs), list(values))
    for got, want in zip(fields[0]._table, fields[1]._table):
        assert same_bits(got, want)
    for got, want in zip(fields[0]._grid, fields[1]._grid):
        assert same_bits(got, want)
    with pytest.raises(ValueError, match="samples of edge 0"):
        StateField(system, xs, values[:, :, 1:])


@pytest.mark.parametrize("breaks, values", [
    ([[0.1, 1.0]], [[[0.0]]]),                  # not from 0
    ([[0.0, 0.6, 0.4, 1.0]], [[[0.0]] * 3]),    # not increasing
    ([[0.0, 0.5, 0.5, 1.0]], [[[0.0]] * 3]),    # a repeated break
    ([[0.0]], [np.zeros((0, 1))]),              # no piece
    ([[[0.0, 1.0]]], [[[0.0]]]),                # not 1-d
    ([[0.0, 0.5, 1.0]], [[[0.0]]]),             # one row short
    ([[0.0, 1.0], [0.0, 1.0]], [[[0.0]], [[0.0], [1.0]]]),  # one row too many
    ([[0.0, 1.0]], []),                         # no value table
    ([[0.0, 1.0], [0.0, 1.0]], [[[0.0, 1.0]], [[0.0]]]),  # node counts differ
])
def test_bad_absorption_tables_raise(breaks, values):
    with pytest.raises(ValueError):
        Absorption(tuple(np.asarray(b) for b in breaks), tuple(np.asarray(v) for v in values))


@pytest.mark.parametrize("x", [[0.0, 0.6, 0.4, 1.0], [0.0, 0.5, 0.5, 1.0], [0.1, 1.0], [0.0, 0.9],
                               [[0.0, 1.0]], [0.0]])
def test_bad_grids_raise(x):
    graph = MetricGraph(1, [0], [0], [1.0], [1.0], np.ones((1, 1)))
    system = TransportSystem(graph, Quadrature.midpoint(0.5, 1.5, 1), Absorption.zero([1.0], 1),
                             ScatteringKernel.identity(), 9)
    with pytest.raises(ValueError, match="grid of edge 0"):
        StateField(system, [np.asarray(x)], [np.ones((1, np.size(x)))])


# ---------------------------------------------------------------------------
# the norm of X = prod_j L1


def edge_system(length=2.0, n_nodes=4):
    graph = MetricGraph(1, [0], [0], [length], [1.0], np.ones((1, 1)))
    return TransportSystem(graph, Quadrature.midpoint(1.0, 2.0, n_nodes),
                           Absorption.zero([length], n_nodes), ScatteringKernel.identity(), 41)


class TestStateNorm:
    def test_zero(self):
        assert StateField.zeros(edge_system()).norm() == 0.0

    def test_unit_rectangle(self):
        # constant 1 on one edge of length 2, velocity interval of length 1
        assert abs(StateField.constant(edge_system(), 1.0).norm() - 2.0) < 1e-12

    def test_cone_additivity(self, rng):
        system = edge_system()
        x = [np.concatenate([[0.0], np.sort(rng.uniform(0.0, 2.0, 14)), [2.0]])]
        f = StateField(system, x, [rng.uniform(0.0, 1.0, (4, 16))])
        g = StateField(system, x, [rng.uniform(0.0, 1.0, (4, 16))])
        assert abs((f + g).norm() - (f.norm() + g.norm())) < 1e-12

    def test_abs_decomposition_identity(self, rng):
        system = edge_system()
        x = [np.concatenate([[0.0], np.sort(rng.uniform(0.0, 2.0, 14)), [2.0]])]
        f = rng.normal(size=(4, 16))
        lhs = StateField(system, x, [np.abs(f)]).norm()
        rhs = (StateField(system, x, [np.maximum(f, 0.0)]).norm()
               + StateField(system, x, [np.maximum(-f, 0.0)]).norm())
        # each norm is the correctly rounded true sum; the split can differ
        # from the joint sum by at most one rounding of the final addition
        assert abs(lhs - rhs) <= 2 * np.finfo(float).eps * lhs
        assert StateField(system, x, [f]).norm() == lhs

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="samples of edge 0"):
            StateField(edge_system(), [np.linspace(0.0, 2.0, 3)], [np.ones((4, 4))])
