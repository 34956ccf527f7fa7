import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from posflow import AssumptionReport, MetricGraph, check_assumptions


def assumptions_ref(graph):
    """check_assumptions from dense N x M incidence matrices and the weighted
    adjacency inc @ weighted_out.T, whose (i, l) entry is the weight of an
    edge running from vertex l to vertex i."""
    n, m = graph.n_vertices, graph.n_edges
    out, inc = np.zeros((n, m)), np.zeros((n, m))
    out[graph.tails, np.arange(m)] = 1.0
    inc[graph.heads, np.arange(m)] = 1.0
    weighted_out = out * graph.weights[np.newaxis, :]
    a2_failures = tuple(int(i) for i in np.flatnonzero(out.sum(axis=1) == 0))
    residuals = weighted_out.sum(axis=1) - 1.0
    a3_ok = bool(np.all(np.abs(residuals) <= 1e-12))
    col_sums = (inc @ weighted_out.T).sum(axis=0)
    deviation = float(np.max(np.abs(col_sums - 1.0)))
    return AssumptionReport(a2_ok=not a2_failures, a2_failures=a2_failures, a3_ok=a3_ok,
                            a3_residuals=residuals, column_stochastic=a3_ok and deviation <= 1e-12,
                            column_sum_deviation=deviation)


@st.composite
def weighted_graphs(draw):
    """Graphs with up to 4 out-edges per vertex (some vertices may have
    none), non-dyadic weights, and sometimes Kirchhoff-normalized weights."""
    n = draw(st.integers(1, 6))
    degrees = draw(st.lists(st.integers(0, 4), min_size=n, max_size=n))
    if sum(degrees) < n:
        degrees[0] += n - sum(degrees)
    tails = np.repeat(np.arange(n), degrees)
    order = draw(st.permutations(range(tails.size)))
    tails = tails[list(order)]
    m = tails.size
    heads = np.array(draw(st.lists(st.integers(0, n - 1), min_size=m, max_size=m)))
    weights = np.array(draw(st.lists(st.floats(0.05, 1.0), min_size=m, max_size=m))) / 3.0
    if draw(st.booleans()):
        sums = np.bincount(tails, weights, minlength=n)
        weights = weights / sums[tails]
    return MetricGraph(n, tails, heads, np.ones(m), np.minimum(weights, 1.0))


@settings(max_examples=300, deadline=None)
@given(weighted_graphs())
def test_matches_dense_incidence_reference(g):
    got, want = check_assumptions(g), assumptions_ref(g)
    assert (got.a2_ok, got.a2_failures) == (want.a2_ok, want.a2_failures)
    if np.bincount(g.tails).max() <= 2:
        # two terms and zeros add the same in any order
        assert np.array_equal(got.a3_residuals, want.a3_residuals)
        assert got.column_sum_deviation == want.column_sum_deviation
        assert (got.a3_ok, got.column_stochastic) == (want.a3_ok, want.column_stochastic)
    else:
        assert np.max(np.abs(got.a3_residuals - want.a3_residuals)) <= 1e-15
        assert abs(got.column_sum_deviation - want.column_sum_deviation) <= 1e-15


def test_single_loop():
    report = check_assumptions(MetricGraph(1, [0], [0], [1.0], [1.0]))
    assert report.a2_ok and report.a3_ok and report.column_stochastic
    assert report.column_sum_deviation == 0.0


def test_a2_failure_lists_vertex():
    # vertex 1 (index 0) has no outgoing edge
    g = MetricGraph(2, [1, 1], [0, 1], [1.0, 1.0], [0.5, 0.5])
    report = check_assumptions(g)
    assert not report.a2_ok and report.a2_failures == (0,)


def test_a3_residual_reported():
    g = MetricGraph(1, [0, 0], [0, 0], [1.0, 2.0], [0.5, 0.4])
    report = check_assumptions(g)
    assert not report.a3_ok
    assert abs(report.a3_residuals[0] + 0.1) < 1e-12


def test_column_stochastic_on_random_graphs(rng):
    for _ in range(20):
        n = int(rng.integers(1, 5))
        m = int(rng.integers(n, 7))
        tails = np.concatenate([np.arange(n), rng.integers(0, n, m - n)])
        heads = rng.integers(0, n, m)
        weights = np.zeros(m)
        for v in range(n):
            out = np.flatnonzero(tails == v)
            raw = rng.uniform(0.1, 1.0, out.size)
            weights[out] = raw / raw.sum()
        g = MetricGraph(n, tails, heads, rng.uniform(0.5, 2.0, m), weights)
        report = check_assumptions(g)
        assert report.a3_ok and report.column_stochastic
        assert report.column_sum_deviation < 1e-12


def test_insertion_order_invariance(rng):
    n, m = 3, 5
    tails = np.array([0, 1, 2, 0, 1])
    heads = np.array([1, 2, 0, 2, 0])
    lengths = rng.uniform(0.5, 2.0, m)
    weights = np.array([0.6, 0.3, 1.0, 0.4, 0.7])
    g = MetricGraph(n, tails, heads, lengths, weights)
    perm = rng.permutation(m)
    g_perm = MetricGraph(n, tails[perm], heads[perm], lengths[perm], weights[perm])
    a, b = check_assumptions(g), check_assumptions(g_perm)
    assert np.array_equal(a.a3_residuals, b.a3_residuals)
    assert a.column_sum_deviation == b.column_sum_deviation


def test_validation_errors():
    with pytest.raises(ValueError):
        MetricGraph(2, [0], [1], [1.0], [1.0])  # fewer edges than vertices
    with pytest.raises(ValueError):
        MetricGraph(1, [0], [0], [-1.0], [1.0])  # negative length
    with pytest.raises(ValueError):
        MetricGraph(1, [0], [0], [1.0], [1.5])  # weight above one
    with pytest.raises(ValueError):
        MetricGraph(1, [0], [2], [1.0], [1.0])  # head out of range
    with pytest.raises(ValueError):
        MetricGraph(1, [0], [0], [1.0], [1.0], control=np.ones((1, 2)))  # too many controls
    with pytest.raises(ValueError):
        MetricGraph(1, [0], [0], [1.0], [1.0], control=-np.ones((1, 1)))  # signed control
