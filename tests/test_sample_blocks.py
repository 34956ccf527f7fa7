"""The positivity operators T(t), D_mu and R(mu) compute all (edge, node)
sample rows in one block; the per-pair loops they replaced are kept here as
oracles and compared on random Kirchhoff networks.  The oracles write each
closed form the way the operators do (the inflow gain, the segment weights),
so the blocking is checked bit for bit.  The block kernels they share, row
interpolation and the exponential-times-linear segment integral, are checked
against np.interp and exact series."""

import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from posflow import (
    Absorption,
    MetricGraph,
    Quadrature,
    ScatteringKernel,
    StateField,
    TransportSystem,
    dirichlet_apply,
    parse_scenario,
    resolvent_apply,
    semigroup_apply,
)
from fractions import Fraction
from math import factorial

from posflow.transport import (
    CharacteristicPath,
    _increasing_rows,
    _interp_rows,
    _pad_rows,
    _phi12,
    _segment,
    _segment_weights,
    knot_arrivals,
)

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "tools"))

from artifacts import scenario_files  # noqa: E402


# ---------------------------------------------------------------------------
# per-pair oracles: one np.interp per (edge, node) pair


def primitive_ref(system, j, k, x):
    b = np.unique(system.absorption.breaks[j])  # the edge's own breaks, without the padding
    n = b.size - 1
    cum = np.concatenate([[0.0], np.cumsum(system.absorption.values[j, :n, k] * np.diff(b))])
    return np.interp(x, b, cum)


def semigroup_ref(system, f, t):
    values = []
    for j, l in enumerate(system.graph.lengths):
        rows = []
        for k, v in enumerate(system.vgrid.nodes):
            x = np.minimum(np.maximum(f.xs[j], 0.0), l)
            s = t - (l - x) / v
            foot = np.minimum(x + v * t, l)
            grow = np.exp((primitive_ref(system, j, k, foot) - primitive_ref(system, j, k, x)) / v)
            rows.append(np.where(s <= 0.0, grow * f.eval(j, k, foot), 0.0))
        values.append(np.stack(rows))
    return values


def resolvent_ref(system, f, mu):
    values = []
    for j in range(system.n_edges):
        grid = np.union1d(f.xs[j], system.absorption.breaks[j])
        rows = np.empty((system.n_nodes, f.xs[j].size))
        for k, v in enumerate(system.vgrid.nodes):
            fy = f.eval(j, k, grid)
            W = (primitive_ref(system, j, k, grid) - mu * grid) / v
            h = np.diff(grid)
            w_hi, w_lo = _segment_weights(np.diff(W), h, 1.0)
            panel = w_lo * fy[:-1] + w_hi * fy[1:]
            decay = np.exp(np.diff(W))
            S = np.zeros(grid.size)
            for r in range(grid.size - 2, -1, -1):
                S[r] = panel[r] + decay[r] * S[r + 1]
            rows[k] = S[np.searchsorted(grid, f.xs[j])] / v
        values.append(rows)
    return values


def dirichlet_ref(system, g, mu):
    g_ = system.graph
    values = []
    for j, l in enumerate(g_.lengths):
        x = np.linspace(0.0, l, system.space_samples)
        rows = []
        for k, v in enumerate(system.vgrid.nodes):
            edge = primitive_ref(system, j, k, l)
            gain = np.exp((edge - primitive_ref(system, j, k, x)) / v) * g_.weights[j]
            rows.append(gain * np.exp(-mu * ((l - x) / v)) * g[g_.tails[j], k])
        values.append(np.stack(rows))
    return values


# ---------------------------------------------------------------------------
# random networks


def kirchhoff_network(rng, n, m, n_nodes, pieces, space_samples):
    """n vertices with at least one out-edge each, m edges, normalized
    weights; ``pieces`` > 0 gives each edge 1..pieces absorption pieces
    with rates in [-0.8, 0.5], ``pieces`` = 0 one constant rate per edge."""
    tails = np.concatenate([np.arange(n), rng.integers(0, n, m - n)])
    heads = rng.integers(0, n, m)
    lengths = rng.uniform(0.5, 1.5, m)
    weights = np.zeros(m)
    for v in range(n):
        out = np.flatnonzero(tails == v)
        raw = rng.uniform(0.2, 1.0, out.size)
        weights[out] = raw / raw.sum()
    vgrid = Quadrature.midpoint(0.5, 1.5, n_nodes)
    if pieces:
        breaks, values = [], []
        for l in lengths:
            p = int(rng.integers(1, pieces + 1))
            breaks.append(np.concatenate([[0.0], np.sort(rng.uniform(0.0, l, p - 1)), [l]]))
            values.append(rng.uniform(-0.8, 0.5, (p, n_nodes)))
        absorption = Absorption(tuple(breaks), tuple(values))
    else:
        absorption = Absorption.constant(list(rng.uniform(-0.8, 0.5, m)), lengths, n_nodes)
    graph = MetricGraph(n, tails, heads, lengths, weights, np.ones((n, 1)))
    return TransportSystem(graph, vgrid, absorption, ScatteringKernel.identity(), space_samples)


def ragged_field(rng, system):
    """Samples on per-edge grids of 2..40 random points, both ends included."""
    xs = [
        np.concatenate([[0.0], np.sort(rng.uniform(0.0, l, int(rng.integers(0, 39)))), [l]])
        for l in system.graph.lengths
    ]
    return StateField(system, xs, [rng.uniform(0.0, 1.0, (system.n_nodes, x.size)) for x in xs])


@st.composite
def cases(draw):
    n = draw(st.integers(1, 3))
    m = draw(st.integers(n, n + 4))
    uniform = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    system = kirchhoff_network(
        rng, n, m, draw(st.integers(1, 4)), 0 if uniform else 3, draw(st.integers(2, 24))
    )
    f = (
        StateField.from_samples(system, [rng.uniform(0.0, 1.0, (system.n_nodes, system.space_samples))
                                         for _ in range(m)])
        if uniform else ragged_field(rng, system)
    )
    g = rng.uniform(0.0, 1.0, (n, system.n_nodes))
    t, s = draw(st.floats(0.0, 3.5)), draw(st.floats(0.0, 1.5))
    mu = system.q_sup + draw(st.floats(0.05, 4.0))
    return uniform, system, f, g, t, s, mu


def assert_rows(got, ref, exact):
    assert len(got.values) == len(ref)
    for a, b in zip(got.values, ref):
        if exact:
            np.testing.assert_array_equal(a, b)
        else:
            np.testing.assert_allclose(a, b, rtol=1e-13, atol=0.0)


@settings(max_examples=60, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(cases())
def test_blocks_match_per_pair_loops(case):
    """Bit for bit on constant absorption with uniform grids; to 1e-13
    relative on piecewise tables with ragged, nonuniform grids.  The
    evaluator fields T(s)f and D_mu g are read through their evaluators one
    pair at a time by the oracles and as whole blocks by the operators."""
    exact, system, f, g, t, s, mu = case
    Tf = semigroup_apply(system, f, s)
    Dg = dirichlet_apply(system, g, mu)
    assert_rows(Tf, semigroup_ref(system, f, s), exact)
    assert_rows(Dg, dirichlet_ref(system, g, mu), exact)
    for field in (f, Tf, Dg):
        assert_rows(semigroup_apply(system, field, t), semigroup_ref(system, field, t), exact)
        assert_rows(resolvent_apply(system, field, mu), resolvent_ref(system, field, mu), exact)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(cases())
def test_knot_arrivals_match_per_edge_unions(case):
    """The distinct arrival times, the set that the event closure and the
    Gauss panels read, are those of the union of each edge's knots and
    absorption breaks, bit for bit as the per-edge np.union1d loop."""
    _, system, f, *_ = case
    want = np.concatenate([
        (np.union1d(f.xs[j], system.absorption.breaks[j])[:, None] / system.vgrid.nodes).ravel()
        for j in range(system.n_edges)
    ])
    assert np.array_equal(np.unique(knot_arrivals(system, f)), np.unique(want))


def assert_lift_ties(system, g, mu):
    """The full-edge gain is the path gain at x = 0, and the Dirichlet lift
    at x = 0 is the edge factor of H(mu), both bit for bit."""
    M, K = system.n_edges, system.n_nodes
    path = CharacteristicPath(system, np.arange(M)[:, None], np.arange(K), 0.0)
    assert np.array_equal(system.edge_gain, path.gain)
    lift = dirichlet_apply(system, g, mu).eval(np.arange(M)[:, None], np.arange(K), 0.0)
    want = system.edge_gain * np.exp(-mu * system.delays) * g[system.graph.tails]
    assert np.array_equal(lift, want)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(cases())
def test_lift_ties_on_kirchhoff_networks(case):
    _, system, _, g, _, _, mu = case
    assert_lift_ties(system, g, mu)


def test_lift_ties_on_scenarios(tmp_path, rng):
    """The shipped scenarios, the benchmark's seed-0 scenarios and the
    extra ones of tools/artifacts.py."""
    files = scenario_files(tmp_path)
    assert len(files) == 14
    for path in files:
        system = parse_scenario(path).system
        g = rng.uniform(0.0, 1.0, (system.n_vertices, system.n_nodes))
        for mu in (-0.5, 0.0, system.q_sup + 1.3):
            assert_lift_ties(system, g, mu)


def test_evaluator_is_the_block_kernel_on_one_pair(rng):
    """Reading T(t)f or D_mu g through its evaluator at one (edge, node)
    pair gives that pair's block row, bit for bit."""
    system = kirchhoff_network(rng, 3, 7, 3, 3, 21)
    f = ragged_field(rng, system)
    fields = [semigroup_apply(system, f, 0.4),
              dirichlet_apply(system, rng.uniform(0.0, 1.0, (3, 3)), 1.7)]
    for field in fields:
        for j in range(system.n_edges):
            for k in range(system.n_nodes):
                np.testing.assert_array_equal(field.eval(j, k, field.xs[j]), field.values[j][k])


# ---------------------------------------------------------------------------
# call counts


def ladder(n_vertices, rng):
    """Two out-edges per vertex, two absorption pieces per edge, K = 4."""
    system = kirchhoff_network(rng, n_vertices, 2 * n_vertices, 4, 2, 17)
    return system, ragged_field(rng, system)


@pytest.mark.parametrize("apply", ["semigroup", "resolvent", "dirichlet"])
def test_reads_per_operator_do_not_grow_with_edges(monkeypatch, rng, apply):
    """The operators read the absorption primitive and the input field once
    per block, not once per (edge, node) pair: the count on 64 edges equals
    the count on 8."""
    calls = {"primitive": 0, "eval": 0}

    def counted(name, fn):
        def wrapped(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(Absorption, "primitive", counted("primitive", Absorption.primitive))
    monkeypatch.setattr(StateField, "eval", counted("eval", StateField.eval))
    ops = {
        "semigroup": lambda s, f: semigroup_apply(s, semigroup_apply(s, f, 0.2), 0.3),
        "resolvent": lambda s, f: resolvent_apply(s, f, s.q_sup + 1.0),
        "dirichlet": lambda s, f: dirichlet_apply(s, np.ones((s.n_vertices, 4)), 1.0),
    }
    counts = []
    for n_vertices in (4, 32):
        system, f = ladder(n_vertices, rng)
        calls.update(primitive=0, eval=0)
        ops[apply](system, f)
        counts.append(dict(calls))
    assert counts[0] == counts[1]
    assert sum(counts[0].values()) < 8 * 4  # fewer than one read per pair


# ---------------------------------------------------------------------------
# the shared kernels


@st.composite
def interp_cases(draw):
    """Ragged per-row grids on [0, 2] with signed samples, some of them -0.0,
    and query points that hit every knot plus random points in [-0.5, 2]."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    M, K = draw(st.integers(1, 4)), draw(st.integers(1, 3))
    xs, ys = [], []
    for _ in range(M):
        n = int(rng.integers(2, 9))
        xs.append(np.concatenate([[0.0], np.sort(rng.uniform(0.0, 2.0, n - 2)), [2.0]]))
        y = rng.uniform(-1.0, 1.0, (K, n))
        y[rng.uniform(size=y.shape) < 0.3] = -0.0
        y.flat[rng.integers(y.size)] = -0.0
        ys.append(y)
    width = max(x.size for x in xs)
    hits = np.stack([np.resize(x, width) for x in xs])
    x = np.concatenate([hits, rng.uniform(-0.5, 2.0, (M, 9))], axis=1)
    return xs, ys, x


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(interp_cases())
def test_interp_rows_is_np_interp_bit_for_bit(case):
    """Every row and node agrees with np.interp to the bit, the sign of a
    -0.0 sample read at its own knot included."""
    xs, ys, x = case
    table = _increasing_rows(xs, "grid")[2], _pad_rows(ys)
    got = _interp_rows(*table, np.arange(len(xs))[:, None, None],
                       np.arange(ys[0].shape[0])[:, None], x[:, None, :])
    for j, (xp, fp) in enumerate(zip(xs, ys)):
        for k, row in enumerate(fp):
            want = np.interp(x[j], xp, row)
            assert np.array_equal(got[j, k], want)
            assert np.array_equal(np.signbit(got[j, k]), np.signbit(want))


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(interp_cases())
def test_state_field_reads_are_np_interp_bit_for_bit(case):
    """A sampled field reads pairs and blocks from the one table it built;
    both agree with np.interp on its own rows to the bit, the sign of a -0.0
    sample included, and reading keeps the table."""
    xs, ys, x = case
    M, K = len(xs), ys[0].shape[0]
    graph = MetricGraph(1, [0] * M, [0] * M, [2.0] * M, [1.0 / M] * M)
    system = TransportSystem(graph, Quadrature.midpoint(0.5, 1.5, K), Absorption.zero([2.0] * M, K),
                             ScatteringKernel.identity(), 9)
    f = StateField(system, xs, ys)
    table = f._table
    block = f.eval(np.arange(M)[:, None, None], np.arange(K)[:, None], x[:, None, :])
    for j, (xp, fp) in enumerate(zip(xs, ys)):
        for k, row in enumerate(fp):
            want = np.interp(np.minimum(np.maximum(x[j], 0.0), 2.0), xp, row)
            for got in (block[j, k], f.eval(j, k, x[j])):
                assert np.array_equal(got, want)
                assert np.array_equal(np.signbit(got), np.signbit(want))
    assert f._table is table


def phi_series(z: float, terms: int = 90) -> tuple[float, float]:
    """phi1(z) = sum z^n/(n+1)! and phi2(z) = sum z^n (n+1)/(n+2)!, summed in
    exact rational arithmetic (|z| <= 10 needs far fewer terms)."""
    z = Fraction(z)
    p1 = sum(z**n / factorial(n + 1) for n in range(terms))
    p2 = sum(z**n * (n + 1) / factorial(n + 2) for n in range(terms))
    return float(p1), float(p2)


def test_phi_functions_match_exact_series():
    """Both sides of the series switch at |z| = 0.1 and far past it, for
    either sign of z, to 1e-14 relative."""
    mags = np.concatenate([np.logspace(-9.0, 1.0, 41), [0.0999999, 0.1, 0.1000001]])
    z = np.concatenate([-mags, [0.0], mags])
    phi1, phi2 = _phi12(z)
    want = np.array([phi_series(float(v)) for v in z])
    np.testing.assert_allclose(phi1, want[:, 0], rtol=1e-14, atol=0.0)
    np.testing.assert_allclose(phi2, want[:, 1], rtol=1e-14, atol=0.0)


# ---------------------------------------------------------------------------
# the cut rule: a repeated cut is a panel of width 0 and weight 0


@pytest.mark.parametrize("factor", [1.0, -2.5, 0.0, 1e300, 1e-300])
def test_zero_width_panel_weighs_exactly_zero(factor):
    assert _segment_weights(0.0, 0.0, factor) == (0.0, 0.0)


def test_ledger_form_keeps_the_rate_form_bits(rng):
    """The ledger passes z = q h; the weights are those of the rate form,
    phi1 and phi2 of q h times h factor, to the bit."""
    q = rng.uniform(-50.0, 50.0, 4000) * 10.0 ** rng.integers(-12, 1, 4000)
    h = rng.uniform(0.0, 2.0, 4000) * 10.0 ** rng.integers(-12, 1, 4000)
    factor = np.exp(rng.uniform(-30.0, 0.0, 4000))
    phi1, phi2 = _phi12(q * h)
    got = _segment_weights(q * h, h, factor)
    for g, want in zip(got, (h * factor * phi2, h * factor * (phi1 - phi2))):
        assert np.array_equal(g, want)


def knotted_field(rng, system):
    """Samples on per-edge grids of different lengths that contain every
    absorption break of the edge, so the resolvent's interior cuts repeat."""
    q = system.absorption
    xs = [np.union1d(q.breaks[j], rng.uniform(0.0, l, int(rng.integers(0, 30))))
          for j, l in enumerate(system.graph.lengths)]
    return StateField(system, xs, [rng.uniform(0.0, 1.0, (system.n_nodes, x.size)) for x in xs])


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(st.integers(1, 3), st.integers(0, 4), st.integers(1, 4), st.integers(0, 2**32 - 1),
       st.floats(0.05, 4.0))
def test_repeated_cuts_keep_the_resolvent_bits(n, extra, n_nodes, seed, gap):
    """Initial knots at every absorption break: each interior break is cut
    twice, and the block resolvent still equals the np.union1d reference to
    the bit."""
    rng = np.random.default_rng(seed)
    system = kirchhoff_network(rng, n, n + extra, n_nodes, 3, 9)
    f = knotted_field(rng, system)
    assert_rows(resolvent_apply(system, f, system.q_sup + gap),
                resolvent_ref(system, f, system.q_sup + gap), exact=True)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.integers(1, 5), st.integers(0, 2**32 - 1))
def test_segment_reads_non_decreasing_rows(M, seed):
    """On padded rows with repeated entries, the segment of x is the last
    knot at or below it: searchsorted right minus 1, clipped to [0, B - 2]."""
    rng = np.random.default_rng(seed)
    rows = []
    for _ in range(M):
        pool = np.concatenate([[0.0], rng.uniform(0.0, rng.uniform(0.1, 1e3), 4)])
        rows.append(np.sort(rng.choice(pool, int(rng.integers(2, 12)))))
        rows[-1][0] = 0.0
    xp = _pad_rows(rows)
    B = xp.shape[1]
    near = [np.maximum(np.nextafter(xp, -np.inf), 0.0), np.nextafter(xp, np.inf)]
    x = np.concatenate([xp, *near, rng.uniform(0.0, 1.2, (M, 9)) * xp[:, -1:]], axis=1)
    got = _segment(xp, np.arange(M)[:, None], x)
    for j in range(M):
        want = np.clip(np.searchsorted(xp[j], x[j], "right") - 1, 0, B - 2)
        assert np.array_equal(got[j], want)
