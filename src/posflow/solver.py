"""Exact closed-loop solver for the scattering-coupled transport network.

The boundary condition couples every edge's inflow trace at x = l_j to the
scattered outflow traces at x = 0 plus the control term.  Because every
boundary-to-boundary path takes at least Delta = min_j l_j / v_max, the
vertex inflow data g(t) on [0, Delta) is determined by the initial state
alone, on [Delta, 2*Delta) by the already known part of g, and so on: the
implicit condition resolves in ceil(horizon / Delta) substitution
generations.  The solver stamps g on a time set containing the
characteristic arrival events (so the ledger is exact whenever the data is
piecewise linear and the event closure fits the budget) plus a uniform
ceiling that bounds interpolation error otherwise, and fixes it one window
of stamps at a time: a window holds every stamp whose reads lie at or
before the last fixed stamp, and costs one read over (stamps, edges,
velocity nodes) that takes the initial data and the ledger together, and
one application of Gamma (:meth:`TransportSystem.route`).

A solution is observed by two reads.  The samples of one snapshot time are
one read of the characteristics through the x-grids, whose t-independent
part is computed once per solution.  The masses of many times come per chunk
of times from one read of the Gauss points of each edge's initial-fed part,
a chunk holding at most one snapshot's number of points, plus the ledger-fed
rest in closed form from prefix integrals of the ledger.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, partial

import numpy as np

from .lattice import gauss_block
from .signals import StepSignal, distinct_sorted, piece_index
from .transport import (
    CharacteristicPath,
    StateField,
    TransportSystem,
    _segment_weights,
    characteristic_read,
    initial_kinks,
    knot_arrivals,
)

# the rows of a sweep window or of a prefix-table chunk are capped so that
# each (rows, M, K) or (rows, U, K) temporary stays near this size
_BLOCK_BYTES = 1 << 20
# a decaying prefix-table column spans at most this many e-folds per chunk,
# so its rebased entries stay far from under- and overflow
_REBASE = 512.0


class NegativeDataError(ValueError):
    """Negative initial data or input given to a positivity-mode solve."""


class TraceLedger:
    """Time-stamped vertex inflow data g(t) with linear interpolation.

    Stamps are sorted and may contain duplicated times representing jump
    pairs; evaluation is right-continuous, ``side='left'`` reads left limits
    at exact stamp hits (:func:`~posflow.signals.piece_index`).
    """

    def __init__(self, times: np.ndarray, values: np.ndarray):
        self.times = np.asarray(times, dtype=float)
        # contiguous, so eval_channel's flat view is no copy; a contiguous
        # float array stays the caller's array, which the sweep fills in place
        self.values = np.ascontiguousarray(values, dtype=float)
        if self.values.shape[0] != self.times.size:
            raise ValueError("one value slice per stamp required")
        if np.any(np.diff(self.times) < 0):
            raise ValueError("stamps must be sorted")

    def eval_channel(self, vertex, node, t: np.ndarray, side: str = "right") -> np.ndarray:
        """g_vertex(t, v_node) for times within the stamps.

        ``vertex``, ``node`` and ``t`` broadcast against each other, so an
        array of nodes reads node i at time t[i].
        """
        t = np.asarray(t, dtype=float)
        idx = piece_index(self.times, t, side, self.times.size - 1)
        nxt = np.minimum(idx + 1, self.times.size - 1)
        t0, t1 = self.times[idx], self.times[nxt]
        gap = t1 - t0
        safe = np.where(gap > 0, gap, 1.0)
        # np.clip costs about twice as much on small arrays (see piece_index)
        frac = np.minimum(np.maximum(np.where(gap > 0, (t - t0) / safe, 0.0), 0.0), 1.0)
        # flat indices gather faster than broadcast fancy indexing
        _, N, K = self.values.shape
        flat, channel = self.values.reshape(-1), vertex * K + node
        return (1.0 - frac) * flat[idx * (N * K) + channel] + frac * flat[nxt * (N * K) + channel]

    def min_value(self) -> float:
        return float(self.values.min()) if self.values.size else 0.0


def _hits(points: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Whether each t is one of the sorted ``points``: a piece_index hit."""
    if not points.size:
        return np.zeros(t.shape, dtype=bool)
    return points[piece_index(points, t, "right", points.size - 1)] == t


def _delay_closure(
    seeds: np.ndarray, delays: np.ndarray, horizon: float, budget: int, inclusive: bool
) -> tuple[np.ndarray, bool]:
    """Close ``seeds`` under shifts by ``delays``, keeping shifted points
    <= horizon (``inclusive``) or < horizon.

    Returns the sorted points and whether the closure completed within
    ``budget`` points; a truncated closure stops at the last full shift
    generation that fit, or returns the seeds alone if they exceed it.
    """
    points = distinct_sorted(seeds)
    if points.size > budget:
        return points, False
    front = points
    while front.size:
        shifted = (front[:, None] + delays[None, :]).ravel()
        kept = shifted <= horizon if inclusive else shifted < horizon
        fresh = distinct_sorted(shifted[kept])
        fresh = fresh[~_hits(points, fresh)]
        if points.size + fresh.size > budget:
            return points, False
        points = distinct_sorted(np.concatenate([points, fresh]))
        front = fresh
    return points, True


def _event_stamps(
    system: TransportSystem,
    x0: StateField,
    u: StepSignal | None,
    horizon: float,
    dt_max: float,
    budget: int,
) -> tuple[np.ndarray, np.ndarray, bool]:
    """Stamp times for the forward sweep.

    Seeds are t = 0, the control breakpoints, and the arrival times of the
    initial-data and absorption knots at the outflow ends; the set is closed
    under shifts by the transit delays l_j / v_k until exhausted or the
    budget is hit.  A uniform grid of step dt_max is merged in so stamp gaps
    stay below the shortest delay (the forward sweep relies on that) and
    bound interpolation error.  t = 0 and the horizon are always stamps.
    Returns (times, jump_times, closure_complete).
    """
    delays = distinct_sorted(system.delays)
    arrivals = knot_arrivals(system, x0)
    inner = np.empty(0) if u is None else u.breaks[(u.breaks > 0) & (u.breaks < horizon)]
    seeds = np.concatenate([[0.0, horizon], arrivals[arrivals <= horizon], inner])
    stamps, complete = _delay_closure(seeds, delays, horizon, budget, inclusive=True)
    stamps = stamps[:budget]  # the seeds alone may exceed the budget

    # jumps propagate along characteristics; track them so both one-sided
    # limits get their own ledger entry
    jumps, _ = _delay_closure(inner, delays, horizon, budget, inclusive=False)
    stamps = distinct_sorted(np.concatenate([stamps, [0.0, horizon], jumps, np.arange(0.0, horizon, dt_max)]))
    return stamps, jumps, complete


class _LedgerIntegrals:
    """Prefix integrals F_u(tau) = int_0^tau e^{-q_u r} g_{vertex_u}(r) dr of
    ledger channels, one table u per (vertex, rate row q_u) pair, with (K,)
    rates and channels per table.  The ledger is linear between stamps, so
    every segment integral is closed form (:func:`~posflow.transport._segment_weights`).

    The tables are built in chunks of stamps, each (rows, U, K) temporary
    near :data:`_BLOCK_BYTES`.  A column with q < 0 is rebased to the end
    time of its chunk: it stores e^{q base} F, whose weights e^{q (base - r)}
    are <= 1, and a chunk spans at most :data:`_REBASE` / max|q| in time.
    A column with q = 0 stores F itself.  So no entry overflows while the
    ledger is finite, and F(b) - F(a) cancels no more than the ledger's own
    history does.  With q > 0 the history would outweigh a late window by
    about e^{q a}: :meth:`ClosedLoopSolution._fed_mass` reads growing rates
    from the time-reversed ledger instead, where they decay.
    """

    def __init__(self, ledger: TraceLedger, vertices: np.ndarray, rates: np.ndarray):
        times, G = ledger.times, ledger.values
        S, (U, K) = times.size, rates.shape
        self.ledger, self.vertices, self.rates = ledger, vertices, rates
        self.table = np.zeros((S, U, K))
        self.base = np.full(S, times[-1])  # the chunk end of each stamp's segment
        rows = max(1, _BLOCK_BYTES // (8 * U * K))
        span = _REBASE / max(-rates.min(initial=0.0), 1e-300)
        # the weights depend on a column only through its rate
        q, of_rate = np.unique(rates, return_inverse=True)
        of_rate = of_rate.reshape(rates.shape)
        carry, carried = np.zeros((U, K)), np.zeros((U, K))
        c0 = 0
        while c0 < S - 1:
            reach = int(np.searchsorted(times, times[c0] + span, side="right")) - 1
            c1 = max(c0 + 1, min(c0 + rows, S - 1, reach))
            rebase = np.where(q < 0.0, times[c1], 0.0)
            ends = times[c0 + 1 : c1 + 1, None]
            h = np.diff(times[c0 : c1 + 1])[:, None]
            w0, w1 = _segment_weights(q * h, h, np.exp(q * (rebase - ends)))
            g = G[c0 : c1 + 1, vertices]
            seg = w0[:, of_rate] * g[:-1] + w1[:, of_rate] * g[1:]
            self.table[c0] = np.exp(rates * (rebase[of_rate] - carried)) * carry
            self.table[c0 + 1 : c1 + 1] = self.table[c0] + np.cumsum(seg, axis=0)
            self.base[c0:c1] = times[c1]
            carry, carried = self.table[c1].copy(), rebase[of_rate]
            c0 = c1

    def scaled(self, u: np.ndarray, tau: np.ndarray, c: np.ndarray) -> np.ndarray:
        """e^c F_u(tau) for tables u (...) at times tau (..., K) within the
        stamps: the entry of the stamp before tau plus the partial segment up
        to tau, times e^c with c and the rebase summed before one exp, so
        neither factor overflows alone."""
        times, k = self.ledger.times, np.arange(self.rates.shape[1])
        a = np.minimum(piece_index(times, tau, "right", times.size - 1), max(times.size - 2, 0))
        vertex, q = self.vertices[u][..., None], self.rates[u]
        base = np.where(q < 0.0, self.base[a], 0.0)
        h = tau - times[a]
        w0, w1 = _segment_weights(q * h, h, np.exp(q * (base - tau)))
        part = w0 * self.ledger.values[a, vertex, k] + w1 * self.ledger.eval_channel(vertex, k, tau)
        return np.exp(c - q * base) * (self.table[a, u[..., None], k] + part)


@dataclass
class ClosedLoopSolution:
    """Exact mild solution of the coupled network flow.

    The ledger holds the vertex inflow data; the state at any (t, x, v) is a
    single closed-form read against either the initial field (characteristic
    still inside the edge) or the ledger (characteristic entered at l_j).
    :meth:`samples` and :meth:`masses` read snapshots and masses;
    :meth:`snapshot` and :meth:`total_mass` are views on those two reads.
    """

    system: TransportSystem
    initial: StateField
    ledger: TraceLedger
    horizon: float
    generations: int
    sweep_windows: int
    stamp_count: int
    events_complete: bool
    min_state: float

    def eval_edge(self, j, k, x: np.ndarray, t) -> np.ndarray:
        """z_j(t, x, v_k) along the characteristic through (x, t); ``j`` and
        ``k`` are indices or integer arrays broadcasting against ``x`` and
        ``t``."""
        return characteristic_read(
            self.system, j, k, x, t, initial=self.initial, inflow=self.ledger.eval_channel
        )

    @cached_property
    def _grid_path(self) -> CharacteristicPath:
        """The characteristics through the (M, K, n + 1) points of
        :attr:`TransportSystem.grid`, read once per snapshot time.  Edge,
        node and point indices are full (M, K, n + 1) copies, so each branch
        of a read gathers its points without broadcasting them."""
        sys_ = self.system
        j, k, x = np.broadcast_arrays(np.arange(sys_.n_edges)[:, None, None],
                                      np.arange(sys_.n_nodes)[:, None], sys_.grid[0][:, None, :])
        return CharacteristicPath(sys_, j.copy(), k.copy(), x.copy())

    @cached_property
    def _initial_kinks(self) -> tuple[np.ndarray, np.ndarray]:
        return initial_kinks(self.system, self.initial)

    @cached_property
    def _mass_rows(self) -> int:
        """Times per chunk of :meth:`_edge_masses`: gauss_block cuts each of
        the M K rows at the Q initial kinks into Q + 1 panels of 5 points,
        and a chunk holds at most M K n of them, one snapshot's worth, but
        at least one time."""
        return max(1, self.system.space_samples // (5 * (self._initial_kinks[0].shape[1] + 1)))

    @cached_property
    def _pieces(self) -> tuple[np.ndarray, ...]:
        """The padded absorption pieces [b_i, b_{i+1}] (M, P) of every edge:
        b_i, b_{i+1}, rates q_i (M, P, K), the constant C_i of the growth
        exponent (P_j(l_j) - P_j(x))/v_k = C_i + q_i (t - s) at entry time s,
        from int_0^{b_i} q in the primitive table, each piece's table index
        (M, P), and the prefix tables (:class:`_LedgerIntegrals`), one per
        distinct (tail vertex, rate row): of the ledger for q <= 0, and of the
        time-reversed ledger when some rate grows.  A padded piece, b_i =
        b_{i+1} = l_j with the last piece's rates, adds no table."""
        sys_, q = self.system, self.system.absorption
        lo, hi, rates = q.breaks[:, :-1], q.breaks[:, 1:], q.values
        at_lo = np.moveaxis(q._table[1][..., :-1], 1, 2)
        room = (sys_.graph.lengths[:, None] - lo)[..., None]
        const = (sys_.edge_primitive[:, None] - at_lo - rates * room) / sys_.vgrid.nodes
        tails = np.broadcast_to(sys_.graph.tails[:, None], lo.shape).ravel()
        flat = rates.reshape(tails.size, -1)
        _, first, table = np.unique(np.column_stack([tails, flat]), axis=0,
                                    return_index=True, return_inverse=True)
        vertices, rows = tails[first], flat[first]
        grow = rows > 0.0
        tables = [_LedgerIntegrals(self.ledger, vertices, np.where(grow, 0.0, rows))]
        if grow.any():
            # in reversed time t' = T - t a growing rate q decays as -q
            end = self.ledger.times[-1]
            flipped = TraceLedger(end - self.ledger.times[::-1], self.ledger.values[::-1])
            tables.append(_LedgerIntegrals(flipped, vertices, np.where(grow, -rows, 0.0)))
        return lo, hi, rates, const, table.reshape(lo.shape), tables

    def _fed_mass(self, t: np.ndarray) -> np.ndarray:
        """(R, M, K) mass of the ledger-fed part of each edge and node at the
        times t (R, 1, 1),

            w_j v_k sum_i int e^{C_i + q_i (t - s)} g_{tail_j}(s, v_k) ds

        over the entry times s in [t - (l_j - b_i)/v_k, t - (l_j - b_{i+1})/v_k]
        clipped to [0, t], from the prefix tables: a difference of forward
        prefixes, or for a growing rate (q_i > 0) of time-reversed ones.
        The padded pieces of one edge add in piece order; a piece past the
        last has hi_s = lo_s, so it adds exactly 0."""
        sys_ = self.system
        lo, hi, rates, const, table, tables = self._pieces
        v, t = sys_.vgrid.nodes, t[..., None]
        room = sys_.graph.lengths[:, None, None]
        hi_s, lo_s = (np.maximum(t - (room - b[..., None]) / v, 0.0) for b in (hi, lo))
        grow = rates > 0.0
        c = np.where(grow, 0.0, const + rates * t)
        part = tables[0].scaled(table, hi_s, c) - tables[0].scaled(table, lo_s, c)
        if len(tables) > 1:
            end = self.ledger.times[-1]
            c = np.where(grow, const + rates * (t - end), 0.0)
            back = tables[1].scaled(table, end - lo_s, c) - tables[1].scaled(table, end - hi_s, c)
            part = np.where(grow, back, part)
        return sum(np.moveaxis(part, 2, 0)) * sys_.graph.weights[:, None] * v

    def _check_times(self, times) -> np.ndarray:
        times = np.asarray(times, dtype=float).reshape(-1)
        outside = (times < -1e-12) | (times > self.horizon + 1e-12)
        if outside.any():
            raise ValueError(f"time {times[outside][0]} outside the solved horizon [0, {self.horizon}]")
        return times

    def samples(self, t: float) -> np.ndarray:
        """The (M, K, n + 1) samples at time t on :attr:`TransportSystem.grid`,
        a field's table: one read of the grid's characteristics, whose
        t-independent part is computed once per solution."""
        (t,) = self._check_times(t).tolist()
        return self._grid_path.read(t, initial=self.initial, inflow=self.ledger.eval_channel)

    def _edge_masses(self, times) -> np.ndarray:
        """The (T, M) edge masses int int z_j(t, x, v) dx dv at the times.

        Per chunk of times, one :meth:`eval_edge` call reads the points of
        Gauss panels on the initial-fed part [0, max(l_j - v_k t, 0)] of
        each edge and node, cut at its kinks; the ledger-fed rest is
        :meth:`_fed_mass`.  A chunk holds :attr:`_mass_rows` times.  Exact for
        piecewise-linear profiles (q = 0), high-order accurate on the
        initial-fed part otherwise."""
        times = self._check_times(times)
        sys_ = self.system
        M, K, v = sys_.n_edges, sys_.n_nodes, sys_.vgrid.nodes
        j, k = np.arange(M)[:, None, None], np.arange(K)[:, None]
        fixed, shift = self._initial_kinks
        rows = self._mass_rows
        out = np.empty((times.size, M))
        for a in range(0, times.size, rows):
            t = times[a : a + rows, None, None]
            vt = v * t
            end = np.maximum(sys_.graph.lengths[:, None] - vt, 0.0)
            pts, wts = gauss_block(fixed[:, None, :] - shift[:, None, :] * vt[..., None], end)
            vals = self.eval_edge(j, k, pts.reshape(pts.shape[:3] + (-1,)), t[..., None])
            # each row added in term order: np.sum's pairwise split would move
            # with the padded width, which a zero-width panel's terms cannot
            initial_fed = np.cumsum(wts.reshape(vals.shape) * vals, axis=-1)[..., -1]
            out[a : a + rows] = (initial_fed + self._fed_mass(t)) @ sys_.vgrid.weights
        return out

    def masses(self, times) -> list[float]:
        """The total mass at each time, its edge masses (:meth:`_edge_masses`)
        summed in edge order."""
        return [sum(m) for m in self._edge_masses(times).tolist()]

    def snapshot(self, t: float) -> StateField:
        """The field at time t: :meth:`samples` with the exact evaluator
        attached."""
        def ev(j, x, k):
            return self.eval_edge(j, k, x, t)

        return StateField._padded(self.system, self.system.grid, self.samples(t), ev)

    def total_mass(self, t: float) -> float:
        """The total mass at time t (:meth:`masses`)."""
        return self.masses(t)[0]


def _sweep_window(system: TransportSystem, x0: StateField, ledger: TraceLedger,
                  times: np.ndarray, left: np.ndarray, out: np.ndarray) -> None:
    """Store the routed outflow traces of the stamps ``times`` (W,) in
    ``out`` (W, N, K): one :func:`characteristic_read` at x = 0 over
    (W, M, K) that takes the initial data and the ledger together, a second
    one for the left copies of jump pairs, one :meth:`TransportSystem.route`."""
    j, k = np.arange(system.n_edges)[:, None], np.arange(system.n_nodes)
    vals = characteristic_read(system, j, k, 0.0, times[:, None, None],
                               initial=x0, inflow=ledger.eval_channel)
    if left.any():
        vals[left] = characteristic_read(system, j, k, 0.0, times[left, None, None], initial=x0,
                                         inflow=partial(ledger.eval_channel, side="left"))
    out[:] = system.route(vals)


def closed_loop_solve(
    system: TransportSystem,
    x0: StateField,
    u: StepSignal | None,
    horizon: float,
    *,
    dt_max: float | None = None,
    stamp_budget: int = 60_000,
    positive: bool = True,
) -> ClosedLoopSolution:
    """Solve the coupled network flow on [0, horizon] by generation recursion.

    At each stamp t the outflow trace of edge j at velocity node k is read
    from the initial data while t - l_j / v_k <= 0 and from the ledger at
    t - l_j / v_k afterwards; Gamma (:meth:`TransportSystem.route`) and the
    control matrix assemble the vertex inflow slice.  The sweep loops over
    windows of stamps (:func:`_sweep_window`), each one read that takes the
    initial data and the ledger together; ``sweep_windows`` counts them.

    ``u`` is the control signal (one channel per control column of the
    graph).  In positive mode negative initial data or inputs are rejected;
    set ``positive=False`` to run signed data without cone checks.  Values
    down to -1e-9 count as nonnegative, in the initial state as in the inputs.
    A horizon that is not finite and nonnegative, a ``dt_max`` that is not
    finite and positive, and a ``stamp_budget`` that is not an integer >= 1
    are refused (ValueError naming the argument) before any other work.
    """
    if not (np.isfinite(horizon) and horizon >= 0):
        raise ValueError(f"horizon must be finite and nonnegative, got {horizon}")
    if dt_max is not None and not (np.isfinite(dt_max) and dt_max > 0):
        raise ValueError(f"dt_max must be finite and positive, got {dt_max}")
    if isinstance(stamp_budget, bool) or not isinstance(stamp_budget, (int, np.integer)) or stamp_budget < 1:
        raise ValueError(f"stamp_budget must be an integer >= 1, got {stamp_budget!r}")
    if positive:
        if x0.min_value() < -1e-9:
            raise NegativeDataError("positivity mode requires nonnegative initial data")
        if u is not None and u.min_value() < -1e-9:
            raise NegativeDataError("positivity mode requires nonnegative inputs")
    n_controls = system.graph.n_controls
    if u is not None:
        if u.value_shape != (n_controls, system.n_nodes):
            raise ValueError("control signal shape must be (n_controls, n_nodes)")
        if u.horizon < horizon - 1e-12:
            raise ValueError("control history shorter than the horizon")

    delta = system.min_delay
    if dt_max is None:
        dt_max = min(delta / 16.0, max(horizon, delta) / 512.0)
    dt_max = min(dt_max, 0.5 * delta)

    times, jumps, complete = _event_stamps(system, x0, u, horizon, dt_max, stamp_budget)
    # each jump time > 0 is stamped twice, the left limit first; the other
    # stamp times are distinct, so a left entry equals the stamp after it
    twice = _hits(jumps, times) & (times > 0.0)
    stamp_times = np.repeat(times, 1 + twice)
    left = np.append(stamp_times[:-1] == stamp_times[1:], False)
    # the control inflow B u(t) of every stamp, read on the stamp's side
    pushed = None
    if u is not None and n_controls:
        last = u.values.shape[0] - 1
        right = piece_index(u.breaks, stamp_times, "right", last)
        pieces = np.where(left, piece_index(u.breaks, stamp_times, "left", last), right)
        pushed = system.graph.control @ u.values[pieces]

    # zeros, not empty: a read at the last fixed stamp gives the open entry after it weight 0, and 0*NaN is NaN
    G = np.zeros((stamp_times.size, system.n_vertices, system.n_nodes))
    ledger = TraceLedger(stamp_times, G)

    # Once the stamps before index a are final, every stamp t with
    # t - Delta <= T = stamp_times[a - 1], rounded as the read rounds it,
    # reads the ledger only at s = t - l_j / v_k <= T: on completed segments,
    # or exactly at T, where the still open entry after T gets weight 0.
    # Those stamps form one window, swept in one read over (W, M, K); stamp
    # gaps stay below Delta, so every window holds at least one stamp.
    latest = stamp_times - delta
    rows = max(1, _BLOCK_BYTES // (8 * system.delays.size))
    windows = a = 0
    while a < stamp_times.size:
        b = int(np.searchsorted(latest, stamp_times[a - 1] if a else 0.0, side="right"))
        b = min(b, a + rows)
        b += bool(left[b - 1])  # a capped window keeps both stamps of a jump pair
        _sweep_window(system, x0, ledger, stamp_times[a:b], left[a:b], G[a:b])
        if pushed is not None:
            G[a:b] += pushed[a:b]
        windows, a = windows + 1, b

    generations = int(np.ceil(horizon / delta)) if horizon > 0 else 0
    return ClosedLoopSolution(
        system=system,
        initial=x0,
        ledger=ledger,
        horizon=horizon,
        generations=generations,
        sweep_windows=windows,
        stamp_count=stamp_times.size,
        events_complete=complete,
        min_state=min(x0.min_value(), ledger.min_value()),
    )
