"""Exact closed-loop solver for the scattering-coupled transport network.

The boundary condition couples every edge's inflow trace at x = l_j to the
scattered outflow traces at x = 0 plus the control term.  Because every
boundary-to-boundary path takes at least Delta = min_j l_j / v_max, the
vertex inflow data g(t) on [0, Delta) is determined by the initial state
alone, on [Delta, 2*Delta) by the already known part of g, and so on: the
implicit condition resolves in ceil(horizon / Delta) substitution
generations.  The solver performs the equivalent single forward sweep over a
time-stamp set containing the characteristic arrival events (so the ledger
is exact whenever the data is piecewise linear and the event closure fits
the budget) plus a uniform ceiling that bounds interpolation error otherwise.
Each stamp costs one ledger read over all (edge, velocity node) pairs and
one application of Gamma (:meth:`TransportSystem.route`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .lattice import gauss_panels
from .signals import StepSignal, piece_index
from .transport import (
    StateField,
    TransportSystem,
    characteristic_read,
    flow_trace,
    knot_arrivals,
    read_kinks,
)


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
        self.values = np.asarray(values, dtype=float)
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
        return (1.0 - frac) * self.values[idx, vertex, node] + frac * self.values[nxt, vertex, node]

    def eval(self, t: float, side: str = "right") -> np.ndarray:
        """Full (N, K) boundary slice at one time."""
        N, K = self.values.shape[1:]
        return self.eval_channel(np.arange(N)[:, None], np.arange(K), float(t), side=side)

    def min_value(self) -> float:
        return float(self.values.min()) if self.values.size else 0.0


def _delay_closure(
    seeds: np.ndarray, delays: np.ndarray, horizon: float, budget: int, inclusive: bool
) -> tuple[np.ndarray, bool]:
    """Close ``seeds`` under shifts by ``delays``, keeping shifted points
    <= horizon (``inclusive``) or < horizon.

    Returns the sorted points and whether the closure completed within
    ``budget`` points; a truncated closure stops at the last full shift
    generation that fit, or returns the seeds alone if they exceed it.
    """
    points = np.unique(seeds)
    if points.size > budget:
        return points, False
    front = points
    while front.size:
        shifted = (front[:, None] + delays[None, :]).ravel()
        kept = shifted <= horizon if inclusive else shifted < horizon
        fresh = np.setdiff1d(shifted[kept], points)
        if points.size + fresh.size > budget:
            return points, False
        points = np.union1d(points, fresh)
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
    bound interpolation error.  Returns (times, jump_times, closure_complete).
    """
    delays = np.unique(system.delays)
    arrivals = knot_arrivals(system, x0)
    inner = np.empty(0) if u is None else u.breaks[(u.breaks > 0) & (u.breaks < horizon)]
    seeds = np.concatenate([[0.0, horizon], arrivals[arrivals <= horizon], inner])
    stamps, complete = _delay_closure(seeds, delays, horizon, budget, inclusive=True)
    stamps = stamps[:budget]  # the seeds alone may exceed the budget

    # jumps propagate along characteristics; track them so both one-sided
    # limits get their own ledger entry
    jumps, _ = _delay_closure(inner, delays, horizon, budget, inclusive=False)
    stamps = np.union1d(stamps, jumps)

    if horizon > 0:
        stamps = np.union1d(stamps, np.arange(0.0, horizon, dt_max))
    return stamps, jumps, complete


@dataclass
class ClosedLoopSolution:
    """Exact mild solution of the coupled network flow.

    The ledger holds the vertex inflow data; the state at any (t, x, v) is a
    single closed-form read against either the initial field (characteristic
    still inside the edge) or the ledger (characteristic entered at l_j).
    """

    system: TransportSystem
    initial: StateField
    ledger: TraceLedger
    horizon: float
    generations: int
    stamp_count: int
    events_complete: bool
    min_state: float

    def eval_edge(self, j: int, k: int, x: np.ndarray, t: float) -> np.ndarray:
        """z_j(t, x, v_k) along the characteristic through (x, t)."""
        return characteristic_read(
            self.system, j, k, x, t, initial=self.initial, inflow=self.ledger.eval_channel
        )

    def observe_edge(self, j: int, t: float) -> tuple[np.ndarray, float]:
        """The state on edge j at time t, read once per velocity node: the
        (K, n_x) samples on :meth:`TransportSystem.xgrid` and the edge mass
        int int z_j(t, x, v) dx dv.

        Each node makes one :meth:`eval_edge` call on the x-grid followed by
        the points of Gauss panels cut wherever the read can kink
        (:func:`read_kinks` with the initial field and the ledger stamps);
        the mass is sum_k w_k sum(wts * vals) over those panels.  Exact for
        piecewise-linear profiles (q = 0), high-order accurate otherwise."""
        if t < -1e-12 or t > self.horizon + 1e-12:
            raise ValueError(f"time {t} outside the solved horizon [0, {self.horizon}]")
        sys_ = self.system
        xs = sys_.xgrid(j)
        samples = np.empty((sys_.n_nodes, xs.size))
        mass = 0.0
        for k in range(sys_.n_nodes):
            kinks = read_kinks(sys_, j, k, t, self.initial, self.ledger.times)
            pts, wts = gauss_panels(kinks, 0.0, float(sys_.graph.lengths[j]))
            vals = self.eval_edge(j, k, np.concatenate([xs, pts.ravel()]), t)
            samples[k] = vals[: xs.size]
            mass += sys_.vgrid.weights[k] * float(np.sum(wts * vals[xs.size :].reshape(pts.shape)))
        return samples, mass

    def observe(self, t: float) -> tuple[StateField, float]:
        """The snapshot field at time t (exact evaluator attached) and the
        total mass, the edge masses summed in edge order, from one
        :meth:`observe_edge` read per edge."""
        edges = [self.observe_edge(j, t) for j in range(self.system.n_edges)]

        def ev(j, x, k):
            return self.eval_edge(j, k, x, t)

        xs = [self.system.xgrid(j) for j in range(self.system.n_edges)]
        field = StateField(self.system, xs, [samples for samples, _ in edges], evaluator=ev)
        return field, sum(mass for _, mass in edges)

    def snapshot(self, t: float) -> StateField:
        """The field of :meth:`observe`."""
        return self.observe(t)[0]

    def edge_mass(self, j: int, t: float) -> float:
        """The mass of :meth:`observe_edge`."""
        return self.observe_edge(j, t)[1]

    def total_mass(self, t: float) -> float:
        """The mass of :meth:`observe`."""
        return self.observe(t)[1]


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
    from the initial data while t - l_j / v_k <= 0 (for all stamps at once,
    by :func:`flow_trace`) and from the ledger at t - l_j / v_k afterwards,
    in one read over all (M, K) pairs; Gamma
    (:meth:`TransportSystem.route`) and the control matrix assemble the new
    vertex inflow slice.  The sweep loops only over stamps.

    ``u`` is the control signal (one channel per control column of the
    graph).  In positive mode negative initial data or inputs are rejected;
    set ``positive=False`` to run signed data without cone checks.  Values
    down to -1e-9 count as nonnegative.
    """
    if horizon < 0:
        raise ValueError("horizon must be nonnegative")
    if positive:
        if not x0.is_nonneg(1e-9):
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
    jump_set = set(jumps.tolist())
    # duplicate jump stamps: left-limit entry first, then the right value
    expanded: list[tuple[float, str]] = []
    for t in times.tolist():
        if t in jump_set and t > 0.0:
            expanded.append((t, "left"))
        expanded.append((t, "right"))

    tails = system.graph.tails[:, None]
    node_idx = np.arange(system.n_nodes)

    stamp_times = np.array([t for t, _ in expanded])
    # traces of characteristics that still carry initial data; the sweep adds
    # the ledger-fed rest, the complement t - l_j / v_k > 0
    G = flow_trace(system, x0, stamp_times)
    ledger = TraceLedger(stamp_times, G)

    # Every delay is at least Delta = min_j l_j / v_max and stamp gaps are at
    # most dt_max <= Delta / 2 (Delta / 16 by default), so each read time
    # t - l_j / v_k lies before the previous stamp: its interpolation segment
    # holds only completed entries, and the ledger can be read whole.
    for s_idx, (t, side) in enumerate(expanded):
        s_arr = t - system.delays
        served = s_arr > 0.0
        if served.any():
            vals = ledger.eval_channel(tails, node_idx, s_arr, side=side)
            G[s_idx] += system.route(np.where(served, system.edge_gain * vals, 0.0))
        if u is not None and n_controls:
            G[s_idx] += system.graph.control @ u.eval(t, side=side)

    generations = int(np.ceil(horizon / delta)) if horizon > 0 else 0
    return ClosedLoopSolution(
        system=system,
        initial=x0,
        ledger=ledger,
        horizon=horizon,
        generations=generations,
        stamp_count=len(expanded),
        events_complete=complete,
        min_state=min(x0.min_value(), ledger.min_value()),
    )
