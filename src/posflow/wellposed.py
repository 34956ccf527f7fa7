"""Empirical admissibility, regularity and feedback checks.

Everything here runs against an abstract system handle exposing the flow,
the input map, the boundary observation and the input-output map together
with exact norms.  Two handles are provided: the transport network and the
finite-dimensional positive LTI oracle, so the observation, regularity and
feedback checks can be exercised on both an infinite-dimensional
discretization and a system where the answers are matrix algebra.  The
control estimate :func:`control_admissibility` (and with it the zero-class
scan) needs the input map and its norm, which only the transport handle
provides; no test or command runs it on the oracle handle.

Estimates are lower bounds obtained by maximizing over probe families
(positive step inputs with dyadic breakpoints and positive grid bumps, both
families seeded); they are never certified constants.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from . import poslti
from .lattice import dense_spectral_radius, gauss_block, gauss_panels
from .lattice import spectral_radius  # noqa: F401 (perfbench tracer binds it)
from .signals import StepSignal, distinct_sorted, piece_index
from .transport import (
    StateField,
    TransportSystem,
    characteristic_read,
    flow_trace,
    io_map,
    knot_arrivals,
    read_kinks,
    transfer_operator,
)


# ---------------------------------------------------------------------------
# system handles


class TransportHandle:
    """Transport network seen through the abstract system interface."""

    def __init__(self, system: TransportSystem):
        self.system = system
        self.input_shape = (system.n_vertices, system.n_nodes)
        self._uw = np.tile(system.vgrid.weights, system.n_vertices)

    def input_norm(self, u: StepSignal, p: float) -> float:
        return u.lp_norm(p, unit_weights=self._uw)

    def input_map_norm(self, u: StepSignal, tau: float) -> float:
        """||Phi_tau u||: sum_k w_k sum(wts * |characteristic_read(..., inflow=u)|)
        over Gauss panels cut at the kinks of the read (:func:`read_kinks` with
        the step breakpoints of u), one read of all (edge, node) pairs
        (:func:`gauss_block`), the pair sums added in (edge, node) order.  On
        each panel the read of a step input is one input value times an
        exponential in x, which the rule integrates to below 1e-12 relative
        while the panel's |q| h / v <= 1."""
        sys_ = self.system
        pts, wts = gauss_block(read_kinks(sys_, tau, u.breaks), sys_.graph.lengths[:, None])
        j, k = np.arange(sys_.n_edges)[:, None, None, None], np.arange(sys_.n_nodes)[:, None, None]
        vals = characteristic_read(sys_, j, k, pts, tau, inflow=u.eval_channel)
        pairs = np.sum(wts * np.abs(vals), axis=(-2, -1)) * sys_.vgrid.weights
        return sum(pairs.ravel().tolist(), 0.0)

    def state_norm(self, x: StateField) -> float:
        return x.norm()

    def random_positive_state(self, rng: np.random.Generator) -> StateField:
        shape = (self.system.n_edges, self.system.n_nodes, self.system.space_samples)
        return StateField.from_samples(self.system, list(rng.uniform(0.0, 1.0, size=shape)))

    def _flow_trace(self, x: StateField, t) -> np.ndarray:
        """Gamma T(t) x at a time or an array of times (see :func:`flow_trace`)."""
        return flow_trace(self.system, x, t)

    def observation_lp(self, x: StateField, alpha: float, p: float) -> float:
        """(int_0^alpha ||Gamma T(t) x||^p dt)^{1/p}, Gauss panels cut at the
        :func:`knot_arrivals` of x so the integrand is smooth per panel."""
        sys_ = self.system
        ts, wts = gauss_panels(knot_arrivals(sys_, x), alpha)
        # blocks of at most 16k times bound the (times, N, K) trace arrays
        norms = np.concatenate([
            (np.abs(self._flow_trace(x, block)) @ sys_.vgrid.weights).sum(axis=1)
            for block in np.array_split(ts.ravel(), max(1, ts.size // 8192))
        ])
        return float(np.sum(wts.ravel() * norms**p) ** (1.0 / p))

    def transfer_apply(self, mu: float, g: np.ndarray) -> np.ndarray:
        return (transfer_operator(self.system, mu) @ np.ravel(g)).reshape(self.input_shape)

    def feedthrough_apply(self, g: np.ndarray) -> np.ndarray:
        return np.zeros_like(np.asarray(g, dtype=float))

    def io_samples(self, u: StepSignal, times: np.ndarray) -> np.ndarray:
        """(F u)(t) on the given times, flattened output slices."""
        return io_map(self.system, u, times).reshape(times.size, -1)

    def volterra(self, tau: float, n_steps: int) -> np.ndarray:
        """The lag blocks of :func:`io_matrix`, its first block column as an (n_steps, d, d)
        array, in one scatter-add: the input on piece 0 at (tail_j, l) reaches (head_j, k)
        at t_i with gain J_j[k, l] E_j[l] w_j when s = t_i - l_j / v_l >= 0 lies in piece 0
        (StepSignal's rule); parallel edges add in edge order."""
        sys_, g, h = self.system, self.system.graph, tau / n_steps
        N, K = self.input_shape
        s = (h * np.arange(n_steps))[:, None, None] - sys_.delays
        i, j, l = np.nonzero(s >= 0.0)
        first = piece_index(h * np.arange(n_steps + 1), s[i, j, l], "right", n_steps - 1) == 0
        i, j, l = i[first], j[first], l[first]
        gain = sys_.scatter[j, :, l] * sys_.edge_gain[j, l][:, None]
        blocks = np.zeros((n_steps, N, K, N, K))
        np.add.at(blocks, (i, g.heads[j], slice(None), g.tails[j], l), gain)
        return blocks.reshape(n_steps, N * K, N * K)


class PosLTIHandle:
    """Finite-dimensional positive system seen through the same interface.

    R^n carries the componentwise order and the l1 norm (additive on the
    cone), so the lattice bookkeeping matches the function-space side.
    """

    def __init__(self, system: poslti.PosLTI):
        self.system = system
        self.input_shape = (system.m,)

    def state_norm(self, x: np.ndarray) -> float:
        return float(np.sum(np.abs(x)))

    def random_positive_state(self, rng: np.random.Generator) -> np.ndarray:
        return rng.uniform(0.0, 1.0, size=self.system.n)

    def observe_flow(self, x: np.ndarray, t: float) -> np.ndarray:
        return self.system.C @ poslti.expm_apply(self.system.A, t, x)

    def output_norm(self, y: np.ndarray) -> float:
        return float(np.sum(np.abs(y)))

    def observation_lp(self, x: np.ndarray, alpha: float, p: float) -> float:
        ts, wts = gauss_panels(np.linspace(0.0, alpha, 65), alpha)
        total = 0.0
        for t, w in zip(ts.ravel(), wts.ravel()):
            total += w * self.output_norm(self.observe_flow(x, t)) ** p
        return float(total ** (1.0 / p))

    def transfer_apply(self, mu: float, g: np.ndarray) -> np.ndarray:
        return poslti.transfer(self.system, mu) @ np.asarray(g, dtype=float)

    def feedthrough_apply(self, g: np.ndarray) -> np.ndarray:
        return self.system.D @ np.asarray(g, dtype=float)

    def volterra(self, tau: float, n_steps: int) -> np.ndarray:
        """The lag blocks of :func:`io_matrix`, its first block column as an
        (n_steps, d, d) array: the responses to a unit input on piece 0."""
        d = self.system.m
        return _unit_responses(self, tau, n_steps, d).reshape(n_steps, d, d)

    def io_samples(self, u: StepSignal, times: np.ndarray) -> np.ndarray:
        grid = distinct_sorted(np.concatenate([u.breaks, times]))
        vals = u.values[piece_index(u.breaks, grid[:-1], "right", u.values.shape[0] - 1)]
        y = poslti.io_response(self.system, np.zeros(self.system.n), vals, grid)
        pick = np.searchsorted(grid, times)
        return y[pick].reshape(times.size, -1)


# ---------------------------------------------------------------------------
# probe families


def step_probes(
    rng: np.random.Generator,
    shape: tuple[int, ...],
    tau: float,
    count: int,
    signed: bool = False,
) -> list[StepSignal]:
    """Positive step probes with dyadic breakpoints plus grid bumps.

    The first probe is always the constant-one input (a deterministic anchor
    so estimates on homogeneous systems do not depend on the draw); the rest
    alternate random dyadic steps and bump-profiled fine steps.  ``signed``
    flips piece signs at random.
    """
    probes = [StepSignal.constant(np.ones(shape), tau)]
    dyadic = [2, 4, 8]
    i = 0
    while len(probes) < count:
        if i % 2 == 0:
            n_p = dyadic[(i // 2) % len(dyadic)]
            amps = rng.exponential(1.0, size=(n_p, *shape))
        else:
            n_p = 16
            centers = (np.arange(n_p) + 0.5) / n_p
            c, wdt = rng.uniform(0.2, 0.8), rng.uniform(0.05, 0.3)
            profile = np.exp(-(((centers - c) / wdt) ** 2))
            amps = profile.reshape(n_p, *([1] * len(shape))) * rng.uniform(
                0.5, 1.5, size=(1, *shape)
            )
        if signed:
            amps = amps * rng.choice([-1.0, 1.0], size=amps.shape)
        probes.append(StepSignal(np.linspace(0.0, tau, n_p + 1), amps))
        i += 1
    return probes[:count]


# ---------------------------------------------------------------------------
# reports


@dataclass(frozen=True)
class ZeroClassFit:
    exponent: float
    r_squared: float


@dataclass
class AdmissibilityReport:
    """Probe-maximized lower bound for an admissibility constant."""

    kind: str
    tau_or_alpha: float
    p: float
    constant_estimate: float
    probe_count: int
    probe_family: str
    degenerate: bool = False


@dataclass
class ZeroClassScan:
    """kappa-hat estimates along a tau grid and the fitted scaling exponent."""

    p: float
    taus: np.ndarray
    estimates: np.ndarray
    fit: ZeroClassFit | None


@dataclass
class RegularityReport:
    """Transfer-operator sequence H(mu_k) g along an increasing mu grid."""

    mus: np.ndarray
    outputs: list[np.ndarray]
    monotone: bool
    max_violation: float
    limit_gap: float


@dataclass
class FeedbackReport:
    """Spectral radius of the discretized K*F and the sign of (I - K F)^{-1}."""

    radius: float
    admissible: bool
    inverse_nonneg: bool
    tau: float
    n_steps: int

    def as_dict(self) -> dict:
        return asdict(self)


# ---------------------------------------------------------------------------
# the checks


def control_admissibility(
    handle,
    tau: float,
    p: float,
    n_probes: int = 16,
    seed: int = 0,
    probes: list[StepSignal] | None = None,
    signed: bool = False,
) -> AdmissibilityReport:
    """kappa-hat(tau): max over probes of ||Phi_tau u|| / ||u||_{Lp}.

    A lower bound on the true input-map norm; monotone in the probe count
    because the estimate is a running maximum.  Positive step probes suffice
    for positive systems, which is what the default family supplies.  Each
    probe is cut to [0, tau]; one that ends before tau is refused.
    """
    if tau <= 0:
        raise ValueError("tau must be positive")
    if p < 1:
        raise ValueError("p must be >= 1")
    if probes is None:
        rng = np.random.default_rng(seed)
        probes = step_probes(rng, handle.input_shape, tau, n_probes, signed=signed)
    return _probe_maximum(
        "control", tau, p, "signed-steps" if signed else "positive-steps+bumps", probes,
        lambda u: u.restricted(tau), lambda u: handle.input_norm(u, p),
        lambda u: handle.input_map_norm(u, tau),
    )


def zero_class_scan(
    handle, p: float, tau_grid, n_probes: int = 16, seed: int = 0
) -> ZeroClassScan:
    """kappa-hat(tau) along a tau grid (:func:`control_admissibility`) and
    their :func:`zero_class_fit`.  p = 1 is refused because kappa(tau) need
    not vanish there."""
    if p <= 1:
        raise ValueError("zero-class scaling requires p > 1 (no decay is claimed at p = 1)")
    taus = np.asarray(list(tau_grid), dtype=float)
    if np.any(taus <= 0):
        raise ValueError("tau grid must be positive")
    estimates = [
        control_admissibility(handle, float(t), p, n_probes=n_probes, seed=seed).constant_estimate
        for t in taus
    ]
    return zero_class_fit(p, taus, estimates)


def zero_class_fit(p: float, taus, estimates) -> ZeroClassScan:
    """Fit log kappa-hat(tau) ~ (1/q) log tau + c to estimates along a tau grid.

    The conjugate exponent 1/q = 1 - 1/p is the predicted decay rate of the
    admissibility constant.  The fit is only attached when the grid has at
    least five distinct points.
    """
    taus = np.asarray(taus, dtype=float)
    estimates = np.asarray(estimates, dtype=float)
    fit = None
    if len(set(taus.tolist())) >= 5 and np.all(estimates > 0):
        logs_t, logs_k = np.log(taus), np.log(estimates)
        slope, intercept = np.polyfit(logs_t, logs_k, 1)
        predicted = slope * logs_t + intercept
        ss_res = float(np.sum((logs_k - predicted) ** 2))
        ss_tot = float(np.sum((logs_k - logs_k.mean()) ** 2))
        r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
        fit = ZeroClassFit(exponent=float(slope), r_squared=r2)
    return ZeroClassScan(p=p, taus=taus, estimates=estimates, fit=fit)


def observation_admissibility(
    handle,
    alpha: float,
    p: float,
    n_probes: int = 16,
    seed: int = 0,
    states: list | None = None,
) -> AdmissibilityReport:
    """gamma-hat(alpha): max over positive probe states of
    (int_0^alpha ||C T(t) x||^p dt)^{1/p} / ||x||."""
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    if p < 1:
        raise ValueError("p must be >= 1")
    if states is None:
        rng = np.random.default_rng(seed)
        states = [handle.random_positive_state(rng) for _ in range(n_probes)]
    return _probe_maximum(
        "observation", alpha, p, "positive-states", states,
        lambda x: x, handle.state_norm, lambda x: handle.observation_lp(x, alpha, p),
    )


def _probe_maximum(kind, size, p, family, probes, prepare, norm, image_norm) -> AdmissibilityReport:
    """The running maximum of image_norm(x) / norm(x) over the prepared
    probes x = prepare(probe), in order, each norm taken before its image
    norm; a probe of norm <= 0 is skipped, and the report is degenerate when
    every probe was."""
    best, degenerate = 0.0, True
    for x in map(prepare, probes):
        nx = norm(x)
        if nx <= 0.0:
            continue
        degenerate = False
        best = max(best, image_norm(x) / nx)
    return AdmissibilityReport(kind=kind, tau_or_alpha=size, p=p, constant_estimate=best,
                               probe_count=len(probes), probe_family=family, degenerate=degenerate)


def regularity_probe(handle, mu_grid, g: np.ndarray) -> RegularityReport:
    """H(mu_k) g along an increasing mu grid: entrywise monotone decrease (up
    to 1e-9) for positive g, with the limit compared against the feedthrough."""
    mus = np.asarray(list(mu_grid), dtype=float)
    if np.any(np.diff(mus) <= 0):
        raise ValueError("mu grid must increase strictly")
    g = np.asarray(g, dtype=float)
    outputs = [handle.transfer_apply(float(mu), g) for mu in mus]
    violation = 0.0
    for a, b in zip(outputs[:-1], outputs[1:]):
        violation = max(violation, float(np.max(b - a)))
    feed = handle.feedthrough_apply(g)
    gap = float(np.max(np.abs(outputs[-1] - feed)))
    return RegularityReport(
        mus=mus,
        outputs=outputs,
        monotone=violation <= 1e-9,
        max_violation=violation,
        limit_gap=gap,
    )


def io_matrix(handle, tau: float, n_steps: int) -> np.ndarray:
    """Lower-triangular block Volterra discretization of the input-output map.

    Inputs are piecewise constant on the uniform grid (left-endpoint
    convention, which preserves causality structurally); column (r, b) holds
    the output samples produced by the unit input on piece r, component b.
    """
    return _unit_responses(handle, tau, n_steps, n_steps * _slice_size(handle))


def _slice_size(handle) -> int:
    """d, the size of an input slice and of an output slice: F and K need
    both equal, so a positive LTI system with p != m is refused."""
    sys_ = handle.system
    if isinstance(sys_, poslti.PosLTI) and sys_.p != sys_.m:
        raise ValueError(f"the input-output map needs p = m, got p = {sys_.p}, m = {sys_.m}")
    return int(np.prod(handle.input_shape))


def _unit_responses(handle, tau: float, n_steps: int, n_columns: int) -> np.ndarray:
    """The first ``n_columns`` columns of :func:`io_matrix`, one probe each."""
    h = tau / n_steps
    times = h * np.arange(n_steps)
    breaks = h * np.arange(n_steps + 1)
    F = np.zeros((n_steps * int(np.prod(handle.input_shape)), n_columns))
    for c in range(n_columns):  # c = r * d + b
        vals = np.zeros((n_steps, *handle.input_shape))
        vals.flat[c] = 1.0
        F[:, c] = handle.io_samples(StepSignal(breaks, vals), times).ravel()
    return F


def feedback_admissibility(handle, K, tau: float, n_steps: int = 24) -> FeedbackReport:
    """Admissibility of the feedback operator K through r(K F) < 1.

    K acts on output slices (a (d, d) matrix or a scalar multiple of the
    identity) and F is the block-Toeplitz map whose first block column is
    ``handle.volterra``, the lag blocks F_0, ..., F_{n-1}.  F is causal, so r(K F)
    is r(K F_0): exactly 0 for transport (positive delays), r(K D) for a positive
    LTI system.  When every K F_i >= 0 the Neumann series makes (I - K F)^{-1}
    nonnegative, so only a K F with a negative entry has the dense K F formed and
    inverted.
    """
    if not (np.isfinite(tau) and tau > 0):
        raise ValueError(f"tau must be positive and finite, got {tau!r}")
    if isinstance(n_steps, bool) or not isinstance(n_steps, (int, np.integer)) or n_steps < 1:
        raise ValueError(f"n_steps must be a positive integer, got {n_steps!r}")
    d = _slice_size(handle)
    K = np.asarray(K, dtype=float)
    if not np.all(np.isfinite(K)):
        raise ValueError("K has non-finite entries")
    K_mat = float(K) * np.eye(d) if K.ndim == 0 else K
    if K_mat.shape != (d, d):
        raise ValueError("K must act on flattened output slices")
    lags = K_mat @ handle.volterra(tau, n_steps)
    radius = dense_spectral_radius(lags[0])
    admissible = radius < 1.0
    inverse_nonneg = admissible
    if admissible and np.any(lags < 0.0):
        KF = np.zeros((n_steps, d, n_steps, d))
        for k in range(n_steps):  # block (i, i - k) is K F_k
            i = np.arange(k, n_steps)
            KF[i, :, i - k, :] = lags[k]
        inv = np.linalg.inv(np.eye(n_steps * d) - KF.reshape(n_steps * d, -1))
        inverse_nonneg = bool(np.all(inv >= -1e-10))
    return FeedbackReport(
        radius=radius,
        admissible=admissible,
        inverse_nonneg=inverse_nonneg,
        tau=tau,
        n_steps=n_steps,
    )
