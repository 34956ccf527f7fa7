"""Empirical admissibility, regularity and feedback checks.

Everything here runs against an abstract system handle exposing the flow,
the input map, the boundary observation and the input-output map together
with exact norms.  Two handles are provided: the transport network and the
finite-dimensional positive LTI oracle, so every estimate can be exercised
on both an infinite-dimensional discretization and a system where the
answers are matrix algebra.

Estimates are lower bounds obtained by maximizing over probe families
(positive step inputs with dyadic breakpoints and positive grid bumps, both
families seeded); they are never certified constants.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import poslti
from .lattice import dense_spectral_radius, spectral_radius
from .signals import StepSignal
from .transport import (
    BoundaryVector,
    StateField,
    TransportSystem,
    flow_trace,
    io_map,
    transfer_operator,
)

_GL5 = np.polynomial.legendre.leggauss(5)


# ---------------------------------------------------------------------------
# system handles


class TransportHandle:
    """Transport network seen through the abstract system interface."""

    def __init__(self, system: TransportSystem, n_x: int | None = None):
        self.system = system
        self.n_x = n_x or system.space_samples
        self.input_shape = (system.n_vertices, system.n_nodes)
        self._uw = np.tile(system.vgrid.weights, system.n_vertices)

    def input_norm(self, u: StepSignal, p: float) -> float:
        return u.lp_norm(p, unit_weights=self._uw)

    def input_map_norm(self, u: StepSignal, tau: float) -> float:
        """||Phi_tau u|| computed exactly by the characteristic substitution
        x = l - v (tau - s): the spatial integral becomes a time integral of
        |u| against the absorption weight, split at the step breakpoints.
        Every point of Phi_tau u reads a single input value, so the absolute
        value passes inside and the result is exact for step inputs."""
        sys_ = self.system
        gl_x, gl_w = _GL5
        nodes, wv = sys_.vgrid.nodes, sys_.vgrid.weights
        total = 0.0
        for j in range(sys_.n_edges):
            l = float(sys_.graph.lengths[j])
            w = float(sys_.graph.weights[j])
            if w == 0.0:
                continue
            tail = sys_.graph.tails[j]
            for k, v in enumerate(nodes):
                lo = max(0.0, tau - l / v)
                if tau <= lo:
                    continue
                imgs = tau - (l - sys_.absorption.breaks[j]) / v
                knots = np.unique(np.clip(np.concatenate([u.breaks, imgs, [lo, tau]]), lo, tau))
                a, b = knots[:-1], knots[1:]
                keep = b > a
                a, b = a[keep], b[keep]
                mid, half = 0.5 * (a + b), 0.5 * (b - a)
                s = (mid[:, None] + half[:, None] * gl_x[None, :]).ravel()
                x_of_s = l - v * (tau - s)
                grow = sys_.growth(j, k, x_of_s, l)
                vals = np.abs(u.eval_channel(tail, k, np.minimum(s, u.horizon)))
                panel = (grow * vals).reshape(mid.size, 5) @ gl_w
                total += wv[k] * w * v * float(np.dot(half, panel))
        return total

    def state_norm(self, x: StateField) -> float:
        return x.norm()

    def random_positive_state(self, rng: np.random.Generator) -> StateField:
        values = [
            rng.uniform(0.0, 1.0, size=(self.system.n_nodes, self.n_x))
            for _ in range(self.system.n_edges)
        ]
        return StateField.from_samples(self.system, values, self.n_x)

    def _flow_trace(self, x: StateField, t) -> np.ndarray:
        """Gamma T(t) x at a time or an array of times (see :func:`flow_trace`)."""
        return flow_trace(self.system, x, t)

    def observe_flow(self, x: StateField, t: float) -> np.ndarray:
        return self._flow_trace(x, t)

    def observation_lp(self, x: StateField, alpha: float, p: float) -> float:
        """(int_0^alpha ||Gamma T(t) x||^p dt)^{1/p}, panels split at the
        knot arrival times sigma / v_k so the integrand is smooth per panel."""
        sys_ = self.system
        cuts = [np.array([0.0, alpha])]
        for j in range(sys_.n_edges):
            knots = np.union1d(x.xs[j], sys_.absorption.breaks[j])
            arr = (knots[:, None] / sys_.vgrid.nodes[None, :]).ravel()
            cuts.append(arr[(arr > 0) & (arr < alpha)])
        knots = np.unique(np.concatenate(cuts))
        gl_x, gl_w = _GL5
        a, b = knots[:-1], knots[1:]
        mid, half = 0.5 * (a + b), 0.5 * (b - a)
        ts = (mid[:, None] + half[:, None] * gl_x[None, :]).ravel()
        # blocks of at most 16k times bound the (times, N, K) trace arrays
        norms = np.concatenate([
            (np.abs(self._flow_trace(x, block)) @ sys_.vgrid.weights).sum(axis=1)
            for block in np.array_split(ts, max(1, ts.size // 8192))
        ])
        total = float(np.dot(half, (norms**p).reshape(mid.size, 5) @ gl_w))
        return float(total ** (1.0 / p))

    def transfer_apply(self, mu: float, g: np.ndarray) -> np.ndarray:
        return transfer_operator(self.system, mu).apply(BoundaryVector(g)).values

    def feedthrough_apply(self, g: np.ndarray) -> np.ndarray:
        return np.zeros_like(np.asarray(g, dtype=float))

    def io_samples(self, u: StepSignal, times: np.ndarray) -> np.ndarray:
        """(F u)(t) on the given times, flattened output slices."""
        sig = io_map(self.system, u, times)
        return sig.values.reshape(times.size, -1)


class PosLTIHandle:
    """Finite-dimensional positive system seen through the same interface.

    R^n carries the componentwise order and the l1 norm (additive on the
    cone), so the lattice bookkeeping matches the function-space side.
    """

    def __init__(self, system: poslti.PosLTI):
        self.system = system
        self.input_shape = (system.m,)
        self._uw = np.ones(system.m)

    def input_norm(self, u: StepSignal, p: float) -> float:
        return u.lp_norm(p, unit_weights=self._uw)

    def apply_input(self, u: StepSignal, tau: float) -> np.ndarray:
        u = u.restricted(tau)
        traj = poslti.simulate_mild(
            self.system, np.zeros(self.system.n), u.values, u.breaks
        )
        return traj[-1]

    def input_map_norm(self, u: StepSignal, tau: float) -> float:
        return self.state_norm(self.apply_input(u, tau))

    def state_norm(self, x: np.ndarray) -> float:
        return float(np.sum(np.abs(x)))

    def random_positive_state(self, rng: np.random.Generator) -> np.ndarray:
        return rng.uniform(0.0, 1.0, size=self.system.n)

    def observe_flow(self, x: np.ndarray, t: float) -> np.ndarray:
        return self.system.C @ poslti.expm_apply(self.system.A, t, x)

    def output_norm(self, y: np.ndarray) -> float:
        return float(np.sum(np.abs(y)))

    def observation_lp(self, x: np.ndarray, alpha: float, p: float, panels: int = 64) -> float:
        gl_x, gl_w = _GL5
        edges = np.linspace(0.0, alpha, panels + 1)
        total = 0.0
        for a, b in zip(edges[:-1], edges[1:]):
            mid, half = 0.5 * (a + b), 0.5 * (b - a)
            for xi, wi in zip(gl_x, gl_w):
                t = mid + half * xi
                total += half * wi * self.output_norm(self.observe_flow(x, t)) ** p
        return float(total ** (1.0 / p))

    def transfer_apply(self, mu: float, g: np.ndarray) -> np.ndarray:
        return poslti.transfer(self.system, mu) @ np.asarray(g, dtype=float)

    def feedthrough_apply(self, g: np.ndarray) -> np.ndarray:
        return self.system.D @ np.asarray(g, dtype=float)

    def io_samples(self, u: StepSignal, times: np.ndarray) -> np.ndarray:
        grid = np.union1d(u.breaks, times)
        idx = np.clip(np.searchsorted(u.breaks, grid[:-1], side="right") - 1, 0, u.values.shape[0] - 1)
        vals = u.values[idx]
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
    zero_class_fit: ZeroClassFit | None = None

    def as_dict(self) -> dict:
        d = {
            "kind": self.kind,
            "tau_or_alpha": self.tau_or_alpha,
            "p": self.p,
            "constant_estimate": self.constant_estimate,
            "probe_count": self.probe_count,
            "probe_family": self.probe_family,
            "degenerate": self.degenerate,
        }
        if self.zero_class_fit is not None:
            d["zero_class_fit"] = {
                "exponent": self.zero_class_fit.exponent,
                "r_squared": self.zero_class_fit.r_squared,
            }
        return d


@dataclass
class ZeroClassScan:
    """kappa-hat estimates along a tau grid and the fitted scaling exponent."""

    p: float
    taus: np.ndarray
    estimates: np.ndarray
    fit: ZeroClassFit | None
    reports: list[AdmissibilityReport] = field(default_factory=list)

    def as_dict(self) -> dict:
        d = {
            "p": self.p,
            "taus": [float(t) for t in self.taus],
            "estimates": [float(e) for e in self.estimates],
        }
        if self.fit is not None:
            d["fit"] = {"exponent": self.fit.exponent, "r_squared": self.fit.r_squared}
        return d


@dataclass
class RegularityReport:
    """Transfer-operator sequence H(mu_k) g along an increasing mu grid."""

    mus: np.ndarray
    outputs: list[np.ndarray]
    monotone: bool
    max_violation: float
    limit_gap: float

    def as_dict(self) -> dict:
        return {
            "mus": [float(m) for m in self.mus],
            "monotone": self.monotone,
            "max_violation": float(self.max_violation),
            "limit_gap": float(self.limit_gap),
        }


@dataclass
class FeedbackReport:
    """Spectral radius of the discretized K*F and the induced solvability."""

    radius: float
    admissible: bool
    inverse_nonneg: bool
    tau: float
    n_steps: int

    def as_dict(self) -> dict:
        return {
            "radius": float(self.radius),
            "admissible": self.admissible,
            "inverse_nonneg": self.inverse_nonneg,
            "tau": self.tau,
            "n_steps": self.n_steps,
        }


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
    for positive systems, which is what the default family supplies.
    """
    if tau <= 0:
        raise ValueError("tau must be positive")
    if p < 1:
        raise ValueError("p must be >= 1")
    if probes is None:
        rng = np.random.default_rng(seed)
        probes = step_probes(rng, handle.input_shape, tau, n_probes, signed=signed)
    best = 0.0
    degenerate = True
    for u in probes:
        u = u.restricted(tau) if u.horizon > tau else u
        nu = handle.input_norm(u, p)
        if nu <= 0.0:
            continue
        degenerate = False
        best = max(best, handle.input_map_norm(u, tau) / nu)
    return AdmissibilityReport(
        kind="control",
        tau_or_alpha=tau,
        p=p,
        constant_estimate=best,
        probe_count=len(probes),
        probe_family="signed-steps" if signed else "positive-steps+bumps",
        degenerate=degenerate,
    )


def zero_class_scan(
    handle, p: float, tau_grid, n_probes: int = 16, seed: int = 0
) -> ZeroClassScan:
    """Fit log kappa-hat(tau) ~ (1/q) log tau + c along a tau grid.

    The conjugate exponent 1/q = 1 - 1/p is the predicted decay rate of the
    admissibility constant; p = 1 is refused because kappa(tau) need not
    vanish there.  The fit is only attached when the grid has at least five
    points.
    """
    if p <= 1:
        raise ValueError("zero-class scaling requires p > 1 (no decay is claimed at p = 1)")
    taus = np.asarray(list(tau_grid), dtype=float)
    if np.any(taus <= 0):
        raise ValueError("tau grid must be positive")
    reports = [
        control_admissibility(handle, float(t), p, n_probes=n_probes, seed=seed) for t in taus
    ]
    estimates = np.array([r.constant_estimate for r in reports])
    fit = None
    if taus.size >= 5 and np.all(estimates > 0):
        logs_t, logs_k = np.log(taus), np.log(estimates)
        slope, intercept = np.polyfit(logs_t, logs_k, 1)
        predicted = slope * logs_t + intercept
        ss_res = float(np.sum((logs_k - predicted) ** 2))
        ss_tot = float(np.sum((logs_k - logs_k.mean()) ** 2))
        r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
        fit = ZeroClassFit(exponent=float(slope), r_squared=r2)
    return ZeroClassScan(p=p, taus=taus, estimates=estimates, fit=fit, reports=reports)


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
    best = 0.0
    degenerate = True
    for x in states:
        nx = handle.state_norm(x)
        if nx <= 0.0:
            continue
        degenerate = False
        best = max(best, handle.observation_lp(x, alpha, p) / nx)
    return AdmissibilityReport(
        kind="observation",
        tau_or_alpha=alpha,
        p=p,
        constant_estimate=best,
        probe_count=len(states),
        probe_family="positive-states",
        degenerate=degenerate,
    )


def regularity_probe(handle, mu_grid, g: np.ndarray, tol: float = 1e-9) -> RegularityReport:
    """H(mu_k) g along an increasing mu grid: entrywise monotone decrease for
    positive g, with the limit compared against the feedthrough."""
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
        monotone=violation <= tol,
        max_violation=violation,
        limit_gap=gap,
    )


def io_matrix(handle, tau: float, n_steps: int) -> np.ndarray:
    """Lower-triangular block Volterra discretization of the input-output map.

    Inputs are piecewise constant on the uniform grid (left-endpoint
    convention, which preserves causality structurally); column (r, b) holds
    the output samples produced by the unit input on piece r, component b.
    """
    d = int(np.prod(handle.input_shape))
    h = tau / n_steps
    times = h * np.arange(n_steps)
    breaks = h * np.arange(n_steps + 1)
    F = np.zeros((n_steps * d, n_steps * d))
    for r in range(n_steps):
        for b in range(d):
            vals = np.zeros((n_steps, *handle.input_shape))
            vals[r].flat[b] = 1.0
            y = handle.io_samples(StepSignal(breaks, vals), times)
            F[:, r * d + b] = y.ravel()
    return F


def feedback_admissibility(
    handle, K, tau: float, n_steps: int = 24, tol: float = 1e-10
) -> FeedbackReport:
    """Admissibility of the feedback operator K through r(K F) < 1.

    K acts on output slices (a (d, d) matrix or a scalar multiple of the
    identity); the radius is that of the block-diagonal K composed with the
    Volterra discretization of F, and the positivity of (I - K F)^{-1} is
    checked directly on the inverse.
    """
    if tau <= 0:
        raise ValueError("tau must be positive")
    d = int(np.prod(handle.input_shape))
    K = np.asarray(K, dtype=float)
    K_mat = float(K) * np.eye(d) if K.ndim == 0 else K
    if K_mat.shape != (d, d):
        raise ValueError("K must act on flattened output slices")
    F = io_matrix(handle, tau, n_steps)
    KF = np.kron(np.eye(n_steps), K_mat) @ F
    if np.all(KF >= 0.0):
        # power iteration resolves exactly-nilpotent delay structure as an
        # exact zero, which dense eigensolvers cannot (defective spectra)
        res = spectral_radius(KF, tol=1e-10, max_iter=10_000)
        radius = res.value if res.converged else dense_spectral_radius(KF)
    else:
        radius = dense_spectral_radius(KF)
    admissible = radius < 1.0
    inverse_nonneg = False
    if admissible:
        inv = np.linalg.inv(np.eye(KF.shape[0]) - KF)
        inverse_nonneg = bool(np.all(inv >= -tol))
    return FeedbackReport(
        radius=radius,
        admissible=admissible,
        inverse_nonneg=inverse_nonneg,
        tau=tau,
        n_steps=n_steps,
    )
