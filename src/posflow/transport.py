"""Transport flows on metric graphs, solved exactly along characteristics.

State space: X = prod_j L1([0, l_j] x [v_min, v_max]), discretized by a
positive velocity quadrature and per-edge spatial sample grids.  Flow runs
from x = l_j toward x = 0 with speed v > 0 and pointwise absorption q_j(x, v);
at the vertices the outflow is scattered in velocity and redistributed into
the outgoing edges by the boundary weights.

All operators in this module are closed-form evaluations along
characteristics: the only discretization lives in the velocity quadrature
and, for sampled fields, in piecewise-linear interpolation between spatial
samples.  Fields produced by closed-form operators carry an exact evaluator,
so compositions such as T(t)T(s)f incur no re-gridding error.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .graph import MetricGraph, check_assumptions
from .lattice import (
    CONE_TOL,
    Quadrature,
    dense_spectral_radius,
    is_nonneg,
    state_norm,
    trapezoid_weights,
)
from .signals import StepSignal


def _pad_rows(rows) -> np.ndarray:
    """Rows of shape (..., n_j) stacked into one (M, ..., n + 1) array with
    n = max n_j; each row repeats its last entry past its end."""
    sizes = np.array([r.shape[-1] for r in rows])
    cols = np.minimum(np.arange(sizes.max() + 1), sizes[:, None] - 1)
    return np.moveaxis(np.concatenate(rows, axis=-1)[..., (np.cumsum(sizes) - sizes)[:, None] + cols], -2, 0)


def _flat_table(xs, ys) -> tuple[np.ndarray, np.ndarray]:
    """Per-row interpolation tables xs[j] (n_j,) and ys[j] (K, n_j) padded to
    one (M, n + 1) grid table and one (M, K, n + 1) value table.  Each grid
    row continues past its last entry in unit steps and each value row
    repeats its last column, so every row ends in at least one flat segment
    and np.interp on a padded row equals np.interp on the row."""
    xp = _pad_rows(xs)
    past_end = np.arange(xp.shape[1]) - np.array([x.size for x in xs])[:, None] + 1
    return xp + np.maximum(past_end, 0), _pad_rows(ys)


def _segment(xp: np.ndarray, j, x) -> np.ndarray:
    """For each x, the i with xp[j, i] <= x < xp[j, i + 1], clipped to
    [0, B - 2]: np.interp's segment on row j of the (M, B) table xp, whose
    rows increase from 0.  One searchsorted finds every row's segment at once
    on the rows laid end to end, row j shifted by j * span with span above
    every entry.  The shift keeps the order of each row but can round x onto
    the shifted grid value just above it; stepping back from those keeps
    the result exact."""
    M, B = xp.shape
    span = xp[:, -1].max() + 1.0
    shifted = (xp + span * np.arange(M)[:, None]).ravel()
    i = np.searchsorted(shifted, x + span * j, side="right") - B * j - 1
    i = np.minimum(np.maximum(i, 0), B - 2)
    while np.any(over := (i > 0) & (xp.ravel()[B * j + i] > x)):
        i = i - over
    return i


def _interp_rows(xp: np.ndarray, fp: np.ndarray, j, k, x) -> np.ndarray:
    """np.interp(x, xp[j], fp[j, k]) elementwise, for integer arrays j and k
    broadcasting against x, on tables from :func:`_flat_table`; the same
    arithmetic as np.interp, so the values agree bit for bit."""
    M, K, B = fp.shape
    x = np.maximum(x, xp[j, 0])
    i = _segment(xp, j, x)
    # flat indices gather faster than broadcast fancy indexing
    xs, ys = xp.ravel(), fp.reshape(-1)
    at, fat = j * B + i, (j * K + k) * B + i
    x0, y0 = xs[at], ys[fat]
    return (ys[fat + 1] - y0) / (xs[at + 1] - x0) * (x - x0) + y0


class CharacteristicGateError(RuntimeError):
    """Raised when 1 is not in the resolvent set of the boundary-transfer
    operator, i.e. r(Gamma D_mu) >= 1 blocks the closed-loop inversion."""

    def __init__(self, mu: float, radius: float):
        super().__init__(
            f"characteristic gate failed at mu={mu}: r(Gamma D_mu) = {radius:.6g} >= 1"
        )
        self.mu = mu
        self.radius = radius


@dataclass(frozen=True)
class Absorption:
    """Per-edge absorption rates q_j(x, v), piecewise constant in x.

    ``breaks[j]`` partitions [0, l_j]; ``values[j]`` has shape (pieces, K)
    holding the rate per piece and velocity node.  Piecewise constancy keeps
    every path integral of q in closed form.
    """

    breaks: tuple[np.ndarray, ...]
    values: tuple[np.ndarray, ...]

    def __post_init__(self):
        breaks = tuple(np.asarray(b, dtype=float) for b in self.breaks)
        values = tuple(np.atleast_2d(np.asarray(v, dtype=float)) for v in self.values)
        if len(breaks) != len(values):
            raise ValueError("one break table and one value table per edge")
        cums = []
        for b, v in zip(breaks, values):
            if b.size < 2 or b[0] != 0.0 or np.any(np.diff(b) <= 0):
                raise ValueError("absorption breaks must increase strictly from 0")
            if v.shape[0] != b.size - 1:
                raise ValueError("one value row per absorption piece")
            # cumulative integral of q from 0 to each break, per velocity node
            cums.append(np.vstack([np.zeros(v.shape[1]), np.cumsum(v * np.diff(b)[:, None], axis=0)]))
        object.__setattr__(self, "breaks", breaks)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "_table", _flat_table(breaks, [c.T for c in cums]))

    @classmethod
    def constant(cls, rates, lengths, n_nodes: int) -> "Absorption":
        """One constant rate per edge: a scalar for all edges, one scalar per
        edge, or one per-velocity-node array per edge."""
        if np.isscalar(rates):
            rates = [rates] * len(lengths)
        breaks, values = [], []
        for q, l in zip(rates, lengths):
            breaks.append(np.array([0.0, float(l)]))
            values.append(np.broadcast_to(np.asarray(q, dtype=float), (1, n_nodes)).copy())
        return cls(tuple(breaks), tuple(values))

    @classmethod
    def zero(cls, lengths, n_nodes: int) -> "Absorption":
        return cls.constant([0.0] * len(lengths), lengths, n_nodes)

    def primitive(self, j, k, x: np.ndarray) -> np.ndarray:
        """int_0^x q_j(s, v_k) ds, piecewise linear in x (flat beyond [0, l]).
        ``j`` and ``k`` are indices, or integer arrays broadcasting against
        ``x`` that read every (edge, node) pair at once from the padded tables."""
        xp, fp = self._table
        if not isinstance(j, np.ndarray) and not isinstance(k, np.ndarray):
            # one pair: np.interp takes 1.5-7.7 us per call and _interp_rows
            # 41-75 us (2-vCPU Xeon, 1-1,300 points); a simulate pass makes
            # about 2,400 such reads
            return np.interp(x, xp[j], fp[j, k])
        return _interp_rows(xp, fp, j, k, x)

    @cached_property
    def q_sup(self) -> float:
        """sup_j ||q_j||_inf, the upper edge of the positivity regime in mu."""
        return max(float(np.max(np.abs(v))) for v in self.values)


@dataclass(frozen=True)
class ScatteringKernel:
    """Velocity scattering at the vertices.

    ``matrices`` is None in identity mode (no velocity mixing); otherwise one
    nonnegative (K, K) table per edge sampling ell_j(0, v, v'), applied with
    the velocity quadrature weights folded in (:attr:`TransportSystem.scatter`):
    (J_j f)(v_k) = sum_k' ell_j(0, v_k, v_k') w_k' f(v_k').
    """

    matrices: tuple[np.ndarray, ...] | None

    def __post_init__(self):
        if self.matrices is not None:
            mats = tuple(np.asarray(m, dtype=float) for m in self.matrices)
            for m in mats:
                if m.ndim != 2 or m.shape[0] != m.shape[1]:
                    raise ValueError("kernel tables must be square")
                if np.any(m < 0):
                    raise ValueError("kernel samples must be nonnegative")
            object.__setattr__(self, "matrices", mats)

    @property
    def is_identity(self) -> bool:
        return self.matrices is None

    @classmethod
    def identity(cls) -> "ScatteringKernel":
        return cls(None)

    @classmethod
    def constant(cls, c: float, n_edges: int, n_nodes: int) -> "ScatteringKernel":
        if c < 0:
            raise ValueError("kernel constant must be nonnegative")
        return cls(tuple(np.full((n_nodes, n_nodes), float(c)) for _ in range(n_edges)))


@dataclass(frozen=True)
class TransportSystem:
    """A transport network: graph, velocity grid, absorption and scattering."""

    graph: MetricGraph
    vgrid: Quadrature
    absorption: Absorption
    kernel: ScatteringKernel
    space_samples: int = 129

    def __post_init__(self):
        if self.vgrid.lo <= 0:
            raise ValueError("velocities must satisfy 0 < v_min")
        if len(self.absorption.breaks) != self.graph.n_edges:
            raise ValueError("absorption tables must cover every edge")
        for j, b in enumerate(self.absorption.breaks):
            if abs(b[-1] - self.graph.lengths[j]) > 1e-12:
                raise ValueError(f"absorption table of edge {j} does not span [0, l_j]")
            if self.absorption.values[j].shape[1] != self.vgrid.n:
                raise ValueError("absorption tables must have one column per velocity node")
        if not self.kernel.is_identity:
            if len(self.kernel.matrices) != self.graph.n_edges:
                raise ValueError("kernel tables must cover every edge")
            for m in self.kernel.matrices:
                if m.shape[0] != self.vgrid.n:
                    raise ValueError("kernel tables must match the velocity grid")
        if self.space_samples < 2:
            raise ValueError("need at least two spatial samples per edge")

    @property
    def n_edges(self) -> int:
        return self.graph.n_edges

    @property
    def n_vertices(self) -> int:
        return self.graph.n_vertices

    @property
    def n_nodes(self) -> int:
        return self.vgrid.n

    @property
    def q_sup(self) -> float:
        return self.absorption.q_sup

    @property
    def min_delay(self) -> float:
        """Shortest boundary-to-boundary transit time min_j l_j / v_max."""
        return float(self.delays.min())

    def xgrid(self, j: int, n: int | None = None) -> np.ndarray:
        return np.linspace(0.0, float(self.graph.lengths[j]), n or self.space_samples)

    def growth(self, j: int, k: int, a, b) -> np.ndarray:
        """Absorption growth exp(int_a^b q_j(s, v_k) ds / v_k) of the
        characteristic segment from x = b down to x = a."""
        q = self.absorption
        return np.exp((q.primitive(j, k, b) - q.primitive(j, k, a)) / self.vgrid.nodes[k])

    @cached_property
    def edge_primitive(self) -> np.ndarray:
        """(M, K) full-edge absorption integrals int_0^{l_j} q_j(s, v_k) ds,
        the last column of the padded primitive table."""
        return self.absorption._table[1][..., -1]

    @cached_property
    def edge_growth(self) -> np.ndarray:
        """(M, K) full-edge growth exp(int_0^{l_j} q_j(s, v_k) ds / v_k)."""
        return np.exp(self.edge_primitive / self.vgrid.nodes)

    @cached_property
    def edge_gain(self) -> np.ndarray:
        """(M, K) gain E_j w_j of a boundary datum carried across edge j: the
        full-edge growth times the boundary weight."""
        return self.edge_growth * self.graph.weights[:, None]

    @cached_property
    def delays(self) -> np.ndarray:
        """(M, K) boundary-to-boundary transit times l_j / v_k."""
        return self.graph.lengths[:, None] / self.vgrid.nodes

    @cached_property
    def scatter(self) -> np.ndarray:
        """(M, K, K) scattering tables J_j with the velocity quadrature
        weights folded in, J_j[k, k'] = ell_j(0, v_k, v_k') w_k'; identity
        matrices for the identity kernel."""
        M, K = self.n_edges, self.n_nodes
        if self.kernel.is_identity:
            return np.broadcast_to(np.eye(K), (M, K, K))
        return np.stack(self.kernel.matrices) * self.vgrid.weights

    @cached_property
    def scatter_basis(self) -> np.ndarray:
        """(K, R) orthonormal basis of the column space shared by all
        scattering tables, the range of the K x (M K) stack of the J_j.
        R is the numerical rank at numpy's ``matrix_rank`` threshold
        sigma_max max(shape) eps; a full-rank stack gives exactly np.eye(K).
        The thin SVD never forms the (M K)^2 right factor."""
        stack = np.concatenate(self.scatter, axis=1)
        U, s, _ = np.linalg.svd(stack, full_matrices=False)
        rank = int(np.count_nonzero(s > s[0] * max(stack.shape) * np.finfo(float).eps))
        return np.eye(self.n_nodes) if rank == self.n_nodes else U[:, :rank]

    def route(self, traces: np.ndarray) -> np.ndarray:
        """Gamma on outflow traces: (..., M, K) edge traces at x = 0 are
        scattered by J_j and added into their head vertices, (..., N, K).
        Edges entering one vertex accumulate in edge order."""
        scattered = np.einsum("jkl,...jl->...jk", self.scatter, traces)
        out = np.zeros(scattered.shape[:-2] + (self.n_vertices, self.n_nodes))
        np.add.at(out, (Ellipsis, self.graph.heads, slice(None)), scattered)
        return out

    def assumptions(self):
        return check_assumptions(self.graph)


class StateField:
    """Per-edge samples of f_j(x, v_k), optionally with an exact evaluator.

    Samples live on per-edge grids including both endpoints and are read as
    piecewise-linear functions of x.  Operators that have closed forms attach
    an ``evaluator(j, x, k)`` so that downstream evaluations (compositions,
    traces, refinements) bypass interpolation entirely.  An evaluator takes
    integer arrays j and k as well as indices (:meth:`from_function`).
    """

    __slots__ = ("system", "xs", "values", "evaluator")

    def __init__(self, system: TransportSystem, xs, values, evaluator=None):
        self.system = system
        self.xs = tuple(np.asarray(x, dtype=float) for x in xs)
        self.values = tuple(np.asarray(v, dtype=float) for v in values)
        if len(self.xs) != system.n_edges or len(self.values) != system.n_edges:
            raise ValueError("need one grid and one sample block per edge")
        for j, (x, v) in enumerate(zip(self.xs, self.values)):
            if x.size < 2 or x[0] != 0.0 or abs(x[-1] - system.graph.lengths[j]) > 1e-12:
                raise ValueError(f"grid of edge {j} must span [0, l_j] with >= 2 samples")
            if v.shape != (system.n_nodes, x.size):
                raise ValueError(f"samples of edge {j} must be (nodes, len(grid))")
        self.evaluator = evaluator

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_function(
        cls, system: TransportSystem, fn, n_x: int | None = None, xs=None
    ) -> "StateField":
        """Exact field defined by ``fn(j, x_array, k) -> values``, sampled on
        the grids ``xs`` (default: uniform grids of ``n_x`` points) in one
        call for every (edge, node) pair: j and k come as integer arrays of
        shapes (M, 1, 1) and (K, 1) and x as the (M, K, n) block, the form
        in which the operators read whole fields (:meth:`eval`).  ``fn`` is
        also the field's evaluator."""
        if xs is None:
            xs = np.linspace(0.0, system.graph.lengths, n_x or system.space_samples, axis=1)
        xs = [np.asarray(x, dtype=float) for x in xs]
        points = _pad_rows(xs)
        shape = (system.n_edges, system.n_nodes, points.shape[1])
        block = fn(np.arange(shape[0])[:, None, None], np.broadcast_to(points[:, None, :], shape),
                   np.arange(shape[1])[:, None])
        return cls(system, xs, [b[:, : len(x)] for b, x in zip(block, xs)], evaluator=fn)

    @classmethod
    def from_samples(cls, system: TransportSystem, values, n_x: int | None = None) -> "StateField":
        xs = [system.xgrid(j, n_x) for j in range(system.n_edges)]
        return cls(system, xs, values)

    @classmethod
    def constant(cls, system: TransportSystem, c: float, n_x: int | None = None) -> "StateField":
        return cls.from_function(system, lambda j, x, k: np.full_like(x, float(c)), n_x)

    @classmethod
    def zeros(cls, system: TransportSystem, n_x: int | None = None) -> "StateField":
        return cls.constant(system, 0.0, n_x)

    # -- evaluation and reductions -----------------------------------------

    def eval(self, j, k, x: np.ndarray) -> np.ndarray:
        """f_j(x, v_k) for x in [0, l_j] (clipped), exact when an evaluator
        is attached, else piecewise linear in the samples.  ``j`` and ``k``
        are indices, or integer arrays broadcasting against ``x``; the
        evaluator receives ``x`` broadcast against them."""
        x = np.clip(np.asarray(x, dtype=float), 0.0, self.system.graph.lengths[j])
        pair = not isinstance(j, np.ndarray) and not isinstance(k, np.ndarray)
        if self.evaluator is None:
            if pair:
                # np.interp is 1.5-7.7 us per pair, _interp_rows 41-75 us
                # (see Absorption.primitive)
                return np.interp(x, self.xs[j], self.values[j][k])
            return _interp_rows(*_flat_table(self.xs, self.values), j, k, x)
        if not pair:
            x = np.broadcast_to(x, np.broadcast(j, k, x).shape)
        return np.asarray(self.evaluator(j, x, k), dtype=float)

    def sampled(self) -> "StateField":
        """The same samples with the exact evaluator dropped."""
        return StateField(self.system, self.xs, self.values)

    def resampled(self, n_x: int) -> "StateField":
        field = StateField.from_function(self.system, lambda j, x, k: self.eval(j, k, x), n_x)
        return field if self.evaluator is not None else field.sampled()

    def norm(self) -> float:
        """Discretized X-norm: sum over edges of the L1(x, v) norm."""
        wv = self.system.vgrid.weights
        parts = []
        for x, v in zip(self.xs, self.values):
            parts.append((v, np.outer(wv, trapezoid_weights(x))))
        return state_norm(parts)

    def min_value(self) -> float:
        return min(float(v.min()) for v in self.values)

    def max_abs(self) -> float:
        return max(float(np.max(np.abs(v))) for v in self.values)

    def is_nonneg(self, tol: float = CONE_TOL) -> bool:
        return all(is_nonneg(v, tol) for v in self.values)

    # -- sample-level arithmetic (evaluators are dropped) --------------------

    def _zip(self, other: "StateField", op) -> "StateField":
        if self.system is not other.system:
            raise ValueError("fields belong to different systems")
        values = []
        for j, (a, b) in enumerate(zip(self.values, other.values)):
            if a.shape != b.shape or not np.array_equal(self.xs[j], other.xs[j]):
                raise ValueError("fields are sampled on different grids")
            values.append(op(a, b))
        return StateField(self.system, self.xs, values)

    def __add__(self, other: "StateField") -> "StateField":
        return self._zip(other, np.add)

    def __sub__(self, other: "StateField") -> "StateField":
        return self._zip(other, np.subtract)

    def scaled(self, c: float) -> "StateField":
        return StateField(self.system, self.xs, [c * v for v in self.values])


# ---------------------------------------------------------------------------
# closed-form exponential-times-linear segment integrals


def _exp_linear_integral(beta: np.ndarray, h: np.ndarray, c0: np.ndarray, c1: np.ndarray) -> np.ndarray:
    """int_0^h e^{beta s} (c0 + c1 s) ds, stable as beta -> 0."""
    z = beta * h
    small = np.abs(z) < 1e-6
    with np.errstate(divide="ignore", invalid="ignore"):
        phi1 = np.where(small, 1.0 + z / 2.0 + z * z / 6.0, np.expm1(z) / np.where(small, 1.0, z))
        phi2 = np.where(
            small,
            0.5 + z / 3.0 + z * z / 8.0,
            (np.exp(z) * (z - 1.0) + 1.0) / np.where(small, 1.0, z * z),
        )
    return h * c0 * phi1 + h * h * c1 * phi2


# ---------------------------------------------------------------------------
# the characteristic read


def characteristic_read(
    system: TransportSystem, j: int, k: int, x, t, initial=None, inflow=None
) -> np.ndarray:
    """z_j(t, x, v_k) read along the characteristic through (x, t).

    The characteristic entered edge j at x = l_j at the entry time
    s = t - (l_j - x)/v_k.  When s <= 0 it still carries the initial datum,
    ``initial`` read at the foot min(x + v_k t, l_j); otherwise it carries
    the vertex inflow w_j * inflow(tail_j, k, s).  Either read is multiplied
    by the absorption growth of the travelled segment, and a missing source
    reads as zero.  This is the only place that decides the wavefront of
    the state (:func:`io_map` samples its output right-continuously).
    ``x`` and ``t`` broadcast against each other, and against ``j`` and
    ``k`` when these are integer arrays that read many pairs at once.
    """
    l = system.graph.lengths[j]
    v = system.vgrid.nodes[k]
    x = np.minimum(np.maximum(np.asarray(x, dtype=float), 0.0), l)
    s = t - (l - x) / v
    out = np.zeros(np.shape(s))
    if initial is not None:
        foot = np.minimum(x + v * t, l)
        out = np.where(s <= 0.0, system.growth(j, k, x, foot) * initial.eval(j, k, foot), out)
    if inflow is not None:
        fed = inflow(system.graph.tails[j], k, s)
        # growth from l_j down to x, with the full-edge primitive from the table
        grow = np.exp((system.edge_primitive[j, k] - system.absorption.primitive(j, k, x)) / v)
        out = np.where(s > 0.0, grow * system.graph.weights[j] * fed, out)
    return out


def read_kinks(
    system: TransportSystem, j: int, k: int, t: float, initial=None, inflow_breaks=None
) -> np.ndarray:
    """The points of edge j where :func:`characteristic_read` at time t can
    kink: the wavefront l_j - v_k t and the absorption breaks; with
    ``initial``, the feet breaks - v_k t and the images xs - v_k t of its
    knots; with ``inflow_breaks`` b, their images l_j - v_k (t - b).
    Points outside [0, l_j] are left for the caller to clip
    (:func:`~posflow.lattice.gauss_panels` does)."""
    l = system.graph.lengths[j]
    v = system.vgrid.nodes[k]
    breaks = system.absorption.breaks[j]
    kinks = [np.array([l - v * t]), breaks]
    if initial is not None:
        kinks += [breaks - v * t, initial.xs[j] - v * t]
    if inflow_breaks is not None:
        kinks.append(l - v * (t - np.asarray(inflow_breaks)))
    return np.concatenate(kinks)


def knot_arrivals(system: TransportSystem, f: StateField) -> np.ndarray:
    """The times sigma / v_k at which the knots sigma of f and the absorption
    breaks of each edge reach the outflow end x = 0, where the zero-inflow
    outflow traces Gamma T(t) f can kink."""
    nodes = system.vgrid.nodes
    return np.concatenate([
        (np.union1d(f.xs[j], system.absorption.breaks[j])[:, None] / nodes[None, :]).ravel()
        for j in range(system.n_edges)
    ])


def flow_trace(system: TransportSystem, f: StateField, t) -> np.ndarray:
    """Gamma T(t) f, the scattered outflow traces of the zero-inflow flow,
    read along characteristics at x = 0 without assembling a field.

    ``t`` is a time or an array of times; the result has shape
    ``t.shape + (N, K)``.
    """
    t = np.asarray(t, dtype=float)
    traces = np.empty(t.shape + (system.n_edges, system.n_nodes))
    for j in range(system.n_edges):
        for k in range(system.n_nodes):
            traces[..., j, k] = characteristic_read(system, j, k, 0.0, t, initial=f)
    return system.route(traces)


# ---------------------------------------------------------------------------
# the explicit operators


def semigroup_apply(system: TransportSystem, f: StateField, t: float) -> StateField:
    """Flow semigroup T(t): transport toward x = 0 with zero inflow.

    (T(t) f)_j(x, v) = exp(int_x^{x+vt} q_j(s, v)/v ds) * f_j(x + vt, v)
    while the characteristic still carries initial data, and 0 once it
    entered at x = l_j (see :func:`characteristic_read`).  The returned field
    keeps the grids of ``f`` and carries an exact evaluator, so composing
    applications does not re-grid.  The samples of all (edge, node) pairs
    come from one call of that evaluator (:meth:`StateField.from_function`).
    """
    if t < 0:
        raise ValueError("t must be nonnegative")

    def ev(j, x, k):
        return characteristic_read(system, j, k, x, t, initial=f)

    return StateField.from_function(system, ev, xs=f.xs)


def resolvent_apply(system: TransportSystem, f: StateField, mu: float) -> StateField:
    """Resolvent of the zero-inflow generator, evaluated in closed form:

    (R(mu) f)_j(x, v) = int_x^{l_j} exp(int_x^y (q_j - mu)/v ds) f_j(y, v)/v dy.

    The y-integral is composite over the union of the sample grid and the
    absorption breakpoints; on each panel the exponent is linear and f is
    taken linear between its panel endpoints, so the panel integral is the
    closed form of e^{linear} * linear.  Exact for sampled (piecewise-linear)
    fields.  Enforces mu > sup|q| (the positivity regime).  All (edge, node)
    pairs are one (M, K, G) block over the per-edge union grids, padded to a
    common length G.
    """
    if mu <= system.q_sup:
        raise ValueError(f"mu must exceed sup|q| = {system.q_sup:.6g}")
    q = system.absorption
    grid, sizes = _union_rows(f.xs, q.breaks)
    j = np.arange(system.n_edges)[:, None, None]
    k = np.arange(system.n_nodes)[:, None]
    v = system.vgrid.nodes[k]
    y = grid[:, None, :]
    fy = f.eval(j, k, y)
    # W(y) = (int_0^y q - mu y)/v, linear on each panel
    W = (q.primitive(j, k, y) - mu * y) / v
    h = np.diff(y)
    beta = np.diff(W) / h
    c1 = (fy[..., 1:] - fy[..., :-1]) / h
    # panels past the end of a shorter grid integrate 0 and decay by 1, so
    # they leave the suffix sums of the grid unchanged
    inside = np.arange(grid.shape[1] - 1) < sizes[:, None, None] - 1
    panel = np.where(inside, _exp_linear_integral(beta, h, fy[..., :-1], c1), 0.0)
    decay = np.where(inside, np.exp(np.diff(W)), 1.0)
    # suffix recursion over all (edge, node) pairs: S_r = int_{y_r}^{l} e^{W(y)-W(y_r)} f dy
    S = np.zeros(W.shape)
    for r in range(grid.shape[1] - 2, -1, -1):
        S[..., r] = panel[..., r] + decay[..., r] * S[..., r + 1]
    rows = S[j, k, _segment(grid, j, _pad_rows(f.xs)[:, None, :])] / v
    return StateField(system, [x.copy() for x in f.xs], [r[:, : x.size] for r, x in zip(rows, f.xs)])


def _union_rows(xs, ys) -> tuple[np.ndarray, np.ndarray]:
    """np.union1d(xs[j], ys[j]) of every row as one (M, G) table and the row
    sizes; G exceeds every size, and each row continues past its last entry
    in unit steps."""
    # repeated last entries are duplicates, which the union drops
    both = np.sort(np.concatenate([_pad_rows(xs), _pad_rows(ys)], axis=1), axis=1)
    fresh = np.ones(both.shape, dtype=bool)
    fresh[:, 1:] = both[:, 1:] != both[:, :-1]
    pos = np.cumsum(fresh, axis=1) - 1
    sizes = pos[:, -1] + 1
    cols = np.arange(sizes.max() + 1)
    grid = both[:, -1:] + 1.0 + (cols - sizes[:, None])
    grid[np.arange(len(xs))[:, None], pos] = both
    return grid, sizes


def dirichlet_apply(system: TransportSystem, g: np.ndarray, mu: float) -> StateField:
    """Dirichlet lift D_mu: the boundary data g spread along characteristics,

    (D_mu g)_j(x, v) = exp(int_x^{l_j} (q_j(s,v) - mu)/v ds) * w_j * g_{tail(j)}(v),

    an exact exponential profile per edge and velocity node.  The lift
    satisfies G(D_mu g) = g under the Kirchhoff weight normalization and is
    positive for g >= 0 at every real mu.  ``g`` is an (N, K) array; the
    field samples on the :meth:`TransportSystem.xgrid` grids, all (edge,
    node) pairs in one call of its evaluator.
    """
    nodes = system.vgrid.nodes
    lengths = system.graph.lengths
    tails = system.graph.tails
    w = system.graph.weights
    q = system.absorption

    def ev(j, x, k):
        grow = np.exp((system.edge_primitive[j, k] - q.primitive(j, k, x)) / nodes[k])
        decay = np.exp(-mu * (lengths[j] - x) / nodes[k])
        return grow * decay * w[j] * g[tails[j], k]

    return StateField.from_function(system, ev)


def boundary_traces(system: TransportSystem, f: StateField) -> dict[str, np.ndarray]:
    """The two boundary operators of the network, each an (N, K) array.

    G collects the inflow-end traces per vertex, (G f)_i = sum over edges j
    leaving i of f_j(l_j, .); Gamma applies the scattering kernels to the
    outflow traces at x = 0 and routes them along incoming edges,
    (Gamma f)_i = sum over edges j entering i of (J_j f_j)(0, .).
    """
    g = system.graph
    ends = f.eval(np.arange(system.n_edges)[:, None], np.arange(system.n_nodes), g.lengths[:, None])
    G = np.zeros((system.n_vertices, system.n_nodes))
    np.add.at(G, g.tails, ends)  # edges leaving one vertex add in edge order
    return {"G": G, "Gamma": flow_trace(system, f, 0.0)}


def input_map(system: TransportSystem, u: StepSignal, t: float) -> StateField:
    """Input map Phi_t: the state reached from zero by boundary data u.

    (Phi_t u)_j(x, v) = exp(int_x^{l_j} q_j(s,v)/v ds)
                        * w_j * u_{tail(j)}((tv - l_j + x)/v)
    where the characteristic entered the edge after time 0, i.e. for
    t > (l_j - x)/v, and exactly 0 otherwise.  ``u`` is a boundary-space
    history (N channels) defined on [0, t].  The field samples on the
    :meth:`TransportSystem.xgrid` grids.
    """
    if t < 0:
        raise ValueError("t must be nonnegative")
    if u.horizon < t - 1e-12:
        raise ValueError(f"input history covers [0, {u.horizon}] but t = {t}")

    def ev(j, x, k):
        return characteristic_read(system, j, k, x, t, inflow=u.eval_channel)

    return StateField.from_function(system, ev)


def io_map(system: TransportSystem, u: StepSignal, times: np.ndarray) -> np.ndarray:
    """Input-output map F: scattered, absorption-weighted, delayed boundary
    inputs read at the outflow ends,

    (F u)_i(t, v) = sum over edges j entering i of
        J_j[ exp(int_0^{l_j} q_j(s, .)/. ds) * w_j * u_{tail(j)}(t - l_j/.) ](v),

    with each velocity node contributing only after its transit time l_j/v'.
    Returns the (T, N, K) samples at ``times``; they are exactly zero before
    min_j l_j / v_max.
    """
    times = np.atleast_1d(np.asarray(times, dtype=float))
    if times.size and u.horizon < times.max() - 1e-12:
        raise ValueError("input history shorter than the requested time grid")
    s = times[:, None, None] - system.delays
    vals = u.eval_channel(system.graph.tails[:, None], np.arange(system.n_nodes), s)
    # the output is right-continuous: u(0) is read at the arrival time itself
    traces = np.where(s >= 0.0, system.edge_gain * vals, 0.0)
    return system.route(traces)


def transfer_operator(system: TransportSystem, mu: float) -> np.ndarray:
    """The boundary transfer operator H(mu) = Gamma D_mu as a dense
    (N K) x (N K) matrix on flattened boundary data.  The flattening is
    vertex-major: row i K + k is vertex i, velocity node k, the C-order
    ``ravel`` of an (N, K) array.

    Entry ((i,k), (i',k')): sum over edges j from i' to i of the kernel
    coupling at (k, k') times the full-edge decay
    E_j(mu, k') = exp((int_0^{l_j} q_j - mu l_j)/v_{k'}) times w_j: the block
    of edge j is J_j (:attr:`TransportSystem.scatter`) times E_j w_j per column.
    """
    return _edge_coupling(system, mu)


def transfer_radius(system: TransportSystem, mu: float) -> float:
    """The spectral radius r(H(mu)) of the transfer operator, from an
    (N R) x (N R) matrix instead of the (N K) x (N K) one.

    Every J_j maps into the span of A = :attr:`TransportSystem.scatter_basis`,
    so H = (I_N kron A) G, and the nonzero eigenvalues of XY and YX agree:
    r(H) = r(G (I_N kron A)), the matrix whose edge blocks are
    A^T J_j E_j(mu) w_j A.  For full-rank kernels A = I and that matrix is H,
    bit for bit; for R = 0 it is empty and the radius is exactly 0.0.
    """
    return dense_spectral_radius(_edge_coupling(system, mu, system.scatter_basis))


def transfer_max_entry(system: TransportSystem, mu: float) -> float:
    """max |H(mu)|, the largest entry of :func:`transfer_operator` in
    magnitude, from its nonzero blocks without assembling the dense matrix."""
    return float(np.max(np.abs(_pair_blocks(system, mu)[1])))


def _pair_blocks(system: TransportSystem, mu: float, basis=None) -> tuple[np.ndarray, np.ndarray]:
    """The blocks J_j E_j(mu) w_j of the edges, each compressed to
    basis^T (.) basis when a (K, R) basis is given, summed in edge order per
    distinct (head_j, tail_j) pair: (pair keys head N + tail, (P, R, R))."""
    N, g = system.n_vertices, system.graph
    decay = system.edge_growth * np.exp(-mu * g.lengths[:, None] / system.vgrid.nodes)
    blocks = system.scatter * (decay * g.weights[:, None])[:, None, :]
    if basis is not None:
        blocks = basis.T @ blocks @ basis
    keys, pair_of_edge = np.unique(g.heads * N + g.tails, return_inverse=True)
    sums = np.zeros((keys.size,) + blocks.shape[1:])
    np.add.at(sums, pair_of_edge.ravel(), blocks)  # parallel edges add in edge order
    return keys, sums


def _edge_coupling(system: TransportSystem, mu: float, basis=None) -> np.ndarray:
    """The matrix with block :func:`_pair_blocks` at (head, tail) of each
    edge-carrying vertex pair and zeros elsewhere."""
    N = system.n_vertices
    keys, sums = _pair_blocks(system, mu, basis)
    R = sums.shape[-1]
    H = np.zeros((N, R, N, R))
    H[keys // N, :, keys % N] = sums
    return H.reshape(N * R, N * R)


def closed_loop_resolvent(system: TransportSystem, f: StateField, mu: float) -> StateField:
    """Resolvent of the scattering-coupled generator via the boundary lift:

    R(mu, A_coupled) f = (I + D_mu (I - Gamma D_mu)^{-1} Gamma) R(mu, A) f.

    Requires the characteristic gate r(Gamma D_mu) < 1, decided by
    :func:`transfer_radius`; otherwise the inversion is refused with the
    offending radius attached.
    """
    radius = transfer_radius(system, mu)
    if radius >= 1.0:
        raise CharacteristicGateError(mu, radius)
    H = transfer_operator(system, mu)
    base = resolvent_apply(system, f, mu)
    gamma = boundary_traces(system, base)["Gamma"]
    sol = np.linalg.solve(np.eye(H.shape[0]) - H, gamma.ravel())
    lift = dirichlet_apply(system, sol.reshape(gamma.shape), mu)
    return base + StateField.from_function(system, lift.evaluator, xs=base.xs)
