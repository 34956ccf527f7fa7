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

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .graph import MetricGraph
from .lattice import Quadrature, dense_spectral_radius
from .signals import StepSignal


def _pad_rows(rows) -> np.ndarray:
    """A sequence of rows of shape (..., n_j) stacked into one (M, ..., n + 1)
    array with n = max n_j; each row repeats its last entry past its end."""
    sizes = np.array([r.shape[-1] for r in rows])
    cols = np.minimum(np.arange(sizes.max() + 1), sizes[:, None] - 1)
    return np.moveaxis(np.concatenate(rows, axis=-1)[..., (np.cumsum(sizes) - sizes)[:, None] + cols], -2, 0)


def _increasing_rows(rows, what: str, ends=None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-edge rows, 1-d and increasing strictly from 0 (to within 1e-12 of
    ``ends`` (M,) if given), padded by :func:`_pad_rows`, their sizes, and
    their interpolation grid: each row continues past its end in unit steps,
    so np.interp on a padded row equals np.interp on the row.  A ValueError
    names the first edge whose row is not such a row."""
    rows = [np.asarray(r, dtype=float) for r in rows]
    sizes = np.array([r.size if r.ndim == 1 else 0 for r in rows])
    bad = sizes < 2
    if not bad.any():
        xp = _pad_rows(rows)
        past = np.arange(xp.shape[1]) - sizes[:, None] + 1  # > 0 past the last entry
        bad = (xp[:, 0] != 0.0) | np.any(~(np.diff(xp, axis=1) > 0.0) & (past[:, 1:] < 1), axis=1)
        if ends is not None:
            bad |= np.abs(xp[:, -1] - ends) > 1e-12
    if bad.any():
        raise ValueError(f"{what} of edge {np.argmax(bad)}: expected a 1-d table increasing "
                         f"strictly from 0{'' if ends is None else ' to l_j'}")
    return xp, sizes, xp + np.maximum(past, 0)


def _segment(xp: np.ndarray, j, x) -> np.ndarray:
    """For each x, the last i with xp[j, i] <= x, clipped to [0, B - 2]:
    np.interp's segment on row j of the (M, B) table xp, whose rows are
    non-decreasing from 0.  One searchsorted finds every row's segment at
    once on the rows laid end to end, row j shifted by j * span with span
    above every entry.  The shift keeps the order of each row but can round
    x onto the shifted grid value just above it; stepping back from those
    keeps the result exact."""
    M, B = xp.shape
    span = xp[:, -1].max() + 1.0
    shifted = (xp + span * np.arange(M)[:, None]).ravel()
    i = np.searchsorted(shifted, x + span * j, side="right") - B * j - 1
    i = np.minimum(np.maximum(i, 0), B - 2)
    while np.any(over := (i > 0) & (xp.ravel()[B * j + i] > x)):
        i = i - over
    return i


def _interp_rows(xp: np.ndarray, fp: np.ndarray, j, k, x) -> np.ndarray:
    """np.interp(x, xp[j], fp[j, k]) elementwise, for indices j and k or
    integer arrays broadcasting against x, on grid tables from :func:`_increasing_rows`;
    the same arithmetic as np.interp, so the values agree bit for bit up to
    the last knot of each row.  Like np.interp it returns the sample itself
    at a knot, which keeps a -0.0 sample (past the last knot a -0.0 reads
    +0.0; every caller clamps x to [0, l_j] first)."""
    if not isinstance(j, np.ndarray) and not isinstance(k, np.ndarray):
        # one pair: np.interp on the padded row takes 1.5-7.7 us, the block
        # path 41-75 us (2-vCPU Xeon, 1-1,300 points); flow_trace reads pairs
        return np.interp(x, xp[j], fp[j, k])
    M, K, B = fp.shape
    x = np.maximum(x, xp[j, 0])
    i = _segment(xp, j, x)
    # flat indices gather faster than broadcast fancy indexing
    xs, ys = xp.ravel(), fp.reshape(-1)
    at, fat = j * B + i, (j * K + k) * B + i
    x0, y0 = xs[at], ys[fat]
    return np.where(x == x0, y0, (ys[fat + 1] - y0) / (xs[at + 1] - x0) * (x - x0) + y0)


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

    Built from one break table per edge, partitioning [0, l_j], and one
    (pieces, K) table of rates per edge, and padded once (:func:`_pad_rows`):
    ``breaks`` (M, B) repeat their last break, ``values`` (M, B - 1, K) their
    last piece, which has length 0 there.  Every reader takes the padded rows
    whole: a padded piece adds exactly 0 to any integral of q.  Piecewise
    constancy keeps every path integral of q in closed form.
    """

    breaks: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        breaks, sizes, grid = _increasing_rows(self.breaks, "absorption breaks")
        rates = [np.atleast_2d(np.asarray(v, dtype=float)) for v in self.values]
        if len(rates) != sizes.size or any(v.shape != (n - 1, rates[0].shape[-1]) for v, n in zip(rates, sizes)):
            raise ValueError("one value table per edge: one row per absorption piece, one column per node")
        rows = _pad_rows([v.T for v in rates])  # (M, K, B - 1)
        # int_0^b q at each break b per velocity node; a padded piece adds q * 0
        cums = np.cumsum(rows * np.diff(breaks, axis=1)[:, None, :], axis=2)
        cums = np.concatenate([np.zeros(cums.shape[:2] + (1,)), cums], axis=2)
        object.__setattr__(self, "breaks", breaks)
        object.__setattr__(self, "values", rows.transpose(0, 2, 1))
        object.__setattr__(self, "_table", (grid, cums))

    @classmethod
    def constant(cls, rates, lengths, n_nodes: int) -> "Absorption":
        """One constant rate per edge: a scalar for all edges, one scalar per
        edge, or one per-velocity-node array per edge."""
        lengths, rates = np.asarray(lengths, dtype=float), np.asarray(rates, dtype=float)
        rates = rates.reshape(lengths.size, 1, -1) if rates.ndim else rates
        return cls(np.column_stack([np.zeros_like(lengths), lengths]),
                   np.broadcast_to(rates, (lengths.size, 1, n_nodes)))

    @classmethod
    def zero(cls, lengths, n_nodes: int) -> "Absorption":
        return cls.constant(0.0, lengths, n_nodes)

    def primitive(self, j, k, x: np.ndarray) -> np.ndarray:
        """int_0^x q_j(s, v_k) ds, piecewise linear in x (flat beyond [0, l]).
        ``j`` and ``k`` are indices, or integer arrays broadcasting against
        ``x`` that read every (edge, node) pair at once from the padded tables."""
        return _interp_rows(*self._table, j, k, x)

    @cached_property
    def q_sup(self) -> float:
        """sup_j ||q_j||_inf, the upper edge of the positivity regime in mu."""
        return float(np.max(np.abs(self.values)))


@dataclass(frozen=True)
class ScatteringKernel:
    """Velocity scattering at the vertices.

    ``matrices`` is None in identity mode (no velocity mixing); otherwise one
    (M, K, K) array of nonnegative tables (a tuple of tables is stacked, a
    broadcast view stores one), table j sampling ell_j(0, v, v') and applied
    with the velocity weights folded in (:attr:`TransportSystem.scatter`):
    (J_j f)(v_k) = sum_k' ell_j(0, v_k, v_k') w_k' f(v_k').
    """

    matrices: np.ndarray | None

    def __post_init__(self):
        if self.matrices is not None:
            try:
                mats = np.asarray(self.matrices, dtype=float)
            except ValueError:  # tables of different shapes
                mats = np.empty(0)
            if mats.ndim != 3 or mats.shape[1] != mats.shape[2]:
                raise ValueError("kernel tables must be square and of one size")
            if np.any(mats < 0):
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
        return cls(np.broadcast_to(float(c), (n_edges, n_nodes, n_nodes)))


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
        if self.absorption.breaks.shape[0] != self.graph.n_edges:
            raise ValueError("absorption tables must cover every edge")
        if self.absorption.values.shape[2] != self.vgrid.n:
            raise ValueError("absorption tables must have one column per velocity node")
        off = np.abs(self.absorption.breaks[:, -1] - self.graph.lengths) > 1e-12
        if off.any():
            raise ValueError(f"absorption table of edge {np.argmax(off)} does not span [0, l_j]")
        if not self.kernel.is_identity and self.kernel.matrices.shape != (self.n_edges,) + (self.vgrid.n,) * 2:
            raise ValueError("kernel tables must cover every edge and match the velocity grid")
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

    @cached_property
    def grid(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """np.linspace(0, l_j, space_samples) per edge as padded rows
        (:func:`_increasing_rows`), read-only: every default field shares them."""
        lengths = self.graph.lengths
        rows = _increasing_rows(np.linspace(0.0, lengths, self.space_samples, axis=1), "grid", lengths)
        for a in rows:
            a.flags.writeable = False
        return rows

    @cached_property
    def edge_primitive(self) -> np.ndarray:
        """(M, K) full-edge absorption integrals int_0^{l_j} q_j(s, v_k) ds,
        the last column of the padded primitive table."""
        return self.absorption._table[1][..., -1]

    @cached_property
    def edge_gain(self) -> np.ndarray:
        """(M, K) gain E_j w_j of a boundary datum carried across edge j: the
        full-edge growth exp(int_0^{l_j} q_j(s, v_k) ds / v_k) times the
        boundary weight, :attr:`CharacteristicPath.gain` at x = 0 bit for bit."""
        return np.exp(self.edge_primitive / self.vgrid.nodes) * self.graph.weights[:, None]

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
        return self.kernel.matrices * self.vgrid.weights

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


class StateField:
    """Per-edge samples of f_j(x, v_k), optionally with an exact evaluator.

    Samples live on per-edge grids including both endpoints and are read as
    piecewise-linear functions of x.  Grids and samples are padded once
    (:func:`_pad_rows`) into (M, B) knots and an (M, K, B) table, which every
    read and reduction uses; ``xs`` and ``values`` are per-edge views.
    Operators that have closed forms attach an ``evaluator(j, x, k)`` so that
    downstream evaluations (compositions, traces, refinements) bypass
    interpolation entirely; it takes integer arrays j and k as well as indices.
    """

    __slots__ = ("system", "evaluator", "_grid", "_table")

    def __init__(self, system: TransportSystem, xs, values, evaluator=None):
        values = [np.asarray(v, dtype=float) for v in values]
        if len(xs) != system.n_edges or len(values) != system.n_edges:
            raise ValueError("need one grid and one sample block per edge")
        grid = _increasing_rows(xs, "grid", system.graph.lengths)
        shaped = [v.shape == (system.n_nodes, n) for v, n in zip(values, grid[1].tolist())]
        if not all(shaped):
            raise ValueError(f"samples of edge {shaped.index(False)} must be (nodes, len(grid))")
        self.system, self.evaluator, self._grid = system, evaluator, grid
        self._table = (grid[2], _pad_rows(values))

    @classmethod
    def _padded(cls, system, grid, samples=None, evaluator=None) -> "StateField":
        """The field on ``grid`` (:func:`_increasing_rows`) with an (M, K, B)
        block of samples padded alike, by default the ``evaluator`` sampled
        in one call on the padded knots (:meth:`from_function`)."""
        field = cls.__new__(cls)
        if samples is None:
            x = np.broadcast_to(grid[0][:, None, :], (system.n_edges, system.n_nodes, grid[0].shape[1]))
            samples = evaluator(np.arange(x.shape[0])[:, None, None], x, np.arange(x.shape[1])[:, None])
            samples = np.broadcast_to(np.asarray(samples, dtype=float), x.shape)
        field.system, field.evaluator, field._grid, field._table = system, evaluator, grid, (grid[2], samples)
        return field

    @property
    def xs(self) -> tuple[np.ndarray, ...]:
        return tuple(x[:n] for x, n in zip(self._grid[0], self._grid[1].tolist()))

    @property
    def values(self) -> tuple[np.ndarray, ...]:
        return tuple(v[:, :n] for v, n in zip(self._table[1], self._grid[1].tolist()))

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_function(cls, system: TransportSystem, fn, xs=None) -> "StateField":
        """Exact field defined by ``fn(j, x_array, k) -> values``, sampled on
        the grids ``xs`` (default: :attr:`TransportSystem.grid`) in one
        call for every (edge, node) pair: j and k come as integer arrays of
        shapes (M, 1, 1) and (K, 1) and x as the padded (M, K, B) block of
        knots, the form in which the operators read whole fields
        (:meth:`eval`).  ``fn`` is also the field's evaluator."""
        grid = system.grid if xs is None else _increasing_rows(xs, "grid", system.graph.lengths)
        return cls._padded(system, grid, evaluator=fn)

    @classmethod
    def from_samples(cls, system: TransportSystem, values) -> "StateField":
        return cls(system, system.grid[0][:, : system.space_samples], values)

    @classmethod
    def constant(cls, system: TransportSystem, c: float) -> "StateField":
        return cls.from_function(system, lambda j, x, k: np.full_like(x, float(c)))

    @classmethod
    def zeros(cls, system: TransportSystem) -> "StateField":
        return cls.constant(system, 0.0)

    # -- evaluation and reductions -----------------------------------------

    def eval(self, j, k, x: np.ndarray) -> np.ndarray:
        """f_j(x, v_k) for x in [0, l_j] (clipped), exact when an evaluator
        is attached, else piecewise linear in the samples.  ``j`` and ``k``
        are indices, or integer arrays broadcasting against ``x``; the
        evaluator receives ``x`` broadcast against them."""
        x = np.minimum(np.maximum(np.asarray(x, dtype=float), 0.0), self.system.graph.lengths[j])
        if self.evaluator is None:
            return _interp_rows(*self._table, j, k, x)
        if isinstance(j, np.ndarray) or isinstance(k, np.ndarray):
            x = np.broadcast_to(x, np.broadcast(j, k, x).shape)
        return np.asarray(self.evaluator(j, x, k), dtype=float)

    def sampled(self) -> "StateField":
        """The same samples with the exact evaluator dropped."""
        return StateField._padded(self.system, self._grid, self._table[1])

    def resampled(self, n_x: int) -> "StateField":
        xs = np.linspace(0.0, self.system.graph.lengths, n_x, axis=1)
        field = StateField.from_function(self.system, lambda j, x, k: self.eval(j, k, x), xs=xs)
        return field if self.evaluator is not None else field.sampled()

    def norm(self) -> float:
        """Discretized X-norm: sum over edges of the L1(x, v) norm, trapezoid
        rule in x times velocity weights, summed exactly (math.fsum)."""
        x, f = self._grid[0], self._table[1]
        half = np.pad(0.5 * np.diff(x, axis=1), ((0, 0), (0, 1)))  # 0 past the last knot
        w = self.system.vgrid.weights[:, None] * (half + np.roll(half, 1, axis=1))[:, None, :]
        return math.fsum((w * np.abs(f)).ravel().tolist())  # a padded knot adds an exact 0

    def min_value(self) -> float:
        return float(self._table[1].min())

    def max_abs(self) -> float:
        return float(np.max(np.abs(self._table[1])))

    # -- sample-level arithmetic (evaluators are dropped) --------------------

    def _zip(self, other: "StateField", op) -> "StateField":
        if self.system is not other.system:
            raise ValueError("fields belong to different systems")
        if not np.array_equal(self._grid[0], other._grid[0]):
            raise ValueError("fields are sampled on different grids")
        return StateField._padded(self.system, self._grid, op(self._table[1], other._table[1]))

    def __add__(self, other: "StateField") -> "StateField":
        return self._zip(other, np.add)

    def __sub__(self, other: "StateField") -> "StateField":
        return self._zip(other, np.subtract)

    def scaled(self, c: float) -> "StateField":
        return StateField._padded(self.system, self._grid, c * self._table[1])


# ---------------------------------------------------------------------------
# closed-form exponential-times-linear segment integrals


# Taylor coefficients to z^10 of phi1(z) = (e^z - 1)/z = sum z^n/(n+1)! and
# phi2(z) = (e^z (z - 1) + 1)/z^2 = sum z^n (n+1)/(n+2)!, highest power first
_PHI1_SERIES = [1.0 / math.factorial(n + 1) for n in range(10, -1, -1)]
_PHI2_SERIES = [(n + 1) / math.factorial(n + 2) for n in range(10, -1, -1)]


def _phi12(z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """phi1(z) and phi2(z) to a few ulps: the series below |z| = 0.1, where
    the closed forms lose digits to cancellation, and expm1-based closed
    forms above it (phi2 = (expm1(z) (z - 1) + z)/z^2 cancels at most a
    factor 2/|z| <= 20)."""
    small = np.abs(z) < 0.1
    zs, big = np.where(small, z, 0.0), np.where(small, 1.0, z)
    em1 = np.expm1(big)
    phi1 = np.where(small, np.polyval(_PHI1_SERIES, zs), em1 / big)
    phi2 = np.where(small, np.polyval(_PHI2_SERIES, zs), (em1 * (big - 1.0) + big) / (big * big))
    return phi1, phi2


def _segment_weights(z, h, factor) -> tuple[np.ndarray, np.ndarray]:
    """Weights (w0, w1) with int_0^h e^{q (h - r)} g(r) dr = w0 g(0) + w1 g(h)
    for g linear on [0, h], both times ``factor``, from the exponent z = q h:
    w0 = h phi2(z) and w1 = h (phi1(z) - phi2(z)) (:func:`_phi12`), stable as
    z -> 0 and exactly 0 at h = 0."""
    phi1, phi2 = _phi12(z)
    scale = h * factor
    return scale * phi2, scale * (phi1 - phi2)


# ---------------------------------------------------------------------------
# the characteristic read


class CharacteristicPath:
    """The characteristics through the points ``x`` of edge j at node k, read
    at any time by :meth:`read`.

    It holds what a read does not take from t: x clamped to [0, l_j], l_j,
    v_k, the transit time (l_j - x)/v_k, P_j(x) and, computed on first use,
    the inflow gain exp((P_j(l_j) - P_j(x))/v_k) w_j.  ``j`` and ``k`` are
    indices, or integer arrays broadcasting against ``x`` that read many
    pairs at once.  A path kept across reads (the snapshot grid of
    :class:`~posflow.solver.ClosedLoopSolution`) pays these once.
    """

    def __init__(self, system: TransportSystem, j, k, x):
        self.system, self.j, self.k = system, j, k
        self.l, self.v = system.graph.lengths[j], system.vgrid.nodes[k]
        self.x = np.minimum(np.maximum(np.asarray(x, dtype=float), 0.0), self.l)
        self.transit = (self.l - self.x) / self.v
        self.at_x = system.absorption.primitive(j, k, self.x)  # P_j(x), for either branch

    @cached_property
    def gain(self) -> np.ndarray:
        """Growth from l_j down to x, with the full-edge primitive from the
        table, times the boundary weight w_j."""
        sys_, j = self.system, self.j
        return np.exp((sys_.edge_primitive[j, self.k] - self.at_x) / self.v) * sys_.graph.weights[j]

    def read(self, t, initial=None, inflow=None) -> np.ndarray:
        """z_j(t, x, v_k) read along the characteristic through (x, t).

        The characteristic entered edge j at x = l_j at the entry time
        s = t - (l_j - x)/v_k.  When s <= 0 it still carries the initial
        datum, ``initial`` read at the foot min(x + v_k t, l_j); otherwise
        it carries the vertex inflow w_j * inflow(tail_j, k, s).  Either read
        is multiplied by the absorption growth of the travelled segment, and
        a missing source reads as zero.  This is the only place that decides
        the wavefront of the state (:func:`io_map` samples its output
        right-continuously).  ``t`` broadcasts against the path.

        A read with one source evaluates it at every point in one np.where.
        With both, each point reads only its own source: a branch gathers
        its points unless it holds all of them.
        """
        s = t - self.transit
        if initial is None or inflow is None:
            out = np.zeros(np.shape(s))
            if initial is not None:
                out = np.where(s <= 0.0, self._from_initial(initial, t), out)
            if inflow is not None:
                out = np.where(s > 0.0, self._from_inflow(inflow, s), out)
            return out
        first, fed = s <= 0.0, s > 0.0
        if first.all():
            return np.asarray(self._from_initial(initial, t))
        if fed.all():
            return np.asarray(self._from_inflow(inflow, s))
        out = np.zeros(s.shape)
        if first.any():
            out[first] = self._from_initial(initial, t, first)
        if fed.any():
            out[fed] = self._from_inflow(inflow, s, fed)
        return out

    def _from_initial(self, initial, t, mask=None) -> np.ndarray:
        j, k, x, l, v, at_x = self.j, self.k, self.x, self.l, self.v, self.at_x
        if mask is not None:
            j, k, x, l, v, at_x, t = _gather(mask, j, k, x, l, v, at_x, t)
        foot = np.minimum(x + v * t, l)
        grow = np.exp((self.system.absorption.primitive(j, k, foot) - at_x) / v)
        return grow * initial.eval(j, k, foot)

    def _from_inflow(self, inflow, s, mask=None) -> np.ndarray:
        j, k, gain = self.j, self.k, self.gain
        if mask is not None:
            j, k, gain, s = _gather(mask, j, k, gain, s)
        return gain * inflow(self.system.graph.tails[j], k, s)


def _gather(mask: np.ndarray, *arrays) -> list:
    """Each array broadcast to ``mask`` and taken at its points, flat;
    scalars stay as they are."""
    return [a if not isinstance(a, np.ndarray)
            else (a if a.shape == mask.shape else np.broadcast_to(a, mask.shape))[mask] for a in arrays]


def characteristic_read(
    system: TransportSystem, j: int, k: int, x, t, initial=None, inflow=None
) -> np.ndarray:
    """z_j(t, x, v_k): one :meth:`CharacteristicPath.read` of a path built
    for this read alone.  ``x`` and ``t`` broadcast against each other, and
    against ``j`` and ``k`` when these are integer arrays."""
    return CharacteristicPath(system, j, k, x).read(t, initial, inflow)


def read_kinks(system: TransportSystem, t: float, inflow_breaks) -> np.ndarray:
    """The (M, K, Q) block of points of each edge j and node k where the
    inflow-fed :func:`characteristic_read` at time t can kink: the wavefront
    l_j - v_k t, the absorption breaks (each edge's last break repeated to
    the longest row) and the images l_j - v_k (t - b) of the inflow breaks
    b.  Points outside [0, l_j] are left for the caller to clip
    (:func:`~posflow.lattice.gauss_block` does)."""
    l, v, b = system.graph.lengths[:, None, None], system.vgrid.nodes[:, None], system.absorption.breaks
    breaks = np.broadcast_to(b[:, None, :], (b.shape[0], v.size, b.shape[1]))
    return np.concatenate([l - v * t, breaks, l - v * (t - np.asarray(inflow_breaks, dtype=float))], axis=-1)


def initial_kinks(system: TransportSystem, f: StateField) -> tuple[np.ndarray, np.ndarray]:
    """Rows (M, Q) c and d with the kinks of the initial-fed read of f at
    time t and node k at c - d v_k t: row j holds its padded absorption
    breaks, again (their feet), and the padded knots of f (their feet).  A
    padded entry repeats a kink, a cut of width 0 that weighs nothing."""
    breaks, knots = system.absorption.breaks, f._grid[0]
    c = np.concatenate([breaks, breaks, knots], axis=1)
    return c, np.concatenate([np.zeros_like(breaks), np.ones_like(breaks), np.ones_like(knots)], axis=1)


def knot_arrivals(system: TransportSystem, f: StateField) -> np.ndarray:
    """The times c / v_k at which the moving kinks c of :func:`initial_kinks`
    (the absorption breaks and the knots of f) reach the outflow end x = 0,
    where the zero-inflow outflow traces Gamma T(t) f can kink, edge by edge,
    knot by knot.  Unsorted, with repeats: callers sort or unique them."""
    c, d = initial_kinks(system, f)
    return (c[d > 0][:, None] / system.vgrid.nodes).ravel()


def flow_trace(system: TransportSystem, f: StateField, t) -> np.ndarray:
    """Gamma T(t) f, the scattered outflow traces of the zero-inflow flow,
    read along characteristics at x = 0 without assembling a field.

    ``t`` is a time or an array of times; the result has shape
    ``t.shape + (N, K)``.
    """
    t = np.asarray(t, dtype=float)
    traces = np.empty(t.shape + (system.n_edges, system.n_nodes))
    # one pair per read: a (T, M, K) block read is 2-3x slower here
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

    return StateField._padded(system, f._grid, evaluator=ev)


def resolvent_apply(system: TransportSystem, f: StateField, mu: float) -> StateField:
    """Resolvent of the zero-inflow generator, evaluated in closed form:

    (R(mu) f)_j(x, v) = int_x^{l_j} exp(int_x^y (q_j - mu)/v ds) f_j(y, v)/v dy.

    The y-integral is composite over the cuts of each edge, the padded rows
    of its sample grid and absorption breaks sorted together; a repeated cut
    is a panel of width 0, weight 0 and decay e^0 = 1.  On each panel the
    exponent is linear and f is taken linear between its panel endpoints, so
    the panel integral is the closed form of e^{linear} * linear.  Exact for
    sampled (piecewise-linear) fields.  Enforces mu > sup|q| (the positivity
    regime).  All (edge, node) pairs are one (M, K, G) block.
    """
    if mu <= system.q_sup:
        raise ValueError(f"mu must exceed sup|q| = {system.q_sup:.6g}")
    q = system.absorption
    grid = np.sort(np.concatenate([f._grid[0], q.breaks], axis=1), axis=1)
    j = np.arange(system.n_edges)[:, None, None]
    k = np.arange(system.n_nodes)[:, None]
    v = system.vgrid.nodes[k]
    y = grid[:, None, :]
    fy = f.eval(j, k, y)
    # W(y) = (int_0^y q - mu y)/v, linear on each panel
    W = (q.primitive(j, k, y) - mu * y) / v
    dW = np.diff(W)
    # int_0^h e^{beta s} f(y_r + s) ds with beta h = dW, f linear on the panel
    w_hi, w_lo = _segment_weights(dW, np.diff(y), 1.0)
    panel = w_lo * fy[..., :-1] + w_hi * fy[..., 1:]
    decay = np.exp(dW)
    # suffix recursion over all (edge, node) pairs: S_r = int_{y_r}^{l} e^{W(y)-W(y_r)} f dy
    S = np.zeros(W.shape)
    for r in range(grid.shape[1] - 2, -1, -1):
        S[..., r] = panel[..., r] + decay[..., r] * S[..., r + 1]
    rows = S[j, k, _segment(grid, j, f._grid[0][:, None, :])] / v
    return StateField._padded(system, f._grid, rows)


def dirichlet_apply(system: TransportSystem, g: np.ndarray, mu: float) -> StateField:
    """Dirichlet lift D_mu: the boundary data g spread along characteristics,

    (D_mu g)_j(x, v) = exp(int_x^{l_j} (q_j(s,v) - mu)/v ds) * w_j * g_{tail(j)}(v),

    an exact exponential profile per edge and velocity node.  The lift
    satisfies G(D_mu g) = g under the Kirchhoff weight normalization and is
    positive for g >= 0 at every real mu.  ``g`` is an (N, K) array; the
    field samples on :attr:`TransportSystem.grid`, all (edge, node) pairs in
    one call of its evaluator: the inflow gain of a :class:`CharacteristicPath`
    (:attr:`CharacteristicPath.gain`) times e^{-mu transit}, the read of a
    constant inflow weighted by the Laplace factor of its entry time.
    """
    tails = system.graph.tails

    def ev(j, x, k):
        path = CharacteristicPath(system, j, k, x)
        return path.gain * np.exp(-mu * path.transit) * g[tails[j], k]

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
    history (N channels) defined on [0, t].  The field samples on
    :attr:`TransportSystem.grid`.
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


@np.errstate(over="ignore", invalid="ignore")  # a non-finite H(mu) is refused below
def _pair_blocks(system: TransportSystem, mu: float, basis=None) -> tuple[np.ndarray, np.ndarray]:
    """The blocks J_j E_j(mu) w_j of the edges, each compressed to
    basis^T (.) basis when a (K, R) basis is given, summed in edge order per
    distinct (head_j, tail_j) pair: (pair keys head N + tail, (P, R, R))."""
    N, g = system.n_vertices, system.graph
    # the Dirichlet lift at x = 0 (dirichlet_apply)
    lift = system.edge_gain * np.exp(-mu * system.delays)
    blocks = system.scatter * lift[:, None, :]
    if basis is not None:
        blocks = basis.T @ blocks @ basis
    keys, pair_of_edge = np.unique(g.heads * N + g.tails, return_inverse=True)
    sums = np.zeros((keys.size,) + blocks.shape[1:])
    np.add.at(sums, pair_of_edge.ravel(), blocks)  # parallel edges add in edge order
    if not np.isfinite(sums).all():
        raise ValueError(f"H(mu) is not finite at mu={mu}: an edge factor e^(-mu l_j/v_k) overflows")
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
    return base + StateField._padded(system, base._grid, evaluator=lift.evaluator)
