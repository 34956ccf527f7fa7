"""Finite directed metric graphs with boundary weights.

Edges are intervals [0, l_j] parameterized against the flow: material enters
at x = l_j (the tail vertex) and exits at x = 0 (the head vertex).  Each edge
carries the redistribution weight of its tail vertex, and vertices may carry
control channels through a nonnegative input matrix.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class IncidenceMatrices:
    """The split incidence matrices and the weighted adjacency built from them."""

    out: np.ndarray        # N x M, 1 where edge j leaves vertex i
    inc: np.ndarray        # N x M, 1 where edge j enters vertex i
    weighted_out: np.ndarray  # N x M, w_ij on the outgoing pattern
    adjacency: np.ndarray  # N x N, (i,l) -> w_lj summed over edges l -> i

    @property
    def signed(self) -> np.ndarray:
        return self.out - self.inc


@dataclass(frozen=True)
class MetricGraph:
    """Directed metric graph with Kirchhoff-style boundary weights.

    Parameters
    ----------
    n_vertices : int
        Number of vertices, labeled 0..N-1.
    tails, heads : arrays of int, length M
        Edge j runs from tails[j] to heads[j]; loops and parallel edges are
        allowed and keep distinct weight entries.
    lengths : array of float, length M
        Edge lengths l_j > 0.
    weights : array of float, length M
        Redistribution weight of edge j at its tail vertex (the only vertex
        where the weight may be nonzero), each in [0, 1].
    control : array (N, n), optional
        Nonnegative input matrix routing n control channels to vertices.
    """

    n_vertices: int
    tails: np.ndarray
    heads: np.ndarray
    lengths: np.ndarray
    weights: np.ndarray
    control: np.ndarray = field(default=None)  # type: ignore[assignment]

    def __post_init__(self):
        tails = np.asarray(self.tails, dtype=int)
        heads = np.asarray(self.heads, dtype=int)
        lengths = np.asarray(self.lengths, dtype=float)
        weights = np.asarray(self.weights, dtype=float)
        n = int(self.n_vertices)
        m = tails.size
        if n < 1:
            raise ValueError("graph needs at least one vertex")
        if not (heads.size == m and lengths.size == m and weights.size == m):
            raise ValueError("edge arrays must share one length")
        if m < n:
            raise ValueError(f"need at least as many edges as vertices (M={m}, N={n})")
        for name, idx in (("tail", tails), ("head", heads)):
            if np.any(idx < 0) or np.any(idx >= n):
                raise ValueError(f"{name} vertex index out of range")
        if np.any(lengths <= 0):
            raise ValueError("edge lengths must be positive")
        if np.any(weights < 0) or np.any(weights > 1):
            raise ValueError("weights must lie in [0, 1]")
        control = self.control
        if control is None:
            control = np.zeros((n, 0))
        control = np.asarray(control, dtype=float)
        if control.ndim != 2 or control.shape[0] != n:
            raise ValueError("control matrix must have one row per vertex")
        if control.shape[1] > n:
            raise ValueError("cannot have more control channels than vertices")
        if np.any(control < 0):
            raise ValueError("control matrix must be entrywise nonnegative")
        object.__setattr__(self, "tails", tails)
        object.__setattr__(self, "heads", heads)
        object.__setattr__(self, "lengths", lengths)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "control", control)

    @property
    def n_edges(self) -> int:
        return self.tails.size

    @property
    def n_controls(self) -> int:
        return self.control.shape[1]


def build_matrices(graph: MetricGraph) -> IncidenceMatrices:
    """Assemble the 0/1 incidence matrices, their weighted variant, and the
    adjacency ``inc @ weighted_out.T`` whose (i, l) entry is the weight of an
    edge running from vertex l to vertex i."""
    n, m = graph.n_vertices, graph.n_edges
    out = np.zeros((n, m))
    inc = np.zeros((n, m))
    out[graph.tails, np.arange(m)] = 1.0
    inc[graph.heads, np.arange(m)] = 1.0
    weighted_out = out * graph.weights[np.newaxis, :]
    adjacency = inc @ weighted_out.T
    return IncidenceMatrices(out=out, inc=inc, weighted_out=weighted_out, adjacency=adjacency)


@dataclass(frozen=True)
class AssumptionReport:
    """Diagnostics for the standing structural assumptions.

    A2: every vertex has at least one outgoing edge.
    A3: the weights at each vertex sum to one (Kirchhoff condition); when it
    holds the adjacency matrix is column stochastic.
    """

    a2_ok: bool
    a2_failures: tuple[int, ...]
    a3_ok: bool
    a3_residuals: np.ndarray
    column_stochastic: bool
    column_sum_deviation: float

    @property
    def all_ok(self) -> bool:
        return self.a2_ok and self.a3_ok

    def as_dict(self) -> dict:
        return {
            "a2_ok": self.a2_ok,
            "a2_failures": list(self.a2_failures),
            "a3_ok": self.a3_ok,
            "a3_residuals": [float(r) for r in self.a3_residuals],
            "column_stochastic": self.column_stochastic,
            "column_sum_deviation": float(self.column_sum_deviation),
        }


def check_assumptions(graph: MetricGraph, tol: float = 1e-12) -> AssumptionReport:
    """Check A2/A3 and report per-vertex diagnostics (never raises)."""
    mats = build_matrices(graph)
    out_degree = mats.out.sum(axis=1)
    a2_failures = tuple(int(i) for i in np.flatnonzero(out_degree == 0))
    row_sums = mats.weighted_out.sum(axis=1)
    residuals = row_sums - 1.0
    a3_ok = bool(np.all(np.abs(residuals) <= tol))
    col_sums = mats.adjacency.sum(axis=0)
    deviation = float(np.max(np.abs(col_sums - 1.0))) if col_sums.size else 0.0
    return AssumptionReport(
        a2_ok=not a2_failures,
        a2_failures=a2_failures,
        a3_ok=a3_ok,
        a3_residuals=residuals,
        column_stochastic=a3_ok and deviation <= max(tol, 1e-12),
        column_sum_deviation=deviation,
    )
