"""Ordered-vector-space primitives on quadrature grids.

Discretized L1 spaces are represented by their samples against a fixed
quadrature grid together with strictly positive weights.  Cone membership,
lattice decomposition and norms all act componentwise on the samples, so
every operation here is a pure function of plain arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

#: Relative slack used for cone-membership tests.  Characteristic tracing is
#: exact, but interpolation and exponential weights introduce rounding.
CONE_TOL = 1e-12


def cone_floor(values: np.ndarray, tol: float = CONE_TOL) -> float:
    """Absolute tolerance below zero that still counts as 'in the cone'."""
    values = np.asarray(values, dtype=float)
    scale = float(np.max(np.abs(values))) if values.size else 0.0
    return tol * (1.0 + scale)


def is_nonneg(values: np.ndarray, tol: float = CONE_TOL) -> bool:
    """Cone membership test: min sample >= -tol*(1 + max|values|)."""
    values = np.asarray(values, dtype=float)
    if values.size == 0:
        return True
    return float(values.min()) >= -cone_floor(values, tol)


def decompose_pm(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Split samples into positive and negative parts.

    Returns the unique componentwise pair ``(plus, minus)`` with
    ``values = plus - minus``, both parts nonnegative and
    ``min(plus, minus) = 0`` everywhere.
    """
    values = np.asarray(values, dtype=float)
    return np.maximum(values, 0.0), np.maximum(-values, 0.0)


@dataclass(frozen=True)
class Quadrature:
    """Positive quadrature rule on an interval.

    Positivity of the weights is essential: it keeps discretized integral
    operators entrywise nonnegative, so cone structure survives integration.
    """

    nodes: np.ndarray
    weights: np.ndarray
    lo: float
    hi: float
    rule: str = "midpoint"

    def __post_init__(self):
        nodes = np.asarray(self.nodes, dtype=float)
        weights = np.asarray(self.weights, dtype=float)
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "weights", weights)
        if nodes.ndim != 1 or nodes.shape != weights.shape:
            raise ValueError("nodes and weights must be 1-d arrays of equal length")
        if nodes.size == 0:
            raise ValueError("empty quadrature")
        if np.any(np.diff(nodes) <= 0):
            raise ValueError("quadrature nodes must be strictly increasing")
        if np.any(weights <= 0):
            raise ValueError("quadrature weights must be strictly positive")
        length = self.hi - self.lo
        if abs(float(weights.sum()) - length) > 1e-12 * max(1.0, abs(length)):
            raise ValueError("weights do not sum to the interval length")

    @property
    def n(self) -> int:
        return self.nodes.size

    @classmethod
    def midpoint(cls, lo: float, hi: float, n: int) -> "Quadrature":
        """Composite midpoint rule with n cells (the default everywhere)."""
        if not hi > lo:
            raise ValueError("need hi > lo")
        if n < 1:
            raise ValueError("need at least one node")
        h = (hi - lo) / n
        nodes = lo + h * (np.arange(n) + 0.5)
        return cls(nodes, np.full(n, h), lo, hi, rule="midpoint")

    @classmethod
    def gauss_legendre(cls, lo: float, hi: float, n: int) -> "Quadrature":
        """Gauss-Legendre rule mapped to [lo, hi]."""
        x, w = np.polynomial.legendre.leggauss(n)
        half = 0.5 * (hi - lo)
        return cls(lo + half * (x + 1.0), half * w, lo, hi, rule="gauss")

    def integrate(self, samples: np.ndarray) -> float:
        return float(np.dot(self.weights, np.asarray(samples, dtype=float)))


_GAUSS5 = np.polynomial.legendre.leggauss(5)


def gauss_panels(knots, lo: float, hi: float) -> tuple[np.ndarray, np.ndarray]:
    """5-point Gauss-Legendre panels on [lo, hi] cut at the knots, which are
    clipped to [lo, hi]: (points, weights), each (panels, 5), with
    sum(weights * f(points)) exact for f of degree <= 9 on each panel."""
    cuts = np.sort(np.minimum(np.maximum(np.concatenate(([lo, hi], knots)), lo), hi))
    keep = cuts[1:] > cuts[:-1]  # drop the empty panels of repeated cuts
    a, b = cuts[:-1][keep], cuts[1:][keep]
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    x, w = _GAUSS5
    return mid[:, None] + half[:, None] * x[None, :], half[:, None] * w[None, :]


def trapezoid_weights(x: np.ndarray) -> np.ndarray:
    """Weights turning samples on the grid x into the integral of their
    piecewise-linear interpolant (exact for piecewise-linear data)."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 1 or x.size < 2:
        raise ValueError("need a 1-d grid with at least two points")
    w = np.zeros_like(x)
    dx = np.diff(x)
    w[:-1] += 0.5 * dx
    w[1:] += 0.5 * dx
    return w


def state_norm(parts) -> float:
    """Discretized L1 norm of a product-space element.

    ``parts`` iterates over (values, weights) pairs, one per factor; the norm
    is the sum over factors of sum(weights * |values|), which is additive on
    the positive cone by construction.  Summation is exact (fsum), so the
    result is the correctly rounded value of the true weighted sum.
    """
    terms: list[float] = []
    for values, weights in parts:
        values = np.asarray(values, dtype=float)
        weights = np.asarray(weights, dtype=float)
        if values.shape != weights.shape:
            raise ValueError("sample/weight shape mismatch")
        terms.extend((weights.ravel() * np.abs(values).ravel()).tolist())
    return math.fsum(terms)


@dataclass(frozen=True)
class SpectralRadiusResult:
    value: float
    converged: bool
    iterations: int


def dense_spectral_radius(matrix: np.ndarray) -> float:
    """max |eigenvalue| from a dense eigensolver, at any size: O(n^3) time."""
    matrix = np.asarray(matrix, dtype=float)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise ValueError("matrix must be square")
    if matrix.size == 0:
        return 0.0
    return float(np.max(np.abs(np.linalg.eigvals(matrix))))


def spectral_radius(
    matrix: np.ndarray, tol: float = 1e-10, max_iter: int = 5000
) -> SpectralRadiusResult:
    """Spectral radius of a nonnegative matrix by power iteration on the cone.

    Iterates x -> Mx from a strictly positive start and brackets the radius
    with the Collatz-Wielandt ratios min_i (Mx)_i/x_i <= r <= max_i (Mx)_i/x_i;
    convergence is declared when the bracket closes to ``tol``.  Matrices with
    negative entries fall through to the dense eigenvalue path (testing
    aid); non-convergence is reported via the flag, never silently.
    """
    matrix = np.asarray(matrix, dtype=float)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise ValueError("matrix must be square")
    if not np.all(np.isfinite(matrix)):
        raise ValueError("matrix entries must be finite")
    n = matrix.shape[0]
    if n == 0:
        return SpectralRadiusResult(0.0, True, 0)
    if np.any(matrix < 0):
        return SpectralRadiusResult(dense_spectral_radius(matrix), True, 0)

    x = np.full(n, 1.0 / n)
    estimate = 0.0
    for it in range(1, max_iter + 1):
        y = matrix @ x
        total = float(y.sum())
        if total == 0.0:
            # the cone ray died: M is nilpotent on the reachable block
            return SpectralRadiusResult(0.0, True, it)
        support = x > 0
        ratios = y[support] / x[support]
        lo, hi = float(ratios.min()), float(ratios.max())
        estimate = 0.5 * (lo + hi)
        if hi - lo <= tol:
            return SpectralRadiusResult(estimate, True, it)
        x = y / total
    return SpectralRadiusResult(estimate, False, max_iter)
