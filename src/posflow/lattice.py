"""Ordered-vector-space primitives on quadrature grids.

Positive quadrature rules, the Gauss panel rule that integrates along
characteristics, and spectral radii of (nonnegative) matrices; every
operation here is a pure function of plain arrays.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


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
        return cls(nodes, np.full(n, h), lo, hi)

    @classmethod
    def gauss_legendre(cls, lo: float, hi: float, n: int) -> "Quadrature":
        """Gauss-Legendre rule mapped to [lo, hi]."""
        x, w = np.polynomial.legendre.leggauss(n)
        half = 0.5 * (hi - lo)
        return cls(lo + half * (x + 1.0), half * w, lo, hi)


_GAUSS5 = np.polynomial.legendre.leggauss(5)


def gauss_rule(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """5-point Gauss-Legendre panels [a, b] for arrays of panel ends:
    (points, weights), each a.shape + (5,), with sum(weights * f(points))
    exact for f of degree <= 9 on each panel.  An empty panel has weight 0."""
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    x, w = _GAUSS5
    return mid[..., None] + half[..., None] * x, half[..., None] * w


def gauss_block(kinks: np.ndarray, end) -> tuple[np.ndarray, np.ndarray]:
    """:func:`gauss_rule` on [0, end] cut at the kinks clipped to it, per row
    of a (..., Q) block: (points, weights), each (..., Q + 1, 5).  ``end``
    broadcasts against the rows; repeated cuts give empty panels of weight 0."""
    end = np.broadcast_to(np.asarray(end, dtype=float)[..., None], kinks.shape[:-1] + (1,))
    cuts = np.sort(np.minimum(np.maximum(kinks, 0.0), end), axis=-1)
    cuts = np.concatenate([np.zeros_like(end), cuts, end], axis=-1)
    return gauss_rule(cuts[..., :-1], cuts[..., 1:])


def gauss_panels(knots, hi: float) -> tuple[np.ndarray, np.ndarray]:
    """:func:`gauss_block` on one row [0, hi] without its panels of weight 0:
    (points, weights), each (panels, 5).  Cuts 1 ulp apart keep their panel."""
    pts, wts = gauss_block(np.asarray(knots, dtype=float), hi)
    keep = wts[:, 0] > 0.0
    return pts.compress(keep, axis=0), wts.compress(keep, axis=0)


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
