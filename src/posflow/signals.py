"""Time signals entering the boundary of a transport network.

A :class:`StepSignal` is a right-continuous piecewise-constant function of
time with values of arbitrary trailing shape; boundary inputs use the shape
(channels, velocity nodes).  Step signals are the working class for probes
and scenario inputs, and their Lp norms are computed exactly.
"""

from __future__ import annotations

import numpy as np


class StepSignal:
    """Right-continuous step function on [0, horizon].

    ``breaks`` has length P+1 starting at 0; piece p holds ``values[p]`` on
    [breaks[p], breaks[p+1]).  The final piece is closed at the horizon.
    """

    def __init__(self, breaks: np.ndarray, values: np.ndarray):
        breaks = np.asarray(breaks, dtype=float)
        values = np.asarray(values, dtype=float)
        if breaks.ndim != 1 or breaks.size < 2:
            raise ValueError("need at least one piece")
        if breaks[0] != 0.0 or np.any(np.diff(breaks) <= 0):
            raise ValueError("breakpoints must start at 0 and increase strictly")
        if values.shape[0] != breaks.size - 1:
            raise ValueError("one value slice per piece required")
        self.breaks = breaks
        self.values = values

    @property
    def horizon(self) -> float:
        return float(self.breaks[-1])

    @property
    def value_shape(self) -> tuple[int, ...]:
        return self.values.shape[1:]

    @classmethod
    def constant(cls, value: np.ndarray, horizon: float) -> "StepSignal":
        value = np.asarray(value, dtype=float)
        return cls(np.array([0.0, horizon]), value[np.newaxis, ...])

    @classmethod
    def zero(cls, shape: tuple[int, ...], horizon: float) -> "StepSignal":
        return cls.constant(np.zeros(shape), horizon)

    def _piece_index(self, t: np.ndarray, side: str) -> np.ndarray:
        search = "right" if side == "right" else "left"
        idx = np.searchsorted(self.breaks, t, side=search) - 1
        return np.minimum(np.maximum(idx, 0), self.values.shape[0] - 1)

    def eval(self, t: float, side: str = "right") -> np.ndarray:
        """Value at time t (right-continuous; side='left' gives left limits)."""
        if t < -1e-12 or t > self.horizon + 1e-12:
            raise ValueError(f"time {t} outside the signal history [0, {self.horizon}]")
        return self.values[int(self._piece_index(np.asarray(t), side))]

    def eval_channel(self, channel: int, node: int, t: np.ndarray, side: str = "right") -> np.ndarray:
        """Vectorized evaluation of one (channel, velocity-node) component."""
        t = np.asarray(t, dtype=float)
        idx = self._piece_index(t, side)
        return self.values[idx, channel, node]

    def lp_norm(self, p: float, unit_weights: np.ndarray | None = None) -> float:
        """Exact Lp([0, horizon]; U) norm; the U-norm of each slice is the
        weighted L1 norm when ``unit_weights`` is given, else |scalar|."""
        if p < 1:
            raise ValueError("p must be >= 1")
        flat = np.abs(self.values.reshape(self.values.shape[0], -1))
        if unit_weights is None:
            if flat.shape[1] != 1:
                raise ValueError("unit_weights required for vector-valued signals")
            per_piece = flat[:, 0]
        else:
            uw = np.asarray(unit_weights, dtype=float).ravel()
            per_piece = flat @ uw
        dt = np.diff(self.breaks)
        return float(np.dot(dt, per_piece**p) ** (1.0 / p))

    def restricted(self, horizon: float) -> "StepSignal":
        """The same signal truncated to [0, horizon]; refuses to extend it."""
        if horizon > self.horizon + 1e-12:
            raise ValueError(f"input history covers [0, {self.horizon}] but t = {horizon}")
        keep = self.breaks < horizon
        breaks = np.append(self.breaks[keep], horizon)
        return StepSignal(breaks, self.values[: breaks.size - 1])

    def scaled(self, c: float) -> "StepSignal":
        return StepSignal(self.breaks, c * self.values)

    def min_value(self) -> float:
        return float(self.values.min())
