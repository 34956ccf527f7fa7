"""Time signals entering the boundary of a transport network.

A :class:`StepSignal` is a right-continuous piecewise-constant function of
time with values of arbitrary trailing shape; boundary inputs use the shape
(channels, velocity nodes).  Step signals are the working class for probes
and scenario inputs, and their Lp norms are computed exactly.
"""

from __future__ import annotations

import numpy as np


def piece_index(breaks: np.ndarray, t, side: str, last: int) -> np.ndarray:
    """The piece that reads each time t: the last break <= t for
    side='right', the last break < t for side='left', clipped to [0, last].

    This is the one lookup rule of the boundary data.  A step signal with
    ``last`` = P - 1 reads right-continuously, or its left limit at a break.
    A stamp ledger with ``last`` = S - 1 interpolates from the anchor to the
    stamp after it; a left read that hits a stamp exactly anchors at the
    stamp before with a fraction of exactly 1, so it reads the stamp itself,
    and at a jump pair (left value first) the first duplicate, the left
    limit.  Any ``side`` but 'left' or 'right' raises ValueError.
    """
    # np.minimum(np.maximum(.)) is np.clip at a third of its cost on a scalar
    return np.minimum(np.maximum(np.searchsorted(breaks, t, side=side) - 1, 0), last)


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

    def eval(self, t: float, side: str = "right") -> np.ndarray:
        """Value at time t (right-continuous; side='left' gives left limits)."""
        if t < -1e-12 or t > self.horizon + 1e-12:
            raise ValueError(f"time {t} outside the signal history [0, {self.horizon}]")
        return self.values[int(piece_index(self.breaks, t, side, self.values.shape[0] - 1))]

    def eval_channel(self, channel: int, node: int, t: np.ndarray, side: str = "right") -> np.ndarray:
        """Vectorized evaluation of one (channel, velocity-node) component."""
        idx = piece_index(self.breaks, t, side, self.values.shape[0] - 1)
        return self.values[idx, channel, node]

    def lp_norm(self, p: float, unit_weights: np.ndarray) -> float:
        """Exact Lp([0, horizon]; U) norm; the U-norm of each slice is its
        L1 norm weighted by ``unit_weights``."""
        if p < 1:
            raise ValueError("p must be >= 1")
        flat = np.abs(self.values.reshape(self.values.shape[0], -1))
        per_piece = flat @ np.asarray(unit_weights, dtype=float).ravel()
        dt = np.diff(self.breaks)
        return float(np.dot(dt, per_piece**p) ** (1.0 / p))

    def restricted(self, horizon: float) -> "StepSignal":
        """The same signal truncated to [0, horizon]; refuses to extend it."""
        if horizon > self.horizon + 1e-12:
            raise ValueError(f"input history covers [0, {self.horizon}] but t = {horizon}")
        keep = self.breaks < horizon
        breaks = np.append(self.breaks[keep], horizon)
        return StepSignal(breaks, self.values[: breaks.size - 1])

    def min_value(self) -> float:
        return float(self.values.min())
