"""Slide analysis: event duration, speed regression, direction identification.

Duration counts frames whose total taxel sum clears a validity threshold
(last valid minus first valid).  Sliding speed relates to duration through
an ordinary least-squares fit of duration against log10(speed); base 10 is
deliberate - with the natural log the reference coefficients would predict
negative durations at in-range speeds.  Direction falls out of activation
order under one rule: a channel activates at the first frame where it
reaches half of its min-to-max rise, and those times, rank-correlated
against channel position separately for the row channels (the first half)
and the column channels (the second half), pick the axis and the sign.
"""

import math
from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np

from .errors import ConfigError, DegenerateFitError, DirectionIndeterminateError, Validated
from .events import TactileSample
from .taxel_grid import taxel_array


@dataclass(frozen=True)
class DurationConfig(Validated):
    """valid_threshold: per-frame total taxel sum a frame must exceed."""

    valid_threshold: float = 0.0475

    BOUNDS = {"valid_threshold": "(0, inf)"}


@dataclass(frozen=True)
class RegressionFit:
    """duration = intercept + slope * log10(speed); slope is per decade."""

    intercept: float
    slope: float
    r2: Optional[float]
    n: int

    def predict(self, speed: float) -> float:
        return self.intercept + self.slope * math.log10(speed)


def event_duration(stream, cfg: DurationConfig = DurationConfig()) -> Optional[int]:
    """Frames between the first and last valid frame, or None if none are valid.

    A frame is valid iff its total taxel sum is nonzero and exceeds the
    threshold.  A single valid frame gives duration 0.  The stream is read
    through ``taxel_array``, and all per-frame totals are one row sum.
    """
    taxels = taxel_array(stream)
    totals = taxels.reshape(len(taxels), -1).sum(axis=1)
    valid = np.nonzero((totals > cfg.valid_threshold) & (totals != 0.0))[0]
    if valid.size == 0:
        return None
    return int(valid[-1] - valid[0])


def fit_log_regression(points: Sequence[tuple[float, float]]) -> RegressionFit:
    """Ordinary least squares of duration on log10(speed).

    r2 is 1 - SS_res/SS_tot, reported as None when the durations have zero
    variance (SS_tot = 0).
    """
    if len(points) < 2:
        raise DegenerateFitError(f"need at least 2 points, got {len(points)}")
    speeds = np.array([p[0] for p in points], dtype=np.float64)
    durations = np.array([p[1] for p in points], dtype=np.float64)
    if np.any(speeds <= 0):
        raise DegenerateFitError("speeds must be positive for a log fit")
    x = np.log10(speeds)
    if np.unique(speeds).size < 2:
        raise DegenerateFitError("all points share one speed; slope is undefined")

    x_mean = x.mean()
    y_mean = durations.mean()
    slope = float(((x - x_mean) * (durations - y_mean)).sum() / ((x - x_mean) ** 2).sum())
    intercept = float(y_mean - slope * x_mean)

    residuals = durations - (intercept + slope * x)
    ss_res = float((residuals**2).sum())
    ss_tot = float(((durations - y_mean) ** 2).sum())
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else None
    return RegressionFit(intercept=intercept, slope=slope, r2=r2, n=len(points))


def activation_times(channels: np.ndarray) -> np.ndarray:
    """Activation frame per channel of a (channels, frames) array: the first
    frame at which the channel reaches half of its min-to-max rise."""
    lo = channels.min(axis=1, keepdims=True)
    hi = channels.max(axis=1, keepdims=True)
    return (channels >= lo + 0.5 * (hi - lo)).argmax(axis=1)


def _axis_correlations(times: np.ndarray) -> np.ndarray:
    """Spearman correlation of activation times against channel position,
    for the row channels (first half) and the column channels (second half).

    Average ranks come from pairwise comparisons within each axis (a tie
    group shares the mean of its positions); an axis whose ranks are all
    equal scores 0.
    """
    t = times.reshape(2, -1)
    half = t.shape[1]
    before = t[:, None, :] < t[:, :, None]
    ties = t[:, None, :] == t[:, :, None]
    ranks = before.sum(axis=2) + 0.5 * ties.sum(axis=2) + 0.5
    ranks -= 0.5 * (half + 1)  # every axis's ranks sum to half * (half + 1) / 2
    pos = np.arange(half) - 0.5 * (half - 1)
    spread = np.sqrt((ranks**2).sum(axis=1) * (pos @ pos))
    return np.divide(ranks @ pos, spread, out=np.zeros(2), where=spread > 0)


def identify_direction(source: Union[TactileSample, np.ndarray]) -> int:
    """Classify the slide direction from channel activation order.

    ``source`` is a capture or a transposed feature stream, (channels,
    frames); its first half of channels are rows, the second half columns.
    A channel activates at the first frame where it reaches half of its
    min-to-max rise; that is the one rule.  Returns one of 0/90/180/270
    degrees: columns activating in ascending order mean 0, descending 180;
    rows descending mean 90, ascending 270.  The axis whose activation
    times rank-correlate more strongly with channel position decides; if
    neither axis carries any ordering the result is indeterminate and
    raised as an error.
    """
    channels = source.values if isinstance(source, TactileSample) else np.asarray(source)
    if channels.ndim != 2 or channels.shape[0] < 2 or channels.shape[0] % 2:
        raise ConfigError(f"expected (channels, frames) with an even channel count, got {channels.shape}")
    if channels.shape[1] < 1:
        raise ConfigError("direction identification needs at least one frame")

    row_corr, col_corr = _axis_correlations(activation_times(channels)).tolist()
    if row_corr == 0.0 and col_corr == 0.0:
        raise DirectionIndeterminateError("no activation ordering on either axis")
    if abs(col_corr) >= abs(row_corr):
        return 0 if col_corr > 0 else 180
    return 90 if row_corr < 0 else 270
