"""Row and column feature reduction of a taxel stream.

A rows x cols taxel matrix collapses to rows + cols channels: the log of
each row sum, then the log of each column sum (on the paper's 5x5 array,
channels 1-5 and 6-10).  Row/column sums preserve the sliding-direction
information while cutting the channel count from rows*cols to rows+cols.
Sums are floored at a small epsilon before the log so dark frames stay
finite.

A feature stream is one (frames, rows + cols) float64 array.
:func:`features_array` maps a (frames, rows, cols) taxel array to it in
one vectorised step; :func:`features_stream` does the same for a taxel
stream, read through ``taxel_array``: the simulator's ``TaxelStream`` with
no copy, or a list of per-frame ``TaxelMatrix`` objects (the camera's unit).
"""

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .taxel_grid import taxel_array


@dataclass(frozen=True)
class FeatureConfig:
    """epsilon: positive floor applied to each sum before the logarithm."""

    epsilon: float = 1e-6

    def validate(self) -> None:
        if not self.epsilon > 0:
            raise ConfigError(f"epsilon must be positive, got {self.epsilon}")


def features_array(taxels: np.ndarray, cfg: FeatureConfig = FeatureConfig()) -> np.ndarray:
    """Features of a (frames, rows, cols) taxel array, shape (frames, rows + cols).

    Row sums come first, then column sums; each is floored at epsilon
    before the log.
    """
    cfg.validate()
    v = np.asarray(taxels, dtype=np.float64)
    sums = np.concatenate([v.sum(axis=2), v.sum(axis=1)], axis=1)
    return np.log(np.maximum(sums, cfg.epsilon))


def features_stream(stream, cfg: FeatureConfig = FeatureConfig()) -> np.ndarray:
    """:func:`features_array` over a nonempty taxel stream, in frame order."""
    return features_array(taxel_array(stream), cfg)


def stream_to_array(stream) -> np.ndarray:
    """A feature stream as a (frames, channels) float64 array.

    A 2-D float64 array (the output of :func:`features_array`) is returned
    as it is; anything that is not 2-D raises ConfigError.
    """
    arr = np.asarray(stream, dtype=np.float64)
    if arr.ndim != 2:
        raise ConfigError(f"a feature stream must be a (frames, channels) array, got shape {arr.shape}")
    return arr
