"""Row and column feature reduction of a taxel stream.

A rows x cols taxel matrix collapses to rows + cols channels: the log of
each row sum, then the log of each column sum (on the paper's 5x5 array,
channels 1-5 and 6-10).  Row/column sums preserve the sliding-direction
information while cutting the channel count from rows*cols to rows+cols.
Sums are floored at :data:`EPSILON` before the log so dark frames stay
finite; the event detector's shifted mode takes its shift from the same
floor.

A feature stream is one (frames, rows + cols) float64 array.
:func:`features_array` maps a (frames, rows, cols) taxel array to it in
one vectorised step; :func:`features_stream` does the same for a taxel
stream, read through ``taxel_array``: the simulator's ``TaxelStream`` with
no copy, or a list of per-frame ``TaxelMatrix`` objects (the camera's unit).
"""

import numpy as np

from .errors import ConfigError
from .taxel_grid import taxel_array

EPSILON = 1e-6  # floor of every row and column sum before the log


def features_array(taxels: np.ndarray) -> np.ndarray:
    """Features of a (frames, rows, cols) taxel array, shape (frames, rows + cols).

    Row sums come first, then column sums; each is floored at EPSILON
    before the log.
    """
    v = np.asarray(taxels, dtype=np.float64)
    sums = np.concatenate([v.sum(axis=2), v.sum(axis=1)], axis=1)
    return np.log(np.maximum(sums, EPSILON))


def features_stream(stream) -> np.ndarray:
    """:func:`features_array` over a nonempty taxel stream, in frame order."""
    return features_array(taxel_array(stream))


def stream_to_array(stream) -> np.ndarray:
    """A feature stream as a (frames, channels) float64 array.

    A 2-D float64 array (the output of :func:`features_array`) is returned
    as it is; anything that is not 2-D raises ConfigError.
    """
    arr = np.asarray(stream, dtype=np.float64)
    if arr.ndim != 2:
        raise ConfigError(f"a feature stream must be a (frames, channels) array, got shape {arr.shape}")
    return arr
