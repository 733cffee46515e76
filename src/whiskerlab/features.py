"""Ten-channel feature reduction of a taxel matrix.

The 25 taxel signals collapse to 10: the log of each row sum (channels 1-5)
and the log of each column sum (channels 6-10).  Row/column sums preserve
the sliding-direction information while cutting the channel count from
rows*cols to rows+cols.  Sums are floored at a small epsilon before the log
so dark frames stay finite.

The core, :func:`features_array`, maps a (frames, rows, cols) taxel array
to a (frames, rows + cols) feature array in one vectorised step;
:func:`features_from_taxels` and :func:`features_stream` wrap it for
per-frame ``TaxelMatrix`` / ``FeatureVector`` objects.
"""

import csv
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Sequence, Union

import numpy as np

from .errors import ConfigError, DataFileError
from .taxel_grid import TaxelMatrix

NUM_CHANNELS = 10


@dataclass(frozen=True)
class FeatureConfig:
    """epsilon: positive floor applied to each sum before the logarithm."""

    epsilon: float = 1e-6

    def validate(self) -> None:
        if not self.epsilon > 0:
            raise ConfigError(f"epsilon must be positive, got {self.epsilon}")


@dataclass
class FeatureVector:
    """One frame's 10 feature values; channels 1-5 rows, 6-10 columns."""

    values: np.ndarray
    frame_index: int = 0

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.shape != (NUM_CHANNELS,):
            raise ConfigError(f"feature vector must have {NUM_CHANNELS} values")


def features_array(taxels: np.ndarray, cfg: FeatureConfig = FeatureConfig()) -> np.ndarray:
    """Features of a (frames, rows, cols) taxel array, shape (frames, rows + cols).

    Row sums come first, then column sums; each is floored at epsilon
    before the log.
    """
    cfg.validate()
    v = np.asarray(taxels, dtype=np.float64)
    sums = np.concatenate([v.sum(axis=2), v.sum(axis=1)], axis=1)
    return np.log(np.maximum(sums, cfg.epsilon))


def features_from_taxels(
    taxels: TaxelMatrix, cfg: FeatureConfig = FeatureConfig()
) -> FeatureVector:
    """Compute the 10-channel feature vector from one taxel matrix."""
    return FeatureVector(features_array(taxels.values[None], cfg)[0], taxels.frame_index)


def features_stream(
    frames: Iterable[TaxelMatrix], cfg: FeatureConfig = FeatureConfig()
) -> list[FeatureVector]:
    """:func:`features_array` over a list of taxel matrices, in frame order."""
    frames = list(frames)
    if not frames:
        return []
    values = features_array(np.stack([m.values for m in frames]), cfg)
    return [FeatureVector(v, m.frame_index) for v, m in zip(values, frames)]


# A feature stream: FeatureVector objects, or one (frames, channels) array.
FeatureStream = Union[Sequence[FeatureVector], np.ndarray]


def stream_to_array(stream: FeatureStream) -> np.ndarray:
    """Stack a feature stream into a (frames, 10) array.

    A 2-D float64 array (the output of :func:`features_array`) is returned
    as it is.
    """
    if isinstance(stream, np.ndarray) and stream.ndim == 2 and stream.dtype == np.float64:
        return stream
    if len(stream) == 0:
        return np.empty((0, NUM_CHANNELS), dtype=np.float64)
    return np.stack([fv.values for fv in stream])


def save_feature_csv(path, stream: Sequence[FeatureVector]) -> None:
    """Write a feature stream as CSV with columns frame_index, f1..f10."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["frame_index"] + [f"f{k}" for k in range(1, NUM_CHANNELS + 1)])
        for fv in stream:
            writer.writerow([fv.frame_index] + [repr(v) for v in fv.values.tolist()])


def read_frame_csv(path, header_ok: Callable[[int], bool], what: str) -> list[tuple[int, np.ndarray]]:
    """(frame_index, values) per row of a CSV headed frame_index, then one column per value.

    ``header_ok`` gets the number of value columns.  A missing or rejected
    header, a row of the wrong length or a cell that is not a number raises
    DataFileError.
    """
    with open(Path(path), newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if not header or header[0] != "frame_index" or not header_ok(len(header) - 1):
            raise DataFileError(f"{path}: unexpected {what} CSV header {header!r}")
        rows = []
        for row in reader:
            try:
                if len(row) != len(header):
                    raise ValueError(f"{len(row)} cells under a {len(header)}-column header")
                rows.append((int(row[0]), np.array([float(v) for v in row[1:]])))
            except ValueError as exc:
                raise DataFileError(f"{path}:{reader.line_num}: bad {what} CSV row ({exc})") from exc
    return rows


def load_feature_csv(path) -> list[FeatureVector]:
    """Read a feature stream written by :func:`save_feature_csv`."""
    rows = read_frame_csv(path, lambda n: n == NUM_CHANNELS, "feature")
    return [FeatureVector(values, frame_index) for frame_index, values in rows]
