"""Taxel extraction from tactile camera frames.

A frame is a 400x400 RGB image of the whisker array; each whisker shows up
as a bright green patch inside a fixed 50x50 pixel region of interest.  The
grid layout is fixed by configuration: the image is divided into rows x cols
cells and the ROI sits centered in each cell.  Extraction reduces a frame to
a rows x cols matrix of normalized green intensities; rendering is the
inverse map used for end-to-end tests.  Both see the frame's ROIs as one
strided (rows, roi_side, cols, roi_side) view of the selected channel, so
each is one array operation per frame.
"""

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .artifacts import write_bytes
from .errors import ConfigError, DataFileError, Validated

CHANNELS = {"red": 0, "green": 1, "blue": 2}


@dataclass(frozen=True)
class TaxelGridConfig(Validated):
    """Geometry of the taxel grid inside a frame.

    The image is split into ``rows x cols`` cells (integer division); each
    taxel's ROI is a ``roi_side`` square centered in its cell.
    """

    rows: int = 5
    cols: int = 5
    roi_side: int = 50
    image_side: int = 400
    channel: str = "green"

    BOUNDS = {"rows": "[1, inf)", "cols": "[1, inf)", "roi_side": "[1, inf)",
              "image_side": "[1, inf)"}

    def validate(self) -> None:
        if self.roi_side > min(self.cell_height, self.cell_width):
            raise ConfigError(
                f"roi_side {self.roi_side} does not fit in a "
                f"{self.cell_height}x{self.cell_width} cell"
            )
        if self.channel not in CHANNELS:
            raise ConfigError(f"unknown channel {self.channel!r}")

    @property
    def cell_height(self) -> int:
        return self.image_side // self.rows

    @property
    def cell_width(self) -> int:
        return self.image_side // self.cols

    def roi_origin(self, i: int, j: int) -> tuple[int, int]:
        """Top-left pixel of the ROI for grid cell (i, j), zero-based."""
        top = i * self.cell_height + (self.cell_height - self.roi_side) // 2
        left = j * self.cell_width + (self.cell_width - self.roi_side) // 2
        return top, left


@dataclass
class TactileFrame:
    """One RGB camera frame, shape (height, width, 3), dtype uint8.

    Integer pixels in [0, 255] of another dtype are converted; any other
    pixels (floats, bools, integers out of range) raise DataFileError
    rather than wrapping or truncating.  uint8 pixels pass unscanned.
    """

    pixels: np.ndarray

    def __post_init__(self):
        pixels = np.asarray(self.pixels)
        if pixels.dtype != np.uint8:
            if pixels.dtype.kind not in "iu":
                raise DataFileError(f"frame pixels must be integers in [0, 255], got dtype {pixels.dtype}")
            if pixels.size and (pixels.min() < 0 or pixels.max() > 255):
                raise DataFileError(
                    f"frame pixels must lie in [0, 255], got [{pixels.min()}, {pixels.max()}]")
            pixels = pixels.astype(np.uint8)
        self.pixels = pixels
        if self.pixels.ndim != 3 or self.pixels.shape[2] != 3:
            raise ConfigError(f"frame must have shape (h, w, 3), got {self.pixels.shape}")

    @property
    def height(self) -> int:
        return self.pixels.shape[0]

    @property
    def width(self) -> int:
        return self.pixels.shape[1]

    def to_rgb24(self) -> bytes:
        """Serialize as a raw RGB24 byte stream (row-major, top-left origin)."""
        return self.pixels.tobytes()


@dataclass
class TaxelMatrix:
    """Normalized taxel intensities for one frame; values in [0, 1]."""

    values: np.ndarray
    frame_index: int = 0

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)

    @property
    def total(self) -> float:
        """Sum over all taxels (the per-frame signal the duration analysis uses)."""
        return float(self.values.sum())


class TaxelStream(Sequence):
    """A slide's taxels as one (frames, rows, cols) float64 array.

    ``values[t]`` is frame ``start + t``.  Indexing gives that frame as a
    ``TaxelMatrix`` view, built only when asked for; a slice with step 1
    gives a ``TaxelStream`` view of the same array.
    """

    __slots__ = ("values", "start")

    def __init__(self, values: np.ndarray, start: int = 0):
        self.values = np.asarray(values, dtype=np.float64)
        if self.values.ndim != 3:
            raise ConfigError(f"a taxel stream must be (frames, rows, cols), got shape {self.values.shape}")
        self.start = start

    def __len__(self) -> int:
        return len(self.values)

    def __getitem__(self, key):
        frames = range(len(self))[key]  # wraps negative indices; raises IndexError past the end
        if isinstance(frames, int):
            return TaxelMatrix(self.values[frames], self.start + frames)
        if frames.step == 1:
            return TaxelStream(self.values[key], self.start + frames.start)
        return [self[t] for t in frames]

    def __iter__(self):
        for t, values in enumerate(self.values, self.start):
            yield TaxelMatrix(values, t)


def taxel_array(stream) -> np.ndarray:
    """A nonempty taxel stream as one (frames, rows, cols) float64 array.

    A ``TaxelStream`` gives its array, uncopied; any other iterable of
    ``TaxelMatrix`` is stacked by one ``np.array`` call.  An empty stream
    raises ConfigError.
    """
    if isinstance(stream, TaxelStream):
        taxels = stream.values
    else:
        taxels = np.array([m.values for m in stream], dtype=np.float64)
    if len(taxels) == 0:
        raise ConfigError("a taxel stream needs at least one frame")
    return taxels


def _roi_view(pixels: np.ndarray, cfg: TaxelGridConfig) -> np.ndarray:
    """The selected channel's ROIs as a (rows, roi_side, cols, roi_side) view.

    Element [i, r, j, c] is pixel (r, c) of the ROI of grid cell (i, j), i.e.
    the pixel at ``cfg.roi_origin(i, j)`` + (r, c).  Splitting the frame's
    row and column axes into (cell, offset) pairs is a view whatever the
    frame's strides, and a centered ROI never leaves its cell, so the view
    stays inside the frame even when ``image_side`` is not a multiple of the
    grid size (the leftover last pixels belong to no cell).
    """
    top, left = cfg.roi_origin(0, 0)
    h, w = cfg.cell_height, cfg.cell_width
    plane = pixels[: cfg.rows * h, : cfg.cols * w, CHANNELS[cfg.channel]]
    cells = plane.reshape(cfg.rows, h, cfg.cols, w)
    return cells[:, top : top + cfg.roi_side, :, left : left + cfg.roi_side]


def extract_taxels(
    frame: TactileFrame, cfg: TaxelGridConfig = TaxelGridConfig(), frame_index: int = 0
) -> TaxelMatrix:
    """Reduce a frame to its taxel matrix.

    Each taxel is the mean of the selected color channel over its ROI,
    normalized by 255.  The mean is computed by exact integer accumulation
    followed by a single division so results are platform-deterministic.
    """
    if frame.width != cfg.image_side or frame.height != cfg.image_side:
        raise ConfigError(
            f"frame is {frame.width}x{frame.height}, config expects "
            f"{cfg.image_side}x{cfg.image_side}"
        )
    # Exact integer sums, then one division; summing each ROI's row band first
    # measured faster than one reduction over both ROI axes.
    sums = _roi_view(frame.pixels, cfg).sum(axis=1, dtype=np.int64).sum(axis=2)
    values = sums / (cfg.roi_side * cfg.roi_side * 255)
    return TaxelMatrix(values, frame_index)


def render_frame(
    taxels: TaxelMatrix, cfg: TaxelGridConfig = TaxelGridConfig()
) -> TactileFrame:
    """Render a synthetic frame: each ROI filled with green = round(255 * value)."""
    vals = taxels.values
    if vals.shape != (cfg.rows, cfg.cols):
        raise ConfigError(f"taxel matrix is {vals.shape}, config expects {(cfg.rows, cfg.cols)}")
    if vals.min() < 0.0 or vals.max() > 1.0:
        raise ConfigError("taxel values must lie in [0, 1]")
    pixels = np.zeros((cfg.image_side, cfg.image_side, 3), dtype=np.uint8)
    levels = np.rint(vals * 255).astype(np.uint8)
    _roi_view(pixels, cfg)[...] = levels[:, None, :, None]
    return TactileFrame(pixels)


def write_ppm(path, frame: TactileFrame) -> None:
    """Write a frame as a binary PPM (P6) file."""
    header = f"P6\n{frame.width} {frame.height}\n255\n".encode("ascii")
    write_bytes(path, header + frame.to_rgb24())
