"""Taxel extraction from tactile camera frames.

A frame is a 400x400 RGB image of the whisker array; each whisker shows up
as a bright green patch inside a fixed 50x50 pixel region of interest.  The
grid layout is fixed by configuration: the image is divided into rows x cols
cells and the ROI sits centered in each cell.  Extraction reduces a frame to
a rows x cols matrix of normalized green intensities; rendering is the
inverse map used for end-to-end tests.  Both see the frame's ROIs as one
strided (rows, roi_side, cols, roi_side, 3) view that keeps all three
channels, so each is one array operation per frame.  Extraction sums each
ROI's contiguous RGB row bands, then the selected channel, in the narrowest
unsigned integers that cannot overflow; integer sums that cannot overflow
are exact in any order, so every taxel is the exact ROI sum over one divisor.

A taxel stream is one (frames, rows, cols) float64 array; every stream
function reads its input through :func:`taxel_array`, one ``np.asarray``.
``TaxelMatrix`` (one extracted frame) and ``TaxelStream`` (a simulated
slide) hand ``np.asarray`` their ``values`` uncopied.
"""

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


def _values_array(self, dtype=None, copy=None) -> np.ndarray:
    """``np.asarray`` support: the wrapped ``values``, uncopied unless asked."""
    return self.values.copy() if copy else self.values


@dataclass
class TaxelMatrix:
    """Normalized taxel intensities for one frame; values in [0, 1]."""

    values: np.ndarray
    frame_index: int = 0

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)

    __array__ = _values_array


class TaxelStream:
    """A slide's taxels as one (frames, rows, cols) float64 array.

    Iteration gives frame ``t`` as a ``TaxelMatrix`` view numbered ``t``,
    built only when asked for; ``np.asarray`` gives the array, uncopied.
    """

    __slots__ = ("values",)

    def __init__(self, values: np.ndarray):
        self.values = taxel_array(values)

    def __len__(self) -> int:
        return len(self.values)

    def __iter__(self):
        for t, values in enumerate(self.values):
            yield TaxelMatrix(values, t)

    __array__ = _values_array


def taxel_array(taxels) -> np.ndarray:
    """A nonempty taxel stream as one (frames, rows, cols) float64 array.

    One ``np.asarray``: a float64 array or a ``TaxelStream`` comes back
    uncopied, a list of ``TaxelMatrix`` is stacked.  Anything that is not
    3-D with at least one frame raises ConfigError.
    """
    arr = np.asarray(taxels, dtype=np.float64)
    if arr.ndim != 3 or len(arr) == 0:
        raise ConfigError(f"a taxel stream must be a nonempty (frames, rows, cols) array, got shape {arr.shape}")
    return arr


def _roi_view(pixels: np.ndarray, cfg: TaxelGridConfig) -> np.ndarray:
    """The frame's ROIs, all three channels, as a (rows, roi_side, cols,
    roi_side, 3) view.

    Element [i, r, j, c, k] is channel k of pixel (r, c) of the ROI of grid
    cell (i, j), i.e. of the pixel at ``cfg.roi_origin(i, j)`` + (r, c).
    Splitting the frame's row and column axes into (cell, offset) pairs is a
    view whatever the frame's strides, and a centered ROI never leaves its
    cell, so the view stays inside the frame even when ``image_side`` is not
    a multiple of the grid size (the leftover last pixels belong to no cell).
    """
    top, left = cfg.roi_origin(0, 0)
    h, w = cfg.cell_height, cfg.cell_width
    cells = pixels[: cfg.rows * h, : cfg.cols * w].reshape(cfg.rows, h, cfg.cols, w, 3)
    return cells[:, top : top + cfg.roi_side, :, left : left + cfg.roi_side]


def extract_taxels(
    frame: TactileFrame, cfg: TaxelGridConfig = TaxelGridConfig(), frame_index: int = 0
) -> TaxelMatrix:
    """Reduce a frame to its taxel matrix.

    Each taxel is the mean of the selected color channel over its ROI,
    normalized by 255: the exact integer ROI sum, divided once by
    ``roi_side**2 * 255``, so results are platform-deterministic.  The sum
    over the ROI's rows runs in ``np.min_scalar_type(roi_side * 255)``
    (uint16 up to ``roi_side`` 257) on all three channels; the sum of the
    selected channel's row sums runs in ``np.min_scalar_type(roi_side**2 *
    255)``.  Neither type can overflow, so each sum equals the one a wider
    accumulator would give, bit for bit.
    """
    if frame.width != cfg.image_side or frame.height != cfg.image_side:
        raise ConfigError(
            f"frame is {frame.width}x{frame.height}, config expects "
            f"{cfg.image_side}x{cfg.image_side}"
        )
    # Each ROI row is roi_side * 3 adjacent bytes in a C-ordered frame, so the
    # first sum adds whole RGB row bands; the channel is taken from the much
    # smaller band sums.  This measured faster than summing one channel's
    # strided pixels, and narrow accumulators faster than int64.
    side = cfg.roi_side
    bands = _roi_view(frame.pixels, cfg).sum(axis=1, dtype=np.min_scalar_type(side * 255))
    sums = bands[..., CHANNELS[cfg.channel]].sum(axis=2, dtype=np.min_scalar_type(side * side * 255))
    values = sums / (side * side * 255)
    return TaxelMatrix(values, frame_index)


def render_frame(taxels, cfg: TaxelGridConfig = TaxelGridConfig()) -> TactileFrame:
    """Render a synthetic frame from a (rows, cols) array-like of values in
    [0, 1]: each ROI's selected channel filled with round(255 * value).  A value
    outside [0, 1], NaN included, raises ConfigError."""
    vals = np.asarray(taxels, dtype=np.float64)
    if vals.shape != (cfg.rows, cfg.cols):
        raise ConfigError(f"taxel matrix is {vals.shape}, config expects {(cfg.rows, cfg.cols)}")
    if not ((vals >= 0.0) & (vals <= 1.0)).all():
        raise ConfigError("taxel values must lie in [0, 1]")
    pixels = np.zeros((cfg.image_side, cfg.image_side, 3), dtype=np.uint8)
    levels = np.rint(vals * 255).astype(np.uint8)
    _roi_view(pixels, cfg)[..., CHANNELS[cfg.channel]] = levels[:, None, :, None]
    return TactileFrame(pixels)


def write_ppm(path, frame: TactileFrame) -> None:
    """Write a frame as a binary PPM (P6) file."""
    header = f"P6\n{frame.width} {frame.height}\n255\n".encode("ascii")
    write_bytes(path, header + frame.to_rgb24())
