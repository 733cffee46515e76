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

import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError

CHANNELS = {"red": 0, "green": 1, "blue": 2}


@dataclass(frozen=True)
class TaxelGridConfig:
    """Geometry of the taxel grid inside a frame.

    The image is split into ``rows x cols`` cells (integer division); each
    taxel's ROI is a ``roi_side`` square centered in its cell.
    """

    rows: int = 5
    cols: int = 5
    roi_side: int = 50
    image_side: int = 400
    channel: str = "green"

    def validate(self) -> None:
        if self.rows < 1 or self.cols < 1:
            raise ConfigError(f"grid must be at least 1x1, got {self.rows}x{self.cols}")
        if self.roi_side < 1:
            raise ConfigError(f"roi_side must be positive, got {self.roi_side}")
        if self.image_side < 1:
            raise ConfigError(f"image_side must be positive, got {self.image_side}")
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
    """One RGB camera frame, shape (height, width, 3), dtype uint8."""

    pixels: np.ndarray

    def __post_init__(self):
        self.pixels = np.asarray(self.pixels, dtype=np.uint8)
        if self.pixels.ndim != 3 or self.pixels.shape[2] != 3:
            raise ConfigError(f"frame must have shape (h, w, 3), got {self.pixels.shape}")

    @property
    def height(self) -> int:
        return self.pixels.shape[0]

    @property
    def width(self) -> int:
        return self.pixels.shape[1]

    @classmethod
    def from_rgb24(cls, data: bytes, width: int, height: int) -> "TactileFrame":
        """Build a frame from a raw RGB24 byte stream (row-major, top-left origin)."""
        if len(data) != width * height * 3:
            raise ConfigError(
                f"raw stream has {len(data)} bytes, expected {width * height * 3}"
            )
        pixels = np.frombuffer(data, dtype=np.uint8).reshape(height, width, 3)
        return cls(pixels.copy())

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
    cfg.validate()
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
    cfg.validate()
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
    Path(path).write_bytes(header + frame.to_rgb24())


def read_ppm(path) -> TactileFrame:
    """Read a binary PPM (P6) file written by :func:`write_ppm`."""
    data = Path(path).read_bytes()
    m = re.match(rb"P6\s+(\d+)\s+(\d+)\s+255\s", data)
    if not m:
        raise ConfigError(f"{path}: not a supported P6 PPM file")
    width, height = int(m.group(1)), int(m.group(2))
    return TactileFrame.from_rgb24(data[m.end() : m.end() + width * height * 3], width, height)
