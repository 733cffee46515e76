"""Deterministic physics-lite simulator of a whisker array sliding over a texture.

Replaces the robot-arm rig for end-to-end verification.  The model is lumped,
not finite-element:

* The specimen surface is a parametric height profile (flat, rectified-sinc,
  sawtooth, or triangle waves), periodic with period = 2 * depth.
* The array slides along one axis; whiskers enter the textured region one
  rank at a time, so activation order encodes the slide direction.
* A whisker's base strain is proportional to the height differential across
  its footprint (a finite-difference slope probe one whisker-width wide),
  plus a constant engagement term while in contact.
* Light output follows the *positive rate of change* of strain - emission
  under changing stress, not static pressure - integrated over substeps
  within each frame, then convolved with a short exponential afterglow.
* Additive per-taxel uniform noise keeps pre-contact sums strictly positive,
  which exercises the detector's shifted-mode semantics.

The core, :func:`simulate_taxels`, returns one (frames, rows, cols) array;
:func:`simulate_slide` wraps it as per-frame ``TaxelMatrix`` objects for
callers that want them.  Identical seeds give bitwise-identical streams;
distinct slides are embarrassingly parallel since each owns its generator.
"""

import json
import csv
import math
from dataclasses import dataclass, asdict
from pathlib import Path

import numpy as np

from .errors import ConfigError
from .features import read_frame_csv
from .taxel_grid import (
    TactileFrame,
    TaxelGridConfig,
    TaxelMatrix,
    read_ppm,
    render_frame,
    write_ppm,
)

PATTERNS = ("flat", "sinc", "sawtooth", "triangle")
DEPTHS_MM = (0, 2, 3, 4)
DIRECTIONS_DEG = (0, 90, 180, 270)


@dataclass(frozen=True)
class TextureSpec:
    """A specimen surface: waveform pattern and texture depth.

    The period is twice the depth, so depth alone fixes the spatial
    frequency; depth 0 is the flat specimen and vice versa.
    """

    pattern: str
    depth_mm: float

    def validate(self) -> None:
        if self.pattern not in PATTERNS:
            raise ConfigError(f"pattern must be one of {PATTERNS}, got {self.pattern!r}")
        if self.depth_mm not in DEPTHS_MM:
            raise ConfigError(f"depth_mm must be one of {DEPTHS_MM}, got {self.depth_mm}")
        if (self.depth_mm == 0) != (self.pattern == "flat"):
            raise ConfigError(
                f"depth 0 and the flat pattern imply each other, got "
                f"({self.pattern!r}, {self.depth_mm})"
            )

    @property
    def period_mm(self) -> float:
        return 2.0 * self.depth_mm


# The ten specimens, id 1..10: flat, then each wave at depths 2/3/4 mm.
SPECIMENS: tuple[TextureSpec, ...] = (
    TextureSpec("flat", 0),
    TextureSpec("sinc", 2),
    TextureSpec("sinc", 3),
    TextureSpec("sinc", 4),
    TextureSpec("sawtooth", 2),
    TextureSpec("sawtooth", 3),
    TextureSpec("sawtooth", 4),
    TextureSpec("triangle", 2),
    TextureSpec("triangle", 3),
    TextureSpec("triangle", 4),
)


def specimen_id(texture: TextureSpec) -> int:
    """1-based id of a texture in the canonical specimen list."""
    try:
        return SPECIMENS.index(texture) + 1
    except ValueError:
        raise ConfigError(f"{texture} is not one of the canonical specimens") from None


def specimen_by_id(sid: int) -> TextureSpec:
    if not 1 <= sid <= len(SPECIMENS):
        raise ConfigError(f"specimen id must be 1..{len(SPECIMENS)}, got {sid}")
    return SPECIMENS[sid - 1]


@dataclass(frozen=True)
class SlideConfig:
    """One pass of the array over a specimen.

    start_offset_mm shifts the texture phase under the array (placement
    jitter).  Lead-in dark frames must cover the detector's calibration
    prefix; lead-out frames let the afterglow decay and leave room for the
    fixed-length capture to complete.
    """

    speed_mm_s: float
    direction_deg: int = 0
    path_mm: float = 128.0
    fps: float = 30.0
    seed: int = 0
    noise_amp: float = 0.0015
    start_offset_mm: float = 0.0
    lead_in_frames: int = 25
    lead_out_frames: int = 60

    def validate(self) -> None:
        if not self.speed_mm_s > 0:
            raise ConfigError(f"speed must be positive, got {self.speed_mm_s}")
        if self.direction_deg not in DIRECTIONS_DEG:
            raise ConfigError(
                f"direction must be one of {DIRECTIONS_DEG}, got {self.direction_deg}"
            )
        if not self.path_mm > 0:
            raise ConfigError(f"path length must be positive, got {self.path_mm}")
        if not self.fps > 0:
            raise ConfigError(f"fps must be positive, got {self.fps}")
        if self.noise_amp < 0:
            raise ConfigError(f"noise amplitude must be >= 0, got {self.noise_amp}")
        if self.lead_in_frames < 0 or self.lead_out_frames < 0:
            raise ConfigError("lead frame counts must be >= 0")


@dataclass(frozen=True)
class WhiskerArraySpec:
    """Geometry and luminescence response of the 5x5 whisker array.

    gain converts accumulated positive strain-rate into normalized intensity;
    decay_tau_frames is the afterglow time constant; contact_engage_mm is the
    constant indentation while a whisker rides the specimen (its step at
    first contact produces the onset transient).  fatigue models the
    luminescence efficiency loss of stress-cycled phosphor: each whisker's
    output is scaled by exp(-fatigue * its accumulated emission), which makes
    a whisker brightest just after it engages - the property the activation-
    order direction rule relies on.  substeps sets the within-frame
    integration resolution for the strain rate.
    """

    rows: int = 5
    cols: int = 5
    pitch_mm: float = 4.0
    whisker_len_mm: float = 5.0
    whisker_width_mm: float = 1.0
    gain: float = 0.25
    decay_tau_frames: float = 2.0
    contact_engage_mm: float = 1.0
    fatigue: float = 0.05
    substeps: int = 8

    def validate(self) -> None:
        for name in ("pitch_mm", "whisker_len_mm", "whisker_width_mm", "gain",
                     "decay_tau_frames", "contact_engage_mm"):
            if not getattr(self, name) > 0:
                raise ConfigError(f"{name} must be positive, got {getattr(self, name)}")
        if self.fatigue < 0:
            raise ConfigError(f"fatigue must be >= 0, got {self.fatigue}")
        if self.rows < 1 or self.cols < 1:
            raise ConfigError("array must have at least one whisker")
        if self.substeps < 1:
            raise ConfigError(f"substeps must be >= 1, got {self.substeps}")

    @property
    def span_mm(self) -> float:
        """Extent of the array along the slide axis."""
        return (max(self.rows, self.cols) - 1) * self.pitch_mm


def height_profile(texture: TextureSpec, x) -> np.ndarray:
    """Surface height (mm) at position(s) x along the slide axis.

    All non-flat profiles are periodic with period = 2 * depth:
    sinc is depth * |sinc(2u/period)| within each period, sawtooth ramps
    0 -> depth and resets, triangle rises to its apex at half period.
    """
    texture.validate()
    x = np.asarray(x, dtype=np.float64)
    if texture.pattern == "flat":
        return np.zeros_like(x)
    period = texture.period_mm
    u = x - period * np.floor(x / period)  # position within the period
    if texture.pattern == "sinc":
        return texture.depth_mm * np.abs(np.sinc(2.0 * u / period))
    if texture.pattern == "sawtooth":
        return texture.depth_mm * (u / period)
    # triangle
    return texture.depth_mm * (1.0 - np.abs(2.0 * u / period - 1.0))


def active_frame_count(slide: SlideConfig) -> int:
    """Frames the array spends traversing the path."""
    return math.ceil(slide.path_mm / slide.speed_mm_s * slide.fps)


def _axis_offsets(direction_deg: int, array: WhiskerArraySpec) -> np.ndarray:
    """Per-whisker offset (mm) along the slide axis, shape (rows, cols).

    The rank with the largest offset reaches the specimen first, so the
    offsets encode which rows/columns activate first for each direction:
    0 deg sweeps columns in ascending order, 180 deg descending, 90 deg
    sweeps rows in descending order, 270 deg ascending.
    """
    rows = np.arange(array.rows, dtype=np.float64)
    cols = np.arange(array.cols, dtype=np.float64)
    if direction_deg == 0:
        per_col = (array.cols - 1 - cols) * array.pitch_mm
        return np.tile(per_col, (array.rows, 1))
    if direction_deg == 180:
        per_col = cols * array.pitch_mm
        return np.tile(per_col, (array.rows, 1))
    if direction_deg == 90:
        per_row = rows * array.pitch_mm
        return np.tile(per_row[:, None], (1, array.cols))
    if direction_deg == 270:
        per_row = (array.rows - 1 - rows) * array.pitch_mm
        return np.tile(per_row[:, None], (1, array.cols))
    raise ConfigError(f"direction must be one of {DIRECTIONS_DEG}, got {direction_deg}")


def _strain_grid(texture, slide, array, positions: np.ndarray) -> np.ndarray:
    """Base strain for every whisker at the given axis positions.

    positions: (steps, rows, cols) whisker positions along the slide axis.
    The specimen surface occupies [span, path]; outside it strain is zero.
    """
    span = array.span_mm
    # Entry edge exclusive: a whisker exactly on the specimen's leading edge
    # has not engaged yet, so grid-aligned speeds cannot tie entry frames.
    in_contact = (positions > span) & (positions <= slide.path_mm)
    x_local = positions - span + slide.start_offset_mm
    w = array.whisker_width_mm
    if texture.pattern == "flat":
        differential = np.zeros_like(positions)
    else:
        # Height differential across the whisker footprint; the surface is
        # flat (0) before its leading edge, so entry ramps register too.
        lead = np.where(x_local >= 0.0, height_profile(texture, x_local), 0.0)
        trail_x = x_local - w
        trail = np.where(trail_x >= 0.0, height_profile(texture, trail_x), 0.0)
        differential = lead - trail
    strain = (array.contact_engage_mm + differential) / array.whisker_len_mm
    return np.where(in_contact, strain, 0.0)


def simulate_taxels(
    texture: TextureSpec,
    slide: SlideConfig,
    array: WhiskerArraySpec = WhiskerArraySpec(),
) -> np.ndarray:
    """Simulate one slide as a (frames, rows, cols) taxel array, dark leads included.

    The glow and fatigue recurrence steps through the active frames; the
    dark lead-in and the decaying lead-out are filled in whole.  The noise
    is one uniform draw for the whole stream (bitwise the same numbers as
    one draw per frame), and gain, noise and clip apply to all frames at
    once.
    """
    texture.validate()
    slide.validate()
    array.validate()

    n_active = active_frame_count(slide)
    n_total = slide.lead_in_frames + n_active + slide.lead_out_frames
    offsets = _axis_offsets(slide.direction_deg, array)

    # Positions for every substep of every active frame: the array reference
    # advances speed/fps per frame, subdivided for rate integration.
    step_mm = slide.speed_mm_s / slide.fps
    sub = array.substeps
    t_sub = (np.arange(n_active * sub, dtype=np.float64) + 1.0) / sub
    positions = t_sub[:, None, None] * step_mm + offsets[None, :, :]

    strain = _strain_grid(texture, slide, array, positions)
    prev = np.concatenate([np.zeros((1,) + offsets.shape), strain[:-1]], axis=0)
    positive_rate = np.maximum(strain - prev, 0.0)
    # Total positive strain change per frame, per whisker.
    emission = positive_rate.reshape(n_active, sub, *offsets.shape).sum(axis=1)

    decay = math.exp(-1.0 / array.decay_tau_frames)
    glow_stream = np.zeros((n_total,) + offsets.shape)  # lead-in frames stay dark
    glow = np.zeros(offsets.shape)
    worn = np.zeros(offsets.shape)  # accumulated emission, drives fatigue
    for a in range(n_active):
        glow = glow * decay + emission[a] * np.exp(-array.fatigue * worn)
        worn = worn + emission[a]
        glow_stream[slide.lead_in_frames + a] = glow
    # Lead-out: each frame is the previous one times decay, in sequence.
    afterglow = glow_stream[slide.lead_in_frames + n_active - 1:]
    afterglow[1:] = decay
    np.multiply.accumulate(afterglow, axis=0, out=afterglow)
    rng = np.random.default_rng(slide.seed)
    noise = rng.uniform(0.0, slide.noise_amp, size=glow_stream.shape) if slide.noise_amp else 0.0
    return np.clip(array.gain * glow_stream + noise, 0.0, 1.0)


def simulate_slide(
    texture: TextureSpec,
    slide: SlideConfig,
    array: WhiskerArraySpec = WhiskerArraySpec(),
) -> list[TaxelMatrix]:
    """:func:`simulate_taxels` as one TaxelMatrix per frame, indexed from 0."""
    return [TaxelMatrix(values, frame_index=t)
            for t, values in enumerate(simulate_taxels(texture, slide, array))]


def simulate_frames(
    texture: TextureSpec,
    slide: SlideConfig,
    array: WhiskerArraySpec = WhiskerArraySpec(),
    grid_cfg: TaxelGridConfig = TaxelGridConfig(),
) -> list[TactileFrame]:
    """Render each simulated taxel matrix as a synthetic camera frame."""
    return [render_frame(m, grid_cfg) for m in simulate_slide(texture, slide, array)]


def save_taxel_csv(path, stream) -> None:
    """Write a taxel stream as CSV: frame_index, o11..o55 (row-major)."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        rows, cols = stream[0].values.shape if stream else (5, 5)
        header = ["frame_index"] + [f"o{i + 1}{j + 1}" for i in range(rows) for j in range(cols)]
        writer.writerow(header)
        for m in stream:
            writer.writerow([m.frame_index] + [repr(v) for v in m.values.ravel().tolist()])


def load_taxel_csv(path) -> list[TaxelMatrix]:
    """Read a square-grid taxel stream written by :func:`save_taxel_csv`."""
    rows = read_frame_csv(path, lambda n: n > 0 and math.isqrt(n) ** 2 == n, "taxel")
    return [TaxelMatrix(values.reshape(math.isqrt(values.size), -1), frame_index)
            for frame_index, values in rows]


def save_frame_dir(dir_path, frames: list[TactileFrame]) -> list[Path]:
    """Write a stream as numbered PPM files (frame_000000.ppm, ...)."""
    dir_path = Path(dir_path)
    dir_path.mkdir(parents=True, exist_ok=True)
    paths = []
    for i, frame in enumerate(frames):
        p = dir_path / f"frame_{i:06d}.ppm"
        write_ppm(p, frame)
        paths.append(p)
    return paths


def load_frame_dir(dir_path) -> list[TactileFrame]:
    return [read_ppm(p) for p in sorted(Path(dir_path).glob("frame_*.ppm"))]


def save_slide_manifest(path, texture: TextureSpec, slide: SlideConfig,
                        array: WhiskerArraySpec) -> None:
    """Provenance record for one simulated slide: full config plus seed."""
    doc = {
        "texture": asdict(texture),
        "slide": asdict(slide),
        "array": asdict(array),
    }
    Path(path).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def load_slide_manifest(path) -> tuple[TextureSpec, SlideConfig, WhiskerArraySpec]:
    doc = json.loads(Path(path).read_text())
    return (
        TextureSpec(**doc["texture"]),
        SlideConfig(**doc["slide"]),
        WhiskerArraySpec(**doc["array"]),
    )
