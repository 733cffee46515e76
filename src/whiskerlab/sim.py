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

:func:`simulate_taxels` returns a slide as one (frames, rows, cols) array,
and the taxel CSV writer and reader take and give that array.
:func:`simulate_slide` wraps it, uncopied, as a ``TaxelStream`` for callers
that walk a slide frame by frame.  Identical seeds give bitwise-identical
streams; distinct slides are embarrassingly parallel since each owns its
generator.
"""

import csv
import math
from dataclasses import dataclass, asdict
from pathlib import Path

import numpy as np

from .artifacts import read_json, write_csv, write_json
from .errors import ConfigError, DataFileError, Validated
from .taxel_grid import TactileFrame, TaxelStream, taxel_array, write_ppm

PATTERNS = ("flat", "sinc", "sawtooth", "triangle")
DEPTHS_MM = (0, 2, 3, 4)
DIRECTIONS_DEG = (0, 90, 180, 270)


@dataclass(frozen=True)
class TextureSpec(Validated):
    """A specimen surface: waveform pattern and texture depth.

    The period is twice the depth, so depth alone fixes the spatial
    frequency; depth 0 is the flat specimen and vice versa.
    """

    pattern: str
    depth_mm: float

    def validate(self) -> None:
        if self.pattern not in PATTERNS:
            raise ConfigError(f"pattern must be one of {PATTERNS}, got {self.pattern!r}")
        depths = DEPTHS_MM[:1] if self.pattern == "flat" else DEPTHS_MM[1:]  # depth 0 is flat
        if self.depth_mm not in depths:
            raise ConfigError(f"{self.pattern} depth_mm must be in {depths}, got {self.depth_mm}")

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


def specimen_by_id(sid: int) -> TextureSpec:
    if not 1 <= sid <= len(SPECIMENS):
        raise ConfigError(f"specimen id must be 1..{len(SPECIMENS)}, got {sid}")
    return SPECIMENS[sid - 1]


@dataclass(frozen=True)
class SlideConfig(Validated):
    """One pass of the array over a specimen.

    start_offset_mm shifts the texture phase under the array (placement
    jitter).  Lead-in dark frames must cover the detector's calibration
    prefix (``ExperimentConfig`` checks it; a lone SlideConfig may have any
    lead-in); lead-out frames let the afterglow decay and leave room for the
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

    BOUNDS = {"speed_mm_s": "(0, inf)", "path_mm": "(0, inf)", "fps": "(0, inf)",
              "noise_amp": "[0, inf)", "lead_in_frames": "[0, inf)", "lead_out_frames": "[0, inf)"}

    def validate(self) -> None:
        if self.direction_deg not in DIRECTIONS_DEG:
            raise ConfigError(f"direction_deg {self.direction_deg} is not one of {DIRECTIONS_DEG}")


@dataclass(frozen=True)
class WhiskerArraySpec(Validated):
    """Geometry and luminescence response of the whisker array (5x5 in the paper).

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

    BOUNDS = {"rows": "[1, inf)", "cols": "[1, inf)", "pitch_mm": "(0, inf)",
              "whisker_len_mm": "(0, inf)", "whisker_width_mm": "(0, inf)", "gain": "(0, inf)",
              "decay_tau_frames": "(0, inf)", "contact_engage_mm": "(0, inf)",
              "fatigue": "[0, inf)", "substeps": "[1, inf)"}

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

    Wear (accumulated emission) is one cumulative sum and the fatigue-scaled
    drive one exponential over the active frames, so only the glow
    recurrence steps frame by frame; the dark lead-in and the decaying
    lead-out are filled in whole.  The noise is one uniform draw for the
    whole stream (bitwise the same numbers as one draw per frame), and gain,
    noise and clip apply to all frames at once.
    """
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
    # worn[a] is the emission accumulated before active frame a; each sum is
    # the same left-to-right sequence of additions as a running total.
    worn = np.zeros((n_active + 1,) + offsets.shape)
    np.cumsum(emission, axis=0, out=worn[1:])
    drive = emission * np.exp(-array.fatigue * worn[:-1])
    glow_stream = np.zeros((n_total,) + offsets.shape)  # lead-in frames stay dark
    glow = np.zeros(offsets.shape)
    for frame, d in zip(glow_stream[slide.lead_in_frames:], drive):
        np.multiply(glow, decay, out=frame)
        frame += d
        glow = frame
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
) -> TaxelStream:
    """:func:`simulate_taxels` as a TaxelStream, frames indexed from 0."""
    return TaxelStream(simulate_taxels(texture, slide, array))


def _taxel_header(rows: int, cols: int) -> list[str]:
    """frame_index, then one name per taxel in row-major order: o11..o{rows}{cols},
    or o1_1..o{rows}_{cols} when rows or cols exceed 9 (o111 would be ambiguous)."""
    sep = "_" if max(rows, cols) > 9 else ""
    return ["frame_index"] + [f"o{i + 1}{sep}{j + 1}" for i in range(rows) for j in range(cols)]


def save_taxel_csv(path, taxels) -> None:
    """Write a nonempty taxel stream as CSV under :func:`_taxel_header`,
    frames numbered from 0."""
    taxels = taxel_array(taxels)
    frames, rows, cols = taxels.shape
    write_csv(path, _taxel_header(rows, cols),
              ([t] + [repr(v) for v in values]
               for t, values in enumerate(taxels.reshape(frames, -1).tolist())))


def load_taxel_csv(path) -> tuple[np.ndarray, np.ndarray]:
    """Read a square-grid taxel stream written by :func:`save_taxel_csv`
    as its (frames,) frame indices and (frames, side, side) taxel array.

    A file that is not UTF-8 text, a header other than the one
    :func:`save_taxel_csv` writes for its square grid, no frames, a row of
    the wrong length, a frame index that is not an integer, or a cell that
    is not a number in [0, 1] (the range of a normalized intensity; NaN is
    not in it) raises DataFileError.
    """
    with open(Path(path), newline="", encoding="utf-8") as fh:
        try:
            header, *rows = list(csv.reader(fh)) or [None]  # an empty file has no header
        except (ValueError, csv.Error) as exc:
            raise DataFileError(f"{path}: unreadable taxel CSV ({exc})") from exc
    side = math.isqrt(len(header) - 1) if header else 0
    if not header or side < 1 or header != _taxel_header(side, side):
        raise DataFileError(f"{path}: unexpected taxel CSV header {header!r}")
    if not rows:
        raise DataFileError(f"{path}: taxel CSV has no frames")
    indices, taxels = [], np.empty((len(rows), side, side))
    for line, (row, values) in enumerate(zip(rows, taxels), start=2):
        try:  # a row of the wrong length cannot take the (side, side) shape
            values[...] = np.array([float(v) for v in row[1:]]).reshape(side, side)
            if not ((values >= 0.0) & (values <= 1.0)).all():
                raise ValueError("taxel values must lie in [0, 1]")
            indices.append(int(row[0]))
        except ValueError as exc:
            raise DataFileError(f"{path}:{line}: bad taxel CSV row ({exc})") from exc
    return np.array(indices), taxels


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


def save_slide_manifest(path, texture: TextureSpec, slide: SlideConfig,
                        array: WhiskerArraySpec) -> None:
    """Provenance record for one simulated slide: full config plus seed."""
    write_json(path, {
        "texture": asdict(texture),
        "slide": asdict(slide),
        "array": asdict(array),
    })


def load_slide_manifest(path) -> tuple[TextureSpec, SlideConfig, WhiskerArraySpec]:
    """A :func:`save_slide_manifest` record; a missing, unknown or invalid field raises DataFileError."""
    doc = read_json(path)
    try:
        specs = (TextureSpec(**doc["texture"]), SlideConfig(**doc["slide"]),
                 WhiskerArraySpec(**doc["array"]))
    except (KeyError, TypeError, ConfigError) as exc:
        raise DataFileError(f"{path}: bad slide record ({exc!r})") from exc
    return specs
