"""Event-driven capture of fixed-length tactile samples.

The input is a (frames, channels) feature stream and a capture is a
(channels, sample_frames) slice of it.  :func:`scan` first calibrates
per-channel baselines from the pre-contact portion of the stream (the
average windowed sum over the first five windows), then slides a window
forward and fires when any channel's window sum exceeds its baseline times
a trigger multiplier.  On a trigger it captures the sample backtracked by a
few frames, then suppresses re-triggering for the length of the sample.

Because features are logs of small sums, baselines are usually negative and
the verbatim trigger comparison turns the multiplier upside down (a multiple
of a negative baseline is *easier* to exceed).  Default "shifted" mode
therefore compares quantities shifted to be nonnegative: both the window sum
and the baseline have ``window_frames * log(EPSILON)`` (the analytic minimum
of a window sum over the feature floor :data:`features.EPSILON`) subtracted
before the comparison.  "literal" mode keeps the textbook comparison for
fidelity testing.
"""

import base64
import json
import math
from dataclasses import dataclass, asdict
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .artifacts import atomic_open
from .errors import CalibrationUnderrunError, ConfigError, DataFileError, Validated
from .features import EPSILON, stream_to_array

MODES = ("literal", "shifted")


@dataclass(frozen=True)
class DetectorConfig(Validated):
    """Parameters of the event-driven capture loop.

    window_frames: width of the sliding window, in frames.
    backtrack_frames: how far before the trigger the captured sample starts.
    trigger_multiplier: baseline multiple a window sum must exceed to fire.
    sample_frames: fixed length of every captured sample.
    baseline_windows: how many consecutive windows the calibration averages.
    mode: "shifted" (default) or "literal"; see module docstring.
    """

    window_frames: int = 5
    backtrack_frames: int = 10
    trigger_multiplier: float = 1.2
    sample_frames: int = 70
    baseline_windows: int = 5
    mode: str = "shifted"

    BOUNDS = {"window_frames": "[1, inf)", "backtrack_frames": "[0, inf)",
              "trigger_multiplier": "(0, inf)", "sample_frames": "[1, inf)",
              "baseline_windows": "[1, inf)"}

    def validate(self) -> None:
        if self.backtrack_frames >= self.sample_frames:
            raise ConfigError(f"backtrack_frames {self.backtrack_frames} must be below "
                              f"sample_frames {self.sample_frames}")
        if self.backtrack_frames > self.calibration_frames:
            raise ConfigError(
                f"backtrack_frames {self.backtrack_frames} exceeds the "
                f"{self.calibration_frames}-frame calibration prefix; captures could "
                f"reach before the start of the stream"
            )
        if self.mode not in MODES:
            raise ConfigError(f"mode must be one of {MODES}, got {self.mode!r}")

    @property
    def calibration_frames(self) -> int:
        return self.baseline_windows * self.window_frames


@dataclass(frozen=True)
class SampleLabel:
    """Ground-truth annotation attached to a captured sample."""

    specimen_id: int
    pattern: str
    depth_mm: float
    speed_mm_s: float
    direction_deg: int


@dataclass
class TactileSample:
    """A fixed-length capture: values[channel, column] over consecutive frames.

    Columns cover frames [trigger_frame - backtrack, trigger_frame - backtrack
    + sample_frames); values are copied verbatim from the stream.
    """

    values: np.ndarray
    trigger_frame: int
    trigger_channel: int  # 1-based channel index that fired
    label: Optional[SampleLabel] = None
    seed: Optional[int] = None
    config_digest: Optional[str] = None

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.ndim != 2:
            raise ConfigError(f"sample must be (channels, frames), got {self.values.shape}")

    def flattened(self) -> np.ndarray:
        """Channel-major flattening: channel 1's frames, then channel 2's, ..."""
        return self.values.ravel()


def scan(
    stream: np.ndarray, cfg: DetectorConfig = DetectorConfig()
) -> tuple[list[TactileSample], int]:
    """Calibrate on the stream's prefix, then scan the whole stream for events.

    The baseline of each channel is its average window sum over the first
    ``baseline_windows * window_frames`` frames, which must be recorded
    before contact.  The scan starts where calibration ends; at each scan
    position every channel's window sum is tested in ascending channel
    order and the first hit wins.  After a trigger the scan skips a full
    sample length; otherwise it advances by one window.  Returns the
    captures and how many triggers came too close to the stream's end for a
    full capture and were discarded.
    """
    arr = stream_to_array(stream)
    n = arr.shape[0]
    t = cfg.calibration_frames
    if n < t:
        raise CalibrationUnderrunError(f"calibration needs {t} frames, stream has {n}")
    levels = arr[:t].sum(axis=0) / cfg.baseline_windows
    if not np.all(np.isfinite(levels)):
        raise ConfigError("baseline levels must be finite")
    shift = cfg.window_frames * math.log(EPSILON) if cfg.mode == "shifted" else 0.0
    thresholds = cfg.trigger_multiplier * (levels - shift)

    samples, discarded = [], 0
    while t + cfg.window_frames <= n:
        window = arr[t : t + cfg.window_frames].sum(axis=0) - shift
        hits = np.nonzero(window > thresholds)[0]
        if hits.size:
            start = t - cfg.backtrack_frames
            end = start + cfg.sample_frames
            if end <= n:
                samples.append(
                    TactileSample(arr[start:end].T.copy(), trigger_frame=t,
                                  trigger_channel=int(hits[0]) + 1)
                )
            else:
                discarded += 1
            t += cfg.sample_frames
        else:
            t += cfg.window_frames
    return samples, discarded


def capture_samples(
    stream: np.ndarray, cfg: DetectorConfig = DetectorConfig()
) -> list[TactileSample]:
    """The captures of :func:`scan`."""
    return scan(stream, cfg)[0]


def sample_to_dict(sample: TactileSample) -> dict:
    """JSON-ready form: x is the base64 of the (channels, frames) values as
    C-order little-endian float64 bytes, and shape is [channels, frames]."""
    return {
        "x": base64.b64encode(sample.values.astype("<f8", copy=False).tobytes()).decode("ascii"),
        "shape": list(sample.values.shape),
        "trigger_frame": sample.trigger_frame,
        "trigger_channel": sample.trigger_channel,
        "label": asdict(sample.label) if sample.label is not None else None,
        "seed": sample.seed,
        "config_digest": sample.config_digest,
    }


LOG_RANGE = (math.log(5e-324), math.log(np.finfo(np.float64).max))  # logs of positive float64s
LABEL_TYPES = {"specimen_id": (int,), "pattern": (str,), "depth_mm": (int, float),
               "speed_mm_s": (int, float), "direction_deg": (int,)}


def _typed(name: str, value, types: tuple, nullable: bool = False):
    """value if it is one of types (a bool is not a number here) or a
    permitted None; anything else raises TypeError."""
    if (value is None and nullable) or (isinstance(value, types) and not isinstance(value, bool)):
        return value
    kinds = " or ".join(t.__name__ for t in types) + (" or null" if nullable else "")
    raise TypeError(f"{name} must be {kinds}, got {value!r}")


def _decode_values(x, shape) -> np.ndarray:
    """The writable float64 (channels, frames) array that x's base64 holds."""
    if not isinstance(x, str):
        raise TypeError(f"x must be a base64 string of little-endian float64 values, got "
                        f"{type(x).__name__}; rebuild the dataset with `whiskerlab dataset`")
    if not (isinstance(shape, list) and len(shape) == 2
            and all(type(n) is int and n > 0 for n in shape)):
        raise ValueError(f"shape must be two positive ints [channels, frames], got {shape!r}")
    try:
        raw = base64.b64decode(x, validate=True)
    except ValueError as exc:  # binascii.Error, or a non-ASCII character
        raise ValueError(f"x is not strict base64 ({exc})") from exc
    size = 8 * shape[0] * shape[1]
    if len(raw) != size:
        raise ValueError(f"x holds {len(raw)} bytes but shape {shape} needs {size}")
    return np.frombuffer(raw, dtype="<f8").reshape(shape).astype(np.float64)


def sample_from_dict(obj: dict) -> TactileSample:
    """Rebuild a sample; a missing key, a value of the wrong type (a string
    for a number, a float for an int, a bool for either), a shape that is not
    two positive ints, or an ``x`` that is not strict base64 of exactly that
    many float64 features raises KeyError, TypeError or ValueError."""
    label = SampleLabel(**obj["label"]) if obj.get("label") else None
    if label is not None:
        for name, types in LABEL_TYPES.items():
            _typed(f"label {name}", getattr(label, name), types)
    values = _decode_values(obj["x"], obj.get("shape"))
    if not ((values >= LOG_RANGE[0]) & (values <= LOG_RANGE[1])).all():
        raise ValueError("x values must be logs of positive float64 sums")
    return TactileSample(
        values=values,
        trigger_frame=_typed("trigger_frame", obj["trigger_frame"], (int,)),
        trigger_channel=_typed("trigger_channel", obj["trigger_channel"], (int,)),
        label=label,
        seed=_typed("seed", obj.get("seed"), (int,), nullable=True),
        config_digest=_typed("config_digest", obj.get("config_digest"), (str,), nullable=True),
    )


def save_samples_jsonl(path, samples: Sequence[TactileSample]) -> None:
    """One JSON object per line per sample, streamed into one atomic write."""
    with atomic_open(path) as fh:
        for sample in samples:
            fh.write(json.dumps(sample_to_dict(sample), sort_keys=True))
            fh.write("\n")


def load_samples_jsonl(path) -> list[TactileSample]:
    """Samples of a JSONL file; bad UTF-8 (as line 0) or a bad record raises DataFileError."""
    samples, line_no = [], 0
    try:
        for line_no, line in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
            if line.strip():
                samples.append(sample_from_dict(json.loads(line)))
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        raise DataFileError(f"{path}:{line_no}: bad sample record ({exc})") from exc
    return samples
