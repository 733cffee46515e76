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

This module only captures; :mod:`whiskerlab.learn.dataset` labels the
captures and is the one writer and reader of the dataset file.
"""

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import CalibrationUnderrunError, ConfigError, Validated
from .features import EPSILON, stream_to_array
from .taxel_grid import _values_array

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
              "baseline_windows": "[1, inf)", "mode": MODES}

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

    @property
    def calibration_frames(self) -> int:
        return self.baseline_windows * self.window_frames


@dataclass
class TactileSample:
    """A fixed-length capture: values[channel, column] over consecutive frames.

    Columns cover frames [trigger_frame - backtrack, trigger_frame - backtrack
    + sample_frames); values are copied verbatim from the stream, and
    ``np.asarray`` gives them back uncopied.  A dataset build attaches the
    label (a ``learn.dataset.SampleLabel``) and the provenance.
    """

    values: np.ndarray
    trigger_frame: int
    trigger_channel: int  # 1-based channel index that fired
    label: Optional[object] = None
    seed: Optional[int] = None
    config_digest: Optional[str] = None

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.ndim != 2:
            raise ConfigError(f"sample must be (channels, frames), got {self.values.shape}")

    def flattened(self) -> np.ndarray:
        """Channel-major flattening: channel 1's frames, then channel 2's, ..."""
        return self.values.ravel()

    __array__ = _values_array


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
