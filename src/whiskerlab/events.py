"""Event-driven capture of fixed-length tactile samples.

A detector first calibrates per-channel baselines from the pre-contact
portion of a feature stream (the average windowed sum over the first five
windows), then slides a window forward and fires when any channel's window
sum exceeds its baseline times a trigger multiplier.  On a trigger it
captures a fixed-length sample backtracked by a few frames, then suppresses
re-triggering for the length of the sample.

Because features are logs of small sums, baselines are usually negative and
the verbatim trigger comparison turns the multiplier upside down (a multiple
of a negative baseline is *easier* to exceed).  Default "shifted" mode
therefore compares quantities shifted to be nonnegative: both the window sum
and the baseline have ``window_frames * log(epsilon)`` (the analytic minimum
of a window sum) subtracted before the comparison.  "literal" mode keeps the
textbook comparison for fidelity testing; when the configured floor has log
zero (epsilon = 1), the two modes coincide.
"""

import json
import math
from dataclasses import dataclass, asdict
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .errors import CalibrationUnderrunError, ConfigError, DataFileError
from .features import NUM_CHANNELS, FeatureStream, stream_to_array

MODES = ("literal", "shifted")


@dataclass(frozen=True)
class DetectorConfig:
    """Parameters of the event-driven capture loop.

    window_frames: width of the sliding window, in frames.
    backtrack_frames: how far before the trigger the captured sample starts.
    trigger_multiplier: baseline multiple a window sum must exceed to fire.
    sample_frames: fixed length of every captured sample.
    baseline_windows: how many consecutive windows the calibration averages.
    mode: "shifted" (default) or "literal"; see module docstring.
    epsilon: feature floor used to shift sums in shifted mode; must match
        the floor the feature stage used.
    """

    window_frames: int = 5
    backtrack_frames: int = 10
    trigger_multiplier: float = 1.2
    sample_frames: int = 70
    baseline_windows: int = 5
    mode: str = "shifted"
    epsilon: float = 1e-6

    def validate(self) -> None:
        if self.window_frames < 1:
            raise ConfigError(f"window_frames must be >= 1, got {self.window_frames}")
        if not 0 <= self.backtrack_frames < self.sample_frames:
            raise ConfigError(
                f"backtrack_frames must lie in [0, sample_frames), got "
                f"{self.backtrack_frames} with sample_frames {self.sample_frames}"
            )
        if not self.trigger_multiplier > 0:
            raise ConfigError(f"trigger_multiplier must be positive, got {self.trigger_multiplier}")
        if self.sample_frames < 1:
            raise ConfigError(f"sample_frames must be >= 1, got {self.sample_frames}")
        if self.baseline_windows < 1:
            raise ConfigError(f"baseline_windows must be >= 1, got {self.baseline_windows}")
        if self.backtrack_frames > self.calibration_frames:
            raise ConfigError(
                f"backtrack_frames {self.backtrack_frames} exceeds the "
                f"{self.calibration_frames}-frame calibration prefix; captures could "
                f"reach before the start of the stream"
            )
        if self.mode not in MODES:
            raise ConfigError(f"mode must be one of {MODES}, got {self.mode!r}")
        if not self.epsilon > 0:
            raise ConfigError(f"epsilon must be positive, got {self.epsilon}")

    @property
    def calibration_frames(self) -> int:
        return self.baseline_windows * self.window_frames


@dataclass
class Baseline:
    """Per-channel calibration level (average window sum) and where it ended."""

    levels: np.ndarray
    calibration_end: int

    def __post_init__(self):
        self.levels = np.asarray(self.levels, dtype=np.float64)
        if self.levels.shape != (NUM_CHANNELS,):
            raise ConfigError(f"baseline must have {NUM_CHANNELS} levels")
        if not np.all(np.isfinite(self.levels)):
            raise ConfigError("baseline levels must be finite")


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
        if self.values.ndim != 2 or self.values.shape[0] != NUM_CHANNELS:
            raise ConfigError(f"sample must be ({NUM_CHANNELS}, frames), got {self.values.shape}")

    def flattened(self) -> np.ndarray:
        """Channel-major flattening: channel 1's frames, then channel 2's, ..."""
        return self.values.ravel()


class Detector:
    """Single-consumer state machine: one ordered stream per instance."""

    def __init__(self, cfg: DetectorConfig = DetectorConfig()):
        cfg.validate()
        self.cfg = cfg
        self.discarded_partial = 0  # triggers too close to stream end to capture

    def calibrate(self, stream: FeatureStream) -> Baseline:
        """Average window-sum per channel over the calibration prefix.

        Consumes exactly ``baseline_windows * window_frames`` leading frames,
        which must be recorded before contact.
        """
        cfg = self.cfg
        need = cfg.calibration_frames
        if len(stream) < need:
            raise CalibrationUnderrunError(
                f"calibration needs {need} frames, stream has {len(stream)}"
            )
        arr = stream_to_array(stream[:need])
        levels = arr.sum(axis=0) / cfg.baseline_windows
        return Baseline(levels, calibration_end=need)

    def detect(
        self, stream: FeatureStream, baseline: Baseline
    ) -> list[TactileSample]:
        """Scan the stream (including its calibration prefix) for events.

        At each scan position every channel's window sum is tested in
        ascending channel order; the first hit wins.  After a trigger the
        scan skips a full sample length; otherwise it advances by one window.
        Triggers with too few frames left for a full capture are discarded
        and counted in ``discarded_partial``.
        """
        cfg = self.cfg
        if baseline.calibration_end < cfg.backtrack_frames:
            raise ConfigError(
                f"baseline calibrated over {baseline.calibration_end} frames cannot "
                f"cover a backtrack of {cfg.backtrack_frames}; was it produced with "
                f"this configuration?"
            )
        arr = stream_to_array(stream)
        n = arr.shape[0]
        shift = cfg.window_frames * math.log(cfg.epsilon) if cfg.mode == "shifted" else 0.0
        thresholds = cfg.trigger_multiplier * (baseline.levels - shift)

        samples = []
        t = baseline.calibration_end
        while t + cfg.window_frames <= n:
            window = arr[t : t + cfg.window_frames].sum(axis=0) - shift
            hits = np.nonzero(window > thresholds)[0]
            if hits.size:
                channel = int(hits[0]) + 1
                start = t - cfg.backtrack_frames
                end = start + cfg.sample_frames
                if end <= n:
                    samples.append(
                        TactileSample(arr[start:end].T.copy(), trigger_frame=t, trigger_channel=channel)
                    )
                else:
                    self.discarded_partial += 1
                t += cfg.sample_frames
            else:
                t += cfg.window_frames
        return samples


def calibrate(stream: FeatureStream, cfg: DetectorConfig = DetectorConfig()) -> Baseline:
    return Detector(cfg).calibrate(stream)


def detect(
    stream: FeatureStream, baseline: Baseline, cfg: DetectorConfig = DetectorConfig()
) -> list[TactileSample]:
    return Detector(cfg).detect(stream, baseline)


def capture_samples(
    stream: FeatureStream, cfg: DetectorConfig = DetectorConfig()
) -> list[TactileSample]:
    """Calibrate on the stream's prefix, then detect over the whole stream.

    The stream may be a list of FeatureVector or a (frames, channels) array
    such as :func:`~whiskerlab.features.features_array` returns; both give
    the same samples.
    """
    detector = Detector(cfg)
    baseline = detector.calibrate(stream)
    return detector.detect(stream, baseline)


def sample_to_dict(sample: TactileSample) -> dict:
    """JSON-ready form: x holds one array of 10 numbers per captured frame."""
    return {
        "x": [col.tolist() for col in sample.values.T],
        "trigger_frame": sample.trigger_frame,
        "trigger_channel": sample.trigger_channel,
        "label": asdict(sample.label) if sample.label is not None else None,
        "seed": sample.seed,
        "config_digest": sample.config_digest,
    }


def sample_from_dict(obj: dict) -> TactileSample:
    label = SampleLabel(**obj["label"]) if obj.get("label") else None
    return TactileSample(
        values=np.array(obj["x"], dtype=np.float64).T,
        trigger_frame=int(obj["trigger_frame"]),
        trigger_channel=int(obj["trigger_channel"]),
        label=label,
        seed=obj.get("seed"),
        config_digest=obj.get("config_digest"),
    )


def save_samples_jsonl(path, samples: Sequence[TactileSample]) -> None:
    """One JSON object per line per sample."""
    with open(path, "w") as fh:
        for sample in samples:
            fh.write(json.dumps(sample_to_dict(sample), sort_keys=True))
            fh.write("\n")


def load_samples_jsonl(path) -> list[TactileSample]:
    samples = []
    for line_no, line in enumerate(Path(path).read_text().splitlines(), start=1):
        if not line.strip():
            continue
        try:
            samples.append(sample_from_dict(json.loads(line)))
        except (json.JSONDecodeError, KeyError, TypeError) as exc:
            raise DataFileError(f"{path}:{line_no}: bad sample record ({exc})") from exc
    return samples
