"""Labeled datasets: assembly from simulated slides, and the dataset file.

Every specimen is slid repeatedly; each slide runs through the feature and
event-capture pipeline and must yield exactly one sample, which is labeled
with the specimen's identity.  Slides that capture zero or several samples
are retried with a derived seed; a specimen whose retry rate gets too high
fails the build with diagnostics.  Per-slide speed and texture phase are
drawn from configured ranges so repeated slides are not carbon copies.

This module owns ``dataset.jsonl``: :func:`save_dataset` is its one writer
and :func:`load_dataset` its one reader.  A record holds one capture, its
values as base64 of little-endian float64 bytes, a :class:`SampleLabel`,
which checks itself against the specimen table when it is built, and the
slide's seed and config digest; each of them is required.
"""

import base64
import hashlib
import json
import math
import warnings
from dataclasses import dataclass, asdict, field, replace
from typing import Optional, Sequence

import numpy as np

from ..artifacts import atomic_open
from ..errors import ConfigError, DataFileError, DatasetBuildError, Validated, check
from ..events import DetectorConfig, TactileSample, capture_samples
from ..features import features_array
from ..seeding import derive_rng, derive_seed
from ..sim import (DIRECTIONS_DEG, SPECIMENS, SlideConfig, WhiskerArraySpec, simulate_taxels,
                   specimen_by_id)

LOG_RANGE = (math.log(5e-324), math.log(np.finfo(np.float64).max))  # logs of positive float64s


@dataclass(frozen=True)
class SampleLabel(Validated):
    """Ground-truth annotation attached to a captured sample: a specimen of
    the table with its own pattern and depth, and the slide's speed and
    direction."""

    specimen_id: int
    pattern: str
    depth_mm: float
    speed_mm_s: float
    direction_deg: int

    BOUNDS = {"speed_mm_s": "(0, inf)"}

    def validate(self) -> None:
        spec = specimen_by_id(self.specimen_id)
        if spec.pattern != self.pattern or spec.depth_mm != self.depth_mm:
            raise ConfigError(f"label ({self.pattern}, {self.depth_mm}) "
                              f"does not match specimen {self.specimen_id}")
        if self.direction_deg not in DIRECTIONS_DEG:
            raise ConfigError(f"direction_deg {self.direction_deg} is not one of {DIRECTIONS_DEG}")


@dataclass(frozen=True)
class CollectionPlan(Validated):
    """How slides are drawn when building a dataset.

    Speeds are sampled uniformly from speed_range and the texture phase is
    jittered by up to offset_jitter_mm, mimicking run-to-run placement
    variation on a physical rig.
    """

    slides_per_specimen: int = 100
    speed_range: tuple[float, float] = (120.0, 180.0)
    direction_deg: int = 0
    offset_jitter_mm: float = 8.0
    max_attempts: int = 10
    min_capture_rate: float = 0.95
    test_fraction: float = 0.1

    BOUNDS = {"slides_per_specimen": "[1, inf)", "speed_range": "(0, inf)",
              "offset_jitter_mm": "[0, inf)", "max_attempts": "[1, inf)",
              "min_capture_rate": "(0, 1]", "test_fraction": "(0, 1)"}

    def validate(self) -> None:
        lo, hi = self.speed_range
        if lo > hi:
            raise ConfigError(f"speed_range must run from low to high, got {self.speed_range}")
        if self.direction_deg not in DIRECTIONS_DEG:
            raise ConfigError(f"direction_deg {self.direction_deg} is not one of {DIRECTIONS_DEG}")


@dataclass
class LabeledDataset:
    """Flattened captures and their specimen labels.

    The specimen id is the one label column; pattern and depth are read
    from it through the specimen table, and the rest stays on the samples.
    """

    features: np.ndarray  # (n, channels * frames) channel-major flattened captures
    specimen_ids: np.ndarray  # (n,) int, 1..10
    samples: Optional[list] = None  # original TactileSamples, kept for serialization

    def __post_init__(self):
        if self.features.ndim != 2:
            raise ConfigError(f"features must be (samples, values), got {self.features.shape}")

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def patterns(self) -> list[str]:
        return [specimen_by_id(sid).pattern for sid in self.specimen_ids.tolist()]

    @property
    def depths(self) -> np.ndarray:
        """(n,) float, mm."""
        return np.array([specimen_by_id(sid).depth_mm for sid in self.specimen_ids.tolist()],
                        dtype=np.float64)

    def subset(self, idx: np.ndarray) -> "LabeledDataset":
        return LabeledDataset(
            features=self.features[idx],
            specimen_ids=self.specimen_ids[idx],
            samples=[self.samples[i] for i in idx] if self.samples is not None else None,
        )

    @classmethod
    def from_samples(cls, samples: Sequence[TactileSample]) -> "LabeledDataset":
        """A dataset of labeled captures of one shape."""
        if not samples:
            raise ConfigError("cannot build a dataset from zero samples")
        if any(s.label is None for s in samples):
            raise ConfigError("all samples must carry labels")
        shapes = sorted({s.values.shape for s in samples})
        if len(shapes) > 1:
            raise ConfigError(f"captures must share one (channels, frames) shape, got {shapes}")
        return cls(
            features=np.stack([s.flattened() for s in samples]),
            specimen_ids=np.array([s.label.specimen_id for s in samples], dtype=np.int64),
            samples=list(samples),
        )


@dataclass
class BuildDiagnostics:
    """Per-specimen capture bookkeeping from a dataset build."""

    attempts: dict = field(default_factory=dict)  # specimen id -> attempts used
    retried_slides: list = field(default_factory=list)  # (specimen, slide, captures)

    def capture_rate(self, specimen: int, slides: int) -> float:
        return slides / self.attempts[specimen]


def plan_digest(plan: CollectionPlan, detector_cfg: DetectorConfig,
                slide: SlideConfig, array: WhiskerArraySpec) -> str:
    doc = {
        "plan": asdict(plan),
        "detector": asdict(detector_cfg),
        "slide": asdict(slide),
        "array": asdict(array),
    }
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


def _collect_one(texture, sid, slide_i, plan, base_slide, array, detector_cfg,
                 digest, root_seed):
    """Simulate one labeled capture, retrying with derived seeds as needed.

    Returns (sample, attempts_used, retries) or raises DatasetBuildError.
    """
    retries = []
    for attempt in range(plan.max_attempts):
        rng = derive_rng(root_seed, "slide-params", sid, slide_i, attempt)
        speed = rng.uniform(*plan.speed_range)
        offset = rng.uniform(0.0, plan.offset_jitter_mm) if plan.offset_jitter_mm else 0.0
        sim_seed = derive_seed(root_seed, "slide-noise", sid, slide_i, attempt)
        slide = replace(base_slide, speed_mm_s=speed, direction_deg=plan.direction_deg,
                        seed=sim_seed, start_offset_mm=offset)
        stream = features_array(simulate_taxels(texture, slide, array))
        captures = capture_samples(stream, detector_cfg)
        if len(captures) == 1:
            sample = captures[0]
            sample.label = SampleLabel(
                specimen_id=sid,
                pattern=texture.pattern,
                depth_mm=texture.depth_mm,
                speed_mm_s=speed,
                direction_deg=plan.direction_deg,
            )
            sample.seed = sim_seed
            sample.config_digest = digest
            return sample, attempt + 1, retries
        retries.append((sid, slide_i, len(captures)))
    raise DatasetBuildError(
        f"specimen {sid} slide {slide_i}: no clean capture in {plan.max_attempts} attempts"
    )


def build_dataset(
    plan: CollectionPlan = CollectionPlan(),
    base_slide: SlideConfig = SlideConfig(speed_mm_s=150.0),
    array: WhiskerArraySpec = WhiskerArraySpec(),
    detector_cfg: DetectorConfig = DetectorConfig(),
    seed: int = 0,
) -> tuple[LabeledDataset, BuildDiagnostics]:
    """Run the full collection protocol over all ten specimens.

    Every (specimen, slide) task derives its own randomness from the root
    seed, so each slide's result does not depend on the others.
    """
    digest = plan_digest(plan, detector_cfg, base_slide, array)
    diagnostics = BuildDiagnostics()
    samples = []
    for sid, texture in enumerate(SPECIMENS, start=1):
        for slide_i in range(plan.slides_per_specimen):
            sample, attempts, retries = _collect_one(
                texture, sid, slide_i, plan, base_slide, array,
                detector_cfg, digest, seed,
            )
            samples.append(sample)
            diagnostics.attempts[sid] = diagnostics.attempts.get(sid, 0) + attempts
            diagnostics.retried_slides.extend(retries)

    for sid in diagnostics.attempts:
        rate = diagnostics.capture_rate(sid, plan.slides_per_specimen)
        if rate < plan.min_capture_rate:
            raise DatasetBuildError(
                f"specimen {sid}: capture rate {rate:.3f} below "
                f"{plan.min_capture_rate} ({diagnostics.attempts[sid]} attempts for "
                f"{plan.slides_per_specimen} slides; retries: {diagnostics.retried_slides})"
            )
    return LabeledDataset.from_samples(samples), diagnostics


def split(
    dataset: LabeledDataset, test_fraction: float = 0.1, seed: int = 0
) -> tuple[LabeledDataset, LabeledDataset]:
    """Stratified train/test split on the specimen label.

    Each class contributes round(test_fraction * class size) test samples;
    the global test count is then topped up to round(test_fraction * n),
    preferring classes that can spare a sample while keeping at least one in
    train.  Classes with fewer than 10 samples trigger a stratification
    warning.
    """
    check("test_fraction", test_fraction, float, "(0, 1)")
    rng = np.random.default_rng(seed)
    labels = dataset.specimen_ids
    classes = np.unique(labels)

    per_class_order = {}
    take = {}
    for c in classes:
        idx = np.nonzero(labels == c)[0]
        if idx.size < 10:
            warnings.warn(
                f"class {c} has only {idx.size} samples; stratified 1-in-10 split "
                f"degenerates", stacklevel=2
            )
        per_class_order[c] = idx[rng.permutation(idx.size)]
        take[c] = min(int(round(test_fraction * idx.size)), max(idx.size - 1, 0))

    target = int(round(test_fraction * dataset.n))
    # Top up to the global target from the class with the most training
    # samples left (lowest id on ties) while any has one left, so a class
    # gives up its last one only when no class can spare one; then trim.
    while sum(take.values()) < target:
        c = min(classes.tolist(), key=lambda k: (take[k] - per_class_order[k].size, k))
        if take[c] == per_class_order[c].size:
            break
        take[c] += 1
    while sum(take.values()) > target:
        by_take = sorted(classes.tolist(), key=lambda c: (-take[c], c))
        if take[by_take[0]] == 0:
            break
        take[by_take[0]] -= 1

    test_idx = np.concatenate([per_class_order[c][: take[c]] for c in classes])
    test_mask = np.zeros(dataset.n, dtype=bool)
    test_mask[test_idx.astype(int)] = True
    train = dataset.subset(np.nonzero(~test_mask)[0])
    test = dataset.subset(np.nonzero(test_mask)[0])
    return train, test


def sample_to_dict(sample: TactileSample) -> dict:
    """JSON-ready form: x is the base64 of the (channels, frames) values as
    C-order little-endian float64 bytes, and shape is [channels, frames]."""
    return {
        "x": base64.b64encode(sample.values.astype("<f8", copy=False).tobytes()).decode("ascii"),
        "shape": list(sample.values.shape),
        "trigger_frame": sample.trigger_frame,
        "trigger_channel": sample.trigger_channel,
        "label": asdict(sample.label),
        "seed": sample.seed,
        "config_digest": sample.config_digest,
    }


def _decode_values(x, shape) -> np.ndarray:
    """The writable float64 (channels, frames) array that x's base64 holds."""
    if not isinstance(x, str):
        raise TypeError(f"x must be a base64 string of little-endian float64 values, got "
                        f"{type(x).__name__}; rebuild the dataset with `whiskerlab dataset`")
    try:
        channels, frames = (check("shape", n, int, "[1, inf)") for n in shape)
    except (TypeError, ValueError) as exc:  # not two items, or one that is no positive int
        raise ValueError(f"shape must be two positive ints [channels, frames], got {shape!r}") from exc
    try:
        raw = base64.b64decode(x, validate=True)
    except ValueError as exc:  # binascii.Error, or a non-ASCII character
        raise ValueError(f"x is not strict base64 ({exc})") from exc
    size = 8 * channels * frames
    if len(raw) != size:
        raise ValueError(f"x holds {len(raw)} bytes but shape {shape} needs {size}")
    return np.frombuffer(raw, dtype="<f8").reshape(shape).astype(np.float64)


def sample_from_dict(obj: dict) -> TactileSample:
    """Rebuild a sample; a missing key, a value that :func:`check` refuses (a
    string or null for a number, a float for an int, a bool for either), a
    label that :class:`SampleLabel` refuses, a shape that is not two positive
    ints, or an ``x`` that is not strict base64 of exactly that many float64
    features raises KeyError, TypeError or ValueError (ConfigError is one)."""
    values = _decode_values(obj["x"], obj.get("shape"))
    if not ((values >= LOG_RANGE[0]) & (values <= LOG_RANGE[1])).all():
        raise ValueError("x values must be logs of positive float64 sums")
    return TactileSample(
        values=values,
        trigger_frame=check("trigger_frame", obj["trigger_frame"], int, "[0, inf)"),
        trigger_channel=check("trigger_channel", obj["trigger_channel"], int, "[1, inf)"),
        label=SampleLabel(**check("label", obj["label"], dict)),
        seed=check("seed", obj["seed"], int),
        config_digest=check("config_digest", obj["config_digest"], str),
    )


def save_dataset(path, samples: Sequence[TactileSample]) -> None:
    """One JSON record per sample per line, streamed into one atomic write; a
    capture without its label, seed or config digest raises ConfigError first."""
    if any(None in (s.label, s.seed, s.config_digest) for s in samples):
        raise ConfigError("every sample must carry its label, seed and config digest")
    with atomic_open(path) as fh:
        for sample in samples:
            fh.write(json.dumps(sample_to_dict(sample), sort_keys=True))
            fh.write("\n")


def load_dataset(path) -> LabeledDataset:
    """Read a dataset JSONL line by line.  A line that is not UTF-8 or not a
    good record (an unlabelled one included) raises DataFileError naming the
    line; an empty or mixed-shape file raises DataFileError naming the file."""
    samples, line_no = [], 0
    try:
        with open(path, "rb") as fh:
            for line_no, line in enumerate(fh, 1):
                if line.strip():
                    samples.append(sample_from_dict(json.loads(line.decode("utf-8"))))
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        raise DataFileError(f"{path}:{line_no}: bad sample record ({exc})") from exc
    try:
        return LabeledDataset.from_samples(samples)
    except ConfigError as exc:
        raise DataFileError(f"{path}: {exc}") from exc
