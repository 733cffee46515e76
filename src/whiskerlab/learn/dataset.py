"""Labeled dataset assembly from simulated slides.

Every specimen is slid repeatedly; each slide runs through the feature and
event-capture pipeline and must yield exactly one sample, which is labeled
with the specimen's identity.  Slides that capture zero or several samples
are retried with a derived seed; a specimen whose retry rate gets too high
fails the build with diagnostics.  Per-slide speed and texture phase are
drawn from configured ranges so repeated slides are not carbon copies.
"""

import hashlib
import json
import warnings
from dataclasses import dataclass, asdict, field, replace
from typing import Optional, Sequence

import numpy as np

from ..errors import ConfigError, DataFileError, DatasetBuildError, Validated
from ..events import (
    DetectorConfig,
    SampleLabel,
    TactileSample,
    capture_samples,
    load_samples_jsonl,
    save_samples_jsonl,
)
from ..features import features_array
from ..seeding import derive_rng, derive_seed
from ..sim import (DIRECTIONS_DEG, SPECIMENS, SlideConfig, WhiskerArraySpec, simulate_taxels,
                   specimen_by_id)


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
    """Flattened captures plus labels and per-sample provenance."""

    features: np.ndarray  # (n, channels * frames) channel-major flattened captures
    specimen_ids: np.ndarray  # (n,) int, 1..10
    patterns: list[str]
    depths: np.ndarray  # (n,) float, mm
    speeds: np.ndarray  # (n,) float, mm/s
    directions: np.ndarray  # (n,) int, degrees
    seeds: np.ndarray  # (n,) per-slide simulation seeds
    samples: Optional[list] = None  # original TactileSamples, kept for serialization

    def __post_init__(self):
        if self.features.ndim != 2:
            raise ConfigError(f"features must be (samples, values), got {self.features.shape}")

    @property
    def n(self) -> int:
        return self.features.shape[0]

    def subset(self, idx: np.ndarray) -> "LabeledDataset":
        return LabeledDataset(
            features=self.features[idx],
            specimen_ids=self.specimen_ids[idx],
            patterns=[self.patterns[i] for i in idx],
            depths=self.depths[idx],
            speeds=self.speeds[idx],
            directions=self.directions[idx],
            seeds=self.seeds[idx],
            samples=[self.samples[i] for i in idx] if self.samples is not None else None,
        )

    def check_label_consistency(self) -> None:
        """Specimen id must determine pattern and depth, per the specimen table."""
        for i in range(self.n):
            spec = specimen_by_id(int(self.specimen_ids[i]))
            if spec.pattern != self.patterns[i] or spec.depth_mm != self.depths[i]:
                raise ConfigError(
                    f"sample {i}: label ({self.patterns[i]}, {self.depths[i]}) does not "
                    f"match specimen {self.specimen_ids[i]}"
                )

    @classmethod
    def from_samples(cls, samples: Sequence[TactileSample]) -> "LabeledDataset":
        if not samples:
            raise ConfigError("cannot build a dataset from zero samples")
        for s in samples:
            if s.label is None:
                raise ConfigError("all samples must carry labels")
        shapes = sorted({s.values.shape for s in samples})
        if len(shapes) > 1:
            raise ConfigError(f"captures must share one (channels, frames) shape, got {shapes}")
        return cls(
            features=np.stack([s.flattened() for s in samples]),
            specimen_ids=np.array([s.label.specimen_id for s in samples], dtype=np.int64),
            patterns=[s.label.pattern for s in samples],
            depths=np.array([s.label.depth_mm for s in samples], dtype=np.float64),
            speeds=np.array([s.label.speed_mm_s for s in samples], dtype=np.float64),
            directions=np.array([s.label.direction_deg for s in samples], dtype=np.int64),
            seeds=np.array([s.seed if s.seed is not None else -1 for s in samples], dtype=np.int64),
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
    if not 0 < test_fraction < 1:
        raise ConfigError(f"test_fraction must be in (0, 1), got {test_fraction}")
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


def save_dataset(path, samples: Sequence[TactileSample]) -> None:
    save_samples_jsonl(path, samples)


def load_dataset(path) -> LabeledDataset:
    """Read a dataset JSONL; an empty, unlabeled or mixed-shape file, or a label
    that is not a specimen of the table, raises DataFileError."""
    try:
        labeled = LabeledDataset.from_samples(load_samples_jsonl(path))
        labeled.check_label_consistency()
    except (ValueError, TypeError, OverflowError) as exc:  # ConfigError is a ValueError
        raise DataFileError(f"{path}: {exc}") from exc
    return labeled
