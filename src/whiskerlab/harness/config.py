"""Experiment configuration: one JSON document covering every stage.

The config nests each stage's dataclass; serialization round-trips
losslessly, and a canonical content hash identifies the experiment.  The
output directory is deliberately not part of the config, so the same
experiment run in two places produces the same digests.
"""

import hashlib
import json
from dataclasses import dataclass, asdict, fields, is_dataclass, replace

from ..analysis import DurationConfig
from ..artifacts import read_json, write_json
from ..errors import ConfigError, Validated
from ..events import DetectorConfig
from ..features import EPSILON
from ..learn.boosting import BoostParams
from ..learn.dataset import CollectionPlan
from ..learn.forest import ForestParams
from ..learn.linear import LinearParams
from ..sim import SlideConfig, WhiskerArraySpec, active_frame_count
from ..taxel_grid import TaxelGridConfig


# Positions one slide may simulate: its active frames times array.substeps,
# plus one per lead-in and lead-out frame.  The simulator holds a few float64
# arrays of one value per position (or frame) and whisker, about 20 MB each
# at this bound on the 5x5 array; a default slide has 256 + 85 positions.
MAX_SLIDE_POSITIONS = 100_000


def check_slide_size(slide: SlideConfig, array: WhiskerArraySpec, speed_source: str) -> None:
    """ConfigError unless ``slide`` simulates at most MAX_SLIDE_POSITIONS
    positions; the message names the slide's speed as ``speed_source``."""
    # The active part in float arithmetic, which overflows to inf where the
    # frame count cannot be an int; the lead frames are exact ints.
    active = slide.path_mm / slide.speed_mm_s * slide.fps * array.substeps
    lead = slide.lead_in_frames + slide.lead_out_frames
    if lead > MAX_SLIDE_POSITIONS or active + lead > MAX_SLIDE_POSITIONS:
        raise ConfigError(f"slide.path_mm / {speed_source} * slide.fps * array.substeps + "
                          f"slide.lead_in_frames + slide.lead_out_frames gives {active:.3g} + "
                          f"{lead} simulated positions per slide, above {MAX_SLIDE_POSITIONS}")


@dataclass(frozen=True)
class ModelParamsConfig(Validated):
    linear_margin: LinearParams = LinearParams()
    bagged_trees: ForestParams = ForestParams()
    boosted_trees: BoostParams = BoostParams()


@dataclass(frozen=True)
class ExperimentConfig(Validated):
    grid: TaxelGridConfig = TaxelGridConfig()
    detector: DetectorConfig = DetectorConfig()
    array: WhiskerArraySpec = WhiskerArraySpec()
    slide: SlideConfig = SlideConfig(speed_mm_s=150.0)
    duration: DurationConfig = DurationConfig()
    collection: CollectionPlan = CollectionPlan()
    models: ModelParamsConfig = ModelParamsConfig()
    seed: int = 0

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, obj: dict) -> "ExperimentConfig":
        return _from_dict(cls, obj)

    def validate(self) -> None:
        """The checks across sections; each section checked itself when built."""
        shape = (self.array.rows, self.array.cols)
        if shape[0] != shape[1]:  # taxel CSV streams and the direction rule assume it
            raise ConfigError(f"the whisker array must be square, got {shape}")
        if (self.grid.rows, self.grid.cols) != shape:
            raise ConfigError(f"grid {(self.grid.rows, self.grid.cols)} must match the array {shape}")
        if self.slide.lead_in_frames < self.detector.calibration_frames:
            raise ConfigError(f"slide.lead_in_frames {self.slide.lead_in_frames} must cover the "
                              f"{self.detector.calibration_frames}-frame detector calibration prefix")
        # The slowest draw simulates the most positions.
        slowest = replace(self.slide, speed_mm_s=self.collection.speed_range[0])
        check_slide_size(slowest, self.array, "collection.speed_range[0]")
        # A capture must fit in the shortest slide the plan draws, at its top speed;
        # otherwise the fast draws are retried away and the speed range narrows.
        fastest = replace(self.slide, speed_mm_s=self.collection.speed_range[1])
        room = (fastest.lead_in_frames + active_frame_count(fastest) + fastest.lead_out_frames
                - self.detector.calibration_frames)
        if self.detector.sample_frames - self.detector.backtrack_frames > room:
            raise ConfigError(f"detector.sample_frames - backtrack_frames must fit in the {room} "
                              f"frames past calibration of the fastest slide (see "
                              f"collection.speed_range, slide.path_mm, fps, lead_out_frames)")


# Key paths of earlier config versions: a document may still carry them, and
# they are read and dropped.  A path that maps to a value may hold only that
# value, the one its stage now fixes (the feature floor); one that maps to None
# may hold anything.  Any other key the config lacks is a ConfigError.
RETIRED_KEYS = {
    ("direction",): None,
    ("duration", "basis"): None,
    ("features",): {"epsilon": EPSILON},
    ("detector", "epsilon"): EPSILON,
}


def _from_dict(cls, obj, path=()):
    """Rebuild nested (frozen) dataclasses from plain dicts/lists.

    Only the structure is read here; each config checks its values when built.
    A key the dataclass does not have is a ConfigError, unless ``RETIRED_KEYS``
    names it, and so is a retired key that holds another value than its own.
    """
    if not isinstance(obj, dict):
        raise ConfigError(f"{cls.__name__} must be a JSON object, got {obj!r}")
    names = {f.name for f in fields(cls)}
    extra = [k for k in obj if k not in names]
    unknown = [k for k in extra if path + (k,) not in RETIRED_KEYS]
    if unknown:
        where = ".".join(path) or "the config"
        raise ConfigError(f"unknown key(s) in {where}: {', '.join(map(repr, unknown))}")
    for k in extra:
        fixed = RETIRED_KEYS[path + (k,)]
        if fixed is not None and obj[k] != fixed:
            raise ConfigError(f"retired key {'.'.join(path + (k,))} must be {fixed!r} "
                              f"if present, got {obj[k]!r}")
    kwargs = {}
    for f in fields(cls):
        if f.name not in obj:
            continue
        value = obj[f.name]
        if is_dataclass(f.type):
            value = _from_dict(f.type, value, path + (f.name,))
        elif isinstance(value, list):  # JSON has no tuples
            value = tuple(value)
        kwargs[f.name] = value
    try:  # a TypeError: a field without a default (slide.speed_mm_s) is missing
        return cls(**kwargs)
    except (TypeError, ConfigError) as exc:
        raise ConfigError(f"{'.'.join(path) or 'config'}: {exc}") from exc


def config_digest(cfg: ExperimentConfig) -> str:
    canonical = json.dumps(cfg.to_dict(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def save_config(path, cfg: ExperimentConfig) -> None:
    write_json(path, cfg.to_dict())


def load_config(path) -> ExperimentConfig:
    """A file that is not a JSON object raises DataFileError, a bad field ConfigError."""
    return ExperimentConfig.from_dict(read_json(path))
