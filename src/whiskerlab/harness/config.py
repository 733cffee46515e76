"""Experiment configuration: one JSON document covering every stage.

The config nests each stage's dataclass; serialization round-trips
losslessly, and a canonical content hash identifies the experiment.  The
output directory is deliberately not part of the config, so the same
experiment run in two places produces the same digests.
"""

import hashlib
import json
from dataclasses import dataclass, asdict, field, fields, is_dataclass
from pathlib import Path

from ..analysis import DirectionConfig, DurationConfig
from ..errors import ConfigError, DataFileError
from ..events import DetectorConfig
from ..features import FeatureConfig
from ..learn.boosting import BoostParams
from ..learn.dataset import CollectionPlan
from ..learn.forest import ForestParams
from ..learn.linear import LinearParams
from ..sim import SlideConfig, WhiskerArraySpec
from ..taxel_grid import TaxelGridConfig


@dataclass(frozen=True)
class ModelParamsConfig:
    linear_margin: LinearParams = LinearParams()
    bagged_trees: ForestParams = ForestParams()
    boosted_trees: BoostParams = BoostParams()


@dataclass(frozen=True)
class ExperimentConfig:
    grid: TaxelGridConfig = TaxelGridConfig()
    features: FeatureConfig = FeatureConfig()
    detector: DetectorConfig = DetectorConfig()
    array: WhiskerArraySpec = WhiskerArraySpec()
    slide: SlideConfig = SlideConfig(speed_mm_s=150.0)
    duration: DurationConfig = DurationConfig()
    direction: DirectionConfig = DirectionConfig()
    collection: CollectionPlan = CollectionPlan()
    models: ModelParamsConfig = ModelParamsConfig()
    seed: int = 0

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, obj: dict) -> "ExperimentConfig":
        return _from_dict(cls, obj)

    def validate(self) -> None:
        self.grid.validate()
        self.features.validate()
        self.detector.validate()
        self.array.validate()
        self.slide.validate()
        self.duration.validate()
        self.direction.validate()
        self.collection.validate()
        if self.features.epsilon != self.detector.epsilon:
            raise ConfigError(
                f"features.epsilon {self.features.epsilon} and detector.epsilon "
                f"{self.detector.epsilon} must agree: shifted-mode triggering "
                f"subtracts the floor the features were taken with"
            )


# What a JSON value must be to fill a field of each scalar type.
_ACCEPTS = {
    int: lambda v: isinstance(v, int) and not isinstance(v, bool),
    float: lambda v: isinstance(v, (int, float)) and not isinstance(v, bool),
    str: lambda v: isinstance(v, str),
}


def _from_dict(cls, obj):
    """Rebuild nested (frozen) dataclasses from plain dicts/lists.

    Each value must have its field's type: an int field takes an int (not a
    bool), a float field an int or a float, a str field a str and
    ``speed_range`` a list of two numbers; anything else is a ConfigError.
    Keys the dataclass does not have are ignored.
    """
    if not isinstance(obj, dict):
        raise ConfigError(f"{cls.__name__} must be a JSON object, got {obj!r}")
    kwargs = {}
    for f in fields(cls):
        if f.name not in obj:
            continue
        value = obj[f.name]
        if is_dataclass(f.type):
            kwargs[f.name] = _from_dict(f.type, value)
        elif f.name == "speed_range":
            if not (isinstance(value, (list, tuple)) and len(value) == 2
                    and all(map(_ACCEPTS[float], value))):
                raise ConfigError(f"speed_range must be a list of two numbers, got {value!r}")
            kwargs[f.name] = tuple(value)
        elif _ACCEPTS[f.type](value):
            kwargs[f.name] = value
        else:
            raise ConfigError(f"{cls.__name__}.{f.name} must be {f.type.__name__}, got {value!r}")
    return cls(**kwargs)


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def config_digest(cfg: ExperimentConfig) -> str:
    return hashlib.sha256(canonical_json(cfg.to_dict()).encode()).hexdigest()


def save_config(path, cfg: ExperimentConfig) -> None:
    Path(path).write_text(json.dumps(cfg.to_dict(), indent=2, sort_keys=True) + "\n")


def load_config(path) -> ExperimentConfig:
    try:
        obj = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise DataFileError(f"{path}: cannot read config ({exc})") from exc
    try:
        return ExperimentConfig.from_dict(obj)
    except (TypeError, KeyError) as exc:
        raise ConfigError(f"{path}: bad config structure ({exc})") from exc
