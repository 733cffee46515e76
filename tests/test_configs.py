"""Every config dataclass checks its invariants once, when it is built."""

import ast
import dataclasses
from pathlib import Path

import pytest

import whiskerlab
from whiskerlab.analysis import DurationConfig
from whiskerlab.errors import ConfigError, Validated
from whiskerlab.events import DetectorConfig
from whiskerlab.harness.config import ExperimentConfig
from whiskerlab.learn.boosting import BoostParams
from whiskerlab.learn.dataset import CollectionPlan
from whiskerlab.learn.forest import ForestParams
from whiskerlab.learn.linear import LinearParams
from whiskerlab.sim import SlideConfig, TextureSpec, WhiskerArraySpec
from whiskerlab.taxel_grid import TaxelGridConfig

# A valid instance of each config class and one change that makes it invalid.
INVALID_CHANGES = [
    (TaxelGridConfig(), {"roi_side": 81}),
    (TextureSpec("sinc", 2), {"depth_mm": 5}),
    (SlideConfig(speed_mm_s=150.0), {"speed_mm_s": 0.0}),
    (WhiskerArraySpec(), {"substeps": 0}),
    (DetectorConfig(), {"window_frames": 0}),
    (DurationConfig(), {"valid_threshold": 0.0}),
    (CollectionPlan(), {"test_fraction": 1.0}),
    (ForestParams(), {"n_trees": 0}),
    (BoostParams(), {"max_depth": 0}),
    (LinearParams(), {"epochs": 0}),
    (ExperimentConfig(), {"slide": SlideConfig(speed_mm_s=150.0, lead_in_frames=24)}),
]


@pytest.mark.parametrize("valid, change", INVALID_CHANGES,
                         ids=[type(valid).__name__ for valid, _ in INVALID_CHANGES])
def test_an_invalid_config_cannot_be_built(valid, change):
    kwargs = {f.name: getattr(valid, f.name) for f in dataclasses.fields(valid)}
    with pytest.raises(ConfigError):
        type(valid)(**{**kwargs, **change})
    with pytest.raises(ConfigError):
        dataclasses.replace(valid, **change)


def test_every_config_class_is_covered():
    assert set(Validated.__subclasses__()) == {type(valid) for valid, _ in INVALID_CHANGES}


def validate_calls(source: str) -> list[int]:
    """Line numbers of ``.validate()`` calls outside ``Validated.__post_init__``."""
    tree = ast.parse(source)
    allowed = {
        id(node)
        for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef) and cls.name == "Validated"
        for fn in cls.body if isinstance(fn, ast.FunctionDef) and fn.name == "__post_init__"
        for node in ast.walk(fn)
    }
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr == "validate" and id(node) not in allowed]


@pytest.mark.parametrize("source, calls", [
    ("cfg.validate()", True),
    ("self.grid.validate()", True),
    ("def f(cfg):\n    cfg.validate()", True),
    ("class Validated:\n    def __post_init__(self):\n        self.validate()", False),
    ("class Other:\n    def __post_init__(self):\n        self.validate()", True),
    ("class Validated:\n    def check(self):\n        self.validate()", True),
    ("def validate(self): pass", False),
    ("validate(cfg)", False),
])
def test_validate_call_detector(source, calls):
    assert bool(validate_calls(source)) == calls


def test_configs_are_validated_only_when_built():
    package = Path(whiskerlab.__file__).parent
    offenders = {
        str(path.relative_to(package)): lines
        for path in sorted(package.rglob("*.py"))
        if (lines := validate_calls(path.read_text()))
    }
    assert offenders == {}, f"a config checks itself when built; drop these calls: {offenders}"
