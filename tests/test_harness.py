import json
from pathlib import Path

import pytest

from whiskerlab.errors import ConfigError, DataFileError
from whiskerlab.harness.config import (
    ExperimentConfig,
    ModelParamsConfig,
    config_digest,
    load_config,
    save_config,
)
from whiskerlab.harness.manifest import RunManifest, file_digest
from whiskerlab.harness.svg import xy_chart_svg
from whiskerlab.events import DetectorConfig
from whiskerlab.features import FeatureConfig
from whiskerlab.learn.dataset import CollectionPlan
from whiskerlab.learn.forest import ForestParams
from whiskerlab.learn.linear import LinearParams
from whiskerlab.sim import SlideConfig, WhiskerArraySpec
from whiskerlab.taxel_grid import TaxelGridConfig


def test_config_round_trips_losslessly():
    cfg = ExperimentConfig(
        slide=SlideConfig(speed_mm_s=123.456, seed=99),
        collection=CollectionPlan(slides_per_specimen=7, speed_range=(110.0, 190.0)),
        seed=42,
    )
    again = ExperimentConfig.from_dict(json.loads(json.dumps(cfg.to_dict())))
    assert again == cfg
    assert config_digest(again) == config_digest(cfg)


def test_config_digest_tracks_content():
    base = ExperimentConfig()
    assert config_digest(base) == config_digest(ExperimentConfig())
    changed = ExperimentConfig(seed=1)
    assert config_digest(changed) != config_digest(base)


def test_config_file_round_trip(tmp_path):
    cfg = ExperimentConfig(seed=5)
    path = tmp_path / "config.json"
    save_config(path, cfg)
    assert load_config(path) == cfg


def test_load_config_rejects_bad_files(tmp_path):
    path = tmp_path / "config.json"
    path.write_text("{nope")
    with pytest.raises(DataFileError):
        load_config(path)
    path.write_text('{"detector": {"window_frames": "not-a-number-field-name": 1}}')
    with pytest.raises(DataFileError):
        load_config(path)


@pytest.mark.parametrize("doc", [
    {"seed": "abc"},
    {"seed": True},
    {"seed": 1.5},
    {"detector": {"window_frames": "5"}},
    {"detector": {"trigger_multiplier": "1.2"}},
    {"detector": {"mode": 1}},
    {"collection": {"speed_range": [120.0]}},
    {"collection": {"speed_range": ["a", 180.0]}},
    {"collection": {"speed_range": 150.0}},
    {"features": 1e-6},
    [],
])
def test_config_values_must_have_their_field_types(doc):
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict(doc)


def test_valid_configs_keep_their_digest(tmp_path):
    assert config_digest(ExperimentConfig()) == (
        "c922f87c6d7fc777e2d1b5ac02b265687bb2548931a6ed5716e6308bb56a74b7")
    doc = ExperimentConfig().to_dict()
    doc["detector"]["trigger_multiplier"] = 2  # an int is a valid float
    doc["collection"]["speed_range"] = [100, 200.5]
    cfg = ExperimentConfig.from_dict(json.loads(json.dumps(doc)))
    assert cfg.collection.speed_range == (100, 200.5)
    assert config_digest(cfg) == config_digest(ExperimentConfig.from_dict(cfg.to_dict()))


def test_feature_and_detector_epsilon_must_agree():
    ExperimentConfig(features=FeatureConfig(epsilon=1e-3),
                     detector=DetectorConfig(epsilon=1e-3)).validate()
    with pytest.raises(ConfigError, match="epsilon"):
        ExperimentConfig(features=FeatureConfig(epsilon=1e-3)).validate()


def test_config_validation_checks_shapes_and_model_params():
    four = dict(grid=TaxelGridConfig(rows=4, cols=4), array=WhiskerArraySpec(rows=4, cols=4))
    ExperimentConfig(**four).validate()
    for bad, match in (
        (dict(grid=TaxelGridConfig(rows=4, cols=6), array=WhiskerArraySpec(rows=4, cols=6)), "square"),
        (dict(array=WhiskerArraySpec(rows=4, cols=4)), "grid"),
        (dict(grid=TaxelGridConfig(rows=4, cols=4)), "grid"),
        (dict(models=ModelParamsConfig(bagged_trees=ForestParams(n_trees=0))), "n_trees"),
        (dict(models=ModelParamsConfig(linear_margin=LinearParams(reg=-1.0))), "reg"),
    ):
        with pytest.raises(ConfigError, match=match):
            ExperimentConfig(**bad).validate()


def test_config_validation_propagates():
    cfg = ExperimentConfig(slide=SlideConfig(speed_mm_s=-1.0))
    with pytest.raises(ConfigError):
        cfg.validate()


def test_manifest_records_and_verifies(tmp_path):
    out = tmp_path / "run"
    out.mkdir()
    artifact = out / "data.csv"
    artifact.write_text("a,b\n1,2\n")
    manifest = RunManifest.load_or_create(out, "cfg123")
    manifest.record_stage("stage-a", {}, [artifact], elapsed_s=0.5)

    again = RunManifest.load_or_create(out, "cfg123")
    assert again.stages["stage-a"]["outputs"]["data.csv"] == file_digest(artifact)
    again.verify_input(artifact)  # clean file passes

    artifact.write_text("tampered")
    with pytest.raises(DataFileError):
        again.verify_input(artifact)
    with pytest.raises(DataFileError):
        again.verify_input(out / "missing.csv")


def test_manifest_digest_ignores_timing(tmp_path):
    out = tmp_path / "run"
    out.mkdir()
    artifact = out / "x.txt"
    artifact.write_text("payload")
    m1 = RunManifest.load_or_create(out, "cfg")
    m1.record_stage("s", {}, [artifact], elapsed_s=0.111)
    d1 = m1.digest()
    m2 = RunManifest.load_or_create(out, "cfg")
    m2.record_stage("s", {}, [artifact], elapsed_s=9.999)
    assert m2.digest() == d1


def test_manifest_resets_on_config_change(tmp_path):
    out = tmp_path / "run"
    out.mkdir()
    artifact = out / "x.txt"
    artifact.write_text("payload")
    m1 = RunManifest.load_or_create(out, "cfg-a")
    m1.record_stage("s", {}, [artifact], elapsed_s=0.1)
    m2 = RunManifest.load_or_create(out, "cfg-b")
    assert m2.stages == {}


def test_failed_manifest_write_keeps_the_previous_manifest(tmp_path, monkeypatch):
    out = tmp_path / "run"
    out.mkdir()
    artifact = out / "a.txt"
    artifact.write_text("payload")
    manifest = RunManifest.load_or_create(out, "cfg123")
    manifest.record_stage("stage-a", {}, [artifact], elapsed_s=0.5)
    before = (out / "manifest.json").read_bytes()

    def write_half_then_fail(self, text, *args, **kwargs):
        with open(self, "w") as fh:
            fh.write(text[: len(text) // 2])
        raise OSError("disk full")

    monkeypatch.setattr(Path, "write_text", write_half_then_fail)
    with pytest.raises(OSError, match="disk full"):
        manifest.record_stage("stage-b", {}, [artifact], elapsed_s=0.1)
    monkeypatch.undo()
    assert (out / "manifest.json").read_bytes() == before
    assert sorted(p.name for p in out.iterdir()) == ["a.txt", "manifest.json"]
    again = RunManifest.load_or_create(out, "cfg123")
    assert list(again.stages) == ["stage-a"]


def test_svg_chart_is_deterministic_and_wellformed():
    series = [
        {"x": [1.0, 2.0, 3.0], "y": [3.0, 1.0, 2.0], "mode": "points", "label": "pts"},
        {"x": [1.0, 3.0], "y": [2.5, 1.5], "mode": "line", "label": "fit"},
    ]
    a = xy_chart_svg(series, title="t", xlabel="x", ylabel="y")
    b = xy_chart_svg(series, title="t", xlabel="x", ylabel="y")
    assert a == b
    assert a.startswith("<svg") and a.rstrip().endswith("</svg>")
    assert "circle" in a and "polyline" in a


def test_svg_handles_degenerate_ranges():
    flat = xy_chart_svg([{"x": [2.0, 2.0], "y": [5.0, 5.0], "mode": "points"}])
    assert "<svg" in flat
    empty = xy_chart_svg([{"x": [], "y": [], "mode": "line"}])
    assert "<svg" in empty
