import json

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
    {"features": {"epsilon": 1e-3}},  # a retired key holds only the value now fixed
    {"features": {"epsilon": 1e-6, "scale": 1.0}},
    {"detector": {"epsilon": 1e-3}},
    {"detector": {"epsilon": "1e-06"}},
    {"slide": {"seed": 1}},
    [],
])
def test_config_values_must_have_their_field_types(doc):
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict(doc)


def test_valid_configs_keep_their_digest(tmp_path):
    assert config_digest(ExperimentConfig()) == (
        "3a18367c45d8bd70d799db80e50b2c1b7a12ae136e769fe7c9fd0c51f681b235")
    doc = ExperimentConfig().to_dict()
    doc["detector"]["trigger_multiplier"] = 2  # an int is a valid float
    doc["collection"]["speed_range"] = [100, 200.5]
    cfg = ExperimentConfig.from_dict(json.loads(json.dumps(doc)))
    assert cfg.collection.speed_range == (100, 200.5)
    assert config_digest(cfg) == config_digest(ExperimentConfig.from_dict(cfg.to_dict()))


# The default document of the config version that still had a `direction`
# section (method, crossing_frac) and the feature floor as two knobs
# (`features.epsilon`, `detector.epsilon`), as `init-config` wrote it.
DIRECTION_ERA_DEFAULT = json.loads(
    '{"grid": {"rows": 5, "cols": 5, "roi_side": 50, "image_side": 400, "channel": "green"}, '
    '"features": {"epsilon": 1e-06}, "detector": {"window_frames": 5, "backtrack_frames": 10, '
    '"trigger_multiplier": 1.2, "sample_frames": 70, "baseline_windows": 5, "mode": "shifted", '
    '"epsilon": 1e-06}, "array": {"rows": 5, "cols": 5, "pitch_mm": 4.0, "whisker_len_mm": 5.0, '
    '"whisker_width_mm": 1.0, "gain": 0.25, "decay_tau_frames": 2.0, "contact_engage_mm": 1.0, '
    '"fatigue": 0.05, "substeps": 8}, "slide": {"speed_mm_s": 150.0, "direction_deg": 0, '
    '"path_mm": 128.0, "fps": 30.0, "seed": 0, "noise_amp": 0.0015, "start_offset_mm": 0.0, '
    '"lead_in_frames": 25, "lead_out_frames": 60}, "duration": {"valid_threshold": 0.0475}, '
    '"direction": {"method": "argmax", "crossing_frac": 0.5}, "collection": '
    '{"slides_per_specimen": 100, "speed_range": [120.0, 180.0], "direction_deg": 0, '
    '"offset_jitter_mm": 8.0, "max_attempts": 10, "min_capture_rate": 0.95, "test_fraction": 0.1}, '
    '"models": {"linear_margin": {"reg": 1.0, "epochs": 400, "learning_rate": 0.05}, '
    '"bagged_trees": {"n_trees": 100, "max_bins": 256}, "boosted_trees": {"rounds": 100, '
    '"max_depth": 3, "learning_rate": 0.1, "max_bins": 128}}, "seed": 0}')


def test_retired_keys_load_and_are_dropped(tmp_path):
    cfg = ExperimentConfig.from_dict(DIRECTION_ERA_DEFAULT)
    assert cfg == ExperimentConfig()
    assert config_digest(cfg) == config_digest(ExperimentConfig())
    doc = ExperimentConfig().to_dict()
    doc["duration"]["basis"] = "frames"
    doc["direction"] = {"method": "first_crossing"}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    assert load_config(path) == ExperimentConfig()


@pytest.mark.parametrize("doc", [
    {"sed": 5},
    {"collection": {"slides_per_specimn": 3}},
    {"models": {"linear_margin": {"epoch": 3}}},
    {"duration": {"basis": "frames", "valid_treshold": 0.1}},
    {"slide": {"speed_mm_s": 150.0, "method": "argmax"}},  # retired only under `direction`
    {"detector": {"basis": "frames"}},  # retired only under `duration`
])
def test_unknown_config_keys_are_rejected(doc):
    with pytest.raises(ConfigError, match="unknown key"):
        ExperimentConfig.from_dict(doc)


def test_config_validation_checks_shapes_and_model_params():
    ExperimentConfig(grid=TaxelGridConfig(rows=4, cols=4), array=WhiskerArraySpec(rows=4, cols=4))
    for build, match in (
        (lambda: ExperimentConfig(grid=TaxelGridConfig(rows=4, cols=6),
                                  array=WhiskerArraySpec(rows=4, cols=6)), "square"),
        (lambda: ExperimentConfig(array=WhiskerArraySpec(rows=4, cols=4)), "grid"),
        (lambda: ExperimentConfig(grid=TaxelGridConfig(rows=4, cols=4)), "grid"),
        (lambda: ExperimentConfig(models=ModelParamsConfig(bagged_trees=ForestParams(n_trees=0))),
         "n_trees"),
        (lambda: ExperimentConfig(models=ModelParamsConfig(linear_margin=LinearParams(reg=-1.0))),
         "reg"),
    ):
        with pytest.raises(ConfigError, match=match):
            build()


def test_config_validation_propagates():
    with pytest.raises(ConfigError):
        ExperimentConfig(slide=SlideConfig(speed_mm_s=-1.0))
    with pytest.raises(ConfigError, match="speed"):
        ExperimentConfig.from_dict({"slide": {"speed_mm_s": -1.0}})


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


def test_failed_manifest_write_keeps_the_previous_manifest(tmp_path, monkeypatch,
                                                           fail_writes_halfway):
    out = tmp_path / "run"
    out.mkdir()
    artifact = out / "a.txt"
    artifact.write_text("payload")
    manifest = RunManifest.load_or_create(out, "cfg123")
    manifest.record_stage("stage-a", {}, [artifact], elapsed_s=0.5)
    before = (out / "manifest.json").read_bytes()

    fail_writes_halfway()
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


@pytest.mark.parametrize("values", [
    [1.0, float("inf")],
    [float("-inf"), 1.0],
    [float("nan"), 1.0],
    [-1e308, 1e308],  # finite values whose range overflows
    [1.7e308, 1.0],  # the padded range overflows
    [10**400, 1],  # an int too large for a float
])
@pytest.mark.parametrize("axis", ["x", "y"])
def test_svg_rejects_values_it_cannot_chart(values, axis):
    series = {"x": [1.0, 2.0], "y": [3.0, 4.0], "mode": "both", axis: values}
    with pytest.raises(ValueError, match="finite"):
        xy_chart_svg([series])


def test_svg_handles_degenerate_ranges():
    flat = xy_chart_svg([{"x": [2.0, 2.0], "y": [5.0, 5.0], "mode": "points"}])
    assert "<svg" in flat
    empty = xy_chart_svg([{"x": [], "y": [], "mode": "line"}])
    assert "<svg" in empty
