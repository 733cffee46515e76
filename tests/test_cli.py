import json

import numpy as np

from whiskerlab.events import DetectorConfig
from whiskerlab.harness.cli import main
from whiskerlab.harness.config import ExperimentConfig, ModelParamsConfig, save_config
from whiskerlab.harness.manifest import file_digest
from whiskerlab.learn.boosting import BoostParams
from whiskerlab.learn.dataset import CollectionPlan
from whiskerlab.learn.forest import ForestParams
from whiskerlab.learn.linear import LinearParams
from whiskerlab.sim import WhiskerArraySpec
from whiskerlab.taxel_grid import TaxelGridConfig


def write_small_config(path, seed=0, slides_per_specimen=2):
    cfg = ExperimentConfig(
        collection=CollectionPlan(slides_per_specimen=slides_per_specimen),
        seed=seed,
    )
    save_config(path, cfg)
    return cfg


def test_init_config_writes_defaults(tmp_path):
    assert main(["init-config", "--out", str(tmp_path)]) == 0
    doc = json.loads((tmp_path / "config.json").read_text())
    assert doc["detector"]["sample_frames"] == 70
    assert doc["grid"]["roi_side"] == 50


def test_simulate_writes_slide_and_manifest(tmp_path):
    rc = main(["simulate", "--pattern", "sawtooth", "--depth", "3", "--speed", "150",
               "--direction", "0", "--seed", "42", "--out", str(tmp_path)])
    assert rc == 0
    csvs = list(tmp_path.glob("slide_*.csv"))
    metas = list(tmp_path.glob("slide_*.json"))
    assert len(csvs) == 1 and len(metas) == 1
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert csvs[0].name in manifest["stages"]["simulate"]["outputs"]


def test_simulate_is_idempotent(tmp_path):
    args = ["simulate", "--pattern", "triangle", "--depth", "2", "--speed", "120",
            "--seed", "1", "--out", str(tmp_path)]
    assert main(args) == 0
    digests = {p.name: file_digest(p) for p in tmp_path.glob("slide_*")}
    first_manifest = json.loads((tmp_path / "manifest.json").read_text())["digest"]
    assert main(args) == 0
    assert {p.name: file_digest(p) for p in tmp_path.glob("slide_*")} == digests
    assert json.loads((tmp_path / "manifest.json").read_text())["digest"] == first_manifest


def test_simulate_rejects_invalid_texture(tmp_path, capsys):
    rc = main(["simulate", "--pattern", "flat", "--depth", "3", "--speed", "150",
               "--out", str(tmp_path)])
    assert rc == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "usage"


def test_simulate_speed_sweep_emits_one_file_per_speed(tmp_path):
    speeds = [str(v) for v in range(100, 201, 10)]
    rc = main(["simulate", "--pattern", "sawtooth", "--depth", "3", "--speeds", *speeds,
               "--samples", "1", "--seed", "3", "--out", str(tmp_path)])
    assert rc == 0
    assert len(list(tmp_path.glob("slide_*.csv"))) == 11


def test_flat_slide_stream_is_noise_only(tmp_path):
    rc = main(["simulate", "--pattern", "flat", "--depth", "0", "--speed", "150",
               "--seed", "4", "--out", str(tmp_path)])
    assert rc == 0
    from whiskerlab.sim import load_taxel_csv

    stream = load_taxel_csv(next(tmp_path.glob("slide_*.csv")))
    totals = np.array([m.total for m in stream])
    # noise plus a single onset transient, nothing sustained
    assert np.count_nonzero(totals > 0.5) <= 6


def test_simulate_frames_flag_writes_ppm_directory(tmp_path):
    rc = main(["simulate", "--pattern", "sinc", "--depth", "2", "--speed", "200",
               "--seed", "2", "--frames", "--out", str(tmp_path)])
    assert rc == 0
    frame_dirs = [p for p in tmp_path.iterdir() if p.is_dir() and p.name.endswith("_frames")]
    assert len(frame_dirs) == 1
    from whiskerlab.sim import load_frame_dir, load_taxel_csv
    from whiskerlab.taxel_grid import TaxelGridConfig, extract_taxels

    frames = load_frame_dir(frame_dirs[0])
    stream = load_taxel_csv(next(tmp_path.glob("slide_*.csv")))
    assert len(frames) == len(stream)
    recovered = extract_taxels(frames[30], TaxelGridConfig()).values
    assert np.max(np.abs(recovered - stream[30].values)) <= 1 / 255


def test_fit_speed_pipeline(tmp_path):
    sweep = tmp_path / "sweep"
    speeds = [str(v) for v in range(100, 201, 10)]
    assert main(["simulate", "--pattern", "sawtooth", "--depth", "3", "--speeds", *speeds,
                 "--samples", "2", "--seed", "5", "--out", str(sweep)]) == 0
    out = tmp_path / "fit"
    assert main(["fit-speed", "--sweep-dir", str(sweep), "--out", str(out)]) == 0
    fit = json.loads((out / "speed_fit.json").read_text())
    assert fit["slope"] < 0
    assert fit["r2"] >= 0.95
    assert fit["n"] == 22
    assert (out / "durations.csv").exists()

    # plot the fit: svg + csv twin
    assert main(["plot", "--kind", "speed-fit", "--durations", str(out / "durations.csv"),
                 "--fit", str(out / "speed_fit.json"), "--out", str(out)]) == 0
    assert (out / "speed_fit.svg").exists()
    assert (out / "speed_fit_points.csv").exists()


def test_fit_speed_missing_sweep_is_data_error(tmp_path, capsys):
    rc = main(["fit-speed", "--sweep-dir", str(tmp_path / "nope"), "--out", str(tmp_path)])
    assert rc == 3
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "DataFileError"


def test_direction_command_on_stream_and_sample(tmp_path):
    out = tmp_path / "slides"
    assert main(["simulate", "--pattern", "sinc", "--depth", "2", "--speed", "120",
                 "--direction", "180", "--seed", "6", "--out", str(out)]) == 0
    stream_csv = next(out.glob("slide_*.csv"))
    assert main(["direction", "--input", str(stream_csv), "--out", str(out)]) == 0
    doc = json.loads((out / "direction.json").read_text())
    assert doc["direction_deg"] == 180


def test_plot_stream(tmp_path):
    assert main(["simulate", "--pattern", "triangle", "--depth", "4", "--speed", "140",
                 "--seed", "7", "--out", str(tmp_path)]) == 0
    stream_csv = next(tmp_path.glob("slide_*.csv"))
    assert main(["plot", "--kind", "stream", "--input", str(stream_csv),
                 "--out", str(tmp_path)]) == 0
    svgs = list(tmp_path.glob("*_totals.svg"))
    assert len(svgs) == 1 and svgs[0].read_text().startswith("<svg")


def test_dataset_train_eval_report_roundtrip(tmp_path):
    cfg_path = tmp_path / "config.json"
    cfg = ExperimentConfig(
        collection=CollectionPlan(slides_per_specimen=12),
        seed=9,
    )
    save_config(cfg_path, cfg)
    out = tmp_path / "run"
    base = ["--config", str(cfg_path), "--out", str(out)]

    assert main(["dataset", *base]) == 0
    assert (out / "dataset.jsonl").exists()
    meta = json.loads((out / "dataset_meta.json").read_text())
    assert meta["n_samples"] == 120

    data = str(out / "dataset.jsonl")
    assert main(["train", *base, "--dataset", data, "--model", "linear_margin",
                 "--task", "patterns4"]) == 0
    model_path = out / "model_patterns4_linear_margin.json"
    assert model_path.exists()

    assert main(["eval", *base, "--dataset", data, "--model", str(model_path)]) == 0
    report = json.loads((out / "eval_patterns4_linear_margin.json").read_text())
    assert report["n_test"] == 12
    assert 0.0 <= report["accuracy"] <= 1.0

    assert main(["report", *base]) == 0
    assert "patterns4" in (out / "report.md").read_text()


def test_eval_detects_tampered_dataset(tmp_path, capsys):
    cfg_path = tmp_path / "config.json"
    write_small_config(cfg_path, seed=10, slides_per_specimen=2)
    out = tmp_path / "run"
    base = ["--config", str(cfg_path), "--out", str(out)]
    assert main(["dataset", *base]) == 0
    data = out / "dataset.jsonl"
    assert main(["train", *base, "--dataset", str(data), "--model", "linear_margin",
                 "--task", "depths4"]) == 0
    data.write_text(data.read_text() + "\n")  # corrupt after recording
    rc = main(["eval", *base, "--dataset", str(data),
               "--model", str(out / "model_depths4_linear_margin.json")])
    assert rc == 3
    assert json.loads(capsys.readouterr().err)["error"] == "DataFileError"


def test_eval_with_empty_test_split_is_usage_error(tmp_path, capsys):
    # A four-sample dataset rounds to an empty 1-in-10 test split.
    cfg_path = tmp_path / "config.json"
    write_small_config(cfg_path, seed=11, slides_per_specimen=2)
    out = tmp_path / "run"
    base = ["--config", str(cfg_path), "--out", str(out)]
    assert main(["dataset", *base]) == 0
    lines = (out / "dataset.jsonl").read_text().splitlines()
    small = out / "small.jsonl"
    small.write_text("\n".join(lines[:4]) + "\n")
    assert main(["train", *base, "--dataset", str(out / 'dataset.jsonl'),
                 "--model", "linear_margin", "--task", "specimens10"]) == 0
    rc = main(["eval", *base, "--dataset", str(small),
               "--model", str(out / "model_specimens10_linear_margin.json")])
    assert rc == 2
    assert json.loads(capsys.readouterr().err)["error"] == "usage"


def test_missing_model_file_is_data_error(tmp_path, capsys):
    out = tmp_path / "run"
    out.mkdir()
    (out / "d.jsonl").write_text("")
    rc = main(["eval", "--out", str(out), "--dataset", str(out / "d.jsonl"),
               "--model", str(out / "missing_model.json")])
    assert rc == 3
    capsys.readouterr()

    # A valid header over a model part that cannot be rebuilt (no "trees").
    model_path = out / "model.json"
    model = {"kind": "bagged_trees", "params": {"n_trees": 1, "max_bins": 256},
             "seed": 0, "classes": ["flat", "sinc"]}
    model_path.write_text(json.dumps({"format": "whiskerlab-model", "format_version": 1,
                                      "task": "patterns4", "model": model}))
    rc = main(["eval", "--out", str(out), "--dataset", str(out / "d.jsonl"),
               "--model", str(model_path)])
    assert rc == 3
    assert json.loads(capsys.readouterr().err)["error"] == "DataFileError"

    # A tree whose split points past the end of its arrays.
    model["trees"] = [{"feature": [0, -1, -1], "threshold": [0.5, 0.0, 0.0],
                       "left": [5, -1, -1], "right": [2, -1, -1],
                       "value": [None, [1.0, 0.0], [0.0, 1.0]]}]
    model_path.write_text(json.dumps({"format": "whiskerlab-model", "format_version": 1,
                                      "task": "patterns4", "model": model}))
    rc = main(["eval", "--out", str(out), "--dataset", str(out / "d.jsonl"),
               "--model", str(model_path)])
    assert rc == 3
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "DataFileError" and "children" in err["message"]


def test_out_dir_env_fallback(tmp_path, monkeypatch):
    monkeypatch.setenv("WHISKERLAB_OUT", str(tmp_path / "envout"))
    assert main(["simulate", "--pattern", "flat", "--depth", "0", "--speed", "150",
                 "--seed", "12"]) == 0
    assert (tmp_path / "envout" / "manifest.json").exists()


def test_no_out_dir_is_usage_error(tmp_path, monkeypatch, capsys):
    monkeypatch.delenv("WHISKERLAB_OUT", raising=False)
    rc = main(["simulate", "--pattern", "flat", "--depth", "0", "--speed", "150"])
    assert rc == 2


def test_config_value_of_wrong_type_is_usage_error(tmp_path, capsys):
    config = tmp_path / "config.json"
    for doc in ({"seed": "abc"}, {"detector": {"window_frames": "5"}}):
        config.write_text(json.dumps(doc))
        rc = main(["dataset", "--config", str(config), "--out", str(tmp_path / "run")])
        assert rc == 2
        assert json.loads(capsys.readouterr().err)["error"] == "usage"


def test_malformed_taxel_csv_is_data_error(tmp_path, capsys):
    for text in ("frame_index,a,b\n0,1,2\n", "frame_index,o11\n0,abc\n", "frame_index,o11\n0\n"):
        stream_csv = tmp_path / "slide.csv"
        stream_csv.write_text(text)
        rc = main(["direction", "--input", str(stream_csv), "--out", str(tmp_path)])
        assert rc == 3
        assert json.loads(capsys.readouterr().err)["error"] == "DataFileError"


def small_shape_config(rows=4, cols=4, grid=None):
    """A 4x4 array with 60-frame captures, 3 slides per specimen and small models."""
    return ExperimentConfig(
        grid=grid or TaxelGridConfig(rows=rows, cols=cols),
        array=WhiskerArraySpec(rows=rows, cols=cols),
        detector=DetectorConfig(sample_frames=60),
        collection=CollectionPlan(slides_per_specimen=3),
        models=ModelParamsConfig(linear_margin=LinearParams(epochs=20),
                                 bagged_trees=ForestParams(n_trees=3),
                                 boosted_trees=BoostParams(rounds=3)),
        seed=13,
    )


def test_non_default_shape_runs_end_to_end(tmp_path, capsys):
    cfg_path = tmp_path / "config.json"
    save_config(cfg_path, small_shape_config())
    out = tmp_path / "run"
    base = ["--config", str(cfg_path), "--out", str(out)]

    assert main(["dataset", *base]) == 0
    data = out / "dataset.jsonl"
    records = [json.loads(line) for line in data.read_text().splitlines()]
    assert len(records) == 30
    assert all(np.shape(r["x"]) == (60, 8) for r in records)
    assert all(1 <= r["trigger_channel"] <= 8 for r in records)
    for kind in ("linear_margin", "bagged_trees", "boosted_trees"):
        assert main(["train", *base, "--dataset", str(data), "--model", kind,
                     "--task", "specimens10"]) == 0
        assert main(["eval", *base, "--dataset", str(data),
                     "--model", str(out / f"model_specimens10_{kind}.json")]) == 0
    assert main(["report", *base]) == 0
    assert main(["direction", *base, "--input", str(data)]) == 0
    assert json.loads((out / "direction.json").read_text())["direction_deg"] == 0
    capsys.readouterr()

    def exits_with_data_error(argv):
        rc = main(argv)
        err = json.loads(capsys.readouterr().err)
        return rc == 3 and err["error"] == "DataFileError"

    # Captures of mixed lengths, of mixed widths and with ragged frames.
    lines = data.read_text().splitlines()
    first = json.loads(lines[0])
    for x in (first["x"][:-1], [row[:-1] for row in first["x"]], first["x"][:-1] + [[0.0]]):
        bad = out / "bad.jsonl"
        bad.write_text("\n".join([json.dumps({**first, "x": x})] + lines[1:]) + "\n")
        assert exits_with_data_error(["train", *base, "--dataset", str(bad),
                                      "--model", "linear_margin", "--task", "depths4"])

    # A model meets input of another width.
    narrow = out / "narrow.jsonl"
    narrow.write_text("".join(json.dumps({**json.loads(line), "x": json.loads(line)["x"][:5]}) + "\n"
                              for line in lines))
    assert exits_with_data_error(["eval", *base, "--dataset", str(narrow),
                                  "--model", str(out / "model_specimens10_linear_margin.json")])
    model_path = out / "model_wide.json"
    model = {"kind": "bagged_trees", "params": {"n_trees": 1, "max_bins": 256}, "seed": 0,
             "classes": [1, 2],
             "trees": [{"feature": [480, -1, -1], "threshold": [0.5, 0.0, 0.0],
                        "left": [1, -1, -1], "right": [2, -1, -1],
                        "value": [None, [1.0, 0.0], [0.0, 1.0]]}]}
    model_path.write_text(json.dumps({"format": "whiskerlab-model", "format_version": 1,
                                      "task": "specimens10", "model": model}))
    assert exits_with_data_error(["eval", *base, "--dataset", str(data),
                                  "--model", str(model_path)])


def test_unrunnable_shapes_are_usage_errors(tmp_path, capsys):
    cfg_path = tmp_path / "config.json"
    for cfg, problem in ((small_shape_config(rows=4, cols=5), "square"),
                         (small_shape_config(grid=TaxelGridConfig()), "grid")):
        save_config(cfg_path, cfg)
        rc = main(["dataset", "--config", str(cfg_path), "--out", str(tmp_path / "run")])
        assert rc == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "usage" and problem in err["message"]
