import copy
import csv
import io
import json
import math
import random
import re
import shutil
from functools import reduce
from operator import getitem

import numpy as np
import pytest

from oracles import record_values, record_x
from whiskerlab import artifacts, sim
from whiskerlab.analysis import identify_direction
from whiskerlab.events import DetectorConfig
from whiskerlab.harness.cli import main
from whiskerlab.harness.config import ExperimentConfig, ModelParamsConfig, save_config
from whiskerlab.harness.manifest import RunManifest, file_digest
from whiskerlab.learn.boosting import BoostParams
from whiskerlab.learn.dataset import CollectionPlan, load_dataset, save_dataset
from whiskerlab.learn.evaluate import EvalReport, load_model, save_model, save_report_csv
from whiskerlab.learn.forest import ForestParams
from whiskerlab.learn.linear import LinearParams
from whiskerlab.sim import SlideConfig, WhiskerArraySpec
from whiskerlab.taxel_grid import TactileFrame, TaxelGridConfig, write_ppm


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


def test_init_config_writes_the_given_config_back_normalised(tmp_path):
    given = tmp_path / "my.json"
    given.write_text('{"collection": {"slides_per_specimen": 3}, "seed": 5}')
    out = tmp_path / "out"
    assert main(["init-config", "--config", str(given), "--out", str(out)]) == 0
    want = tmp_path / "want.json"
    save_config(want, ExperimentConfig(collection=CollectionPlan(slides_per_specimen=3), seed=5))
    assert (out / "config.json").read_bytes() == want.read_bytes()


def test_init_config_seed_flag_wins_over_the_config(tmp_path):
    given = tmp_path / "my.json"
    write_small_config(given, seed=5, slides_per_specimen=3)
    assert main(["init-config", "--config", str(given), "--seed", "9", "--out", str(tmp_path)]) == 0
    doc = json.loads((tmp_path / "config.json").read_text())
    assert (doc["seed"], doc["collection"]["slides_per_specimen"]) == (9, 3)


@pytest.mark.parametrize("text, code, error", [
    (None, 3, "DataFileError"),  # no such file
    ('{"bogus": 1}', 2, "usage"),
])
def test_init_config_refuses_a_bad_config(tmp_path, capsys, text, code, error):
    given = tmp_path / "my.json"
    if text is not None:
        given.write_text(text)
    out = tmp_path / "out"
    assert main(["init-config", "--config", str(given), "--out", str(out)]) == code
    assert json.loads(capsys.readouterr().err)["error"] == error
    assert not (out / "config.json").exists()


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


@pytest.mark.parametrize("speeds", [["150", "150"], ["150", "150.0000001"], ["120", "150", "1.5e2"]])
def test_simulate_refuses_speeds_whose_slide_names_collide(tmp_path, capsys, speeds):
    rc = main(["simulate", "--pattern", "sawtooth", "--depth", "3", "--speeds", *speeds,
               "--seed", "3", "--out", str(tmp_path)])
    assert rc == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "usage" and "--speeds" in err["message"]
    assert not list(tmp_path.glob("slide_*"))


def test_flat_slide_stream_is_noise_only(tmp_path):
    rc = main(["simulate", "--pattern", "flat", "--depth", "0", "--speed", "150",
               "--seed", "4", "--out", str(tmp_path)])
    assert rc == 0
    from whiskerlab.sim import load_taxel_csv

    _, taxels = load_taxel_csv(next(tmp_path.glob("slide_*.csv")))
    totals = taxels.reshape(len(taxels), -1).sum(axis=1)
    # noise plus a single onset transient, nothing sustained
    assert np.count_nonzero(totals > 0.5) <= 6


def test_simulate_frames_flag_writes_ppm_directory(tmp_path):
    rc = main(["simulate", "--pattern", "sinc", "--depth", "2", "--speed", "200",
               "--seed", "2", "--frames", "--out", str(tmp_path)])
    assert rc == 0
    frame_dirs = [p for p in tmp_path.iterdir() if p.is_dir() and p.name.endswith("_frames")]
    assert len(frame_dirs) == 1
    from whiskerlab.sim import load_taxel_csv
    from whiskerlab.taxel_grid import TaxelGridConfig, extract_taxels
    from oracles import read_ppm

    frames = [read_ppm(p) for p in sorted(frame_dirs[0].glob("frame_*.ppm"))]
    _, taxels = load_taxel_csv(next(tmp_path.glob("slide_*.csv")))
    assert len(frames) == len(taxels)
    recovered = extract_taxels(frames[30], TaxelGridConfig()).values
    assert np.max(np.abs(recovered - taxels[30])) <= 1 / 255


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


def test_fit_speed_verifies_and_records_each_slide_json(tmp_path, capsys):
    """A slide's JSON holds the speed the fit regresses on, so it is an input
    like the CSV: recorded with its digest, and an edit is a digest mismatch."""
    args = ["--out", str(tmp_path)]
    assert main(["simulate", "--pattern", "sinc", "--depth", "2", "--speeds", "100", "150", "200",
                 *args]) == 0
    assert main(["fit-speed", "--sweep-dir", str(tmp_path), *args]) == 0
    inputs = json.loads((tmp_path / "manifest.json").read_text())["stages"]["fit-speed"]["inputs"]
    names = sorted(p.name for p in tmp_path.glob("slide_*"))
    assert sorted(inputs) == names and len(names) == 6
    assert all(inputs[name] == file_digest(tmp_path / name) for name in names)
    capsys.readouterr()

    meta = tmp_path / "slide_sinc2_v100_dir0_k0.json"
    doc = json.loads(meta.read_text())
    doc["slide"]["speed_mm_s"] = 120.0
    meta.write_text(json.dumps(doc))
    assert main(["fit-speed", "--sweep-dir", str(tmp_path), *args]) == 3
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "DataFileError"
    assert "slide_sinc2_v100_dir0_k0.json: digest mismatch" in err["message"]


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
    from whiskerlab.sim import load_taxel_csv

    _, taxels = load_taxel_csv(stream_csv)
    with open(svgs[0].with_suffix(".csv"), newline="") as fh:
        header, *rows = list(csv.reader(fh))
    assert header == ["frame_index", "taxel_sum"]
    assert [int(f) for f, _ in rows] == list(range(len(taxels)))
    assert [float(v) for _, v in rows] == [float(frame.sum()) for frame in taxels]


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

    # A forest leaf with three values for two classes.
    model["trees"] = [{"feature": [-1], "threshold": [0.0], "left": [-1], "right": [-1],
                       "value": [[0.2, 0.3, 0.5]]}]
    model_path.write_text(json.dumps({"format": "whiskerlab-model", "format_version": 1,
                                      "task": "patterns4", "model": model}))
    rc = main(["eval", "--out", str(out), "--dataset", str(out / "d.jsonl"),
               "--model", str(model_path)])
    assert rc == 3
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "DataFileError" and "leaf" in err["message"]


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


def test_unknown_config_key_is_usage_error(tmp_path, capsys):
    config = tmp_path / "config.json"
    for doc in ({"sed": 5}, {"collection": {"slides_per_specimn": 3}}):
        config.write_text(json.dumps(doc))
        rc = main(["dataset", "--config", str(config), "--out", str(tmp_path / "run")])
        assert rc == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "usage" and "unknown key" in err["message"]
    assert not (tmp_path / "run" / "dataset.jsonl").exists()


def test_retired_floor_of_another_value_is_usage_error(tmp_path, capsys):
    config = tmp_path / "config.json"
    for doc in ({"features": {"epsilon": 1e-3}}, {"detector": {"epsilon": 1e-3}}):
        config.write_text(json.dumps(doc))
        rc = main(["dataset", "--config", str(config), "--out", str(tmp_path / "run")])
        assert rc == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "usage" and "epsilon" in err["message"]
    assert not (tmp_path / "run" / "dataset.jsonl").exists()


@pytest.mark.parametrize("durations, fit", [
    ("a,100,inf\nb,200,20\n", {"intercept": 100.0, "slope": -30.0}),
    ("a,100,nan\nb,200,20\n", {"intercept": 100.0, "slope": -30.0}),
    ("a,100,-1e308\nb,200,1e308\n", {"intercept": 100.0, "slope": -30.0}),
    ("a,100,30\nb,200,20\n", {"intercept": -1e308, "slope": 1e308}),  # the curve overflows
    ("a,100,30\nb,200,20\n", {"intercept": 1.0, "slope": 10**400}),  # not a float
])
def test_plot_speed_fit_rejects_values_it_cannot_chart(tmp_path, capsys, durations, fit):
    (tmp_path / "durations.csv").write_text("slide,speed_mm_s,duration_frames\n" + durations)
    (tmp_path / "speed_fit.json").write_text(json.dumps(fit))
    rc = main(["plot", "--kind", "speed-fit", "--durations", str(tmp_path / "durations.csv"),
               "--fit", str(tmp_path / "speed_fit.json"), "--out", str(tmp_path)])
    assert rc == 3
    assert json.loads(capsys.readouterr().err)["error"] == "DataFileError"
    assert not (tmp_path / "speed_fit.svg").exists()


@pytest.mark.parametrize("frames", [(-10**308, 10**308), (10**400, 1), (10**17, 10**17)])
def test_plot_stream_rejects_frames_it_cannot_chart(tmp_path, capsys, frames):
    stream_csv = tmp_path / "slide.csv"
    stream_csv.write_text("frame_index,o11\n" + "".join(f"{f},0.5\n" for f in frames))
    rc = main(["plot", "--kind", "stream", "--input", str(stream_csv), "--out", str(tmp_path)])
    assert rc == 3
    assert json.loads(capsys.readouterr().err)["error"] == "DataFileError"
    assert not list(tmp_path.glob("*.svg"))


def test_malformed_taxel_csv_is_data_error(tmp_path, capsys):
    for text in ("frame_index,a,b\n0,1,2\n", "frame_index,o11\n0,abc\n", "frame_index,o11\n0\n",
                 "frame_index,o11\n", "frame_index,o11\n0,-1\n",
                 "frame_index,a,b,c,d\n0,0.1,0.2,0.3,0.4\n"):
        stream_csv = tmp_path / "slide.csv"
        stream_csv.write_text(text)
        rc = main(["direction", "--input", str(stream_csv), "--out", str(tmp_path)])
        assert rc == 3
        assert json.loads(capsys.readouterr().err)["error"] == "DataFileError"


def small_shape_config():
    """A 4x4 array with 60-frame captures, 3 slides per specimen and small models."""
    return ExperimentConfig(
        grid=TaxelGridConfig(rows=4, cols=4),
        array=WhiskerArraySpec(rows=4, cols=4),
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
    assert all(r["shape"] == [8, 60] and record_values(r).shape == (8, 60) for r in records)
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

    # Captures of mixed lengths, of mixed widths, and x bytes that disagree with the shape.
    lines = data.read_text().splitlines()
    first = json.loads(lines[0])
    values = record_values(first)
    for x, shape in ((values[:, :-1], [8, 59]), (values[:-1], [7, 60]),
                     (values.ravel()[:-1], [8, 60])):
        bad = out / "bad.jsonl"
        bad.write_text("\n".join([json.dumps({**first, "x": record_x(x), "shape": shape})]
                                 + lines[1:]) + "\n")
        assert exits_with_data_error(["train", *base, "--dataset", str(bad),
                                      "--model", "linear_margin", "--task", "depths4"])

    # A model meets input of another width.
    narrow = out / "narrow.jsonl"
    narrow.write_text("".join(json.dumps({**r, "x": record_x(record_values(r)[:, :5]),
                                          "shape": [8, 5]}) + "\n"
                              for r in map(json.loads, lines)))
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
    not_square = small_shape_config().to_dict()
    not_square["grid"]["cols"] = not_square["array"]["cols"] = 5
    off_grid = small_shape_config().to_dict()
    off_grid["grid"]["rows"] = off_grid["grid"]["cols"] = 5
    for doc, problem in ((not_square, "square"), (off_grid, "grid")):
        cfg_path.write_text(json.dumps(doc))
        rc = main(["dataset", "--config", str(cfg_path), "--out", str(tmp_path / "run")])
        assert rc == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "usage" and problem in err["message"]


@pytest.mark.parametrize("lead_in", [0, 24])
def test_lead_in_must_cover_the_calibration_prefix(tmp_path, capsys, lead_in):
    doc = small_shape_config().to_dict()
    doc["slide"]["lead_in_frames"] = lead_in  # the detector calibrates on 5 windows of 5 frames
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(doc))
    assert main(["dataset", "--config", str(cfg_path), "--out", str(tmp_path / "run")]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "usage" and "slide.lead_in_frames" in err["message"]
    assert not (tmp_path / "run" / "dataset.jsonl").exists()


# Default configs with one value edited that loaded and then crashed, failed
# after the retries or ran with a check switched off; each must be refused at load.
UNRUNNABLE_VALUES = [
    ("slide.noise_amp", float("nan")),
    ("collection.offset_jitter_mm", float("nan")),
    ("collection.speed_range", [100.0, float("inf")]),
    ("slide.path_mm", float("inf")),
    ("array.gain", float("inf")),
    ("array.fatigue", float("nan")),
    ("detector.trigger_multiplier", float("inf")),
    ("collection.min_capture_rate", float("nan")),
    ("duration.valid_threshold", float("inf")),
    # Values the build cannot satisfy: a capture rate above 1, a direction the
    # simulator lacks, and captures that cannot fit in the shortest slide.
    ("collection.min_capture_rate", 2.0),
    ("collection.direction_deg", 45),
    ("detector.sample_frames", 100),
    ("slide.lead_out_frames", 0),
    # Lead frames the simulator would allocate a (frames, rows, cols) array for.
    ("slide.lead_in_frames", 10**9),
    ("slide.lead_out_frames", 10**9),
]


@pytest.mark.parametrize("key, value", UNRUNNABLE_VALUES,
                         ids=[f"{key}={value}" for key, value in UNRUNNABLE_VALUES])
def test_unrunnable_values_are_usage_errors_at_load(tmp_path, capsys, key, value):
    doc = ExperimentConfig().to_dict()
    doc["collection"]["slides_per_specimen"] = 2
    section, name = key.split(".")
    doc[section][name] = value
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(doc))  # json writes NaN and Infinity, and reads them back
    assert main(["dataset", "--config", str(cfg_path), "--out", str(tmp_path / "run")]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    doc = json.loads(err[0])
    assert doc["error"] == "usage" and name in doc["message"] and section in doc["message"]
    assert not (tmp_path / "run" / "dataset.jsonl").exists()


@pytest.mark.parametrize("fps", [1e308, 30.0])
def test_slides_too_long_to_simulate_are_usage_errors_at_load(tmp_path, capsys, fps):
    # At fps 1e308 the frame count overflowed an int (OverflowError traceback);
    # at 30 the config loaded and the build could not allocate the slide.
    doc = ExperimentConfig().to_dict()
    doc["collection"]["slides_per_specimen"] = 2
    doc["slide"]["path_mm"], doc["slide"]["fps"] = 1e308, fps
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(doc))
    assert main(["dataset", "--config", str(cfg_path), "--out", str(tmp_path / "run")]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    doc = json.loads(err[0])
    assert doc["error"] == "usage" and "slide.path_mm" in doc["message"]
    assert not (tmp_path / "run" / "dataset.jsonl").exists()


@pytest.mark.parametrize("flags, flag", [
    (["--speed", "1e-300"], "--speed"),  # was a ValueError traceback from numpy
    (["--speeds", "150", "1e-300"], "--speeds"),
    (["--speed", "150", "--samples", "0"], "--samples"),
    (["--speed", "150", "--samples", "-1"], "--samples"),  # exited 0 and wrote nothing
], ids=["speed", "speeds", "samples0", "samples-1"])
def test_simulate_flags_that_cannot_make_a_slide_are_usage_errors(tmp_path, capsys, flags, flag):
    argv = ["simulate", "--pattern", "flat", "--depth", "0", *flags, "--out", str(tmp_path)]
    assert main(argv) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    doc = json.loads(err[0])
    assert doc["error"] == "usage" and flag in doc["message"]
    assert not list(tmp_path.glob("slide_*"))


def test_slide_start_offset_reaches_simulate(tmp_path):
    argv = ["simulate", "--pattern", "sawtooth", "--depth", "3", "--speed", "150", "--seed", "1"]
    assert main([*argv, "--out", str(tmp_path / "default")]) == 0
    cfg_path = tmp_path / "config.json"
    save_config(cfg_path, ExperimentConfig(slide=SlideConfig(speed_mm_s=150.0, start_offset_mm=3.0)))
    assert main([*argv, "--config", str(cfg_path), "--out", str(tmp_path / "offset")]) == 0
    [default] = (tmp_path / "default").glob("slide_*.csv")
    [offset] = (tmp_path / "offset").glob("slide_*.csv")
    assert default.read_bytes() != offset.read_bytes()
    assert json.loads(offset.with_suffix(".json").read_text())["slide"]["start_offset_mm"] == 3.0


SWEEP_SPEEDS = ("100", "150", "200")
MODEL = "model_patterns4_linear_margin.json"
EVAL = "eval_patterns4_linear_margin.json"


@pytest.fixture(scope="module")
def small_run(tmp_path_factory):
    """A run directory of real 4x4 artifacts: the config, a three-speed sweep
    of taxel CSVs with their sidecars, the dataset, a linear model, its eval
    report, the durations CSV, the speed fit and the manifest."""
    run = tmp_path_factory.mktemp("small_run")
    save_config(run / "config.json", small_shape_config())
    data = str(run / "dataset.jsonl")
    for argv in (["simulate", "--pattern", "sawtooth", "--depth", "3", "--speeds", *SWEEP_SPEEDS],
                 ["dataset"],
                 ["train", "--dataset", data, "--model", "linear_margin", "--task", "patterns4"],
                 ["eval", "--dataset", data, "--model", str(run / MODEL)],
                 ["fit-speed", "--sweep-dir", str(run)]):
        assert main([*argv, "--config", str(run / "config.json"), "--out", str(run)]) == 0
    return run


def first_slide(run):
    return sorted(run.glob("slide_*.csv"))[0]


def test_direction_command_on_a_dataset_record(small_run, tmp_path, capsys):
    data = tmp_path / "dataset.jsonl"
    shutil.copy(small_run / "dataset.jsonl", data)
    samples = load_dataset(data).samples
    k = len(samples) - 1
    argv = ["direction", "--input", str(data), "--out", str(tmp_path)]
    assert main([*argv, "--index", str(k)]) == 0
    assert json.loads((tmp_path / "direction.json").read_text()) == {
        "input": "dataset.jsonl", "index": k, "direction_deg": identify_direction(samples[k])}
    capsys.readouterr()
    assert main([*argv, "--index", str(len(samples))]) == 2
    assert "--index" in json.loads(capsys.readouterr().err)["message"]

    lines = data.read_text().splitlines()
    record = json.loads(lines[0])
    own = sim.specimen_by_id(record["label"]["specimen_id"]).pattern
    record["label"]["pattern"] = next(t.pattern for t in sim.SPECIMENS if t.pattern != own)
    relabeled = tmp_path / "relabeled.jsonl"
    relabeled.write_text("\n".join([json.dumps(record), *lines[1:]]) + "\n")
    empty = tmp_path / "empty.jsonl"
    empty.write_text("")
    for path, says in ((relabeled, ":1: bad sample record .*does not match specimen"),
                       (empty, "zero samples")):
        assert main(["direction", "--input", str(path), "--out", str(tmp_path)]) == 3
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "DataFileError" and re.search(says, err["message"]), err


@pytest.mark.parametrize("files, argv", [
    pytest.param(lambda run: {"d.jsonl": "[1, 2]\n"},
                 lambda run, d: ["direction", "--input", str(d / "d.jsonl")], id="sample-not-object"),
    pytest.param(lambda run: {EVAL: (run / EVAL).read_text()[:40]},
                 lambda run, d: ["report"], id="truncated-eval"),
    pytest.param(lambda run: {"manifest.json": "[]"},
                 lambda run, d: ["direction", "--input", str(first_slide(run))], id="manifest-list"),
    pytest.param(lambda run: {"durations.csv": "slide,speed_mm_s\nx.csv,100.0\n"},
                 lambda run, d: ["plot", "--kind", "speed-fit", "--durations", str(d / "durations.csv"),
                                 "--fit", str(run / "speed_fit.json")], id="no-duration-column"),
    pytest.param(lambda run: {"durations.csv": "slide,speed_mm_s,duration_frames\na,100,-1e308\nb,200,1e308\n"},
                 lambda run, d: ["plot", "--kind", "speed-fit", "--durations", str(d / "durations.csv"),
                                 "--fit", str(run / "speed_fit.json")], id="durations-overflow-chart"),
    pytest.param(lambda run: {"slide_a.csv": first_slide(run).read_text(),
                              "slide_a.json": '{"texture": 1}'},
                 lambda run, d: ["fit-speed", "--sweep-dir", str(d)], id="sidecar-texture-int"),
])
def test_malformed_artifacts_are_data_errors(files, argv, small_run, tmp_path, capsys):
    for name, text in files(small_run).items():
        (tmp_path / name).write_text(text)
    rc = main([*argv(small_run, tmp_path), "--config", str(small_run / "config.json"),
               "--out", str(tmp_path)])
    assert rc == 3
    assert json.loads(capsys.readouterr().err)["error"] == "DataFileError"


def _edited_json(source, target, edit):
    """Write source's JSON document to target with edit applied to it."""
    doc = json.loads(source.read_text())
    edit(doc)
    target.write_text(json.dumps(doc))


def _set_cell(matrix, value):
    matrix[0][0] = value


REPORT_EDITS = {  # case -> (field the error names, edit of the eval document)
    "accuracy-string": ("accuracy", lambda d: d.update(accuracy="0.5")),
    "accuracy-nan": ("accuracy", lambda d: d.update(accuracy=math.nan)),
    "accuracy-above-1": ("accuracy", lambda d: d.update(accuracy=1.5)),
    "n_test-float": ("n_test", lambda d: d.update(n_test=99.7)),
    "n_test-zero": ("n_test", lambda d: d.update(n_test=0)),
    "confusion-string": ("confusion", lambda d: _set_cell(d["confusion"], "1")),
    "confusion-bool": ("confusion", lambda d: _set_cell(d["confusion"], True)),
    "confusion-not-square": ("confusion", lambda d: d["confusion"].pop()),
    "no-unknown_label_count": ("unknown_label_count", lambda d: d.pop("unknown_label_count")),
}


@pytest.mark.parametrize("field, edit", REPORT_EDITS.values(), ids=list(REPORT_EDITS))
def test_report_refuses_an_eval_file_with_a_bad_value(field, edit, small_run, tmp_path, capsys):
    """An eval JSON that no manifest records is checked value by value."""
    _edited_json(small_run / EVAL, tmp_path / EVAL, edit)
    rc = main(["report", "--config", str(small_run / "config.json"), "--out", str(tmp_path)])
    assert rc == 3
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "DataFileError" and EVAL in err["message"] and field in err["message"], err
    assert not (tmp_path / "report.csv").exists()


@pytest.mark.parametrize("field, edit", [
    ("seed", lambda m: m["model"].update(seed="x")),
    ("weights", lambda m: _set_cell(m["model"]["weights"], "0.5")),
    ("weights", lambda m: _set_cell(m["model"]["weights"], True)),
    ("bias", lambda m: m["model"]["bias"].__setitem__(0, "0.5")),
], ids=["seed-string", "weight-string", "weight-bool", "bias-string"])
def test_eval_refuses_a_model_file_with_a_bad_value(field, edit, small_run, tmp_path, capsys):
    shutil.copy(small_run / "dataset.jsonl", tmp_path)
    _edited_json(small_run / MODEL, tmp_path / MODEL, edit)
    rc = main(["eval", "--dataset", str(tmp_path / "dataset.jsonl"), "--model", str(tmp_path / MODEL),
               "--config", str(small_run / "config.json"), "--out", str(tmp_path)])
    assert rc == 3
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "DataFileError" and MODEL in err["message"] and field in err["message"], err
    assert not (tmp_path / EVAL).exists()


def _cli_eval(target, run):
    return main(["eval", "--config", str(run / "config.json"), "--dataset", str(run / "dataset.jsonl"),
                 "--model", str(run / MODEL), "--out", str(target.parent)])


WRITERS = {  # case -> (target file name, write(target, run))
    "write_text": ("a.txt", lambda t, run: artifacts.write_text(t, "new\n")),
    "write_bytes": ("a.bin", lambda t, run: artifacts.write_bytes(t, b"new\n")),
    "write_json": ("a.json", lambda t, run: artifacts.write_json(t, {"new": 1})),
    "write_csv": ("a.csv", lambda t, run: artifacts.write_csv(t, ["new"], [[1]])),
    "manifest": ("manifest.json", lambda t, run: RunManifest(t.parent, "cfg").save()),
    "save_config": ("config.json", lambda t, run: save_config(t, ExperimentConfig())),
    "save_taxel_csv": ("s.csv", lambda t, run: sim.save_taxel_csv(
        t, sim.load_taxel_csv(first_slide(run))[1])),
    "save_slide_manifest": ("s.json", lambda t, run: sim.save_slide_manifest(
        t, *sim.load_slide_manifest(first_slide(run).with_suffix(".json")))),
    "write_ppm": ("f.ppm", lambda t, run: write_ppm(t, TactileFrame(np.zeros((2, 2, 3), np.uint8)))),
    "save_dataset": ("d.jsonl", lambda t, run: save_dataset(
        t, load_dataset(run / "dataset.jsonl").samples)),
    "save_model": ("m.json", lambda t, run: save_model(t, load_model(run / MODEL))),
    "save_report_csv": ("r.csv", lambda t, run: save_report_csv(
        t, [EvalReport.from_dict(artifacts.read_json(run / EVAL))])),
    "cli-eval": (EVAL, _cli_eval),
}


@pytest.mark.parametrize("name, write", WRITERS.values(), ids=list(WRITERS))
def test_failed_write_keeps_the_previous_file(name, write, small_run, tmp_path, monkeypatch,
                                              fail_writes_halfway, capsys):
    target = tmp_path / name
    target.write_bytes(b"previous\n")
    fail_writes_halfway()
    try:  # library writers raise; main exits 3 with the JSON error
        rc = write(target, small_run)
    except OSError as exc:
        rc, message = 3, str(exc)
    else:
        message = json.loads(capsys.readouterr().err)["message"]
    monkeypatch.undo()
    assert (rc, message) == (3, "disk full")
    assert target.read_bytes() == b"previous\n"
    assert list(tmp_path.iterdir()) == [target]


FUZZ_SEED = 20261018
FUZZ_ROUNDS = 3
ODD_VALUES = (None, "x", [], {}, -1, 0.5, True, [1, 2], 1e308)
ODD_CELLS = ("x", "", "nan", "-1", "1e400")


def _json_paths(doc, prefix=()):
    """Key paths into a JSON document; a list is entered through its first item."""
    if isinstance(doc, dict):
        items = doc.items()
    elif isinstance(doc, list) and doc:
        items = [(0, doc[0])]
    else:
        items = []
    for key, value in items:
        yield prefix + (key,)
        yield from _json_paths(value, prefix + (key,))


def _json_variants(doc, rng):
    """Three copies retyped at a random path, two with a random key dropped, and a list."""
    paths = list(_json_paths(doc))
    keys = [p for p in paths if isinstance(p[-1], str)]
    for chosen, drop in [(rng.choice(paths), False) for _ in range(3)] + \
                        [(rng.choice(keys), True) for _ in range(2)]:
        new = copy.deepcopy(doc)
        *head, last = chosen
        parent = reduce(getitem, head, new)
        if drop:
            del parent[last]
        else:
            parent[last] = rng.choice(ODD_VALUES)
        yield new
    yield [1, 2]


def _csv_bytes(rows):
    buf = io.StringIO(newline="")
    csv.writer(buf).writerows(rows)
    return buf.getvalue().encode()


def _mutants(data: bytes, kind: str, rng):
    """Seeded corruptions of one artifact: truncated, byte-flipped, then with
    keys retyped or dropped (JSON, or one line of JSONL) or with columns
    dropped and cells retyped (CSV)."""
    yield data[: rng.randrange(len(data))]
    flipped = bytearray(data)
    for i in rng.sample(range(len(data)), 3):
        flipped[i] ^= 1 << rng.randrange(8)
    yield bytes(flipped)
    text = data.decode()
    if kind == "json":
        for doc in _json_variants(json.loads(text), rng):
            yield json.dumps(doc).encode()
    elif kind == "jsonl":
        lines = text.splitlines()
        i = rng.randrange(len(lines))
        for doc in _json_variants(json.loads(lines[i]), rng):
            yield "\n".join(lines[:i] + [json.dumps(doc)] + lines[i + 1:]).encode() + b"\n"
    else:
        rows = list(csv.reader(io.StringIO(text, newline="")))
        for _ in range(2):
            col = rng.randrange(len(rows[0]))
            yield _csv_bytes([row[:col] + row[col + 1:] for row in rows])
        for _ in range(3):
            new = [list(row) for row in rows]
            row = new[rng.randrange(len(new))]
            row[rng.randrange(len(row))] = rng.choice(ODD_CELLS)
            yield _csv_bytes(new)


def test_cli_survives_corrupt_artifacts(small_run, tmp_path, capsys):
    """Every command exits 0, 2 or 3 on corrupt inputs, with the JSON error on stderr."""
    rng = random.Random(FUZZ_SEED)
    slide = first_slide(small_run).name
    readers = {  # artifact -> (format, commands that read it from the case directory)
        "config.json": ("json", [["direction", "--input", slide]]),
        slide: ("csv", [["direction", "--input", slide], ["plot", "--kind", "stream", "--input", slide],
                        ["fit-speed", "--sweep-dir", "."]]),
        slide[:-4] + ".json": ("json", [["fit-speed", "--sweep-dir", "."]]),
        "dataset.jsonl": ("jsonl", [["direction", "--input", "dataset.jsonl"],
                                    ["train", "--dataset", "dataset.jsonl", "--model", "linear_margin",
                                     "--task", "depths4"],
                                    ["eval", "--dataset", "dataset.jsonl", "--model", MODEL]]),
        MODEL: ("json", [["eval", "--dataset", "dataset.jsonl", "--model", MODEL]]),
        EVAL: ("json", [["report"]]),
        "durations.csv": ("csv", [["plot", "--kind", "speed-fit", "--durations", "durations.csv",
                                   "--fit", "speed_fit.json"]]),
        "speed_fit.json": ("json", [["plot", "--kind", "speed-fit", "--durations", "durations.csv",
                                     "--fit", "speed_fit.json"]]),
        "manifest.json": ("json", [["direction", "--input", slide]]),
    }
    inputs = [p for p in small_run.iterdir() if p.name != "manifest.json"]
    outcomes = set()
    for artifact, (kind, commands) in readers.items():
        original = (small_run / artifact).read_bytes()
        mutants = [m for _ in range(FUZZ_ROUNDS) for m in _mutants(original, kind, rng)]
        for n, data in enumerate(mutants):
            case = tmp_path / f"{artifact}-{n}"
            case.mkdir()
            for path in inputs:
                shutil.copy(path, case)
            (case / artifact).write_bytes(data)
            for argv in commands:  # names of files in the case directory become paths
                argv = [str(case / a) if (case / a).exists() else a for a in argv]
                rc = main([*argv, "--config", str(case / "config.json"), "--out", str(case)])
                err = capsys.readouterr().err
                assert rc in (0, 2, 3), (artifact, n, argv)
                if rc:
                    doc = json.loads(err)
                    assert set(doc) == {"error", "message"}, (artifact, n, argv, err)
                outcomes.add(rc)
    assert outcomes == {0, 2, 3}
