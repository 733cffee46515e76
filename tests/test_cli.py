import json

import numpy as np

from whiskerlab.harness.cli import main
from whiskerlab.harness.config import ExperimentConfig, save_config
from whiskerlab.harness.manifest import file_digest
from whiskerlab.learn.dataset import CollectionPlan


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


def test_out_dir_env_fallback(tmp_path, monkeypatch):
    monkeypatch.setenv("WHISKERLAB_OUT", str(tmp_path / "envout"))
    assert main(["simulate", "--pattern", "flat", "--depth", "0", "--speed", "150",
                 "--seed", "12"]) == 0
    assert (tmp_path / "envout" / "manifest.json").exists()


def test_no_out_dir_is_usage_error(tmp_path, monkeypatch, capsys):
    monkeypatch.delenv("WHISKERLAB_OUT", raising=False)
    rc = main(["simulate", "--pattern", "flat", "--depth", "0", "--speed", "150"])
    assert rc == 2
