"""Command-line interface tying the pipeline stages together.

Commands: simulate, dataset, train, eval, report, fit-speed, direction,
plot, init-config.  Common behavior:

* configuration comes from defaults, then an optional --config JSON file,
  then flags (flags win); --out falls back to $WHISKERLAB_OUT;
* every command records a stage in <out>/manifest.json with input/output
  digests; file inputs are re-verified against recorded digests;
* exit codes: 0 success, 2 usage/configuration error, 3 data error.
"""

import argparse
import csv
import json
import os
import sys
import time
from pathlib import Path

import numpy as np

from .. import analysis, events, sim
from ..errors import ConfigError, DataFileError, WhiskerlabError
from ..features import features_stream
from ..learn import dataset as dataset_mod
from ..learn.evaluate import (
    MODEL_KINDS,
    TASKS,
    EvalReport,
    ModelSpec,
    evaluate as evaluate_model,
    load_model,
    render_report_markdown,
    save_model,
    save_report_csv,
    train as train_model,
)
from ..seeding import derive_seed
from ..taxel_grid import render_frame
from .config import ExperimentConfig, config_digest, load_config, save_config
from .manifest import RunManifest
from .svg import xy_chart_svg


def _load_experiment(args) -> ExperimentConfig:
    cfg = load_config(args.config) if args.config else ExperimentConfig()
    if getattr(args, "seed", None) is not None:
        cfg = ExperimentConfig(**{**cfg.__dict__, "seed": args.seed})
    cfg.validate()
    return cfg


def _out_dir(args) -> Path:
    out = args.out or os.environ.get("WHISKERLAB_OUT")
    if not out:
        raise ConfigError("no output directory: pass --out or set WHISKERLAB_OUT")
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _slide_name(pattern: str, depth, speed, direction: int, k: int) -> str:
    return f"slide_{pattern}{depth:g}_v{speed:g}_dir{direction}_k{k}"


def cmd_simulate(args) -> int:
    cfg = _load_experiment(args)
    out = _out_dir(args)
    started = time.perf_counter()

    texture = sim.TextureSpec(args.pattern, args.depth)
    texture.validate()
    speeds = args.speeds or [args.speed]
    if not speeds or any(s is None for s in speeds):
        raise ConfigError("pass --speed or --speeds")

    outputs = []
    for speed in speeds:
        for k in range(args.samples):
            slide_seed = derive_seed(cfg.seed, "simulate", args.pattern, args.depth,
                                     speed, args.direction, k)
            slide = sim.SlideConfig(
                speed_mm_s=speed,
                direction_deg=args.direction,
                path_mm=cfg.slide.path_mm,
                fps=cfg.slide.fps,
                seed=slide_seed,
                noise_amp=cfg.slide.noise_amp,
                lead_in_frames=cfg.slide.lead_in_frames,
                lead_out_frames=cfg.slide.lead_out_frames,
            )
            stream = sim.simulate_slide(texture, slide, cfg.array)
            name = _slide_name(args.pattern, args.depth, speed, args.direction, k)
            csv_path = out / f"{name}.csv"
            meta_path = out / f"{name}.json"
            sim.save_taxel_csv(csv_path, stream)
            sim.save_slide_manifest(meta_path, texture, slide, cfg.array)
            outputs.extend([csv_path, meta_path])
            if args.frames:
                rendered = [render_frame(m, cfg.grid) for m in stream]
                outputs.extend(sim.save_frame_dir(out / f"{name}_frames", rendered))

    manifest = RunManifest.load_or_create(out, config_digest(cfg))
    manifest.record_stage("simulate", {}, outputs, time.perf_counter() - started)
    print(f"wrote {len(outputs) // 2} slide(s) to {out}")
    return 0


def cmd_dataset(args) -> int:
    cfg = _load_experiment(args)
    out = _out_dir(args)
    started = time.perf_counter()

    plan = cfg.collection
    if args.slides_per_specimen is not None:
        plan = dataset_mod.CollectionPlan(**{
            **plan.__dict__, "slides_per_specimen": args.slides_per_specimen,
        })

    labeled, diagnostics = dataset_mod.build_dataset(
        plan=plan,
        base_slide=cfg.slide,
        array=cfg.array,
        detector_cfg=cfg.detector,
        feature_cfg=cfg.features,
        seed=cfg.seed,
    )
    data_path = out / "dataset.jsonl"
    dataset_mod.save_dataset(data_path, labeled.samples)
    meta = {
        "n_samples": labeled.n,
        "slides_per_specimen": plan.slides_per_specimen,
        "seed": cfg.seed,
        "dataset_digest": dataset_mod.dataset_digest(data_path),
        "attempts_per_specimen": {str(k): v for k, v in sorted(diagnostics.attempts.items())},
        "retried_slides": len(diagnostics.retried_slides),
    }
    meta_path = out / "dataset_meta.json"
    meta_path.write_text(json.dumps(meta, indent=2, sort_keys=True) + "\n")

    manifest = RunManifest.load_or_create(out, config_digest(cfg))
    manifest.record_stage("dataset", {}, [data_path, meta_path], time.perf_counter() - started)
    print(f"wrote {labeled.n} samples to {data_path}")
    return 0


def _load_split(cfg, args, manifest):
    data_path = Path(args.dataset)
    digest = manifest.verify_input(data_path)
    labeled = dataset_mod.load_dataset(data_path)
    split_seed = derive_seed(cfg.seed, "split")
    train_set, test_set = dataset_mod.split(labeled, cfg.collection.test_fraction, split_seed)
    return labeled, train_set, test_set, {str(data_path): digest}


def cmd_train(args) -> int:
    cfg = _load_experiment(args)
    out = _out_dir(args)
    started = time.perf_counter()
    manifest = RunManifest.load_or_create(out, config_digest(cfg))

    _, train_set, _, inputs = _load_split(cfg, args, manifest)
    spec = ModelSpec(kind=args.model, train_seed=derive_seed(cfg.seed, "train", args.model, args.task),
                     params=getattr(cfg.models, args.model))
    model = train_model(spec, train_set, args.task)
    model_path = out / f"model_{args.task}_{args.model}.json"
    save_model(model_path, model)

    manifest.record_stage(f"train:{args.task}:{args.model}", inputs, [model_path],
                          time.perf_counter() - started)
    print(f"trained {args.model} on {args.task} ({train_set.n} samples) -> {model_path}")
    return 0


def cmd_eval(args) -> int:
    cfg = _load_experiment(args)
    out = _out_dir(args)
    started = time.perf_counter()
    manifest = RunManifest.load_or_create(out, config_digest(cfg))

    model_path = Path(args.model)
    model_digest = manifest.verify_input(model_path)
    model = load_model(model_path)
    task = model.task
    if task not in TASKS:
        raise DataFileError(f"{model_path}: model carries no valid task tag")

    _, _, test_set, inputs = _load_split(cfg, args, manifest)
    inputs[str(model_path)] = model_digest
    report = evaluate_model(model, test_set, task)

    report_path = out / f"eval_{task}_{model.kind}.json"
    report_path.write_text(json.dumps(report.to_dict(), indent=2, sort_keys=True) + "\n")
    csv_path = out / f"eval_{task}_{model.kind}.csv"
    save_report_csv(csv_path, [report])

    manifest.record_stage(f"eval:{task}:{model.kind}", inputs, [report_path, csv_path],
                          time.perf_counter() - started)
    print(f"{task} / {model.kind}: accuracy {report.accuracy:.3f} on {report.n_test} samples")
    return 0


def cmd_report(args) -> int:
    cfg = _load_experiment(args)
    out = _out_dir(args)
    started = time.perf_counter()
    manifest = RunManifest.load_or_create(out, config_digest(cfg))

    reports, inputs = [], {}
    for path in sorted(out.glob("eval_*.json")):
        inputs[str(path.relative_to(out))] = manifest.verify_input(path)
        reports.append(EvalReport.from_dict(json.loads(path.read_text())))
    if not reports:
        raise DataFileError(f"no eval_*.json files in {out}")

    csv_path = out / "report.csv"
    save_report_csv(csv_path, reports)
    md_path = out / "report.md"
    md_path.write_text(render_report_markdown(reports))

    manifest.record_stage("report", inputs, [csv_path, md_path], time.perf_counter() - started)
    print(md_path.read_text(), end="")
    return 0


def cmd_fit_speed(args) -> int:
    cfg = _load_experiment(args)
    out = _out_dir(args)
    started = time.perf_counter()
    manifest = RunManifest.load_or_create(out, config_digest(cfg))

    sweep_dir = Path(args.sweep_dir)
    slide_csvs = sorted(sweep_dir.glob("slide_*.csv"))
    if not slide_csvs:
        raise DataFileError(f"no slide_*.csv files in {sweep_dir}")

    inputs, rows = {}, []
    for csv_path in slide_csvs:
        meta_path = csv_path.with_suffix(".json")
        inputs[csv_path.name] = manifest.verify_input(csv_path)
        if not meta_path.exists():
            raise DataFileError(f"{csv_path}: sidecar {meta_path.name} missing")
        _, slide, _ = sim.load_slide_manifest(meta_path)
        stream = sim.load_taxel_csv(csv_path)
        duration = analysis.event_duration(stream, cfg.duration)
        rows.append((csv_path.name, slide.speed_mm_s, duration))

    usable = [(speed, d) for _, speed, d in rows if d is not None]
    fit = analysis.fit_log_regression(usable)

    durations_path = out / "durations.csv"
    with open(durations_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["slide", "speed_mm_s", "duration_frames"])
        for name, speed, duration in rows:
            writer.writerow([name, repr(speed), "" if duration is None else duration])

    fit_doc = {"intercept": fit.intercept, "slope": fit.slope, "r2": fit.r2, "n": fit.n}
    fit_json = out / "speed_fit.json"
    fit_json.write_text(json.dumps(fit_doc, indent=2, sort_keys=True) + "\n")
    fit_csv = out / "speed_fit.csv"
    with open(fit_csv, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["intercept", "slope_per_decade", "r2", "n"])
        writer.writerow([repr(fit.intercept), repr(fit.slope),
                         "" if fit.r2 is None else repr(fit.r2), fit.n])

    manifest.record_stage("fit-speed", inputs, [durations_path, fit_json, fit_csv],
                          time.perf_counter() - started)
    print(f"duration = {fit.intercept:.2f} {fit.slope:+.2f} * log10(speed); "
          f"r2 = {fit.r2 if fit.r2 is None else round(fit.r2, 4)} over {fit.n} slides")
    return 0


def cmd_direction(args) -> int:
    cfg = _load_experiment(args)
    out = _out_dir(args)
    started = time.perf_counter()
    manifest = RunManifest.load_or_create(out, config_digest(cfg))

    path = Path(args.input)
    digest = manifest.verify_input(path)
    if path.suffix == ".jsonl":
        samples = events.load_samples_jsonl(path)
        if not 0 <= args.index < len(samples):
            raise ConfigError(f"--index {args.index} out of range ({len(samples)} samples)")
        source = samples[args.index]
    elif path.suffix == ".csv":
        stream = sim.load_taxel_csv(path)
        source = features_stream(stream, cfg.features).T
    else:
        raise ConfigError(f"{path}: expected a .jsonl sample file or .csv taxel stream")

    direction = analysis.identify_direction(source, cfg.direction)
    doc = {"input": path.name, "index": args.index if path.suffix == ".jsonl" else None,
           "direction_deg": direction}
    out_path = out / "direction.json"
    out_path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")

    manifest.record_stage("direction", {path.name: digest}, [out_path],
                          time.perf_counter() - started)
    print(f"direction: {direction} deg")
    return 0


def cmd_plot(args) -> int:
    cfg = _load_experiment(args)
    out = _out_dir(args)
    started = time.perf_counter()
    manifest = RunManifest.load_or_create(out, config_digest(cfg))

    if args.kind == "speed-fit":
        if not args.durations or not args.fit:
            raise ConfigError("plot speed-fit needs --durations and --fit")
        durations_path, fit_path = Path(args.durations), Path(args.fit)
        inputs = {durations_path.name: manifest.verify_input(durations_path),
                  fit_path.name: manifest.verify_input(fit_path)}
        points = []
        with open(durations_path, newline="") as fh:
            for row in csv.DictReader(fh):
                if row["duration_frames"]:
                    points.append((float(row["speed_mm_s"]), float(row["duration_frames"])))
        if not points:
            raise DataFileError(f"{durations_path}: no usable duration rows")
        fit_doc = json.loads(fit_path.read_text())
        xs = sorted(p[0] for p in points)
        curve_x = [xs[0] + (xs[-1] - xs[0]) * i / 100 for i in range(101)]
        curve_y = [fit_doc["intercept"] + fit_doc["slope"] * np.log10(x) for x in curve_x]
        svg = xy_chart_svg(
            [
                {"x": [p[0] for p in points], "y": [p[1] for p in points],
                 "mode": "points", "label": "slides"},
                {"x": curve_x, "y": curve_y, "mode": "line", "label": "log fit"},
            ],
            title="Event duration vs sliding speed",
            xlabel="speed (mm/s)", ylabel="duration (frames)",
        )
        svg_path = out / "speed_fit.svg"
        svg_path.write_text(svg)
        twin_path = out / "speed_fit_points.csv"
        with open(twin_path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["series", "x", "y"])
            for x, y in points:
                writer.writerow(["scatter", repr(x), repr(y)])
            for x, y in zip(curve_x, curve_y):
                writer.writerow(["fit", repr(x), repr(float(y))])
        outputs = [svg_path, twin_path]
    elif args.kind == "stream":
        if not args.input:
            raise ConfigError("plot stream needs --input")
        path = Path(args.input)
        inputs = {path.name: manifest.verify_input(path)}
        stream = sim.load_taxel_csv(path)
        totals = [m.total for m in stream]
        frames = [m.frame_index for m in stream]
        svg = xy_chart_svg(
            [{"x": frames, "y": totals, "mode": "line", "label": "taxel sum"}],
            title=path.stem, xlabel="frame", ylabel="total taxel sum",
        )
        svg_path = out / f"{path.stem}_totals.svg"
        svg_path.write_text(svg)
        twin_path = out / f"{path.stem}_totals.csv"
        with open(twin_path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["frame_index", "taxel_sum"])
            for f, v in zip(frames, totals):
                writer.writerow([f, repr(v)])
        outputs = [svg_path, twin_path]
    else:
        raise ConfigError(f"unknown plot kind {args.kind!r}")

    manifest.record_stage(f"plot:{args.kind}", inputs, outputs, time.perf_counter() - started)
    print(f"wrote {', '.join(str(p) for p in outputs)}")
    return 0


def cmd_init_config(args) -> int:
    out = _out_dir(args)
    cfg = ExperimentConfig()
    if args.seed is not None:
        cfg = ExperimentConfig(**{**cfg.__dict__, "seed": args.seed})
    path = out / "config.json"
    save_config(path, cfg)
    print(f"wrote default config to {path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="whiskerlab",
        description="Whisker-array tactile sensing pipeline: simulate, capture, analyze, learn.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="experiment config JSON (defaults used if omitted)")
        p.add_argument("--seed", type=int, default=None, help="override the root seed")
        p.add_argument("--out", default=None, help="output directory (or $WHISKERLAB_OUT)")

    p = sub.add_parser("simulate", help="simulate slides and write taxel CSV streams")
    common(p)
    p.add_argument("--pattern", required=True, choices=sim.PATTERNS)
    p.add_argument("--depth", required=True, type=float, help="texture depth in mm")
    p.add_argument("--speed", type=float, default=None, help="slide speed in mm/s")
    p.add_argument("--speeds", type=float, nargs="+", default=None,
                   help="sweep of slide speeds (one slide set per speed)")
    p.add_argument("--direction", type=int, default=0, choices=sim.DIRECTIONS_DEG)
    p.add_argument("--samples", type=int, default=1, help="slides per speed")
    p.add_argument("--frames", action="store_true",
                   help="also render each frame as a PPM image directory")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("dataset", help="build the labeled capture dataset over all specimens")
    common(p)
    p.add_argument("--slides-per-specimen", type=int, default=None)
    p.set_defaults(func=cmd_dataset)

    p = sub.add_parser("train", help="train one model family on one task")
    common(p)
    p.add_argument("--dataset", required=True, help="dataset.jsonl path")
    p.add_argument("--model", required=True, choices=MODEL_KINDS)
    p.add_argument("--task", required=True, choices=TASKS)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a trained model on the held-out split")
    common(p)
    p.add_argument("--dataset", required=True, help="dataset.jsonl path")
    p.add_argument("--model", required=True, help="model JSON path")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("report", help="collect eval results into a grid report")
    common(p)
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("fit-speed", help="fit event duration against log10(speed) over a sweep")
    common(p)
    p.add_argument("--sweep-dir", required=True, help="directory of simulate outputs")
    p.set_defaults(func=cmd_fit_speed)

    p = sub.add_parser("direction", help="identify the slide direction of a capture or stream")
    common(p)
    p.add_argument("--input", required=True, help=".jsonl sample file or .csv taxel stream")
    p.add_argument("--index", type=int, default=0, help="sample index within a .jsonl file")
    p.set_defaults(func=cmd_direction)

    p = sub.add_parser("plot", help="emit SVG charts with CSV twins")
    common(p)
    p.add_argument("--kind", required=True, choices=("speed-fit", "stream"))
    p.add_argument("--durations", help="durations.csv (speed-fit)")
    p.add_argument("--fit", help="speed_fit.json (speed-fit)")
    p.add_argument("--input", help="taxel stream CSV (stream)")
    p.set_defaults(func=cmd_plot)

    p = sub.add_parser("init-config", help="write the default experiment config")
    common(p)
    p.set_defaults(func=cmd_init_config)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(json.dumps({"error": "usage", "message": str(exc)}), file=sys.stderr)
        return 2
    except WhiskerlabError as exc:
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}), file=sys.stderr)
        return 3
    except OSError as exc:
        print(json.dumps({"error": "io", "message": str(exc)}), file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
