"""Command-line interface tying the pipeline stages together.

Commands: simulate, dataset, train, eval, report, fit-speed, direction,
plot, init-config.  Configuration comes from defaults, then an optional
--config JSON file, then flags (flags win); --out falls back to
$WHISKERLAB_OUT.  Every command but init-config is a stage: it returns its
(stage name, inputs, outputs), and :func:`main` records them with their
digests and the elapsed time in <out>/manifest.json.  File inputs are
re-verified against recorded digests; files are written atomically
(:mod:`whiskerlab.artifacts`).  Exit codes: 0 success, 2 usage or
configuration error, 3 data error (a missing, corrupt or malformed input
file); an error prints one JSON ``{"error", "message"}`` line on stderr.
"""

import argparse
import csv
import json
import os
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from .. import analysis, sim
from ..artifacts import file_digest, read_json, reading, write_csv, write_json, write_text
from ..errors import ConfigError, DataFileError, WhiskerlabError, check
from ..features import features_array
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
from .config import ExperimentConfig, check_slide_size, config_digest, load_config, save_config
from .manifest import RunManifest
from .svg import xy_chart_svg


def _out_dir(args) -> Path:
    out = args.out or os.environ.get("WHISKERLAB_OUT")
    if not out:
        raise ConfigError("no output directory: pass --out or set WHISKERLAB_OUT")
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def cmd_simulate(args, cfg, out, manifest):
    texture = sim.TextureSpec(args.pattern, args.depth)
    speeds = args.speeds or [args.speed]
    if not speeds or any(s is None for s in speeds):
        raise ConfigError("pass --speed or --speeds")
    check("--samples", args.samples, int, "[1, inf)")
    flag = "--speeds" if args.speeds else "--speed"
    names = {}  # check every speed before any slide is written
    for speed in speeds:
        check_slide_size(replace(cfg.slide, speed_mm_s=speed), cfg.array, flag)
        name = f"slide_{args.pattern}{args.depth:g}_v{speed:g}_dir{args.direction}"
        if name in names:
            raise ConfigError(f"{flag} {names[name]!r} and {speed!r} both name slides {name}_k*")
        names[name] = speed

    outputs = []
    for name, speed in names.items():
        for k in range(args.samples):
            slide_seed = derive_seed(cfg.seed, "simulate", args.pattern, args.depth,
                                     speed, args.direction, k)
            slide = replace(cfg.slide, speed_mm_s=speed, direction_deg=args.direction,
                            seed=slide_seed)
            taxels = sim.simulate_taxels(texture, slide, cfg.array)
            csv_path = out / f"{name}_k{k}.csv"
            meta_path = out / f"{name}_k{k}.json"
            sim.save_taxel_csv(csv_path, taxels)
            sim.save_slide_manifest(meta_path, texture, slide, cfg.array)
            outputs.extend([csv_path, meta_path])
            if args.frames:
                rendered = [render_frame(frame, cfg.grid) for frame in taxels]
                outputs.extend(sim.save_frame_dir(out / f"{name}_k{k}_frames", rendered))

    print(f"wrote {len(outputs) // 2} slide(s) to {out}")
    return "simulate", {}, outputs


def cmd_dataset(args, cfg, out, manifest):
    plan = cfg.collection
    if args.slides_per_specimen is not None:
        plan = replace(plan, slides_per_specimen=args.slides_per_specimen)

    labeled, diagnostics = dataset_mod.build_dataset(
        plan=plan,
        base_slide=cfg.slide,
        array=cfg.array,
        detector_cfg=cfg.detector,
        seed=cfg.seed,
    )
    data_path = out / "dataset.jsonl"
    dataset_mod.save_dataset(data_path, labeled.samples)
    meta = {
        "n_samples": labeled.n,
        "slides_per_specimen": plan.slides_per_specimen,
        "seed": cfg.seed,
        "dataset_digest": file_digest(data_path),
        "attempts_per_specimen": {str(k): v for k, v in sorted(diagnostics.attempts.items())},
        "retried_slides": len(diagnostics.retried_slides),
    }
    meta_path = out / "dataset_meta.json"
    write_json(meta_path, meta)

    print(f"wrote {labeled.n} samples to {data_path}")
    return "dataset", {}, [data_path, meta_path]


def _load_split(cfg, args, manifest):
    data_path = Path(args.dataset)
    digest = manifest.verify_input(data_path)
    labeled = dataset_mod.load_dataset(data_path)
    split_seed = derive_seed(cfg.seed, "split")
    train_set, test_set = dataset_mod.split(labeled, cfg.collection.test_fraction, split_seed)
    return train_set, test_set, {str(data_path): digest}


def cmd_train(args, cfg, out, manifest):
    train_set, _, inputs = _load_split(cfg, args, manifest)
    spec = ModelSpec(kind=args.model, train_seed=derive_seed(cfg.seed, "train", args.model, args.task),
                     params=getattr(cfg.models, args.model))
    model = train_model(spec, train_set, args.task)
    model_path = out / f"model_{args.task}_{args.model}.json"
    save_model(model_path, model)

    print(f"trained {args.model} on {args.task} ({train_set.n} samples) -> {model_path}")
    return f"train:{args.task}:{args.model}", inputs, [model_path]


def cmd_eval(args, cfg, out, manifest):
    model_path = Path(args.model)
    model_digest = manifest.verify_input(model_path)
    model = load_model(model_path)

    _, test_set, inputs = _load_split(cfg, args, manifest)
    inputs[str(model_path)] = model_digest
    report = evaluate_model(model, test_set, model.task)

    report_path = out / f"eval_{model.task}_{model.kind}.json"
    write_json(report_path, report.to_dict())
    csv_path = out / f"eval_{model.task}_{model.kind}.csv"
    save_report_csv(csv_path, [report])

    print(f"{model.task} / {model.kind}: accuracy {report.accuracy:.3f} on {report.n_test} samples")
    return f"eval:{model.task}:{model.kind}", inputs, [report_path, csv_path]


def cmd_report(args, cfg, out, manifest):
    reports, inputs = [], {}
    for path in sorted(out.glob("eval_*.json")):
        inputs[str(path.relative_to(out))] = manifest.verify_input(path)
        with reading(path, "eval report"):
            reports.append(EvalReport.from_dict(read_json(path)))
    if not reports:
        raise DataFileError(f"no eval_*.json files in {out}")

    csv_path = out / "report.csv"
    save_report_csv(csv_path, reports)
    md_path = out / "report.md"
    markdown = render_report_markdown(reports)
    write_text(md_path, markdown)

    print(markdown, end="")
    return "report", inputs, [csv_path, md_path]


def cmd_fit_speed(args, cfg, out, manifest):
    sweep_dir = Path(args.sweep_dir)
    slide_csvs = sorted(sweep_dir.glob("slide_*.csv"))
    if not slide_csvs:
        raise DataFileError(f"no slide_*.csv files in {sweep_dir}")

    inputs, rows = {}, []
    for csv_path in slide_csvs:
        meta_path = csv_path.with_suffix(".json")  # its speed is the regressor
        inputs[csv_path.name] = manifest.verify_input(csv_path)
        inputs[meta_path.name] = manifest.verify_input(meta_path)
        _, slide, _ = sim.load_slide_manifest(meta_path)
        _, taxels = sim.load_taxel_csv(csv_path)
        duration = analysis.event_duration(taxels, cfg.duration)
        rows.append((csv_path.name, slide.speed_mm_s, duration))

    usable = [(speed, d) for _, speed, d in rows if d is not None]
    fit = analysis.fit_log_regression(usable)

    durations_path = out / "durations.csv"
    write_csv(durations_path, ["slide", "speed_mm_s", "duration_frames"],
              ([name, repr(speed), "" if duration is None else duration]
               for name, speed, duration in rows))
    fit_json = out / "speed_fit.json"
    write_json(fit_json, {"intercept": fit.intercept, "slope": fit.slope, "r2": fit.r2, "n": fit.n})
    fit_csv = out / "speed_fit.csv"
    write_csv(fit_csv, ["intercept", "slope_per_decade", "r2", "n"],
              [[repr(fit.intercept), repr(fit.slope), "" if fit.r2 is None else repr(fit.r2), fit.n]])

    print(f"duration = {fit.intercept:.2f} {fit.slope:+.2f} * log10(speed); "
          f"r2 = {fit.r2 if fit.r2 is None else round(fit.r2, 4)} over {fit.n} slides")
    return "fit-speed", inputs, [durations_path, fit_json, fit_csv]


def cmd_direction(args, cfg, out, manifest):
    path = Path(args.input)
    digest = manifest.verify_input(path)
    if path.suffix == ".jsonl":
        samples = dataset_mod.load_dataset(path).samples
        if not 0 <= args.index < len(samples):
            raise ConfigError(f"--index {args.index} out of range ({len(samples)} samples)")
        source = samples[args.index]
    elif path.suffix == ".csv":
        _, taxels = sim.load_taxel_csv(path)
        source = features_array(taxels).T
    else:
        raise ConfigError(f"{path}: expected a .jsonl sample file or .csv taxel stream")

    direction = analysis.identify_direction(source)
    doc = {"input": path.name, "index": args.index if path.suffix == ".jsonl" else None,
           "direction_deg": direction}
    out_path = out / "direction.json"
    write_json(out_path, doc)

    print(f"direction: {direction} deg")
    return "direction", {path.name: digest}, [out_path]


def _read_speed_fit(durations_path, fit_path):
    """A durations CSV's (speed, duration) points and the fit's float (intercept,
    slope); a missing column, a speed <= 0 or a coefficient that is not a
    finite float raises DataFileError."""
    with (open(durations_path, newline="", encoding="utf-8") as fh,
          reading(durations_path, "durations CSV")):
        points = [(float(row["speed_mm_s"]), float(row["duration_frames"]))
                  for row in csv.DictReader(fh) if row["duration_frames"]]
    if not points:
        raise DataFileError(f"{durations_path}: no usable duration rows")
    if not all(x > 0 for x, _ in points):
        raise DataFileError(f"{durations_path}: speeds must be positive")
    fit_doc = read_json(fit_path)
    with reading(fit_path, "speed fit"):
        return points, tuple(float(check(name, fit_doc.get(name), float))
                             for name in ("intercept", "slope"))


def cmd_plot(args, cfg, out, manifest):
    if args.kind == "speed-fit":
        if not args.durations or not args.fit:
            raise ConfigError("plot speed-fit needs --durations and --fit")
        durations_path, fit_path = Path(args.durations), Path(args.fit)
        inputs = {durations_path.name: manifest.verify_input(durations_path),
                  fit_path.name: manifest.verify_input(fit_path)}
        points, (intercept, slope) = _read_speed_fit(durations_path, fit_path)
        xs = sorted(p[0] for p in points)
        curve_x = [xs[0] + (xs[-1] - xs[0]) * i / 100 for i in range(101)]
        with np.errstate(over="ignore", invalid="ignore"):  # the chart rejects what overflows
            curve_y = [intercept + slope * np.log10(x) for x in curve_x]
        series = [
            {"x": [p[0] for p in points], "y": [p[1] for p in points],
             "mode": "points", "label": "slides"},
            {"x": curve_x, "y": curve_y, "mode": "line", "label": "log fit"},
        ]
        labels = dict(title="Event duration vs sliding speed",
                      xlabel="speed (mm/s)", ylabel="duration (frames)")
        svg_path, twin_path = out / "speed_fit.svg", out / "speed_fit_points.csv"
        twin = (["series", "x", "y"],
                [["scatter", repr(x), repr(y)] for x, y in points]
                + [["fit", repr(x), repr(float(y))] for x, y in zip(curve_x, curve_y)])
    else:  # stream
        if not args.input:
            raise ConfigError("plot stream needs --input")
        path = Path(args.input)
        inputs = {path.name: manifest.verify_input(path)}
        frame_indices, taxels = sim.load_taxel_csv(path)
        totals = taxels.reshape(len(taxels), -1).sum(axis=1).tolist()
        frames = frame_indices.tolist()
        series = [{"x": frames, "y": totals, "mode": "line", "label": "taxel sum"}]
        labels = dict(title=path.stem, xlabel="frame", ylabel="total taxel sum")
        svg_path, twin_path = out / f"{path.stem}_totals.svg", out / f"{path.stem}_totals.csv"
        twin = (["frame_index", "taxel_sum"], [[f, repr(v)] for f, v in zip(frames, totals)])

    try:
        svg = xy_chart_svg(series, **labels)
    except ValueError as exc:  # values the chart cannot draw
        raise DataFileError(f"{', '.join(inputs)}: cannot chart ({exc})") from exc
    write_text(svg_path, svg)
    write_csv(twin_path, *twin)
    outputs = [svg_path, twin_path]
    print(f"wrote {', '.join(str(p) for p in outputs)}")
    return f"plot:{args.kind}", inputs, outputs


def cmd_init_config(cfg, out) -> None:
    path = out / "config.json"
    save_config(path, cfg)
    print(f"wrote config to {path}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="whiskerlab",
        description="Whisker-array tactile sensing pipeline: simulate, capture, analyze, learn.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, help):
        p = sub.add_parser(name, help=help)
        p.add_argument("--config", help="experiment config JSON (defaults used if omitted)")
        p.add_argument("--seed", type=int, default=None, help="override the root seed")
        p.add_argument("--out", default=None, help="output directory (or $WHISKERLAB_OUT)")
        p.set_defaults(func=func)
        return p

    p = command("simulate", cmd_simulate, "simulate slides and write taxel CSV streams")
    p.add_argument("--pattern", required=True, choices=sim.PATTERNS)
    p.add_argument("--depth", required=True, type=float, help="texture depth in mm")
    p.add_argument("--speed", type=float, default=None, help="slide speed in mm/s")
    p.add_argument("--speeds", type=float, nargs="+", default=None,
                   help="sweep of slide speeds (one slide set per speed)")
    p.add_argument("--direction", type=int, default=0, choices=sim.DIRECTIONS_DEG)
    p.add_argument("--samples", type=int, default=1, help="slides per speed")
    p.add_argument("--frames", action="store_true",
                   help="also render each frame as a PPM image directory")

    p = command("dataset", cmd_dataset, "build the labeled capture dataset over all specimens")
    p.add_argument("--slides-per-specimen", type=int, default=None)

    p = command("train", cmd_train, "train one model family on one task")
    p.add_argument("--dataset", required=True, help="dataset.jsonl path")
    p.add_argument("--model", required=True, choices=MODEL_KINDS)
    p.add_argument("--task", required=True, choices=TASKS)

    p = command("eval", cmd_eval, "evaluate a trained model on the held-out split")
    p.add_argument("--dataset", required=True, help="dataset.jsonl path")
    p.add_argument("--model", required=True, help="model JSON path")

    command("report", cmd_report, "collect eval results into a grid report")

    p = command("fit-speed", cmd_fit_speed, "fit event duration against log10(speed) over a sweep")
    p.add_argument("--sweep-dir", required=True, help="directory of simulate outputs")

    p = command("direction", cmd_direction, "identify the slide direction of a capture or stream")
    p.add_argument("--input", required=True, help=".jsonl sample file or .csv taxel stream")
    p.add_argument("--index", type=int, default=0, help="sample index within a .jsonl file")

    p = command("plot", cmd_plot, "emit SVG charts with CSV twins")
    p.add_argument("--kind", required=True, choices=("speed-fit", "stream"))
    p.add_argument("--durations", help="durations.csv (speed-fit)")
    p.add_argument("--fit", help="speed_fit.json (speed-fit)")
    p.add_argument("--input", help="taxel stream CSV (stream)")

    command("init-config", cmd_init_config,
            "write the experiment config (defaults, --config, then --seed) as JSON")

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config) if args.config else ExperimentConfig()
        if args.seed is not None:
            cfg = replace(cfg, seed=args.seed)
        out = _out_dir(args)
        if args.func is cmd_init_config:
            cmd_init_config(cfg, out)
            return 0
        started = time.perf_counter()
        manifest = RunManifest.load_or_create(out, config_digest(cfg))
        stage, inputs, outputs = args.func(args, cfg, out, manifest)
        manifest.record_stage(stage, inputs, outputs, time.perf_counter() - started)
        return 0
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
