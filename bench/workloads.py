"""The three benchmark workloads: stream, live and protocol.

Each workload is closed-loop with one client: it calls the package's public
functions one after another from this process, and the next item starts only
when the previous one has finished.  A workload has a set-up (inputs made
from the workload seed, warm-up, and for live the dataset build and model
fits) and a pass: a fixed list of items whose outputs depend only on the
seed.  The runner repeats the pass for the measured time; every pass must
reproduce the first pass's counts and output digest exactly.

Timed intervals cover package calls only.  Output checks, rendering of the
live camera frames and digests run between timed intervals.
"""

import hashlib
import json
import os
import tempfile
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

from whiskerlab.analysis import event_duration, fit_log_regression, identify_direction
from whiskerlab.errors import DirectionIndeterminateError
from whiskerlab.events import DetectorConfig, capture_samples
from whiskerlab.features import features_stream, stream_to_array
from whiskerlab.learn.boosting import BoostParams
from whiskerlab.learn.dataset import (
    CollectionPlan,
    LabeledDataset,
    build_dataset,
    load_dataset,
    save_dataset,
    split,
)
from whiskerlab.learn.evaluate import MODEL_KINDS, TASKS, ModelSpec, evaluate, load_model, save_model, train
from whiskerlab.learn.forest import ForestParams
from whiskerlab.learn.linear import LinearMarginClassifier, LinearParams
from whiskerlab.sim import DIRECTIONS_DEG, SPECIMENS, SlideConfig, simulate_slide
from whiskerlab.taxel_grid import TaxelGridConfig, extract_taxels, render_frame

# Layer name of each model family, as used in span and metric names.
FAMILY = {"linear_margin": "linear", "bagged_trees": "forest", "boosted_trees": "boosting"}

DETECTOR = DetectorConfig()
GRID = TaxelGridConfig()
SPEED_RANGE = (100.0, 200.0)  # mm/s: 105-124 frames per slide
OFFSET_RANGE = (0.0, 8.0)  # mm of texture phase
STREAM_CYCLES = 4  # a stream pass covers every (specimen, direction) this often
LIVE_TRAIN_SLIDES = 5  # per specimen and direction in the live training set
LIVE_ENSEMBLE = 5  # trees (forest) and rounds (boosting) of the live models
PROTOCOL_ENSEMBLE = 3  # trees and rounds of the protocol models


@dataclass
class PassResult:
    """What one pass did: timings, item outcomes, exact counts and a digest."""

    intervals: list = field(default_factory=list)  # seconds per timed interval, in pass order
    latencies: list = field(default_factory=list)  # seconds per item
    slides: int = 0  # slides completed by the timed calls (the dataset's, on protocol)
    attempted: int = 0
    failed: int = 0
    errors: list = field(default_factory=list)
    counts: dict = field(default_factory=dict)
    digests: dict = field(default_factory=dict)


def _slide_configs(rng, cycles):
    """(specimen id, SlideConfig) for each slide, cycling specimens and directions."""
    slides = []
    for _ in range(cycles):
        for direction in DIRECTIONS_DEG:
            for sid in range(1, len(SPECIMENS) + 1):
                slides.append((sid, SlideConfig(
                    speed_mm_s=float(rng.uniform(*SPEED_RANGE)),
                    direction_deg=direction,
                    seed=int(rng.integers(0, 2**63 - 1)),
                    start_offset_mm=float(rng.uniform(*OFFSET_RANGE)),
                )))
    return slides


def _warm_up(rng) -> None:
    """Run each stage once so first-call costs (BLAS threads and buffers,
    allocator growth) land in set-up, not in the first measured pass."""
    sid, slide = _slide_configs(rng, 1)[0]
    capture_samples(features_stream(simulate_slide(SPECIMENS[sid - 1], slide)))
    X = rng.normal(size=(900, 700))
    LinearMarginClassifier(LinearParams(epochs=20)).fit(X, (np.arange(900) % 10).astype(object))


def _identify(tracer, capture):
    """Direction in degrees, or None when the result is indeterminate."""
    try:
        return tracer.call("analysis.identify_direction", identify_direction, capture)
    except DirectionIndeterminateError:
        return None


def _capture_problems(captures, feats) -> list:
    """Captures must be 10x70, finite, and copied from a window inside the stream."""
    arr = stream_to_array(feats)
    problems = []
    for c in captures:
        start = c.trigger_frame - DETECTOR.backtrack_frames
        end = start + DETECTOR.sample_frames
        if c.values.shape != (10, DETECTOR.sample_frames):
            problems.append(f"capture shape {c.values.shape}")
        elif not np.all(np.isfinite(c.values)):
            problems.append("capture has non-finite values")
        elif start < 0 or end > len(feats):
            problems.append(f"capture window [{start}, {end}) outside a {len(feats)}-frame stream")
        elif not np.array_equal(c.values, arr[start:end].T):
            problems.append("capture values differ from the stream window")
    return problems


def _hash_captures(h, captures) -> None:
    for c in captures:
        h.update(f"{c.trigger_frame}:{c.trigger_channel}:".encode())
        h.update(c.values.tobytes())


def _fail(res, item, exc) -> None:
    res.failed += 1
    if len(res.errors) < 5:
        res.errors.append(f"{item}: {type(exc).__name__}: {exc}")


class CheckFailed(Exception):
    """An output check failed; the item counts as failed."""


def _slide_counts(res, frames_key, n_frames, captures, directions, truth) -> None:
    """Accumulate the exact per-slide counts under their per-layer metric names."""
    c = res.counts
    for key, n in ((frames_key, n_frames),
                   ("slides", 1),
                   ("events.captures", len(captures)),
                   ("events.one_capture_slides", int(len(captures) == 1)),
                   ("analysis.indeterminate", directions.count(None)),
                   ("analysis.direction_right", directions.count(truth))):
        c[key] = c.get(key, 0) + n


# --------------------------------------------------------------------- stream

class Stream:
    """Slide analysis without a camera: sim -> features -> capture -> analysis."""

    item = "slide"
    tail_pct = 94  # the highest that puts 10 of the pass's 160 slides beyond

    def setup(self, seed, tracer):
        rng = np.random.default_rng(seed)
        slides = _slide_configs(rng, STREAM_CYCLES)
        _warm_up(rng)
        return {"slides": slides}, {}

    def run_pass(self, state, tracer) -> PassResult:
        res = PassResult()
        h_caps, h_fits = hashlib.sha256(), hashlib.sha256()
        points = {sid: [] for sid in range(1, len(SPECIMENS) + 1)}
        for i, (sid, slide) in enumerate(state["slides"]):
            res.attempted += 1
            try:
                with tracer.span("stream.slide", i):
                    t0 = perf_counter()
                    taxels = tracer.call("sim.simulate_slide", simulate_slide, SPECIMENS[sid - 1], slide)
                    feats = tracer.call("features.features_stream", features_stream, taxels)
                    captures = tracer.call("events.capture_samples", capture_samples, feats)
                    duration = tracer.call("analysis.event_duration", event_duration, taxels)
                    directions = [_identify(tracer, c) for c in captures]
                    t1 = perf_counter()
            except Exception as exc:  # any non-domain outcome fails the item
                _fail(res, f"slide {i}", exc)
                continue
            res.intervals.append(t1 - t0)
            res.latencies.append(t1 - t0)
            res.slides += 1
            _slide_counts(res, "sim.frames", len(taxels), captures, directions, slide.direction_deg)
            problems = _capture_problems(captures, feats)
            if problems:
                _fail(res, f"slide {i}", CheckFailed("; ".join(problems)))
            if duration is not None:
                points[sid].append((slide.speed_mm_s, duration))
            h_caps.update(f"{i}:{len(taxels)}:{duration}:{directions}:".encode())
            _hash_captures(h_caps, captures)
        for sid, pts in points.items():
            res.attempted += 1
            try:
                with tracer.span("stream.fit", sid):
                    t0 = perf_counter()
                    fit = tracer.call("analysis.fit_log_regression", fit_log_regression, pts)
                    t1 = perf_counter()
            except Exception as exc:
                _fail(res, f"fit {sid}", exc)
                continue
            res.intervals.append(t1 - t0)
            h_fits.update(f"{sid}:{fit.intercept!r}:{fit.slope!r}:{fit.r2!r}:{fit.n}\n".encode())
        res.digests = {"captures": h_caps.hexdigest(), "fits": h_fits.hexdigest()}
        return res


# ----------------------------------------------------------------------- live

class Live:
    """Camera to answer: extract taxels -> features -> capture -> direction and
    single-row predictions of one model per family."""

    item = "slide"
    tail_pct = 76  # the highest that puts 10 of the pass's 40 slides beyond

    def setup(self, seed, tracer):
        rng = np.random.default_rng(seed)
        slides = []
        for i, (sid, slide) in enumerate(_slide_configs(rng, 1)):
            with tracer.span("live.input", i):
                slides.append((sid, slide, tracer.call(
                    "sim.simulate_slide", simulate_slide, SPECIMENS[sid - 1], slide)))
        build_seeds = rng.integers(0, 2**31 - 1, size=len(DIRECTIONS_DEG)).tolist()
        train_seed = int(rng.integers(0, 2**31 - 1))
        _warm_up(rng)

        # One dataset per direction, so the models have seen every direction
        # the live slides use.
        samples, attempts, retries = [], 0, 0
        for direction, build_seed in zip(DIRECTIONS_DEG, build_seeds):
            plan = CollectionPlan(slides_per_specimen=LIVE_TRAIN_SLIDES,
                                  speed_range=SPEED_RANGE, direction_deg=direction)
            with tracer.span("live.setup.dataset", direction):
                ds, diag = tracer.call("learn.dataset.build_dataset", build_dataset,
                                       plan=plan, seed=build_seed)
            samples.extend(ds.samples)
            attempts += sum(diag.attempts.values())
            retries += len(diag.retried_slides)
        train_set = LabeledDataset.from_samples(samples)
        models, h_models = {}, hashlib.sha256()
        counts = {"sim.frames": sum(len(taxels) for _, _, taxels in slides),
                  "learn.dataset.slides": train_set.n, "learn.dataset.attempts": attempts,
                  "learn.dataset.retries": retries}
        for kind, params in _model_params(LIVE_ENSEMBLE).items():
            with tracer.span("live.setup.fit", f"{kind}/specimens10"):
                model = tracer.call("learn.evaluate.train", train,
                                    ModelSpec(kind, train_seed, params), train_set, "specimens10")
            models[kind] = model
            h_models.update(json.dumps(model.to_dict(), sort_keys=True).encode())
            if kind != "linear_margin":
                counts[f"learn.{FAMILY[kind]}.nodes"] = _nodes(model)
        return {"slides": slides, "models": models}, {"counts": counts,
                                                      "digests": {"models": h_models.hexdigest()}}

    def run_pass(self, state, tracer) -> PassResult:
        res = PassResult()
        h = hashlib.sha256()
        right = {kind: 0 for kind in state["models"]}
        for i, (sid, slide, taxels) in enumerate(state["slides"]):
            res.attempted += 1
            try:
                with tracer.span("live.slide", i):
                    busy, extracted = 0.0, []
                    for k, m in enumerate(taxels):
                        frame = render_frame(m, GRID)  # the camera delivers a frame: untimed
                        t0 = perf_counter()
                        extracted.append(tracer.call("taxel_grid.extract_taxels", extract_taxels,
                                                     frame, GRID, k))
                        busy += perf_counter() - t0
                    t0 = perf_counter()
                    feats = tracer.call("features.features_stream", features_stream, extracted)
                    captures = tracer.call("events.capture_samples", capture_samples, feats)
                    directions, preds = [], []
                    for c in captures:
                        directions.append(_identify(tracer, c))
                        row = c.flattened()[None, :]
                        preds.append({kind: tracer.call(f"learn.{FAMILY[kind]}.predict", model.predict, row)[0]
                                      for kind, model in state["models"].items()})
                    busy += perf_counter() - t0
            except Exception as exc:
                _fail(res, f"slide {i}", exc)
                continue
            res.intervals.append(busy)
            res.latencies.append(busy)
            res.slides += 1
            _slide_counts(res, "taxel_grid.frames", len(extracted), captures, directions, slide.direction_deg)
            problems = _capture_problems(captures, feats)
            drift = max(float(np.abs(e.values - m.values).max()) for e, m in zip(extracted, taxels))
            if drift > 1 / 255:
                problems.append(f"extracted taxels drift {drift:.4g} from the rendered values")
            if problems:
                _fail(res, f"slide {i}", CheckFailed("; ".join(problems)))
            for p in preds:
                for kind, label in p.items():
                    right[kind] += label == sid
            h.update(f"{i}:{len(extracted)}:{directions}:{preds}:".encode())
            _hash_captures(h, captures)
        captured = res.counts.get("events.captures", 0)
        for kind, n in right.items():
            res.counts[f"learn.{FAMILY[kind]}.right"] = n
        res.counts["learn.accuracy"] = sum(right.values()) / (len(right) * captured) if captured else 0.0
        res.digests = {"captures_predictions": h.hexdigest()}
        return res


# ------------------------------------------------------------------- protocol

class Protocol:
    """The learning protocol: dataset build -> JSONL round trip -> split ->
    train, save, load and evaluate each family on each task."""

    item = "cell"
    tail_pct = 100  # a pass has 9 cells, too few to put 10 beyond: the slowest cell

    def __init__(self, workdir):
        self.workdir = workdir

    def setup(self, seed, tracer):
        rng = np.random.default_rng(seed)
        seeds = dict(zip(("build", "split", "train"), rng.integers(0, 2**31 - 1, size=3).tolist()))
        _warm_up(rng)
        return {"seeds": seeds, "params": _model_params(PROTOCOL_ENSEMBLE)}, {}

    def run_pass(self, state, tracer) -> PassResult:
        res = PassResult()
        seeds, plan = state["seeds"], CollectionPlan()
        cells = [(kind, task) for kind in MODEL_KINDS for task in TASKS]
        res.attempted = 1 + len(cells)
        with tempfile.TemporaryDirectory(dir=self.workdir) as tmp:
            path = os.path.join(tmp, "dataset.jsonl")
            try:
                with tracer.span("protocol.dataset", "dataset"):
                    t0 = perf_counter()
                    built, diag = tracer.call("learn.dataset.build_dataset", build_dataset,
                                              plan=plan, seed=seeds["build"])
                    t1 = perf_counter()
                    tracer.call("learn.dataset.save_dataset", save_dataset, path, built.samples)
                    loaded = tracer.call("learn.dataset.load_dataset", load_dataset, path)
                    train_set, test_set = tracer.call("learn.dataset.split", split, loaded,
                                                      plan.test_fraction, seed=seeds["split"])
                    t2 = perf_counter()
            except Exception as exc:
                _fail(res, "dataset", exc)
                res.failed = res.attempted
                return res
            res.intervals += [t1 - t0, t2 - t1]
            res.slides = built.n
            per_specimen = np.bincount(built.specimen_ids, minlength=len(SPECIMENS) + 1)[1:]
            problems = []
            if not np.all(per_specimen == plan.slides_per_specimen):
                problems.append(f"samples per specimen {per_specimen.tolist()}")
            if not np.array_equal(loaded.features, built.features):
                problems.append("reloaded dataset differs from the built one")
            if test_set.n != 100:
                problems.append(f"n_test {test_set.n}")
            if problems:
                _fail(res, "dataset", CheckFailed("; ".join(problems)))
            with open(path, "rb") as fh:
                dataset_bytes = fh.read()
            res.counts.update({
                "learn.dataset.slides": built.n,
                "learn.dataset.attempts": sum(diag.attempts.values()),
                "learn.dataset.retries": len(diag.retried_slides),
                "learn.dataset.jsonl_bytes": len(dataset_bytes),
                "learn.dataset.n_test": test_set.n,
            })
            h_models, h_preds = hashlib.sha256(), hashlib.sha256()
            model_bytes, accuracies = 0, []
            for kind, task in cells:
                mpath = os.path.join(tmp, f"model_{task}_{kind}.json")
                try:
                    with tracer.span("protocol.cell", f"{kind}/{task}"):
                        t0 = perf_counter()
                        model = tracer.call("learn.evaluate.train", train,
                                            ModelSpec(kind, seeds["train"], state["params"][kind]),
                                            train_set, task)
                        tracer.call("learn.evaluate.save_model", save_model, mpath, model)
                        reloaded = tracer.call("learn.evaluate.load_model", load_model, mpath)
                        report = tracer.call("learn.evaluate.evaluate", evaluate, reloaded, test_set, task)
                        t1 = perf_counter()
                except Exception as exc:
                    _fail(res, f"{kind}/{task}", exc)
                    continue
                res.intervals.append(t1 - t0)
                res.latencies.append(t1 - t0)
                preds = reloaded.predict(test_set.features).tolist()
                if preds != model.predict(test_set.features).tolist() or report.n_test != 100:
                    _fail(res, f"{kind}/{task}", CheckFailed(
                        "reloaded model predicts differently, or n_test != 100"))
                with open(mpath, "rb") as fh:
                    blob = fh.read()
                model_bytes += len(blob)
                h_models.update(blob)
                h_preds.update(json.dumps([kind, task, preds, report.to_dict()],
                                          sort_keys=True, default=str).encode())
                accuracies.append(report.accuracy)
                res.counts[f"learn.{FAMILY[kind]}.accuracy.{task}"] = report.accuracy
                res.counts[f"learn.{FAMILY[kind]}.confusion.{task}"] = report.confusion.tolist()
                if kind != "linear_margin":
                    res.counts[f"learn.{FAMILY[kind]}.nodes.{task}"] = _nodes(model)
            res.counts["learn.evaluate.model_bytes"] = model_bytes
            res.counts["learn.accuracy"] = float(np.mean(accuracies)) if accuracies else 0.0
            res.digests = {
                "dataset": hashlib.sha256(dataset_bytes).hexdigest(),
                "models": h_models.hexdigest(),
                "predictions": h_preds.hexdigest(),
            }
        return res


def _model_params(ensemble) -> dict:
    return {
        "linear_margin": None,
        "bagged_trees": ForestParams(n_trees=ensemble),
        "boosted_trees": BoostParams(rounds=ensemble),
    }


def _nodes(model) -> int:
    trees = model.trees_
    if trees and isinstance(trees[0], list):  # boosting: trees_[round][class]
        trees = [t for row in trees for t in row]
    return sum(len(t.feature) for t in trees)
