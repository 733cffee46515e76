"""Acceptance suite: one test per release criterion, each printing PASS/FAIL.

Run as `pytest tests/test_acceptance.py -v -s` to see the per-criterion lines.
The heavyweight synthetic dataset (100 slides per specimen) is built once and
shared by the classification and chance-level criteria.
"""

import json
import math
import time

import numpy as np
import pytest

from whiskerlab.analysis import event_duration, fit_log_regression, identify_direction
from whiskerlab.events import DetectorConfig, capture_samples, scan
from whiskerlab.features import EPSILON, features_array, features_stream
from whiskerlab.harness.cli import main as cli_main
from whiskerlab.harness.config import ExperimentConfig, save_config
from whiskerlab.learn.dataset import CollectionPlan, build_dataset, split
from whiskerlab.learn.evaluate import ModelSpec, evaluate, train
from whiskerlab.seeding import derive_rng, derive_seed
from whiskerlab.sim import SlideConfig, TextureSpec, simulate_slide
from whiskerlab.taxel_grid import TaxelGridConfig, TaxelMatrix, extract_taxels, render_frame

from oracles import capture_reference, feature_oracle


def report(criterion: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    print(f"\nACCEPTANCE {criterion}: {status}" + (f" ({detail})" if detail else ""))
    assert ok, f"{criterion}: {detail}"


@pytest.fixture(scope="session")
def classification_setup():
    """1000-slide dataset, 9:1 split, and all nine trained/evaluated models."""
    started = time.perf_counter()
    labeled, _ = build_dataset(
        plan=CollectionPlan(slides_per_specimen=100), seed=0
    )
    train_set, test_set = split(labeled, 0.1, seed=derive_seed(0, "split"))
    reports = {}
    for kind in ("linear_margin", "bagged_trees", "boosted_trees"):
        for task in ("specimens10", "patterns4", "depths4"):
            spec = ModelSpec(kind=kind, train_seed=derive_seed(0, "train", kind, task))
            model = train(spec, train_set, task)
            reports[(kind, task)] = evaluate(model, test_set, task)
    elapsed = time.perf_counter() - started
    return labeled, train_set, test_set, reports, elapsed


def test_criterion_1_feature_oracle_equivalence():
    started = time.perf_counter()
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(1000):
        values = rng.uniform(0.0, 1.0, size=(5, 5))
        got = features_array(values[None])[0]
        expected = np.array(feature_oracle(values, EPSILON))
        worst = max(worst, float(np.max(np.abs(got - expected))))
        swapped = features_array(values.T[None])[0]
        assert np.array_equal(swapped, np.concatenate([got[5:], got[:5]]))
    elapsed = time.perf_counter() - started
    report(
        "1 feature oracle equivalence (1000 matrices, 1e-12)",
        worst <= 1e-12 and elapsed < 1.0,
        f"worst dev {worst:.2e}, {elapsed:.2f}s",
    )


def test_criterion_2_capture_trace_fidelity():
    started = time.perf_counter()

    # Hand-simulated trace: calibration at 1.0, burst at 2.5 on one channel.
    values = np.ones((18, 10))
    values[10:14, 0] = 2.5
    cfg = DetectorConfig(window_frames=2, backtrack_frames=1, trigger_multiplier=2.0,
                         sample_frames=4, mode="literal")
    samples, _ = scan(values, cfg)
    ok = (len(samples) == 1 and samples[0].trigger_frame == 10
          and samples[0].trigger_channel == 1
          and np.array_equal(samples[0].values[0], [1.0, 2.5, 2.5, 2.5]))

    # 50 randomized nonnegative streams against the step-by-step interpreter.
    rng = np.random.default_rng(202)
    mismatches = 0
    for _ in range(50):
        m = int(rng.integers(1, 5))
        length = int(rng.integers(4, 13))
        c = int(rng.integers(0, min(length, 5 * m + 1)))
        b = float(rng.uniform(1.1, 3.0))
        n = 5 * m + int(rng.integers(30, 80))
        vals = rng.uniform(0.0, 1.0, size=(n, 10))
        vals[: 5 * m] = rng.uniform(0.5, 1.5, size=(5 * m, 10))
        for _ in range(int(rng.integers(1, 4))):
            s = int(rng.integers(5 * m, n - 2))
            w = int(rng.integers(2, 2 * m + 2))
            vals[s : s + w, int(rng.integers(0, 10))] = rng.uniform(2.0, 4.0)
        dcfg = DetectorConfig(window_frames=m, backtrack_frames=c, trigger_multiplier=b,
                              sample_frames=length, mode="literal")
        got, discards = scan(vals, dcfg)
        exp, exp_discards = capture_reference(vals, m, c, b, length)
        if len(got) != len(exp) or discards != exp_discards:
            mismatches += 1
            continue
        for g, (t, k, mat) in zip(got, exp):
            if g.trigger_frame != t or g.trigger_channel != k or not np.array_equal(g.values, mat):
                mismatches += 1
                break
    elapsed = time.perf_counter() - started
    report(
        "2 capture trace fidelity (hand trace + 50 random streams)",
        ok and mismatches == 0 and elapsed < 1.0,
        f"hand trace {'ok' if ok else 'BAD'}, {mismatches} mismatches, {elapsed:.2f}s",
    )


def test_criterion_3_render_extract_round_trip():
    rng = np.random.default_rng(303)
    grid = TaxelGridConfig()
    worst = 0.0
    for _ in range(100):
        values = rng.uniform(0.0, 1.0, size=(5, 5))
        recovered = extract_taxels(render_frame(TaxelMatrix(values), grid), grid).values
        worst = max(worst, float(np.max(np.abs(recovered - values))))
    report("3 render/extract round trip (100 matrices, 1/255)", worst <= 1 / 255,
           f"worst dev {worst:.6f}")


def test_criterion_4_speed_regression():
    started = time.perf_counter()
    texture = TextureSpec("sawtooth", 3)
    points = []
    for speed in range(100, 201, 10):
        for k in range(5):  # five samples per speed
            slide = SlideConfig(speed_mm_s=float(speed),
                                seed=derive_seed(400, speed, k))
            duration = event_duration(simulate_slide(texture, slide))
            assert duration is not None
            points.append((float(speed), float(duration)))
    fit = fit_log_regression(points)

    exact = [(v, 151.06 - 56.29 * math.log10(v)) for v in range(100, 201, 10)]
    recovered = fit_log_regression(exact)
    self_consistent = (abs(recovered.intercept - 151.06) < 1e-9
                       and abs(recovered.slope - (-56.29)) < 1e-9)
    elapsed = time.perf_counter() - started
    report(
        "4 speed regression (11 speeds x 5 samples)",
        fit.slope < 0 and fit.r2 is not None and fit.r2 >= 0.95
        and self_consistent and elapsed < 30.0,
        f"slope {fit.slope:.2f}, r2 {fit.r2:.4f}, recovery "
        f"{'exact' if self_consistent else 'BAD'}, {elapsed:.1f}s",
    )


def test_criterion_5_direction_identification():
    started = time.perf_counter()
    texture = TextureSpec("sawtooth", 3)
    correct = total = 0
    for direction in (0, 90, 180, 270):
        for k in range(25):
            slide = SlideConfig(speed_mm_s=120.0, direction_deg=direction,
                                seed=derive_seed(500, direction, k))
            stream = features_stream(simulate_slide(texture, slide))
            samples = capture_samples(stream)
            total += 1
            if len(samples) == 1 and identify_direction(samples[0]) == direction:
                correct += 1
    elapsed = time.perf_counter() - started
    report("5 direction identification (4 x 25 slides)",
           correct == total == 100 and elapsed < 60.0,
           f"{correct}/{total}, {elapsed:.1f}s")


@pytest.mark.slow
def test_criterion_6_texture_classification(classification_setup):
    _, _, test_set, reports, elapsed = classification_setup
    acc = {k: r.accuracy for k, r in reports.items()}
    n_test_ok = all(r.n_test == 100 for r in reports.values())
    ensembles_ok = all(
        acc[(kind, "patterns4")] >= 0.90
        and acc[(kind, "depths4")] >= 0.90
        and acc[(kind, "specimens10")] >= 0.80
        for kind in ("bagged_trees", "boosted_trees")
    )
    linear_trails = acc[("linear_margin", "specimens10")] < min(
        acc[("bagged_trees", "specimens10")], acc[("boosted_trees", "specimens10")]
    )
    grid = " | ".join(
        f"{kind}:{acc[(kind, 'specimens10')]:.2f}/{acc[(kind, 'patterns4')]:.2f}/"
        f"{acc[(kind, 'depths4')]:.2f}"
        for kind in ("linear_margin", "bagged_trees", "boosted_trees")
    )
    report("6 texture classification (100 test samples)",
           n_test_ok and ensembles_ok and linear_trails and elapsed < 600.0,
           f"spec/pat/dep {grid}, build+train {elapsed:.0f}s")


def test_criterion_7_full_pipeline_determinism(tmp_path):
    cfg = ExperimentConfig(collection=CollectionPlan(slides_per_specimen=10), seed=77)
    results = []
    for run in ("a", "b"):
        out = tmp_path / run
        cfg_path = tmp_path / f"config_{run}.json"
        save_config(cfg_path, cfg)
        base = ["--config", str(cfg_path), "--out", str(out)]
        assert cli_main(["dataset", *base]) == 0
        data = str(out / "dataset.jsonl")
        for kind in ("linear_margin", "bagged_trees"):
            assert cli_main(["train", *base, "--dataset", data, "--model", kind,
                             "--task", "patterns4"]) == 0
            assert cli_main(["eval", *base, "--dataset", data,
                             "--model", str(out / f"model_patterns4_{kind}.json")]) == 0
        results.append({
            "dataset": (out / "dataset.jsonl").read_bytes(),
            "accuracies": [
                json.loads((out / f"eval_patterns4_{kind}.json").read_text())["accuracy"]
                for kind in ("linear_margin", "bagged_trees")
            ],
            "manifest_digest": json.loads((out / "manifest.json").read_text())["digest"],
        })
    report(
        "7 full pipeline determinism (byte-identical reruns)",
        results[0]["dataset"] == results[1]["dataset"]
        and results[0]["accuracies"] == results[1]["accuracies"]
        and results[0]["manifest_digest"] == results[1]["manifest_digest"],
        f"accuracies {results[0]['accuracies']}",
    )


@pytest.mark.slow
def test_criterion_8_shuffled_labels_hit_chance(classification_setup):
    _, train_set, test_set, _, _ = classification_setup
    accuracies = []
    for rep in range(3):
        rng = derive_rng(0, "shuffle", rep)
        perm = rng.permutation(train_set.n)
        shuffled = train_set.subset(np.arange(train_set.n))
        shuffled.specimen_ids = shuffled.specimen_ids[perm]
        model = train(ModelSpec(kind="bagged_trees", train_seed=5), shuffled, "specimens10")
        accuracies.append(evaluate(model, test_set, "specimens10").accuracy)
    mean_accuracy = float(np.mean(accuracies))
    report("8 shuffled-label sanity (chance level 0.10 +/- 0.05)",
           0.05 <= mean_accuracy <= 0.15,
           f"mean accuracy {mean_accuracy:.3f} over {accuracies}")
