import base64
import copy
import gc
import json
import math
import os
import subprocess
import sys
import warnings
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np
import pytest

import whiskerlab
from oracles import linear_fit_oracle, record_values, record_x, split_test_counts_oracle
from whiskerlab.errors import (
    ConfigError,
    DataFileError,
    DatasetBuildError,
    DegenerateModelError,
)
from whiskerlab.events import DetectorConfig, TactileSample, capture_samples
from whiskerlab.learn.boosting import BoostedTreesClassifier, BoostParams
from whiskerlab.learn.dataset import (
    LOG_RANGE,
    CollectionPlan,
    LabeledDataset,
    SampleLabel,
    build_dataset,
    load_dataset,
    save_dataset,
    split,
)
from whiskerlab.learn.evaluate import (
    MODEL_KINDS,
    TASKS,
    EvalReport,
    ModelSpec,
    evaluate,
    load_model,
    render_report_markdown,
    save_model,
    task_labels,
    train,
)
from whiskerlab.learn import dataset, trees
from whiskerlab.learn.forest import BaggedTreesClassifier, ForestParams
from whiskerlab.learn.linear import LinearMarginClassifier, LinearParams, _block_rows
from whiskerlab.sim import SPECIMENS, specimen_by_id

SMALL_PLAN = CollectionPlan(slides_per_specimen=3)
FAST_FOREST = ForestParams(n_trees=15)
FAST_BOOST = BoostParams(rounds=10)


@pytest.fixture(scope="module")
def small_dataset():
    labeled, diagnostics = build_dataset(plan=SMALL_PLAN, seed=11)
    return labeled, diagnostics


def blob_dataset(n_per_class, n_classes, separation, seed, n_features=700):
    """Gaussian blobs wrapped in a LabeledDataset (labels carried as specimen ids)."""
    rng = np.random.default_rng(seed)
    features, ids = [], []
    for c in range(n_classes):
        center = np.zeros(n_features)
        center[c] = separation
        features.append(center + rng.normal(0, 1.0, size=(n_per_class, n_features)))
        ids.extend([c + 1] * n_per_class)
    return LabeledDataset(
        features=np.concatenate(features),
        specimen_ids=np.array(ids, dtype=np.int64),
    )


def assert_labels_match_samples(labeled):
    """The pattern and depth read from each specimen id are the ones its sample carries."""
    assert labeled.patterns == [s.label.pattern for s in labeled.samples]
    assert labeled.depths.tolist() == [s.label.depth_mm for s in labeled.samples]


def test_one_slide_per_specimen_gives_one_sample_per_label():
    labeled, _ = build_dataset(plan=CollectionPlan(slides_per_specimen=1), seed=3)
    assert labeled.n == 10
    assert sorted(labeled.specimen_ids.tolist()) == list(range(1, 11))
    assert_labels_match_samples(labeled)


def test_dataset_is_balanced_and_consistent(small_dataset):
    labeled, diagnostics = small_dataset
    assert labeled.n == 30
    counts = {sid: 0 for sid in range(1, 11)}
    for sid in labeled.specimen_ids.tolist():
        counts[sid] += 1
    assert all(v == 3 for v in counts.values())
    assert_labels_match_samples(labeled)
    assert sum(diagnostics.attempts.values()) >= 30


def test_same_seed_reproduces_identical_dataset(tmp_path, small_dataset):
    labeled, _ = small_dataset
    again, _ = build_dataset(plan=SMALL_PLAN, seed=11)
    different, _ = build_dataset(plan=SMALL_PLAN, seed=12)
    for name, data in (("first", labeled), ("again", again), ("different", different)):
        save_dataset(tmp_path / f"{name}.jsonl", data.samples)
    first = (tmp_path / "first.jsonl").read_bytes()
    assert (tmp_path / "again.jsonl").read_bytes() == first
    assert (tmp_path / "different.jsonl").read_bytes() != first


def test_specimen_mapping_determines_pattern_and_depth(tmp_path):
    pairs = {(t.pattern, t.depth_mm) for t in SPECIMENS}
    assert len(pairs) == 10  # a perfect 10-class model induces both 4-class tasks
    labeled, _ = build_dataset(plan=CollectionPlan(slides_per_specimen=1), seed=4)
    ids = labeled.specimen_ids
    assert labeled.patterns == [SPECIMENS[i - 1].pattern for i in ids]
    assert labeled.depths.tolist() == [float(SPECIMENS[i - 1].depth_mm) for i in ids]
    path = tmp_path / "dataset.jsonl"
    save_dataset(path, labeled.samples)
    lines = path.read_text().splitlines()
    first = json.loads(lines[0])
    assert first["label"]["pattern"] == "flat"
    for label in ({"pattern": "sinc"}, {"depth_mm": 2}, {"specimen_id": 2}, {"specimen_id": 0},
                  {"specimen_id": 11}):
        bad = {**first, "label": {**first["label"], **label}}
        path.write_text("\n".join([json.dumps(bad), *lines[1:]]) + "\n")
        with pytest.raises(DataFileError):
            load_dataset(path)
    label = labeled.samples[3].label
    with pytest.raises(ConfigError, match="does not match specimen"):
        replace(label, pattern="triangle" if label.pattern != "triangle" else "sinc")


def test_impossible_capture_rate_fails_build():
    # A path too short to reach the specimen never produces a capture.
    from whiskerlab.sim import SlideConfig

    with pytest.raises(DatasetBuildError):
        build_dataset(
            plan=CollectionPlan(slides_per_specimen=1, max_attempts=2),
            base_slide=SlideConfig(speed_mm_s=150.0, path_mm=10.0),
            seed=5,
        )


def test_the_dataset_is_the_same_for_every_worker_count(monkeypatch, tmp_path):
    """A build on 1 and 2 workers saves the same bytes with the same
    diagnostics.  With every slide of specimens 4 to 10 too short to capture,
    both raise the serial build's error, that of specimen 4 slide 0, which
    the forked worker meets before this process meets specimen 4 slide 1."""
    simulate, builds, errors = dataset.simulate_taxels, [], []

    def short_from_4(texture, slide, array):
        if SPECIMENS.index(texture) >= 3:
            slide = replace(slide, path_mm=10.0)
        return simulate(texture, slide, array)

    for workers in (1, 2):
        monkeypatch.setattr("whiskerlab.learn.workers._workers", lambda n, w=workers: w)
        labeled, diagnostics = build_dataset(plan=CollectionPlan(slides_per_specimen=3), seed=7)
        save_dataset(tmp_path / f"{workers}.jsonl", labeled.samples)
        builds.append(((tmp_path / f"{workers}.jsonl").read_bytes(), diagnostics))
        with monkeypatch.context() as patch:
            patch.setattr(dataset, "simulate_taxels", short_from_4)
            with pytest.raises(DatasetBuildError) as raised:
                build_dataset(plan=CollectionPlan(slides_per_specimen=3, max_attempts=2), seed=7)
        errors.append(str(raised.value))
    assert builds[1] == builds[0]
    assert errors == ["specimen 4 slide 0: no clean capture in 2 attempts"] * 2


def test_split_is_stratified_and_disjoint():
    labeled, _ = build_dataset(plan=CollectionPlan(slides_per_specimen=10), seed=6)
    train_set, test_set = split(labeled, 0.1, seed=9)
    assert train_set.n == 90 and test_set.n == 10
    assert sorted(test_set.specimen_ids.tolist()) == list(range(1, 11))
    def seeds(part):
        return [s.seed for s in part.samples]
    assert not set(seeds(train_set)) & set(seeds(test_set))
    # determinism
    again_train, again_test = split(labeled, 0.1, seed=9)
    assert seeds(again_test) == seeds(test_set)
    other_train, other_test = split(labeled, 0.1, seed=10)
    assert seeds(other_test) != seeds(test_set)


def test_split_degenerate_one_sample_per_class_warns():
    labeled, _ = build_dataset(plan=CollectionPlan(slides_per_specimen=1), seed=7)
    with pytest.warns(UserWarning):
        train_set, test_set = split(labeled, 0.1, seed=1)
    assert train_set.n == 9 and test_set.n == 1


def test_split_test_counts_match_the_oracle():
    rng = np.random.default_rng(17)
    for _ in range(300):
        sizes = {c: int(rng.integers(1, 15)) for c in range(1, int(rng.integers(1, 8)) + 1)}
        ids = np.repeat(list(sizes), list(sizes.values()))
        data = LabeledDataset(features=np.zeros((ids.size, 1)), specimen_ids=ids)
        fraction = float(rng.uniform(0.01, 0.99))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # every class here is under 15 rows
            _, test_set = split(data, fraction, seed=1)
        counts = np.bincount(test_set.specimen_ids, minlength=len(sizes) + 1)[1:]
        expected = split_test_counts_oracle(sizes, fraction)
        assert counts.tolist() == [expected[c] for c in sizes], (sizes, fraction)


def test_linearly_separable_blobs_reach_full_train_accuracy():
    data = blob_dataset(n_per_class=30, n_classes=2, separation=25.0, seed=1)
    model = LinearMarginClassifier(LinearParams()).fit(
        data.features, task_labels(data, "specimens10")
    )
    preds = model.predict(data.features)
    assert np.mean(preds == task_labels(data, "specimens10")) == 1.0


def noisy_classes(n, n_classes, seed, d=700):
    """Random rows with class indices 0..n_classes-1, each class a shifted feature."""
    rng = np.random.default_rng(seed)
    y = np.arange(n) % n_classes
    X = rng.normal(size=(n, d))
    X[np.arange(n), y] += 3.0
    return X, y


def test_linear_block_rows_follow_the_shape():
    assert _block_rows(700, 10) == 128
    assert _block_rows(700, 4) == 320
    assert _block_rows(10**6, 10) == 1


def test_linear_fit_in_one_block_matches_the_full_batch_oracle_bit_for_bit():
    X, y = noisy_classes(_block_rows(700, 10), 10, seed=8)
    model = LinearMarginClassifier().fit(X, y)
    W, b = linear_fit_oracle(X, y, 10, **asdict(LinearParams()))
    assert model.weights_.tobytes() == W.tobytes()
    assert model.bias_.tobytes() == b.tobytes()


@pytest.mark.parametrize("n_classes", [10, 4])
def test_linear_fit_in_many_blocks_stays_within_rounding_of_the_oracle(n_classes):
    X, y = noisy_classes(1000, n_classes, seed=9)
    train_X, train_y, held_out = X[:800], y[:800], X[800:]  # 7 or 3 blocks
    model = LinearMarginClassifier().fit(train_X, train_y)
    W, b = linear_fit_oracle(train_X, train_y, n_classes, **asdict(LinearParams()))
    assert np.abs(model.weights_ - W).max() <= 1e-12 * np.abs(W).max()
    assert np.abs(model.bias_ - b).max() <= 1e-12 * np.abs(b).max()
    oracle = copy.copy(model)
    oracle.weights_, oracle.bias_ = W, b
    assert np.array_equal(model.predict(held_out), oracle.predict(held_out))


_FIT_AND_SAVE = """
import sys
import numpy as np
from whiskerlab.learn.evaluate import save_model
from whiskerlab.learn.linear import LinearMarginClassifier
X = np.random.default_rng(7).normal(size=(900, 700))
for n_classes, path in zip((10, 4), sys.argv[1:]):
    save_model(path, LinearMarginClassifier().fit(X, np.arange(900) % n_classes))
"""


def test_linear_model_bytes_do_not_depend_on_the_blas_thread_count(tmp_path):
    src = str(Path(whiskerlab.__file__).parents[1])
    blobs = {}
    for threads in ("1", "2"):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads,
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        paths = [tmp_path / f"linear{n_classes}_threads{threads}.json" for n_classes in (10, 4)]
        subprocess.run([sys.executable, "-c", _FIT_AND_SAVE, *map(str, paths)],
                       env=env, check=True, timeout=300)
        blobs[threads] = [p.read_bytes() for p in paths]
    assert blobs["1"] == blobs["2"]


def test_pure_noise_features_score_at_chance():
    data = blob_dataset(n_per_class=60, n_classes=10, separation=0.0, seed=2)
    train_set, test_set = split(data, 0.1, seed=3)
    model = BaggedTreesClassifier(FAST_FOREST, seed=4).fit(
        train_set.features, task_labels(train_set, "specimens10")
    )
    rep = evaluate(model, test_set, "specimens10")
    assert rep.accuracy == pytest.approx(0.10, abs=0.05)


def test_single_class_training_raises():
    data = blob_dataset(n_per_class=10, n_classes=1, separation=1.0, seed=5)
    for model in (
        LinearMarginClassifier(),
        BaggedTreesClassifier(FAST_FOREST),
        BoostedTreesClassifier(FAST_BOOST),
    ):
        with pytest.raises(DegenerateModelError):
            model.fit(data.features, task_labels(data, "specimens10"))


def dense_blob_dataset(n_per_class, n_classes, separation, seed, n_features=700):
    """Blobs whose class signal is spread over a block of features."""
    rng = np.random.default_rng(seed)
    block = n_features // n_classes
    feats, ids = [], []
    for c in range(n_classes):
        center = np.zeros(n_features)
        center[c * block : (c + 1) * block] = separation / np.sqrt(block)
        feats.append(center + rng.normal(0, 1.0, (n_per_class, n_features)))
        ids.extend([c + 1] * n_per_class)
    n = n_per_class * n_classes
    return LabeledDataset(
        features=np.concatenate(feats),
        specimen_ids=np.array(ids, dtype=np.int64),
    )


def test_each_family_learns_blobs_in_its_regime():
    # Margin and bagged models thrive when the signal is spread across many
    # features; the boosted shallow trees shine when a few features carry it.
    dense = dense_blob_dataset(n_per_class=25, n_classes=4, separation=20.0, seed=6)
    train_d, test_d = split(dense, 0.2, seed=7)
    sparse = blob_dataset(n_per_class=25, n_classes=4, separation=12.0, seed=6)
    train_s, test_s = split(sparse, 0.2, seed=7)
    cases = [
        (LinearMarginClassifier(), train_d, test_d),
        (BaggedTreesClassifier(FAST_FOREST, seed=1), train_d, test_d),
        (BoostedTreesClassifier(FAST_BOOST), train_s, test_s),
    ]
    for model, train_set, test_set in cases:
        y_train = task_labels(train_set, "specimens10")
        y_test = task_labels(test_set, "specimens10")
        model.fit(train_set.features, y_train)
        assert np.mean(model.predict(test_set.features) == y_test) >= 0.9, model.kind


TREE_SPECS = [ModelSpec("bagged_trees", 4, ForestParams(n_trees=3)),
              ModelSpec("boosted_trees", 4, BoostParams(rounds=3))]


@pytest.fixture
def binning_calls(monkeypatch):
    """The matrices binned from here on: one entry per run of the binning core."""
    calls, core = [], trees.quantile_bin_edges

    def counted(X, max_bins):
        calls.append((X, max_bins))
        return core(X, max_bins)

    monkeypatch.setattr(trees, "quantile_bin_edges", counted)
    return calls


def test_fits_on_one_dataset_bin_it_once_per_max_bins(binning_calls):
    """The six tree models of the three tasks bin the dataset's features once
    per family's max_bins, and equal fits on a writable copy of them, which
    bin anew each time, byte for byte."""
    data = blob_dataset(n_per_class=6, n_classes=10, separation=4.0, seed=21, n_features=40)
    models = [json.dumps(train(spec, data, task).to_dict()) for spec in TREE_SPECS for task in TASKS]
    assert [(X is data.features, m) for X, m in binning_calls] == [(True, 256), (True, 128)]
    assert [json.dumps(spec.build().fit(np.array(data.features), task_labels(data, task)).to_dict())
            for spec in TREE_SPECS for task in TASKS] == models
    assert len(binning_calls) == 8


def test_only_a_read_only_array_that_owns_its_data_keeps_its_binning(binning_calls):
    """A writable array, a read-only view of one and a read-only copy of the
    dataset's features with equal contents are each binned anew; the copy
    then keeps its own binning."""
    data = blob_dataset(n_per_class=4, n_classes=3, separation=4.0, seed=22, n_features=12)
    writable = np.array(data.features)
    view = writable[:]
    view.flags.writeable = False
    copy_ = np.array(data.features)
    copy_.flags.writeable = False
    for X in (data.features, writable, writable, view, view, copy_, copy_, data.features):
        trees.bin_matrix(X, 16)
    assert [id(X) for X, _ in binning_calls] == [
        id(X) for X in (data.features, writable, writable, view, view, copy_)]


def test_a_binning_is_dropped_with_its_dataset(binning_calls):
    before = set(trees._BINNED)
    data = blob_dataset(n_per_class=4, n_classes=3, separation=4.0, seed=23, n_features=12)
    for spec in TREE_SPECS:
        train(spec, data, "specimens10")
    assert len(set(trees._BINNED) - before) == 2
    del data, binning_calls[:]  # the call log holds the features too
    gc.collect()
    assert set(trees._BINNED) == before


def test_dataset_features_are_a_read_only_copy():
    X = np.arange(60.0).reshape(20, 3)
    data = LabeledDataset(features=X, specimen_ids=np.arange(20) % 2 + 1)
    train_set, test_set = split(data)
    X[0, 0] = 99.0
    assert data.features[0, 0] == 0.0
    for features in (data.features, train_set.features, test_set.features):
        assert features.flags.owndata
        with pytest.raises(ValueError, match="read-only"):
            features[0, 0] = 1.0


def test_training_is_deterministic_under_seed(small_dataset):
    labeled, _ = small_dataset
    y = task_labels(labeled, "patterns4")
    a = BaggedTreesClassifier(FAST_FOREST, seed=42).fit(labeled.features, y)
    b = BaggedTreesClassifier(FAST_FOREST, seed=42).fit(labeled.features, y)
    assert json.dumps(a.to_dict(), sort_keys=True) == json.dumps(b.to_dict(), sort_keys=True)
    c = BaggedTreesClassifier(FAST_FOREST, seed=43).fit(labeled.features, y)
    assert json.dumps(a.to_dict(), sort_keys=True) != json.dumps(c.to_dict(), sort_keys=True)


def test_model_spec_builds_and_validates():
    with pytest.raises(ConfigError):
        ModelSpec(kind="deep_net").build()
    with pytest.raises(ConfigError):
        ModelSpec(kind="bagged_trees", params=LinearParams()).build()
    model = ModelSpec(kind="boosted_trees", params=FAST_BOOST, train_seed=1).build()
    assert isinstance(model, BoostedTreesClassifier)


BAD_PARAMS = [
    ("bagged_trees", {"n_trees": 0}),
    ("bagged_trees", {"max_bins": 1}),
    ("boosted_trees", {"rounds": 0}),
    ("boosted_trees", {"max_depth": 0}),
    ("boosted_trees", {"learning_rate": 0.0}),
    ("boosted_trees", {"max_bins": 1}),
    ("linear_margin", {"epochs": 0}),
    ("linear_margin", {"reg": -0.5}),
    ("linear_margin", {"learning_rate": -0.05}),
]


@pytest.mark.parametrize("kind, params", BAD_PARAMS)
def test_model_params_are_validated(kind, params, tmp_path):
    model = ModelSpec(kind).build()
    with pytest.raises(ConfigError):
        model.params_cls(**params)
    # a model file carrying them is a data error (exit 3)
    model.fit(np.arange(8.0).reshape(4, 2), np.array([0, 1, 0, 1], dtype=object))
    model.task = "patterns4"
    save_model(tmp_path / "model.json", model)
    doc = json.loads((tmp_path / "model.json").read_text())
    doc["model"]["params"].update(params)
    (tmp_path / "model.json").write_text(json.dumps(doc))
    with pytest.raises(DataFileError, match=next(iter(params))):
        load_model(tmp_path / "model.json")


def test_predict_rejects_input_of_another_width(tmp_path):
    data = blob_dataset(n_per_class=15, n_classes=3, separation=8.0, seed=12, n_features=20)
    y = task_labels(data, "specimens10")
    X = data.features
    for model in (LinearMarginClassifier(LinearParams(epochs=50)),
                  BaggedTreesClassifier(ForestParams(n_trees=3)),
                  BoostedTreesClassifier(BoostParams(rounds=3))):
        model.fit(X, y)
        model.task = "specimens10"
        path = tmp_path / f"{model.kind}.json"
        save_model(path, model)
        for m in (model, load_model(path)):
            with pytest.raises(DataFileError):
                m.predict(X[:, :m.n_features_ - 1])
            with pytest.raises(DataFileError):
                m.predict(X[0])
            wide = np.hstack([X, X[:, :1]])
            if m.kind == "linear_margin":
                with pytest.raises(DataFileError):
                    m.predict(wide)
            else:  # trees read only the columns they split on
                assert np.array_equal(m.predict(wide), m.predict(X))
    doc = json.loads((tmp_path / "linear_margin.json").read_text())
    doc["model"]["mean"] = doc["model"]["mean"][:-1]
    path.write_text(json.dumps(doc))
    with pytest.raises(DataFileError):
        load_model(path)


def test_save_load_round_trip_preserves_predictions(tmp_path, small_dataset):
    labeled, _ = small_dataset
    train_set, test_set = split(labeled, 0.2, seed=2)
    for spec in (
        ModelSpec("linear_margin"),
        ModelSpec("bagged_trees", params=FAST_FOREST),
        ModelSpec("boosted_trees", params=FAST_BOOST),
    ):
        model = train(spec, train_set, "patterns4")
        path = tmp_path / f"{spec.kind}.json"
        save_model(path, model)
        again = load_model(path)
        assert again.task == "patterns4"
        assert np.array_equal(model.predict(test_set.features),
                              again.predict(test_set.features))


def small_model(kind):
    return ModelSpec(kind, params={"linear_margin": LinearParams(epochs=20),
                                   "bagged_trees": ForestParams(n_trees=5),
                                   "boosted_trees": BoostParams(rounds=5)}[kind]).build()


@pytest.mark.parametrize("kind", MODEL_KINDS)
def test_the_nan_toy_is_refused_at_fit(kind):
    """100 rows in two classes, one column NaN exactly on class 1.  Fitted,
    the forest and the booster scored 0.5 on their own training rows (a NaN
    threshold trained one way and routed the other), and the linear model
    saved NaN weights that load_model then refused."""
    rng = np.random.default_rng(0)
    y = np.arange(100) % 2
    X = rng.normal(size=(100, 3))
    X[y == 1, 1] = np.nan
    model = small_model(kind)
    with pytest.raises(DataFileError, match="must be finite, got nan at row 1, column 1"):
        model.fit(X, y)


@pytest.mark.parametrize("kind", MODEL_KINDS)
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_features_are_refused_at_fit_and_predict(kind, bad):
    """The first non-finite cell is named; a refused fit changes no state, so a
    new model stays unfitted and a fitted one keeps its fit."""
    rng = np.random.default_rng(1)
    X, y = rng.normal(size=(40, 4)), np.arange(40) % 3
    X_bad = X.copy()
    X_bad[7, 2] = X_bad[9, 0] = bad
    refusal = f"{kind} input must be finite, got {bad} at row 7, column 2"
    model = small_model(kind)
    unfitted = dict(vars(model))
    with pytest.raises(DataFileError, match=refusal):
        model.fit(X_bad, y)
    assert vars(model) == unfitted
    with pytest.raises(DegenerateModelError, match=f"{kind} model is not fitted"):
        model.predict(X)
    model.fit(X, y)
    fitted, preds = json.dumps(model.to_dict()), model.predict(X).tolist()
    with pytest.raises(DataFileError, match=refusal):
        model.predict(X_bad)
    with pytest.raises(DataFileError, match=refusal):
        model.fit(X_bad, y)
    assert json.dumps(model.to_dict()) == fitted and model.predict(X).tolist() == preds


@pytest.mark.parametrize("kind", MODEL_KINDS)
def test_an_unfitted_model_neither_predicts_nor_saves(kind, tmp_path):
    model, path = small_model(kind), tmp_path / "model.json"
    with pytest.raises(DegenerateModelError, match="single class"):
        model.fit(np.zeros((4, 2)), np.zeros(4, dtype=int))
    for model in (model, small_model(kind)):
        with pytest.raises(DegenerateModelError, match=f"{kind} model is not fitted"):
            model.predict(np.zeros((3, 2)))
        with pytest.raises(DegenerateModelError, match=f"{kind} model is not fitted"):
            save_model(path, model)
    assert not path.exists()


def test_linear_fit_refuses_features_whose_statistics_overflow(tmp_path):
    """Finite features of magnitude 1.5e308 overflow the mean; the fit is
    refused rather than saving NaN weights that load_model would refuse."""
    X = np.where(np.arange(40) % 2, 1.5e308, -1.5e308)[:, None]
    y, path = np.arange(40) % 2, tmp_path / "model.json"
    model = small_model("linear_margin")
    unfitted = dict(vars(model))
    with pytest.raises(DataFileError, match="linear_margin cannot standardize its input"):
        model.fit(X, y)
    assert vars(model) == unfitted
    with pytest.raises(DegenerateModelError):
        save_model(path, model)
    assert not path.exists()
    fitted = json.dumps(model.fit(X / 1e300, np.arange(40) % 3).to_dict())
    with pytest.raises(DataFileError, match="linear_margin cannot standardize its input"):
        model.fit(X, y)
    assert json.dumps(model.to_dict()) == fitted


@pytest.mark.parametrize("kind", MODEL_KINDS)
def test_fit_and_predict_take_only_two_dimensional_float_arrays(kind):
    rng = np.random.default_rng(2)
    X, y = rng.normal(size=(30, 4)), np.arange(30) % 2
    model = small_model(kind).fit(X, y)
    for bad in (X[0], X[None], X.tolist(), X.astype(int), X.astype(object), "x"):
        with pytest.raises(DataFileError, match="must be a 2-D float array"):
            model.fit(bad, y)
        with pytest.raises(DataFileError, match="must be a 2-D float array"):
            model.predict(bad)
    assert model.predict(X.astype(np.float32)).tolist() == model.predict(X).tolist()


def labels_with(values, at, value):
    y = np.array(values, dtype=object)
    y[at] = value
    return y


@pytest.mark.parametrize("kind", MODEL_KINDS)
@pytest.mark.parametrize("y, refusal", [
    (np.full(30, math.nan), r"label\[0\] must be int, got nan"),
    (labels_with(np.arange(30) % 3, 4, math.nan), r"label\[4\] must be int, got nan"),
    (np.arange(30) % 2 == 0, r"label\[0\] must be int, got True"),
    (labels_with(np.arange(30) % 3, 7, False), r"label\[7\] must be int, got False"),
    (labels_with(np.arange(30) % 3, 5, "flat"), r"label\[5\] must be int, got 'flat'"),
    (labels_with(["flat", "sinc"] * 15, 9, 2), r"label\[9\] must be str, got 2"),
    (np.arange(35) % 3, r"30 labels, got \(35,\)"),
    (np.arange(25) % 3, r"30 labels, got \(25,\)"),
    (np.arange(30)[:, None] % 3, r"30 labels, got \(30, 1\)"),
    ((np.arange(30) % 3).tolist(), "30 labels, got list"),
])
def test_fit_refuses_labels_that_are_not_one_int_or_one_str_per_row(kind, y, refusal):
    """Each family refuses the labels before any state changes, so a new
    model stays unfitted and a fitted one keeps its fit.  Without the check,
    25 labels on fewer rows fitted a forest, 15 raised an IndexError, the
    booster a broadcast ValueError and NaN labels a KeyError."""
    X = np.random.default_rng(3).normal(size=(30, 4))
    model = small_model(kind)
    unfitted = dict(vars(model))
    with pytest.raises(DataFileError, match=refusal):
        model.fit(X, y)
    assert vars(model) == unfitted
    model.fit(X, np.arange(30) % 3)
    fitted, preds = json.dumps(model.to_dict()), model.predict(X).tolist()
    with pytest.raises(DataFileError, match=refusal):
        model.fit(X, y)
    assert json.dumps(model.to_dict()) == fitted and model.predict(X).tolist() == preds


STUMP = {"feature": [0, -1, -1], "threshold": [0.5, 0.0, 0.0], "left": [1, 1, 2],
         "right": [2, 1, 2], "value": [[1.0, 0.0], [0.0, 1.0]], "roots": [0]}
FOREST = {"kind": "bagged_trees", "params": {"n_trees": 1, "max_bins": 256}, "seed": 0,
          "classes": ["flat", "sinc"], "n_features": 1, "trees": STUMP}
BOOSTER = {"kind": "boosted_trees",
           "params": {"rounds": 1, "max_depth": 3, "learning_rate": 0.1, "max_bins": 128},
           "seed": 0, "classes": ["flat", "sinc"], "n_features": 1,
           "trees": {"feature": [-1, -1], "threshold": [0.0, 0.0], "left": [0, 1], "right": [0, 1],
                     "value": [0.5, -0.5], "roots": [0, 1]}}


def with_trees(model, **change):
    return {**model, "trees": {**model["trees"], **change}}


# Valid headers whose model part cannot be rebuilt, by what is wrong with it.
MALFORMED_MODELS = {
    "no_trees": {k: v for k, v in FOREST.items() if k != "trees"},
    "no_width": {k: v for k, v in FOREST.items() if k != "n_features"},
    "unknown_param": {**BOOSTER, "params": {"depth": 3}},
    "dangling_child": with_trees(FOREST, left=[5, 1, 2]),
    "child_back_up_its_tree": with_trees(FOREST, right=[0, 1, 2]),
    "child_in_another_tree": {**FOREST, "params": {"n_trees": 2, "max_bins": 256}, "trees": {
        "feature": [0, -1, -1, 0, -1, -1], "threshold": [0.5, 0.0, 0.0, 0.2, 0.0, 0.0],
        "left": [4, 1, 2, 4, 4, 5], "right": [2, 1, 2, 5, 4, 5],
        "value": [[1.0, 0.0], [0.0, 1.0]] * 2, "roots": [0, 3]}},
    "feature_at_width": with_trees(FOREST, feature=[1, -1, -1]),
    "three_probs": with_trees(FOREST, value=[[0.2, 0.3, 0.5]] * 2),  # three values, two classes
    "empty_forest": with_trees(FOREST, **{k: [] for k in STUMP}),
    "string_probs": with_trees(FOREST, value=[["0.5", "0.5"]] * 2),
    "nan_probs": with_trees(FOREST, value=[[math.nan, 1.0], [0.0, 1.0]]),
    "listed_boost_leaf": with_trees(BOOSTER, value=[[0.5], [-0.5]]),  # a leaf must be one number
    "bool_boost_leaf": with_trees(BOOSTER, value=[True, 0.5]),
    "one_tree_round": with_trees(BOOSTER, feature=[-1], threshold=[0.0], left=[0], right=[0],
                                 value=[0.5], roots=[0]),  # two classes need two trees a round
    "short_second_round": {**BOOSTER, "params": {**BOOSTER["params"], "rounds": 2}},
    "string_threshold": with_trees(FOREST, threshold=["0.5", 0.0, 0.0]),
    "bool_threshold": with_trees(FOREST, threshold=[True, 0.0, 0.0]),
    "nan_threshold": with_trees(FOREST, threshold=[math.nan, 0.0, 0.0]),
    "inf_threshold": with_trees(FOREST, threshold=[math.inf, 0.0, 0.0]),
    "minus_inf_threshold": with_trees(FOREST, threshold=[-math.inf, 0.0, 0.0]),
    "bool_width": {**FOREST, "n_features": True},
    "negative_width": {**FOREST, "n_features": -1},
    "bool_classes": {**FOREST, "classes": [True, 3, 4, False]},
    "mixed_classes": {**FOREST, "classes": ["flat", 3]},
    "nan_classes": {**FOREST, "classes": [math.nan, 3]},
}


@pytest.mark.parametrize("text", ["{}", "not json", *(
    json.dumps({"format": "whiskerlab-model", "format_version": 2, "task": "patterns4", "model": m})
    for m in MALFORMED_MODELS.values())], ids=["empty", "not_json", *MALFORMED_MODELS])
def test_load_model_rejects_garbage(tmp_path, text):
    path = tmp_path / "model.json"
    path.write_text(text)
    with pytest.raises(DataFileError):
        load_model(path)


def test_the_bases_of_the_garbage_models_load(tmp_path):
    """FOREST and BOOSTER, which each MALFORMED_MODELS entry breaks in one way, load."""
    path = tmp_path / "model.json"
    for model, want in ((FOREST, ["flat", "sinc"]), (BOOSTER, ["flat", "flat"])):
        path.write_text(json.dumps({"format": "whiskerlab-model", "format_version": 2,
                                    "task": "patterns4", "model": model}))
        assert load_model(path).predict(np.array([[0.0], [1.0]])).tolist() == want


def test_a_version_1_model_file_is_refused_with_a_request_to_retrain(tmp_path):
    """Version 1 stored one dict of node lists per tree."""
    v1_tree = {"feature": [0, -1, -1], "threshold": [0.5, 0.0, 0.0], "left": [1, -1, -1],
               "right": [2, -1, -1], "value": [None, [1.0, 0.0], [0.0, 1.0]]}
    path = tmp_path / "model.json"
    path.write_text(json.dumps({"format": "whiskerlab-model", "format_version": 1, "task": "patterns4",
                                "model": {**FOREST, "trees": [v1_tree]}}))
    with pytest.raises(DataFileError, match="model format version 1 is not 2; retrain the model"):
        load_model(path)


class ConstantModel:
    kind = "bagged_trees"

    def __init__(self, label, classes):
        self.label = label
        self.classes_ = classes

    def predict(self, X):
        return np.array([self.label] * X.shape[0], dtype=object)


def test_evaluate_perfect_and_constant_predictors():
    data = blob_dataset(n_per_class=10, n_classes=4, separation=30.0, seed=8)
    y = task_labels(data, "specimens10")
    model = BaggedTreesClassifier(FAST_FOREST, seed=3).fit(data.features, y)
    rep = evaluate(model, data, "specimens10")
    assert rep.accuracy == 1.0
    assert np.array_equal(rep.confusion, np.diag([10, 10, 10, 10]))

    const = evaluate(ConstantModel(1, [1, 2, 3, 4]), data, "specimens10")
    assert const.accuracy == 0.25
    assert const.confusion[:, 0].sum() == 40


def test_unknown_test_label_is_flagged_as_error():
    data = blob_dataset(n_per_class=10, n_classes=3, separation=30.0, seed=9)
    rep = evaluate(ConstantModel(1, [1, 2]), data, "specimens10")
    assert rep.unknown_label_count == 10
    assert 3 in rep.classes
    assert rep.accuracy == pytest.approx(1 / 3, abs=1e-12)


def test_accuracy_invariant_to_sample_order(small_dataset):
    labeled, _ = small_dataset
    train_set, test_set = split(labeled, 0.2, seed=5)
    model = train(ModelSpec("bagged_trees", params=FAST_FOREST), train_set, "depths4")
    base = evaluate(model, test_set, "depths4")
    rng = np.random.default_rng(0)
    shuffled = test_set.subset(rng.permutation(test_set.n))
    assert evaluate(model, shuffled, "depths4").accuracy == base.accuracy


def test_report_rendering(tmp_path, small_dataset):
    labeled, _ = small_dataset
    train_set, test_set = split(labeled, 0.2, seed=5)
    reports = []
    for kind, params in (("linear_margin", None), ("bagged_trees", FAST_FOREST)):
        model = train(ModelSpec(kind, params=params), train_set, "patterns4")
        reports.append(evaluate(model, test_set, "patterns4"))
    md = render_report_markdown(reports)
    assert "| patterns4 |" in md
    assert "linear_margin" in md and "bagged_trees" in md


def _edit_second_record(path, samples, edit):
    """Save samples to path with edit applied to the second record."""
    save_dataset(path, samples)
    lines = path.read_text().splitlines()
    record = json.loads(lines[1])
    edit(record)
    path.write_text("\n".join([lines[0], json.dumps(record, sort_keys=True), *lines[2:]]) + "\n")


def _edit_second_line(path, samples, field, value):
    """Save samples to path with one field of the second record (label or top level) set to value."""
    def set_field(record):
        (record["label"] if field in record["label"] else record)[field] = value
    _edit_second_record(path, samples, set_field)


@pytest.mark.parametrize("field, value", [
    ("specimen_id", "1"), ("specimen_id", 1.0), ("specimen_id", True),
    ("speed_mm_s", "150"), ("speed_mm_s", False), ("speed_mm_s", None),
    ("speed_mm_s", math.nan), ("speed_mm_s", math.inf), ("speed_mm_s", 0),
    ("depth_mm", "3"), ("depth_mm", True),
    ("direction_deg", "0"), ("direction_deg", 0.0), ("direction_deg", False),
    ("direction_deg", 45),
    ("pattern", 3), ("pattern", None),
    ("trigger_frame", 30.7), ("trigger_frame", "30"), ("trigger_frame", True),
    ("trigger_channel", 1.0), ("trigger_channel", None),
    ("seed", "12"), ("seed", 12.0), ("seed", True), ("seed", None),
    ("config_digest", 5), ("config_digest", True), ("config_digest", None),
    ("label", None),
])
def test_load_dataset_rejects_mistyped_fields(tmp_path, small_dataset, field, value):
    path = tmp_path / "dataset.jsonl"
    _edit_second_line(path, small_dataset[0].samples, field, value)
    with pytest.raises(DataFileError, match=f":2: bad sample record .*{field}"):
        load_dataset(path)


@pytest.mark.parametrize("missing", ["label", "seed", "config_digest"])
def test_save_dataset_refuses_an_unlabelled_capture(tmp_path, small_dataset, missing):
    """The writer refuses what the reader would, before the previous file is touched."""
    path = tmp_path / "dataset.jsonl"
    path.write_bytes(b"previous\n")
    samples = list(small_dataset[0].samples)
    samples[1] = replace(samples[1], **{missing: None})
    with pytest.raises(ConfigError, match="every sample must carry its label, seed and config digest"):
        save_dataset(path, samples)
    assert path.read_bytes() == b"previous\n" and list(tmp_path.iterdir()) == [path]


def test_load_dataset_takes_int_numbers(tmp_path, small_dataset):
    path = tmp_path / "dataset.jsonl"
    _edit_second_line(path, small_dataset[0].samples, "speed_mm_s", 150)
    loaded = load_dataset(path)
    assert loaded.n == small_dataset[0].n
    assert loaded.samples[1].label.speed_mm_s == 150.0


def _values_edit(value):
    """An edit that stores value as the record's first feature."""
    def edit(record):
        values = record_values(record)
        values[0, 0] = value
        record["x"] = record_x(values)
    return edit


def _bytes_edit(change):
    """An edit that replaces the bytes x holds with change(bytes)."""
    def edit(record):
        record["x"] = base64.b64encode(change(base64.b64decode(record["x"]))).decode()
    return edit


CORRUPT_RECORDS = {  # case -> (what the error says of the field, edit of the record)
    "x-int": ("x must be", lambda r: r.update(x=12)),
    "x-null": ("x must be", lambda r: r.update(x=None)),
    "x-not-base64": ("x is not strict base64", lambda r: r.update(x="!" + r["x"][1:])),
    "x-byte-short": ("x holds 5599 bytes", _bytes_edit(lambda raw: raw[:-1])),
    "x-byte-over": ("x holds 5601 bytes", _bytes_edit(lambda raw: raw + b"\0")),
    "shape-missing": ("shape must be", lambda r: r.pop("shape")),
    "shape-bool": ("shape must be", lambda r: r.update(shape=True)),
    "shape-bool-dim": ("shape must be", lambda r: r.update(shape=[True, 70])),
    "shape-float": ("shape must be", lambda r: r.update(shape=[10.0, 70])),
    "shape-zero": ("shape must be", lambda r: r.update(shape=[0, 70])),
    "shape-negative": ("shape must be", lambda r: r.update(shape=[-10, -70])),
    "shape-3d": ("shape must be", lambda r: r.update(shape=[10, 7, 10])),
    "shape-disagrees": (r"shape \[10, 69\] needs", lambda r: r.update(shape=[10, 69])),
    "x-nan": ("x values must be", _values_edit(math.nan)),
    "x-inf": ("x values must be", _values_edit(math.inf)),
    "x-minus-inf": ("x values must be", _values_edit(-math.inf)),
    "x-above-range": ("x values must be", _values_edit(np.nextafter(LOG_RANGE[1], math.inf))),
    "x-below-range": ("x values must be", _values_edit(np.nextafter(LOG_RANGE[0], -math.inf))),
}


@pytest.mark.parametrize("says, edit", CORRUPT_RECORDS.values(), ids=list(CORRUPT_RECORDS))
def test_load_dataset_rejects_corrupt_features(tmp_path, small_dataset, says, edit):
    path = tmp_path / "dataset.jsonl"
    _edit_second_record(path, small_dataset[0].samples, edit)
    with pytest.raises(DataFileError, match=f":2: bad sample record .*{says}"):
        load_dataset(path)


def test_bad_utf8_is_refused_naming_its_line(tmp_path, small_dataset):
    path = tmp_path / "dataset.jsonl"
    save_dataset(path, small_dataset[0].samples)
    lines = path.read_bytes().splitlines(keepends=True)
    path.write_bytes(b"".join([lines[0], b"\xff" + lines[1], *lines[2:]]))
    with pytest.raises(DataFileError, match=r"dataset\.jsonl:2: bad sample record .*utf-8"):
        load_dataset(path)


def test_float_list_datasets_are_refused(tmp_path, small_dataset):
    """A file whose x is (frames, channels) float lists has no reader and asks for a rebuild."""
    path = tmp_path / "dataset.jsonl"
    save_dataset(path, small_dataset[0].samples)
    records = [json.loads(line) for line in path.read_text().splitlines()]
    path.write_text("".join(json.dumps({**{k: v for k, v in r.items() if k != "shape"},
                                        "x": record_values(r).T.tolist()}) + "\n"
                            for r in records))
    with pytest.raises(DataFileError, match=r"dataset\.jsonl:1: bad sample record \(x must be "
                                            r"a base64 .*float64.*rebuild .*whiskerlab dataset"):
        load_dataset(path)


def test_edge_values_round_trip_bit_for_bit(tmp_path):
    lo, hi = LOG_RANGE
    edges = [lo, np.nextafter(lo, 0.0), hi, np.nextafter(hi, 0.0), 0.0, -0.0]
    values = np.array([edges, edges[::-1]])
    spec = specimen_by_id(1)
    sample = TactileSample(values, trigger_frame=5, trigger_channel=2,
                           label=SampleLabel(1, spec.pattern, spec.depth_mm, 150.0, 0),
                           seed=3, config_digest="d")
    path = tmp_path / "dataset.jsonl"
    save_dataset(path, [sample])
    record = json.loads(path.read_text())
    assert record["shape"] == [2, 6]
    assert record["x"] == base64.b64encode(values.astype("<f8").tobytes()).decode("ascii")
    assert record["x"] == record_x(values)
    assert load_dataset(path).features.tobytes() == values.tobytes()
    again = load_dataset(path).samples[0].values
    assert again.tobytes() == values.tobytes() and again.dtype == np.float64
    assert np.signbit(again[0, 5]) and not np.signbit(again[0, 4])
    assert again.flags.writeable and again.flags.c_contiguous


def test_dataset_jsonl_round_trip(tmp_path, small_dataset):
    labeled, _ = small_dataset
    path = tmp_path / "dataset.jsonl"
    save_dataset(path, labeled.samples)
    again = load_dataset(path)
    assert again.n == labeled.n
    assert again.features.tobytes() == labeled.features.tobytes()
    assert np.array_equal(again.specimen_ids, labeled.specimen_ids)
    assert [s.label for s in again.samples] == [s.label for s in labeled.samples]


def test_jsonl_round_trip(tmp_path):
    cfg = DetectorConfig(window_frames=2, backtrack_frames=1, trigger_multiplier=2.0,
                         sample_frames=4, mode="literal")
    stream = np.ones((18, 10))  # calibration at 1.0, then a 2.5 burst on channel 1
    stream[10:14, 0] = 2.5
    samples = capture_samples(stream, cfg)
    samples[0].label = SampleLabel(3, "sinc", 3.0, 150.0, 90)
    samples[0].seed = 1234
    samples[0].config_digest = "abc"
    path = tmp_path / "samples.jsonl"
    save_dataset(path, samples)
    again = load_dataset(path).samples
    assert len(again) == 1
    assert again[0].values.tobytes() == samples[0].values.tobytes()
    assert again[0].values.shape == samples[0].values.shape
    assert again[0].label == samples[0].label
    assert again[0].seed == 1234
    assert again[0].trigger_frame == samples[0].trigger_frame
