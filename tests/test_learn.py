import json

import numpy as np
import pytest

from whiskerlab.errors import (
    ConfigError,
    DataFileError,
    DatasetBuildError,
    DegenerateModelError,
)
from whiskerlab.learn.boosting import BoostedTreesClassifier, BoostParams
from whiskerlab.learn.dataset import (
    CollectionPlan,
    LabeledDataset,
    build_dataset,
    load_dataset,
    save_dataset,
    split,
)
from whiskerlab.learn.evaluate import (
    EvalReport,
    ModelSpec,
    evaluate,
    load_model,
    render_report_markdown,
    save_model,
    task_labels,
    train,
)
from whiskerlab.learn.forest import BaggedTreesClassifier, ForestParams
from whiskerlab.learn.linear import LinearMarginClassifier, LinearParams
from whiskerlab.sim import SPECIMENS

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
        patterns=["flat"] * (n_per_class * n_classes),
        depths=np.zeros(n_per_class * n_classes),
        speeds=np.zeros(n_per_class * n_classes),
        directions=np.zeros(n_per_class * n_classes, dtype=np.int64),
        seeds=np.zeros(n_per_class * n_classes, dtype=np.int64),
    )


def test_one_slide_per_specimen_gives_one_sample_per_label():
    labeled, _ = build_dataset(plan=CollectionPlan(slides_per_specimen=1), seed=3)
    assert labeled.n == 10
    assert sorted(labeled.specimen_ids.tolist()) == list(range(1, 11))
    labeled.check_label_consistency()


def test_dataset_is_balanced_and_consistent(small_dataset):
    labeled, diagnostics = small_dataset
    assert labeled.n == 30
    counts = {sid: 0 for sid in range(1, 11)}
    for sid in labeled.specimen_ids.tolist():
        counts[sid] += 1
    assert all(v == 3 for v in counts.values())
    labeled.check_label_consistency()
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


def test_specimen_mapping_determines_pattern_and_depth():
    pairs = {(t.pattern, t.depth_mm) for t in SPECIMENS}
    assert len(pairs) == 10  # a perfect 10-class model induces both 4-class tasks
    corrupted, _ = build_dataset(plan=CollectionPlan(slides_per_specimen=1), seed=4)
    corrupted.patterns[0] = "triangle" if corrupted.patterns[0] != "triangle" else "sinc"
    with pytest.raises(ConfigError):
        corrupted.check_label_consistency()


def test_impossible_capture_rate_fails_build():
    # A path too short to reach the specimen never produces a capture.
    from whiskerlab.sim import SlideConfig

    with pytest.raises(DatasetBuildError):
        build_dataset(
            plan=CollectionPlan(slides_per_specimen=1, max_attempts=2),
            base_slide=SlideConfig(speed_mm_s=150.0, path_mm=10.0),
            seed=5,
        )


def test_split_is_stratified_and_disjoint():
    labeled, _ = build_dataset(plan=CollectionPlan(slides_per_specimen=10), seed=6)
    train_set, test_set = split(labeled, 0.1, seed=9)
    assert train_set.n == 90 and test_set.n == 10
    assert sorted(test_set.specimen_ids.tolist()) == list(range(1, 11))
    train_seeds = set(train_set.seeds.tolist())
    assert not train_seeds & set(test_set.seeds.tolist())
    # determinism
    again_train, again_test = split(labeled, 0.1, seed=9)
    assert np.array_equal(again_test.seeds, test_set.seeds)
    other_train, other_test = split(labeled, 0.1, seed=10)
    assert not np.array_equal(other_test.seeds, test_set.seeds)


def test_split_degenerate_one_sample_per_class_warns():
    labeled, _ = build_dataset(plan=CollectionPlan(slides_per_specimen=1), seed=7)
    with pytest.warns(UserWarning):
        train_set, test_set = split(labeled, 0.1, seed=1)
    assert train_set.n == 9 and test_set.n == 1


def test_linearly_separable_blobs_reach_full_train_accuracy():
    data = blob_dataset(n_per_class=30, n_classes=2, separation=25.0, seed=1)
    model = LinearMarginClassifier(LinearParams()).fit(
        data.features, task_labels(data, "specimens10")
    )
    preds = model.predict(data.features)
    assert np.mean(preds == task_labels(data, "specimens10")) == 1.0


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
        patterns=["flat"] * n,
        depths=np.zeros(n),
        speeds=np.zeros(n),
        directions=np.zeros(n, dtype=np.int64),
        seeds=np.zeros(n, dtype=np.int64),
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
    ("bagged_trees", ForestParams(n_trees=0)),
    ("bagged_trees", ForestParams(max_bins=1)),
    ("boosted_trees", BoostParams(rounds=0)),
    ("boosted_trees", BoostParams(max_depth=0)),
    ("boosted_trees", BoostParams(learning_rate=0.0)),
    ("boosted_trees", BoostParams(max_bins=1)),
    ("linear_margin", LinearParams(epochs=0)),
    ("linear_margin", LinearParams(reg=-0.5)),
    ("linear_margin", LinearParams(learning_rate=-0.05)),
]


@pytest.mark.parametrize("kind, params", BAD_PARAMS)
def test_model_params_are_validated(kind, params):
    with pytest.raises(ConfigError):
        params.validate()
    with pytest.raises(ConfigError):
        ModelSpec(kind, params=params).build()


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


def test_load_model_rejects_garbage(tmp_path):
    # Valid headers whose model part cannot be rebuilt: no trees, an unknown param,
    # a broken tree, leaves of the wrong shape, a short boosting round.
    header = {"format": "whiskerlab-model", "format_version": 1, "task": "patterns4"}
    no_trees = {"kind": "bagged_trees", "params": {"n_trees": 1, "max_bins": 256},
                "seed": 0, "classes": ["flat", "sinc"]}
    unknown_param = {"kind": "boosted_trees", "params": {"depth": 3}, "seed": 0,
                     "classes": ["flat", "sinc"], "trees": []}
    dangling_child = {**no_trees, "trees": [{
        "feature": [0, -1], "threshold": [0.5, 0.0], "left": [5], "right": [1, -1],
        "value": [None, [1.0, 0.0]]}]}

    def leaf_tree(value):
        return {"feature": [-1], "threshold": [0.0], "left": [-1], "right": [-1], "value": [value]}

    three_probs = {**no_trees, "trees": [leaf_tree([0.2, 0.3, 0.5])]}  # three values, two classes
    empty_forest = {**no_trees, "trees": []}
    boosting = {"kind": "boosted_trees",
                "params": {"rounds": 1, "max_depth": 3, "learning_rate": 0.1, "max_bins": 128},
                "seed": 0, "classes": ["flat", "sinc"]}
    listed_boost_leaf = {**boosting, "trees": [[leaf_tree([0.5])] * 2]}  # a leaf must be one number
    one_tree_round = {**boosting, "trees": [[leaf_tree(0.5)]]}  # two classes need two trees a round
    malformed = [json.dumps({**header, "model": m})
                 for m in (no_trees, unknown_param, dangling_child, three_probs, listed_boost_leaf,
                           one_tree_round, empty_forest)]
    path = tmp_path / "model.json"
    for text in ["{}", "not json", *malformed]:
        path.write_text(text)
        with pytest.raises(DataFileError):
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


def test_dataset_jsonl_round_trip(tmp_path, small_dataset):
    labeled, _ = small_dataset
    path = tmp_path / "dataset.jsonl"
    save_dataset(path, labeled.samples)
    again = load_dataset(path)
    assert again.n == labeled.n
    assert np.array_equal(again.features, labeled.features)
    assert np.array_equal(again.specimen_ids, labeled.specimen_ids)
    assert np.array_equal(again.speeds, labeled.speeds)
