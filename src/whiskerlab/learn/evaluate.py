"""Training and evaluation across the three classification tasks."""

import json
from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..artifacts import read_json, write_csv, write_text
from ..errors import ConfigError, DataFileError, check, check_array
from .boosting import BoostedTreesClassifier
from .dataset import LabeledDataset
from .forest import BaggedTreesClassifier
from .linear import LinearMarginClassifier

_MODEL_CLASSES = {
    cls.kind: cls
    for cls in (LinearMarginClassifier, BaggedTreesClassifier, BoostedTreesClassifier)
}
TASKS = ("specimens10", "patterns4", "depths4")
MODEL_KINDS = tuple(_MODEL_CLASSES)
MODEL_FORMAT = "whiskerlab-model"
MODEL_FORMAT_VERSION = 2


@dataclass(frozen=True)
class ModelSpec:
    """Which model family to train, with optional hyperparameter overrides."""

    kind: str
    train_seed: int = 0
    params: Optional[object] = None  # kind-specific params dataclass, or None for defaults

    def build(self):
        if self.kind not in _MODEL_CLASSES:
            raise ConfigError(f"model kind must be one of {MODEL_KINDS}, got {self.kind!r}")
        model_cls = _MODEL_CLASSES[self.kind]
        if self.params is not None and not isinstance(self.params, model_cls.params_cls):
            raise ConfigError(f"{self.kind} expects {model_cls.params_cls.__name__} parameters")
        return model_cls(self.params, seed=self.train_seed)


def task_labels(dataset: LabeledDataset, task: str) -> np.ndarray:
    if task == "specimens10":
        return dataset.specimen_ids.astype(object)
    if task == "patterns4":
        return np.array(dataset.patterns, dtype=object)
    if task == "depths4":
        return dataset.depths.astype(int).astype(object)
    raise ConfigError(f"task must be one of {TASKS}, got {task!r}")


def train(spec: ModelSpec, train_set: LabeledDataset, task: str):
    """Fit one model family on one task's labels."""
    if train_set.n == 0:
        raise ConfigError("training set is empty")
    model = spec.build()
    model.task = task
    model.fit(train_set.features, task_labels(train_set, task))
    return model


@dataclass
class EvalReport:
    """Test accuracy plus the confusion matrix for one (model, task) pair.

    Confusion rows are true classes, columns predicted, both over ``classes``
    (the model's classes followed by any test-only labels, which can never be
    predicted and are flagged in unknown_label_count).
    """

    task: str
    model_kind: str
    accuracy: float
    confusion: np.ndarray
    classes: list
    n_test: int
    unknown_label_count: int

    def to_dict(self) -> dict:
        return {
            "task": self.task,
            "model_kind": self.model_kind,
            "accuracy": self.accuracy,
            "confusion": self.confusion.tolist(),
            "classes": self.classes,
            "n_test": self.n_test,
            "unknown_label_count": self.unknown_label_count,
        }

    @classmethod
    def from_dict(cls, obj: dict) -> "EvalReport":
        """Rebuild a report; a missing key, an unknown task or model kind, a value
        :func:`check` refuses or a confusion that is not a square matrix of
        ints >= 0 over ``classes`` raises KeyError, TypeError or ValueError."""
        if obj["task"] not in TASKS or obj["model_kind"] not in MODEL_KINDS:
            raise ValueError(f"unknown task/model {obj['task']!r}/{obj['model_kind']!r}")
        confusion = check_array("confusion", obj["confusion"], int, "[0, inf)")
        if confusion.shape != (len(obj["classes"]),) * 2:
            raise ValueError("confusion must be a square matrix over the classes")
        return cls(
            task=obj["task"],
            model_kind=obj["model_kind"],
            accuracy=float(check("accuracy", obj["accuracy"], float, "[0, 1]")),
            confusion=confusion,
            classes=obj["classes"],
            n_test=check("n_test", obj["n_test"], int, "[1, inf)"),
            unknown_label_count=check("unknown_label_count", obj["unknown_label_count"], int,
                                      "[0, inf)"),
        )


def evaluate(model, test_set: LabeledDataset, task: str) -> EvalReport:
    if test_set.n == 0:
        raise ConfigError("test set is empty")
    truth = task_labels(test_set, task)
    preds = model.predict(test_set.features)

    known = list(model.classes_)
    extra = sorted(set(truth.tolist()) - set(known))
    classes = known + extra
    index = {c: i for i, c in enumerate(classes)}
    confusion = np.zeros((len(classes), len(classes)), dtype=np.int64)
    for t, p in zip(truth.tolist(), preds.tolist()):
        confusion[index[t], index[p]] += 1

    accuracy = float(np.trace(confusion)) / test_set.n
    return EvalReport(
        task=task,
        model_kind=model.kind,
        accuracy=accuracy,
        confusion=confusion,
        classes=classes,
        n_test=test_set.n,
        unknown_label_count=len([t for t in truth.tolist() if t not in set(known)]),
    )


def save_model(path, model) -> None:
    doc = {
        "format": MODEL_FORMAT,
        "format_version": MODEL_FORMAT_VERSION,
        "task": getattr(model, "task", None),
        "model": model.to_dict(),
    }
    write_text(path, json.dumps(doc, sort_keys=True) + "\n")


def load_model(path):
    doc = read_json(path)
    if doc.get("format") != MODEL_FORMAT:
        raise DataFileError(f"{path}: not a {MODEL_FORMAT} file")
    if doc.get("format_version") != MODEL_FORMAT_VERSION:
        raise DataFileError(f"{path}: model format version {doc.get('format_version')!r} is not "
                            f"{MODEL_FORMAT_VERSION}; retrain the model with whiskerlab train")
    if doc.get("task") not in TASKS:
        raise DataFileError(f"{path}: model carries no valid task tag")
    try:
        obj = doc["model"]
        kind = obj.get("kind")
        if kind not in _MODEL_CLASSES:
            raise DataFileError(f"{path}: unknown model kind {kind!r}")
        model = _MODEL_CLASSES[kind].from_dict(obj)
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        raise DataFileError(f"{path}: malformed model document ({exc!r})") from exc
    model.task = doc["task"]
    return model


def render_report_markdown(reports: list[EvalReport]) -> str:
    """Accuracy grid: one row per task, one column per model family."""
    kinds = [k for k in MODEL_KINDS if any(r.model_kind == k for r in reports)]
    by_key = {(r.task, r.model_kind): r for r in reports}
    lines = ["| Task | " + " | ".join(kinds) + " |",
             "|---" * (len(kinds) + 1) + "|"]
    for task in TASKS:
        if not any(r.task == task for r in reports):
            continue
        cells = []
        for kind in kinds:
            r = by_key.get((task, kind))
            cells.append(f"{r.accuracy:.1%}" if r else "-")
        lines.append(f"| {task} | " + " | ".join(cells) + " |")
    return "\n".join(lines) + "\n"


def save_report_csv(path, reports: list[EvalReport]) -> None:
    write_csv(path, ["task", "model", "accuracy", "n_test", "unknown_labels"],
              ([r.task, r.model_kind, repr(r.accuracy), r.n_test, r.unknown_label_count]
               for r in sorted(reports, key=lambda r: (TASKS.index(r.task),
                                                       MODEL_KINDS.index(r.model_kind)))))
