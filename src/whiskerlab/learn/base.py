"""Plumbing shared by the three classifier families.

A family supplies ``kind``, its params dataclass, ``fit``, a per-class
``decision_function`` and its fitted state as JSON; this base encodes the
labels, predicts the argmax class and round-trips the whole model.  Both
``fit`` and the state loader set ``n_features_``, the input width
``predict`` then requires (DataFileError otherwise).
"""

from dataclasses import asdict
from typing import Optional

import numpy as np

from ..errors import DataFileError, DegenerateModelError, check


class Classifier:
    kind: str
    params_cls: type
    n_features_: int  # input columns the fitted model reads
    exact_width = True  # False: wider input is fine (trees read only their split columns)

    def __init__(self, params: Optional[object] = None, seed: int = 0):
        self.params = params if params is not None else self.params_cls()
        self.seed = seed
        self.classes_: list = []

    def _encode_labels(self, y: np.ndarray) -> np.ndarray:
        """Set ``classes_`` from the training labels; return their class indices."""
        self.classes_ = sorted(set(y.tolist()))
        if len(self.classes_) < 2:
            raise DegenerateModelError("training set contains a single class")
        class_index = {c: i for i, c in enumerate(self.classes_)}
        return np.array([class_index[v] for v in y.tolist()], dtype=np.int64)

    def decision_function(self, X: np.ndarray) -> np.ndarray:
        """Per-class scores, shape (rows, classes); the highest one wins."""
        raise NotImplementedError

    def predict(self, X: np.ndarray) -> np.ndarray:
        width = X.shape[1] if X.ndim == 2 else -1
        if width < self.n_features_ or (self.exact_width and width != self.n_features_):
            raise DataFileError(
                f"{self.kind} model reads {self.n_features_} columns, input has shape {X.shape}"
            )
        idx = np.argmax(self.decision_function(X), axis=1)
        return np.array(self.classes_, dtype=object)[idx]

    def _state_dict(self) -> dict:
        """The fitted state, as JSON-ready values."""
        raise NotImplementedError

    def _load_state(self, obj: dict) -> None:
        raise NotImplementedError

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "params": asdict(self.params),
            "seed": self.seed,
            "classes": self.classes_,
            **self._state_dict(),
        }

    @classmethod
    def from_dict(cls, obj: dict) -> "Classifier":
        model = cls(cls.params_cls(**obj["params"]), check("seed", obj["seed"], int))
        model.classes_ = obj["classes"]
        if not (isinstance(model.classes_, list)
                and all(isinstance(c, (int, str)) for c in model.classes_)):
            raise ValueError(f"classes must be a list of labels, got {model.classes_!r}")
        model._load_state(obj)
        return model
