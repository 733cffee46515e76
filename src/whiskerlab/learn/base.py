"""Plumbing shared by the three classifier families.

A family supplies ``kind``, its params dataclass, ``_fit``, a per-class
``decision_function`` and its fitted state as JSON; this base checks each
input X (:meth:`Classifier._check_input`) and labels y, encodes y, predicts the
argmax class and round-trips the whole model.  Both ``_fit`` and the state
loader set ``n_features_``, the input width ``predict`` then requires
(DataFileError otherwise); without it ``predict`` and ``to_dict`` raise
DegenerateModelError.  A refused ``fit`` leaves the model as it was.
"""

from dataclasses import asdict
from typing import Optional

import numpy as np

from ..errors import ConfigError, DataFileError, DegenerateModelError, check, check_labels


class Classifier:
    kind: str
    params_cls: type
    n_features_: int  # input columns the fitted model reads
    exact_width = True  # False: wider input is fine (trees read only their split columns)

    def __init__(self, params: Optional[object] = None, seed: int = 0):
        self.params = params if params is not None else self.params_cls()
        self.seed = seed
        self.classes_: list = []

    def fit(self, X: np.ndarray, y: np.ndarray) -> "Classifier":
        """Train on rows X with labels y, which set ``classes_``: one per row,
        all ints or all strs, none a bool (:func:`~whiskerlab.errors.check_labels`)."""
        self._check_input(X)
        if not (isinstance(y, np.ndarray) and y.shape == X.shape[:1]):
            raise DataFileError(f"{self.kind} labels must be a 1-D array of one label per row, "
                                f"{X.shape[0]} labels, got {getattr(y, 'shape', type(y).__name__)}")
        try:
            labels = check_labels("label", y.tolist())
        except ConfigError as exc:
            raise DataFileError(f"{self.kind} {exc}") from None
        classes = sorted(set(labels))
        if len(classes) < 2:
            raise DegenerateModelError("training set contains a single class")
        class_index = {c: i for i, c in enumerate(classes)}
        yi = np.array([class_index[v] for v in labels], dtype=np.int64)
        before = dict(vars(self))
        self.classes_ = classes
        try:
            self._fit(X, yi)
        except Exception:  # a refused fit leaves the model as it was
            vars(self).clear()
            vars(self).update(before)
            raise
        return self

    def _fit(self, X: np.ndarray, yi: np.ndarray) -> None:
        """The family's training on checked X and class indices yi."""
        raise NotImplementedError

    def _check_input(self, X) -> None:
        """DataFileError unless X is a 2-D float array whose values are all
        finite, naming the first bad row and column; it runs before any state
        changes."""
        if not (isinstance(X, np.ndarray) and X.ndim == 2 and X.dtype.kind == "f"):
            raise DataFileError(f"{self.kind} input must be a 2-D float array, got "
                                f"{getattr(X, 'dtype', type(X).__name__)} {getattr(X, 'shape', '')}")
        if not np.isfinite(X).all():
            row, column = np.argwhere(~np.isfinite(X))[0]
            raise DataFileError(f"{self.kind} input must be finite, got {X[row, column]} "
                                f"at row {row}, column {column}")

    def decision_function(self, X: np.ndarray) -> np.ndarray:
        """Per-class scores, shape (rows, classes); the highest one wins."""
        raise NotImplementedError

    def _check_fitted(self) -> None:
        """DegenerateModelError unless a fit or a model file set the state."""
        if not hasattr(self, "n_features_"):
            raise DegenerateModelError(f"{self.kind} model is not fitted")

    def predict(self, X: np.ndarray) -> np.ndarray:
        self._check_fitted()
        self._check_input(X)
        width = X.shape[1]
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
        self._check_fitted()
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
        model.classes_ = check_labels("classes", check("classes", obj["classes"], list))
        model._load_state(obj)
        return model
