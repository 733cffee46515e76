"""Gradient-boosted shallow trees with a squared-error-on-logits objective.

Each class keeps a logit score, boosted independently against its one-hot
target under squared error: every round fits one depth-limited regression
tree per class to the current residuals and nudges the scores by the
learning rate.  Prediction takes the argmax of the class scores.  Training
involves no sampling, so it is deterministic regardless of seed.
"""

from dataclasses import dataclass

import numpy as np

from .base import Classifier, check_params
from .trees import Tree, columns_read, grow_tree, offset_bins, quantile_bin_edges


@dataclass(frozen=True)
class BoostParams:
    rounds: int = 100
    max_depth: int = 3
    learning_rate: float = 0.1
    max_bins: int = 128

    def validate(self) -> None:
        check_params(self, {"rounds": 1, "max_depth": 1, "max_bins": 2}, positive=("learning_rate",))


class BoostedTreesClassifier(Classifier):
    kind = "boosted_trees"
    params_cls = BoostParams
    exact_width = False
    trees_: list[list[Tree]]  # trees_[round][class]

    def fit(self, X: np.ndarray, y: np.ndarray) -> "BoostedTreesClassifier":
        yi = self._encode_labels(y)
        onehot = np.zeros((X.shape[0], len(self.classes_)))
        onehot[np.arange(X.shape[0]), yi] = 1.0

        edges = quantile_bin_edges(X, self.params.max_bins)
        offset, max_bins = offset_bins(X, edges)

        scores = np.zeros_like(onehot)
        self.trees_ = []
        for _ in range(self.params.rounds):
            round_trees = []
            for c in range(len(self.classes_)):
                residual = onehot[:, c] - scores[:, c]
                tree, fitted = grow_tree(offset, residual, None, edges, max_bins,
                                         max_depth=self.params.max_depth)
                scores[:, c] += self.params.learning_rate * fitted[:, 0]
                round_trees.append(tree)
            self.trees_.append(round_trees)
        self.n_features_ = columns_read(t for row in self.trees_ for t in row)
        return self

    def decision_function(self, X: np.ndarray) -> np.ndarray:
        scores = np.zeros((X.shape[0], len(self.classes_)))
        for round_trees in self.trees_:
            for c, tree in enumerate(round_trees):
                scores[:, c] += self.params.learning_rate * tree.predict(X, 1)[:, 0]
        return scores

    def _state_dict(self) -> dict:
        return {"trees": [[t.to_dict() for t in row] for row in self.trees_]}

    def _load_state(self, obj: dict) -> None:
        self.trees_ = [[Tree.from_dict(t) for t in row] for row in obj["trees"]]
        self.n_features_ = columns_read(t for row in self.trees_ for t in row)
