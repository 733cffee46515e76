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
from .trees import PackedTrees, Tree, grow_tree, offset_bins, quantile_bin_edges, running_sum


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
    router_: PackedTrees  # the trees round-major, class-minor

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
        self._pack()
        return self

    def _pack(self) -> None:
        self.router_ = PackedTrees.pack([t for row in self.trees_ for t in row], None)
        self.n_features_ = self.router_.n_features

    def decision_function(self, X: np.ndarray) -> np.ndarray:
        # (rounds * classes, rows, 1) leaf values -> (rounds, rows, classes) steps.
        leaves = self.router_.route(X).reshape(len(self.trees_), len(self.classes_), X.shape[0])
        return running_sum(self.params.learning_rate * leaves.transpose(0, 2, 1))

    def _state_dict(self) -> dict:
        return {"trees": [[t.to_dict() for t in row] for row in self.trees_]}

    def _load_state(self, obj: dict) -> None:
        self.trees_ = [[Tree.from_dict(t) for t in row] for row in obj["trees"]]
        if not self.trees_ or any(len(row) != len(self.classes_) for row in self.trees_):
            raise ValueError("a boosted-trees model needs rounds of one tree per class")
        self._pack()
