"""Gradient-boosted shallow trees with a squared-error-on-logits objective.

Each class keeps a logit score, boosted independently against its one-hot
target under squared error: every round fits one depth-limited regression
tree per class to the current residuals and nudges the scores by the
learning rate.  Prediction takes the argmax of the class scores.  Training
involves no sampling, so it is deterministic regardless of seed.

A class's scores change only through its own trees, so a fit is one
independent chain of rounds per class.  The chains are forked across the
usable cores (at most one process per class) by
:func:`~whiskerlab.learn.workers.fork_map`, and their columns of trees come
back in class order.  A chain runs the same operations in whichever process
runs it, so the trees do not depend on the worker count, bit for bit.  The
processes inherit the training matrix's :class:`BlockedCodes` with its root
counts, and each tree allocates its own arrays.  An error in a chain is
raised by ``fit``: the first failed chain's in class order, as the serial
loop would raise.  A process stops at its first failed chain, and every
child has been reaped when ``fit`` returns or raises.
"""

from dataclasses import dataclass

import numpy as np

from ..errors import Validated, check
from .base import Classifier
from .trees import BlockedCodes, PackedTrees, Tree, bin_matrix, grow_regression_tree, running_sum
from .workers import fork_map


@dataclass(frozen=True)
class BoostParams(Validated):
    rounds: int = 100
    max_depth: int = 3
    learning_rate: float = 0.1
    max_bins: int = 128

    BOUNDS = {"rounds": "[1, inf)", "max_depth": "[1, inf)", "learning_rate": "(0, inf)",
              "max_bins": "[2, inf)"}


class BoostedTreesClassifier(Classifier):
    kind = "boosted_trees"
    params_cls = BoostParams
    exact_width = False
    # The grown trees, trees_[round][class], kept after a fit only for the node
    # count of bench/workloads.py; predictions and the model file use router_ alone.
    trees_: list[list[Tree]]
    router_: PackedTrees  # the trees round-major, class-minor

    def _fit(self, X: np.ndarray, yi: np.ndarray) -> None:
        n_classes, rounds = len(self.classes_), self.params.rounds
        binned = bin_matrix(X, self.params.max_bins)
        codes = BlockedCodes(binned)

        def chain(c: int) -> list[Tree]:
            target = (yi == c).astype(np.float64)
            scores = np.zeros(X.shape[0])
            column = []
            for _ in range(rounds):
                tree, fitted = grow_regression_tree(codes, target - scores, binned.edges,
                                                    self.params.max_depth)
                column.append(tree)
                scores += self.params.learning_rate * fitted
            return column

        columns = fork_map(chain, n_classes)
        self.trees_ = [list(row) for row in zip(*columns)]
        self.router_ = PackedTrees.pack([t for row in self.trees_ for t in row], None)
        self.n_features_ = X.shape[1]

    def decision_function(self, X: np.ndarray) -> np.ndarray:
        # (rounds * classes, rows, 1) leaf values -> (rounds, rows, classes) steps.
        n_classes = len(self.classes_)
        leaves = self.router_.route(X).reshape(self.router_.n_trees // n_classes, n_classes, X.shape[0])
        return running_sum(self.params.learning_rate * leaves.transpose(0, 2, 1))

    def _state_dict(self) -> dict:
        return {"n_features": self.n_features_, "trees": self.router_.to_dict()}

    def _load_state(self, obj: dict) -> None:
        self.n_features_ = check("n_features", obj["n_features"], int, "[0, inf)")
        self.router_ = PackedTrees.from_dict(obj["trees"], None, self.n_features_)
        if self.router_.n_trees != self.params.rounds * len(self.classes_):
            raise ValueError(f"a boosted-trees model holds rounds x classes = {self.params.rounds} x "
                             f"{len(self.classes_)} trees, round-major, not {self.router_.n_trees}")

