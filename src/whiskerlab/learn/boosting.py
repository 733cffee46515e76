"""Gradient-boosted shallow trees with a squared-error-on-logits objective.

Each class keeps a logit score, boosted independently against its one-hot
target under squared error: every round fits one depth-limited regression
tree per class to the current residuals and nudges the scores by the
learning rate.  Prediction takes the argmax of the class scores.  Training
involves no sampling, so it is deterministic regardless of seed.

A class's scores change only through its own trees, so a fit is one
independent chain of rounds per class.  The chains run on a thread pool of
one worker per usable core (at most one per class), each chain whole, in
class order as the workers come free; the pool is shut down before ``fit``
returns.  A chain runs the same operations on whichever worker takes it,
so the trees do not depend on the worker count, bit for bit.  The workers
share the training matrix's :class:`BlockedCodes` and root counts, read
only.  The calling thread allocates one :class:`SplitBuffers` per worker;
a chain borrows one for its run and returns it, even when the chain fails.
An error in a chain is raised by ``fit``, and the chains not yet started
do not run.
"""

import os
import queue
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from ..errors import Validated
from .base import Classifier
from .trees import (BlockedCodes, PackedTrees, SplitBuffers, Tree, grow_regression_tree,
                    offset_bins, quantile_bin_edges, running_sum)


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
    trees_: list[list[Tree]]  # trees_[round][class]
    router_: PackedTrees  # the trees round-major, class-minor

    def fit(self, X: np.ndarray, y: np.ndarray) -> "BoostedTreesClassifier":
        yi = self._encode_labels(y)
        n_classes, rounds = len(self.classes_), self.params.rounds
        edges = quantile_bin_edges(X, self.params.max_bins)
        codes = BlockedCodes(*offset_bins(X, edges))
        root_counts = codes.cumulate()  # every tree's root holds every row

        workers, buffers = _workers(n_classes), queue.SimpleQueue()
        for _ in range(workers):
            buffers.put(SplitBuffers(codes, self.params.max_depth))

        def chain(c: int) -> list[Tree]:
            work = buffers.get()  # a worker holds at most one at a time
            try:
                target = (yi == c).astype(np.float64)
                scores = np.zeros(X.shape[0])
                column = []
                for _ in range(rounds):
                    tree, fitted = grow_regression_tree(
                        codes, target - scores, edges, self.params.max_depth, root_counts, work)
                    column.append(tree)
                    scores += self.params.learning_rate * fitted
                return column
            finally:
                buffers.put(work)  # a failed chain's buffers serve the next chain

        # map cancels the chains not yet started when one fails; the exit joins the workers.
        with ThreadPoolExecutor(workers) as pool:
            columns = list(pool.map(chain, range(n_classes)))
        self.trees_ = [list(row) for row in zip(*columns)]
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


def _workers(n_classes: int) -> int:
    """Threads for a fit's class chains: one per core this process may run on,
    at most one per chain."""
    cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return max(1, min(cores or 1, n_classes))
