"""Gradient-boosted shallow trees with a squared-error-on-logits objective.

Each class keeps a logit score, boosted independently against its one-hot
target under squared error: every round fits one depth-limited regression
tree per class to the current residuals and nudges the scores by the
learning rate.  Prediction takes the argmax of the class scores.  Training
involves no sampling, so it is deterministic regardless of seed.

A class's scores change only through its own trees, so a fit is one
independent chain of rounds per class.  The chains run on one worker per
usable core (at most one per class): the calling thread takes a share and
helper threads, joined before ``fit`` returns, take the rest, each chain
whole, in the order the workers come free.  A chain runs the same
operations on whichever worker takes it, so the trees do not depend on the
worker count, bit for bit.  The workers share the training matrix's
:class:`BlockedCodes` and root counts, read only, and each reuses its own
:class:`SplitBuffers`, allocated by the calling thread.
"""

import os
import threading
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

        trees = [[None] * n_classes for _ in range(rounds)]
        chains, lock = iter(range(n_classes)), threading.Lock()

        def run_chains(work: SplitBuffers) -> None:
            try:
                while (c := _take(chains, lock)) is not None:
                    target = (yi == c).astype(np.float64)
                    scores = np.zeros(X.shape[0])
                    for r in range(rounds):
                        trees[r][c], fitted = grow_regression_tree(
                            codes, target - scores, edges, self.params.max_depth, root_counts, work)
                        scores += self.params.learning_rate * fitted
            except BaseException:
                with lock:  # the other workers stop after their current chain
                    for _ in chains:
                        pass
                raise

        buffers = [SplitBuffers(codes, self.params.max_depth) for _ in range(_workers(n_classes))]
        errors = []
        helpers = [threading.Thread(target=_run_share, args=(run_chains, work, errors))
                   for work in buffers[1:]]
        try:
            for helper in helpers:
                helper.start()
            run_chains(buffers[0])
        finally:
            for helper in helpers:
                if helper.ident is not None:  # started
                    helper.join()
        if errors:
            raise errors[0]
        self.trees_ = trees
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


def _take(chains, lock: threading.Lock):
    """The next class whose chain no worker has taken, or None."""
    with lock:
        return next(chains, None)


def _run_share(run_chains, work: SplitBuffers, errors: list) -> None:
    """A helper thread's share of the chains; an error goes to ``errors`` for
    the calling thread to raise."""
    try:
        run_chains(work)
    except BaseException as exc:  # raised again by fit, in the calling thread
        errors.append(exc)
