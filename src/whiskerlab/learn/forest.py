"""Bagged full-depth gini trees with per-split feature subsampling."""

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from ..errors import Validated, check
from .base import Classifier
from .trees import PackedTrees, Tree, bin_matrix, grow_gini_tree, running_sum
from .workers import fork_map


@dataclass(frozen=True)
class ForestParams(Validated):
    n_trees: int = 100
    max_bins: int = 256

    BOUNDS = {"n_trees": "[1, inf)", "max_bins": "[2, inf)"}


class BaggedTreesClassifier(Classifier):
    """Ensemble of bootstrap-trained trees; the score averages leaf probabilities.

    Each tree sees a bootstrap resample of the training set and draws a fresh
    sqrt(d)-sized feature subset at every split.  Training is deterministic
    under a fixed seed: every tree's seed is drawn before any tree grows, so
    the trees are forked across the usable cores by
    :func:`~whiskerlab.learn.workers.fork_map` and come back the same, bit
    for bit, whatever the worker count.
    """

    kind = "bagged_trees"
    params_cls = ForestParams
    exact_width = False
    # The grown trees, kept after a fit only for the node count of
    # bench/workloads.py; predictions and the model file use router_ alone.
    trees_: list[Tree]
    router_: PackedTrees

    def _fit(self, X: np.ndarray, yi: np.ndarray) -> None:
        binned = bin_matrix(X, self.params.max_bins)
        n, d = X.shape
        k = math.isqrt(d - 1) + 1  # ceil(sqrt(d)) candidate features per split

        root = np.random.default_rng(self.seed)
        tree_seeds = root.integers(0, 2**63 - 1, size=self.params.n_trees)

        def grow(t: int) -> Tree:
            rng = np.random.default_rng(int(tree_seeds[t]))
            boot = rng.integers(0, n, size=n)
            return grow_gini_tree(binned.bins[boot], yi[boot], len(self.classes_), binned.edges,
                                  binned.max_bins, partial(rng.choice, d, size=k, replace=False))

        self.trees_ = fork_map(grow, len(tree_seeds))
        self.router_ = PackedTrees.pack(self.trees_, len(self.classes_))
        self.n_features_ = d

    def decision_function(self, X: np.ndarray) -> np.ndarray:
        return running_sum(self.router_.route(X)) / self.router_.n_trees

    def _state_dict(self) -> dict:
        return {"n_features": self.n_features_, "trees": self.router_.to_dict()}

    def _load_state(self, obj: dict) -> None:
        self.n_features_ = check("n_features", obj["n_features"], int, "[0, inf)")
        self.router_ = PackedTrees.from_dict(obj["trees"], len(self.classes_), self.n_features_)
