"""Bagged full-depth gini trees with per-split feature subsampling."""

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from ..errors import Validated
from .base import Classifier
from .trees import PackedTrees, Tree, grow_gini_tree, offset_bins, quantile_bin_edges, running_sum


@dataclass(frozen=True)
class ForestParams(Validated):
    n_trees: int = 100
    max_bins: int = 256

    BOUNDS = {"n_trees": "[1, inf)", "max_bins": "[2, inf)"}


class BaggedTreesClassifier(Classifier):
    """Ensemble of bootstrap-trained trees; the score averages leaf probabilities.

    Each tree sees a bootstrap resample of the training set and draws a fresh
    sqrt(d)-sized feature subset at every split.  Training is deterministic
    under a fixed seed.
    """

    kind = "bagged_trees"
    params_cls = ForestParams
    exact_width = False
    trees_: list[Tree]
    router_: PackedTrees

    def fit(self, X: np.ndarray, y: np.ndarray) -> "BaggedTreesClassifier":
        yi = self._encode_labels(y)
        edges = quantile_bin_edges(X, self.params.max_bins)
        offset, max_bins = offset_bins(X, edges)
        n, d = X.shape
        k = math.isqrt(d - 1) + 1  # ceil(sqrt(d)) candidate features per split

        root = np.random.default_rng(self.seed)
        tree_seeds = root.integers(0, 2**63 - 1, size=self.params.n_trees)
        self.trees_ = []
        for ts in tree_seeds:
            rng = np.random.default_rng(int(ts))
            boot = rng.integers(0, n, size=n)
            self.trees_.append(grow_gini_tree(
                offset[boot], yi[boot], len(self.classes_), edges, max_bins,
                partial(rng.choice, d, size=k, replace=False)))
        self._pack()
        return self

    def _pack(self) -> None:
        self.router_ = PackedTrees.pack(self.trees_, len(self.classes_))
        self.n_features_ = self.router_.n_features

    def decision_function(self, X: np.ndarray) -> np.ndarray:
        return running_sum(self.router_.route(X)) / len(self.trees_)

    def _state_dict(self) -> dict:
        return {"trees": [t.to_dict() for t in self.trees_]}

    def _load_state(self, obj: dict) -> None:
        self.trees_ = [Tree.from_dict(t) for t in obj["trees"]]
        if not self.trees_:
            raise ValueError("a bagged-trees model needs at least one tree")
        self._pack()
