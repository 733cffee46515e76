"""Shared decision-tree machinery for the ensemble models.

Split candidates come from per-feature quantile bins computed once on the
training matrix (one sort per column, then numpy's linear quantile rule on a
block of columns at once), then offset per feature so one flat histogram
covers every feature.  Both ensembles grow their trees with one grower and one split
search: a histogram scan parametrised by a per-sample statistic, class
indicators for the gini forest and the target for the squared-error
booster.  A node's best split maximises the summed squared statistic over
child size, and a leaf holds the node's statistic totals over its size
(class probabilities, or the mean target).  Trees serialize to plain dicts
(feature/threshold/child arrays) so models round-trip through JSON.  For
prediction an ensemble packs its trees into one :class:`PackedTrees` router
(padded (trees, nodes) arrays) that moves every row down every tree one
level per step; :func:`running_sum` then adds the per-tree leaf values in
tree order, so scores equal a per-tree loop bit for bit.
"""

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

_MIN_GAIN = 1e-12
# Columns per block in quantile_bin_edges: keeps each (max_bins, block)
# interpolation temporary small, so the edges need little more memory than
# the per-column copies np.quantile makes.
_EDGE_BLOCK = 32


def quantile_bin_edges(X: np.ndarray, max_bins: int = 256) -> list[np.ndarray]:
    """Per-feature ascending bin edges at (at most) max_bins quantiles.

    The edges are the distinct values of ``np.quantile(X[:, f], q)`` at
    q = 1/max_bins, ..., (max_bins-1)/max_bins, bit for bit, but computed
    from one sort of each column instead of one partition per feature: the
    same virtual indices, neighbour indices and interpolation that numpy's
    default ``linear`` method uses, applied to a block of columns at once.
    A column holding NaN gets NaN at every quantile, as in numpy.  The one
    difference: where a column holds both 0.0 and -0.0, which of the two
    (equal) zeros an edge carries may differ from numpy's partition order.
    """
    n = X.shape[0]
    qs = np.arange(1, max_bins) / max_bins
    virtual = (n - 1) * qs
    lo = np.floor(virtual)
    hi = lo + 1
    top = virtual >= n - 1  # only when n == 1: numpy takes the last value twice
    lo[top] = hi[top] = -1
    gamma = (virtual - lo)[:, None]
    lo, hi = lo.astype(np.intp), hi.astype(np.intp)
    edges = []
    for j in range(0, X.shape[1], _EDGE_BLOCK):
        sorted_x = np.sort(X[:, j:j + _EDGE_BLOCK], axis=0)
        below, above = sorted_x[lo], sorted_x[hi]
        diff = above - below
        q = below + diff * gamma
        np.subtract(above, diff * (1 - gamma), out=q, where=gamma >= 0.5)
        has_nan = np.isnan(sorted_x[-1])  # NaN sorts last
        q[:, has_nan] = sorted_x[-1, has_nan]
        edges += [np.unique(column).astype(np.float64) for column in q.T]
    return edges


def offset_bins(X: np.ndarray, edges: list[np.ndarray]) -> tuple[np.ndarray, int]:
    """Bin codes offset per feature, so one flat histogram covers all features.

    Value x of feature f falls in bin b when edges[f][b-1] <= x < edges[f][b],
    and gets code f * max_bins + b.
    """
    max_bins = max(len(e) for e in edges) + 1
    offset = np.empty(X.shape, dtype=np.int32)
    for f, e in enumerate(edges):
        offset[:, f] = np.searchsorted(e, X[:, f], side="right") + f * max_bins
    return offset, max_bins


@dataclass
class Tree:
    """Flat tree arrays; feature -1 marks a leaf, whose value is stored."""

    feature: list = field(default_factory=list)
    threshold: list = field(default_factory=list)
    left: list = field(default_factory=list)
    right: list = field(default_factory=list)
    value: list = field(default_factory=list)

    def add_leaf(self, value) -> int:
        return self._add(-1, 0.0, -1, -1, value)

    def add_split(self, feature: int, threshold: float) -> int:
        return self._add(int(feature), float(threshold), -1, -1, None)

    def _add(self, feature, threshold, left, right, value) -> int:
        self.feature.append(feature)
        self.threshold.append(threshold)
        self.left.append(left)
        self.right.append(right)
        self.value.append(value)
        return len(self.feature) - 1

    def to_dict(self) -> dict:
        return {
            "feature": self.feature,
            "threshold": self.threshold,
            "left": self.left,
            "right": self.right,
            "value": self.value,
        }

    @classmethod
    def from_dict(cls, obj: dict) -> "Tree":
        """Rebuild a tree, raising ValueError unless :class:`PackedTrees` can route it.

        The five arrays must be equally long and nonempty; a split (feature
        >= 0) must point to two later nodes, so routing ends, and a leaf
        (feature -1) must hold a value.
        """
        tree = cls(
            feature=list(obj["feature"]),
            threshold=[float(t) for t in obj["threshold"]],
            left=list(obj["left"]),
            right=list(obj["right"]),
            value=list(obj["value"]),
        )
        n = len(tree.feature)
        if n == 0 or any(len(a) != n for a in (tree.threshold, tree.left, tree.right, tree.value)):
            raise ValueError("tree arrays must be nonempty and of one length")
        for i, (f, lo, hi, v) in enumerate(zip(tree.feature, tree.left, tree.right, tree.value)):
            if type(f) is not int or f < -1:
                raise ValueError(f"node {i}: feature must be -1 (leaf) or a column index, got {f!r}")
            if f == -1 and v is None:
                raise ValueError(f"node {i}: leaf has no value")
            if f >= 0 and not all(type(c) is int and i < c < n for c in (lo, hi)):
                raise ValueError(f"node {i}: children {lo!r}, {hi!r} are not later nodes below {n}")
        return tree


@dataclass(frozen=True)
class PackedTrees:
    """An ensemble's trees stacked into padded (trees, nodes) arrays: one router.

    Child ids index the raveled arrays (tree t's node i is t * nodes + i).
    Leaves and padding have feature -1 and are their own children, so
    :meth:`route` moves every (tree, row) pair one level down per step until
    all of them stand on leaves.
    """

    feature: np.ndarray  # (trees, nodes) split column, -1 at leaves and padding
    threshold: np.ndarray  # (trees, nodes) rows go left when x < threshold
    left: np.ndarray  # (trees, nodes) raveled child ids
    right: np.ndarray
    value: np.ndarray  # (trees, nodes, value_dim) leaf values, 0 elsewhere

    @classmethod
    def pack(cls, trees: list, value_dim: Optional[int]) -> "PackedTrees":
        """Stack trees whose leaves hold ``value_dim`` numbers, or one number
        when ``value_dim`` is None; ValueError for a leaf of another shape."""
        n_nodes = max(len(t.feature) for t in trees)
        shape = (len(trees), n_nodes)
        feature = np.full(shape, -1, dtype=np.intp)
        threshold = np.zeros(shape)
        own = np.arange(len(trees) * n_nodes).reshape(shape)
        left, right = own.copy(), own.copy()
        value = np.zeros((*shape, value_dim or 1))
        leaf_shape = () if value_dim is None else (value_dim,)
        for t, tree in enumerate(trees):
            n = len(tree.feature)
            feature[t, :n] = tree.feature
            threshold[t, :n] = tree.threshold
            split = feature[t, :n] >= 0
            left[t, :n][split] = np.asarray(tree.left)[split] + t * n_nodes
            right[t, :n][split] = np.asarray(tree.right)[split] + t * n_nodes
            leaves = np.flatnonzero(~split)
            leaf_values = np.array([tree.value[i] for i in leaves], dtype=np.float64)
            if leaf_values.shape != (leaves.size, *leaf_shape):
                raise ValueError(f"tree {t}: leaf values must each have shape {leaf_shape}")
            value[t, leaves] = leaf_values.reshape(leaves.size, -1)
        return cls(feature, threshold, left, right, value)

    @property
    def n_features(self) -> int:
        """Input width the trees need: one past the highest split feature."""
        return int(self.feature.max()) + 1

    def route(self, X: np.ndarray) -> np.ndarray:
        """Every tree's leaf value for every row, shape (trees, rows, value_dim)."""
        n_trees, n_nodes = self.feature.shape
        feature, threshold = self.feature.ravel(), self.threshold.ravel()
        left, right = self.left.ravel(), self.right.ravel()
        rows = X.shape[0]
        node = np.repeat(np.arange(n_trees) * n_nodes, rows)
        row = np.tile(np.arange(rows), n_trees)
        f = feature[node]
        while (f >= 0).any():  # a leaf's -1 reads the last column, then stays put
            go_left = X[row, f] < threshold[node]
            node = np.where(go_left, left[node], right[node])
            f = feature[node]
        value_dim = self.value.shape[2]
        return self.value.reshape(-1, value_dim)[node].reshape(n_trees, rows, value_dim)


def running_sum(terms: np.ndarray) -> np.ndarray:
    """``terms`` summed over axis 0 in order from 0.0, bit for bit as a loop of +=."""
    start = np.zeros((1, *terms.shape[1:]))
    return np.add.accumulate(np.concatenate([start, terms]), axis=0)[-1]


def grow_tree(
    offset: np.ndarray,
    y: np.ndarray,
    n_classes: Optional[int],
    edges: list[np.ndarray],
    max_bins: int,
    max_depth: Optional[int] = None,
    sample_features: Optional[Callable[[], np.ndarray]] = None,
) -> tuple[Tree, np.ndarray]:
    """Grow one tree over an offset bin matrix (see :func:`offset_bins`).

    ``y`` holds integer labels below ``n_classes`` (gini: the statistics are
    class indicators, leaves store class probability lists) or, with
    ``n_classes=None``, a real target (squared error: leaves store the mean).
    Growth stops at ``max_depth``, at nodes of one sample or one class, and
    where no split gains.  ``sample_features`` draws the candidate features
    of each split; without it every feature is a candidate.

    Returns the tree and each row's leaf value, shape (rows, statistics).
    """
    tree = Tree()
    leaf_values = np.empty((offset.shape[0], n_classes or 1))
    stack = [(np.arange(offset.shape[0]), 0, None, None)]  # (indices, depth, parent, side)
    while stack:
        idx, depth, parent, side = stack.pop()
        n = idx.size
        if n_classes:
            totals = np.bincount(y[idx], minlength=n_classes).astype(np.float64)
            splittable = np.count_nonzero(totals) > 1
        else:
            totals = np.array([float(y[idx].sum())])
            splittable = True
        node = None
        if n >= 2 and splittable and (max_depth is None or depth < max_depth):
            feats = sample_features() if sample_features is not None else None
            cnt, sums = _histograms(offset, y, idx, feats, n_classes, max_bins)
            best = _best_split(cnt, sums, n, totals)
            if best is not None:
                j, b = best
                f = j if feats is None else int(feats[j])
                node = tree.add_split(f, edges[f][b])
                go_left = offset[idx, f] <= f * max_bins + b
                # Push right first so left is processed first (cosmetic only).
                stack.append((idx[~go_left], depth + 1, node, "right"))
                stack.append((idx[go_left], depth + 1, node, "left"))
        if node is None:
            value = totals / n
            node = tree.add_leaf(value.tolist() if n_classes else float(value[0]))
            leaf_values[idx] = value
        if parent is not None:
            if side == "left":
                tree.left[parent] = node
            else:
                tree.right[parent] = node
    return tree, leaf_values


def _histograms(offset, y, idx, feats, n_classes, max_bins):
    """A node's per-(candidate, bin) counts and per-(statistic, candidate, bin) sums.

    Candidates are all features when ``feats`` is None, else the sampled
    ``feats``, whose columns are re-offset by their position among them.
    """
    if feats is None:
        k, codes = offset.shape[1], offset[idx]
    else:
        k = feats.size
        codes = offset[np.ix_(idx, feats)] + (np.arange(k) - feats) * max_bins
    if n_classes:
        sums = np.bincount((y[idx, None] * (k * max_bins) + codes).ravel(),
                           minlength=n_classes * k * max_bins)
        sums = sums.reshape(n_classes, k, max_bins)
        return sums.sum(axis=0), sums
    flat = codes.ravel()
    cnt = np.bincount(flat, minlength=k * max_bins).reshape(k, max_bins)
    sums = np.bincount(flat, weights=np.repeat(y[idx], k), minlength=k * max_bins)
    return cnt, sums.reshape(1, k, max_bins)


def _best_split(cnt, sums, n, totals):
    """Best (candidate, bin) split of a node, or None when none gains.

    ``cnt`` is (candidates, bins) and ``sums`` is (statistics, candidates,
    bins); splitting after bin b sends bins <= b left.  The score
    sum(S_left**2) / n_left + sum(S_right**2) / n_right is maximised, with
    ties going to the first candidate, then the first bin; the winner must
    beat the unsplit node's sum(totals**2) / n by more than _MIN_GAIN.
    """
    n_left = np.cumsum(cnt, axis=1)[:, :-1]
    s_left = np.cumsum(sums, axis=2)[:, :, :-1]
    n_right = n - n_left
    s_right = totals[:, None, None] - s_left
    valid = (n_left > 0) & (n_right > 0)
    if not valid.any():
        return None
    sq_left = np.einsum("skb,skb->kb", s_left, s_left)  # sum over statistics of S**2
    sq_right = np.einsum("skb,skb->kb", s_right, s_right)
    with np.errstate(divide="ignore", invalid="ignore"):
        score = sq_left / n_left + sq_right / n_right
    score[~valid] = -np.inf
    j, b = divmod(int(np.argmax(score)), score.shape[1])
    if score[j, b] - float((totals**2).sum()) / n <= _MIN_GAIN:
        return None
    return j, b
