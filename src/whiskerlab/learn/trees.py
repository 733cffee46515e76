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
(feature/threshold/child arrays) so models round-trip through JSON.
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

    def predict(self, X: np.ndarray, value_dim: int) -> np.ndarray:
        """Route all rows down the tree at once; samples go left when x < threshold."""
        out = np.empty((X.shape[0], value_dim), dtype=np.float64)
        stack = [(0, np.arange(X.shape[0]))]
        while stack:
            node, idx = stack.pop()
            if idx.size == 0:
                continue
            if self.feature[node] < 0:
                out[idx] = self.value[node]
                continue
            go_left = X[idx, self.feature[node]] < self.threshold[node]
            stack.append((self.left[node], idx[go_left]))
            stack.append((self.right[node], idx[~go_left]))
        return out

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
        """Rebuild a tree, raising ValueError unless :meth:`predict` can route it.

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


def columns_read(trees) -> int:
    """Input width the trees need: one past the highest split feature."""
    return 1 + max((f for tree in trees for f in tree.feature), default=-1)


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
