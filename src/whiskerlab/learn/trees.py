"""Shared decision-tree machinery for the ensemble models.

Split candidates come from per-feature quantile bins (one sort per column,
then numpy's linear quantile rule on a block of columns at once), kept as
compact bins (uint8 up to 256 bins).  Both growers read them and send a
split's rows left by one rule, ``bins[rows, f] <= b``; codes offset per
feature are built only for a histogram.  :func:`bin_matrix` bins a training
matrix once per ``max_bins`` for as long as the matrix lives, when it is
read-only and owns its data (a :class:`~whiskerlab.learn.dataset.LabeledDataset`'s
features are): every fit on it at that ``max_bins`` shares one binning,
dropped when the matrix is freed.  A writable matrix is binned anew by each
fit.  Each ensemble has its own grower:
:func:`grow_gini_tree` grows the forest's full-depth gini trees on sampled
candidate features, and :func:`grow_regression_tree` the booster's
depth-limited squared-error trees on every feature.  Both score a node's
candidate splits with one scorer, :func:`_best_split`, parametrised by a
per-sample statistic (class indicators, or the target): the best split
maximises the summed squared statistic over child size.  A leaf holds the
node's statistic totals over its size (class probabilities, or the mean
target).

Each grower skips work that cannot change its answer, so every tree equals
the one a full histogram per node gives, bit for bit.  The scorer takes a
node's cumulative row counts and statistic sums at its candidate split
positions, however they were formed:

* Gini, a node of fewer rows than ``max_bins``: each candidate's rows are
  sorted by (code, label), and integer class counts are cumulated down
  them.  At the last row of an occupied bin these equal the histogram's
  cumulative counts at that bin, so the scores there are the same floats.
  An empty bin repeats the previous cumulative counts and so the previous
  score, and the first maximum in (candidate, bin) order therefore falls
  on an occupied bin: scoring occupied bins alone picks the same split.
* Gini, a larger node: a ``bincount`` of its (row, candidate) codes, which
  are ``intp`` so that ``bincount`` does not cast them, then a cumsum over
  bins.  Measured on the protocol fits, the sorted path for every node is
  slower, so the choice reads the node size and ``max_bins``.
* Squared error: one weighted ``bincount`` per block of ``_HIST_BLOCK``
  feature columns, on :class:`BlockedCodes`, whose blocks are contiguous,
  so a node's rows of a block gather into a reused buffer and the block's
  histogram stays in cache; its rows' targets are broadcast into one
  reused weights buffer per node, not repeated per feature.  Each bin's sum
  accumulates its rows in row order either way, and the cumsum runs along
  each feature's bins, so blocking changes no float.  Row counts are exact
  integers, and the cumsum of a difference is the difference of the
  cumsums.  So the root's cumulative counts are computed once per fit, and
  each split counts only its smaller child; the larger child's are the
  parent's minus those.  Children at ``max_depth`` get no counts.

An ensemble packs its grown :class:`Tree` lists into one
:class:`PackedTrees`, the per-node arrays of every tree back to back: the
router, and the form a model file stores.  :func:`running_sum` adds the
per-tree leaf values in tree order, so scores equal a per-tree loop bit for
bit.  The classifiers refuse non-finite features, so thresholds are finite.
"""

import weakref
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from ..errors import check_array

_MIN_GAIN = 1e-12
# Columns per block of a squared-error histogram: one block's histogram, 100
# columns of up to 128 bins in 100 KB, stays in cache while the node's rows
# are added to it, where one over 700 columns does not.
_HIST_BLOCK = 100
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
    The one difference: where a column holds both 0.0 and -0.0, which of the
    two (equal) zeros an edge carries may differ from numpy's partition order.
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
        edges += [np.unique(column).astype(np.float64) for column in q.T]
    return edges


def feature_bins(X: np.ndarray, edges: list[np.ndarray]) -> tuple[np.ndarray, int]:
    """Each value's bin, and one past the highest bin any feature has.

    Value x of feature f falls in bin b when edges[f][b-1] <= x < edges[f][b].
    The bins are of the smallest unsigned dtype that holds them (uint8 up to
    256 bins).
    """
    max_bins = max(len(e) for e in edges) + 1
    bins = np.empty(X.shape, dtype=np.min_scalar_type(max_bins - 1))
    for f, e in enumerate(edges):
        bins[:, f] = np.searchsorted(e, X[:, f], side="right")
    bins.flags.writeable = False  # a kept binning serves every later fit
    return bins, max_bins


@dataclass(frozen=True)
class BinnedMatrix:
    """A training matrix's quantile binning: its features' bin ``edges``
    (see :func:`quantile_bin_edges`) and each value's bin (see
    :func:`feature_bins`), below ``max_bins``."""

    edges: list
    bins: np.ndarray
    max_bins: int


# The binnings of read-only arrays by (id(array), max_bins), each dropped when
# its array is freed, so no later array can take its id while it is here.
_BINNED: dict[tuple[int, int], BinnedMatrix] = {}


def bin_matrix(X: np.ndarray, max_bins: int = 256) -> BinnedMatrix:
    """X's quantile binning at (at most) ``max_bins`` bins per feature: the one
    way a fit bins its training matrix.

    A read-only X that owns its data is binned once per ``max_bins`` while it
    lives: the result is kept until X is freed, and every later call returns
    it.  Such an array can change only by setting its flag back or through a
    writable view taken before it was made read-only;
    :class:`~whiskerlab.learn.dataset.LabeledDataset` holds its features as
    a private read-only copy, which has neither.  Any other X is binned anew
    on every call.
    """
    memo = not X.flags.writeable and X.flags.owndata
    key = (id(X), max_bins)
    if memo and key in _BINNED:
        return _BINNED[key]
    edges = quantile_bin_edges(X, max_bins)
    binned = BinnedMatrix(edges, *feature_bins(X, edges))
    if memo:
        _BINNED[key] = binned
        weakref.finalize(X, _BINNED.pop, key, None)
    return binned


class BlockedCodes:
    """The squared-error grower's histogram codes: a binned matrix's
    contiguous blocks of ``_HIST_BLOCK`` columns, in which column j of a
    block holds j * max_bins + its bin, so the codes of a node's rows of one
    block, gathered into a buffer, are one ``bincount`` away from that
    block's histogram.  ``bins`` keeps the compact bins, which route splits.
    """

    def __init__(self, binned: BinnedMatrix):
        self.bins = bins = binned.bins
        self.max_bins = binned.max_bins
        self.starts = range(0, bins.shape[1], _HIST_BLOCK)
        column = np.arange(_HIST_BLOCK, dtype=np.intp) * self.max_bins
        self.blocks = [bins[:, j:j + _HIST_BLOCK] + column[:bins.shape[1] - j] for j in self.starts]

    def cumulate(self, rows=None, weights=None, out=None, work=None) -> np.ndarray:
        """Per-column cumulative bin totals over ``rows``, shape (columns, max_bins).

        The totals count the rows, or sum ``weights`` (one per row of
        ``rows``) when given, and are float64; each bin adds its rows in row
        order, so they equal one flat ``bincount`` per node cumulated over
        bins, bit for bit.  ``rows`` None means every row, in order, and
        needs no gather; otherwise ``work`` (see :class:`SplitBuffers`)
        holds the gathered codes and broadcast weights.
        """
        if out is None:
            out = np.empty((self.bins.shape[1], self.max_bins))
        m = self.bins.shape[0] if rows is None else rows.size
        filled = 0  # width of the weight matrix in work.weights
        for j, codes in zip(self.starts, self.blocks):
            width = codes.shape[1]
            if rows is not None:
                codes = np.take(codes, rows, axis=0, out=work.codes[:m * width].reshape(m, width))
            w = None
            if weights is not None:
                w = work.weights[:m * width]
                if filled != width:
                    w.reshape(m, width)[...] = weights[:, None]
                    filled = width
            hist = np.bincount(codes.ravel(), w, minlength=width * self.max_bins)
            np.cumsum(hist.reshape(width, self.max_bins), axis=1, dtype=np.float64,
                      out=out[j:j + width])
        return out


class SplitBuffers:
    """One worker's buffers for growing squared-error trees on one :class:`BlockedCodes`.

    A node's gathered block codes and its rows' targets broadcast to the
    block's width; its cumulative target sums, (columns, max_bins), and two
    (columns, max_bins - 1) grids, in which :func:`_best_split` computes the
    score in place with them; and ``child_counts[d]``, a pair of cumulative
    count grids for the two children of the node split last at depth ``d``
    (depth-first growth has finished with the previous pair by then).  A
    node at depth ``d`` holds at most ``rows - d`` rows, so no tree needs
    more than ``min(max_depth, rows) - 1`` pairs, however large ``max_depth``
    is.  They are allocated once, by the thread that starts the fit, so a
    worker thread's per-node allocations stay small: glibc keeps what a
    thread frees in that thread's own arena, where it adds to the process's
    peak resident memory.
    """

    def __init__(self, codes: BlockedCodes, max_depth: int):
        rows, columns = codes.bins.shape
        size = rows * min(columns, _HIST_BLOCK)
        self.codes = np.empty(size, dtype=np.intp)
        self.weights = np.empty(size)
        self.sums = np.empty((columns, codes.max_bins))
        self.score = np.empty((2, columns, codes.max_bins - 1))
        self.child_counts = [np.empty((2, columns, codes.max_bins))
                             for _ in range(min(max_depth, rows) - 1)]


@dataclass
class Tree:
    """One grown tree's flat node lists, as a grower builds them; feature -1
    marks a leaf, whose value is stored.  :meth:`PackedTrees.pack` turns an
    ensemble's trees into arrays."""

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


@dataclass(frozen=True)
class PackedTrees:
    """An ensemble's trees' per-node arrays back to back: one router, and the
    form a model file stores.  Child ids index the concatenated arrays; a
    split's children are later nodes of its own tree, and a leaf (feature
    -1) is its own child, so :meth:`route` moves every (tree, row) pair one
    level down per step until all of them stand on leaves."""

    feature: np.ndarray  # (nodes,) split column, -1 at leaves
    threshold: np.ndarray  # (nodes,) rows go left when x < threshold; 0.0 at leaves
    left: np.ndarray  # (nodes,) child ids
    right: np.ndarray
    value: np.ndarray  # (nodes,) or (nodes, value_dim) leaf values, 0.0 at splits
    roots: np.ndarray  # (trees,) each tree's first node

    @classmethod
    def pack(cls, trees: list, value_dim: Optional[int]) -> "PackedTrees":
        """Concatenate grown trees whose leaves hold ``value_dim`` numbers each,
        or one number when ``value_dim`` is None."""
        counts = [len(t.feature) for t in trees]
        roots = np.cumsum([0, *counts[:-1]])
        feature = np.concatenate([t.feature for t in trees]).astype(np.intp)
        threshold = np.concatenate([t.threshold for t in trees])
        split, own, start = feature >= 0, np.arange(feature.size), np.repeat(roots, counts)
        left, right = (np.where(split, np.concatenate([getattr(t, side) for t in trees]) + start, own)
                       for side in ("left", "right"))
        value = np.zeros((feature.size, *(() if value_dim is None else (value_dim,))))
        value[~split] = [v for t in trees for v in t.value if v is not None]
        return cls(feature, threshold, left, right, value, roots)

    @property
    def n_trees(self) -> int:
        return len(self.roots)

    def to_dict(self) -> dict:
        """The arrays as JSON lists; ``value`` holds the leaves' rows only, in node order."""
        return {"feature": self.feature.tolist(), "threshold": self.threshold.tolist(),
                "left": self.left.tolist(), "right": self.right.tolist(),
                "value": self.value[self.feature < 0].tolist(), "roots": self.roots.tolist()}

    @classmethod
    def from_dict(cls, obj: dict, value_dim: Optional[int], width: int) -> "PackedTrees":
        """Rebuild a router from :meth:`to_dict`'s form, checking whole arrays:
        ValueError unless the four node lists are of one length, features
        are ints in [-1, ``width``), thresholds and leaf values are finite
        numbers, ``roots`` rise from 0 below the node count, each node's
        children are as the class says, and ``value`` holds one number
        (``value_dim`` None) or ``value_dim`` of them per leaf."""
        feature = check_array("feature", obj["feature"], int, f"[-1, {width})")
        threshold = check_array("threshold", obj["threshold"], float)
        left, right = (check_array(side, obj[side], int) for side in ("left", "right"))
        roots = check_array("roots", obj["roots"], int)
        leaf_values = check_array("value", obj["value"], float)
        n = feature.size
        if any(a.shape != (n,) for a in (feature, threshold, left, right)):
            raise ValueError("feature, threshold, left and right must be lists of one length")
        if not (roots.ndim == 1 and roots.size and roots[0] == 0 and (np.diff(roots, append=n) > 0).all()):
            raise ValueError(f"roots must rise from 0 below the node count {n}, got {roots.tolist()}")
        split, own = feature >= 0, np.arange(n)
        end = np.repeat(np.append(roots[1:], n), np.diff(roots, append=n))  # each node's tree end
        routed = np.where(split, (own < left) & (left < end) & (own < right) & (right < end),
                          (left == own) & (right == own))
        if not routed.all():
            i = int(np.argmin(routed))
            raise ValueError(f"node {i}: children {left[i]}, {right[i]} are not "
                             + ("later nodes of its tree" if split[i] else "the leaf itself"))
        leaf_shape = () if value_dim is None else (value_dim,)
        if leaf_values.shape != (n - np.count_nonzero(split), *leaf_shape):
            raise ValueError(f"value must hold a leaf value of shape {leaf_shape} per leaf, "
                             f"got shape {leaf_values.shape}")
        value = np.zeros((n, *leaf_shape))
        value[~split] = leaf_values
        return cls(feature, threshold, left, right, value, roots)

    def route(self, X: np.ndarray) -> np.ndarray:
        """Every tree's leaf value for every row, shape (trees, rows, value_dim)."""
        rows = X.shape[0]
        node = np.repeat(self.roots, rows)
        row = np.tile(np.arange(rows), self.n_trees)
        f = self.feature[node]
        while (f >= 0).any():  # a leaf's -1 reads the last column, then stays put
            go_left = X[row, f] < self.threshold[node]
            node = np.where(go_left, self.left[node], self.right[node])
            f = self.feature[node]
        value = self.value.reshape(len(self.value), -1)
        return value[node].reshape(self.n_trees, rows, value.shape[1])


def running_sum(terms: np.ndarray) -> np.ndarray:
    """``terms`` summed over axis 0 in order from 0.0, bit for bit as a loop of +=."""
    start = np.zeros((1, *terms.shape[1:]))
    return np.add.accumulate(np.concatenate([start, terms]), axis=0)[-1]


def grow_gini_tree(
    bins: np.ndarray,
    y: np.ndarray,
    n_classes: int,
    edges: list[np.ndarray],
    max_bins: int,
    sample_features: Callable[[], np.ndarray],
) -> Tree:
    """Grow one full-depth gini tree over compact bins below ``max_bins`` (see :func:`feature_bins`).

    ``y`` holds integer labels below ``n_classes``, and each leaf stores its
    class probabilities as a list.  Growth stops at nodes of one class and
    where no split gains; ``sample_features`` draws the candidate features
    of each node that holds two classes or more, before its split search.
    """
    tree = Tree()
    stack = [(np.arange(bins.shape[0]), None, None)]  # (indices, parent, side)
    while stack:
        idx, parent, side = stack.pop()
        totals = np.bincount(y[idx], minlength=n_classes).astype(np.float64)
        best = None
        if np.count_nonzero(totals) > 1:
            feats = sample_features()
            best = _gini_split(bins, y, idx, feats, n_classes, max_bins, totals)
        if best is None:
            node = tree.add_leaf((totals / idx.size).tolist())
        else:
            f, b = best
            node = tree.add_split(f, edges[f][b])
            go_left = bins[idx, f] <= b
            # Push right first so left is processed first (cosmetic only).
            stack.append((idx[~go_left], node, "right"))
            stack.append((idx[go_left], node, "left"))
        if parent is not None:
            (tree.left if side == "left" else tree.right)[parent] = node
    return tree


def _gini_split(bins, y, idx, feats, n_classes, max_bins, totals):
    """A gini node's best split as (feature, bin), or None when none gains.

    The candidates are the sampled ``feats``; candidate j's codes are its
    bins offset by its position, j * max_bins + bin, in ``intp``.
    A node of fewer rows than bins is scored from its sorted codes, a larger
    one from its histograms.
    """
    n, k = idx.size, feats.size
    codes = bins[np.ix_(idx, feats)] + np.arange(k) * max_bins
    if n < max_bins:
        # Sort each candidate's rows by (code, label), one key, and cumulate
        # class counts down them.  A split can fall only after the last row
        # of an occupied bin, where these counts equal the histogram's
        # cumulative counts at that bin, whatever the order inside the bin.
        keys = np.sort((codes * n_classes + y[idx, None]).T, axis=1)
        sorted_codes = keys // n_classes
        labels = keys - sorted_codes * n_classes
        s_left = np.cumsum(labels == np.arange(n_classes)[:, None, None], axis=2)[:, :, :-1]
        valid = sorted_codes[:, :-1] != sorted_codes[:, 1:]
        best = _best_split(np.arange(1, n), s_left, n, totals, valid)
        if best is not None:
            j, row = best
            best = j, int(sorted_codes[j, row]) - j * max_bins
    else:
        sums = np.bincount((y[idx, None] * (k * max_bins) + codes).ravel(),
                           minlength=n_classes * k * max_bins)
        s_left = np.cumsum(sums.reshape(n_classes, k, max_bins), axis=2)[:, :, :-1]
        best = _best_split(s_left.sum(axis=0), s_left, n, totals)
    if best is None:
        return None
    j, b = best
    return int(feats[j]), b


def grow_regression_tree(
    codes: BlockedCodes,
    y: np.ndarray,
    edges: list[np.ndarray],
    max_depth: int,
    root_counts: np.ndarray,
    work: SplitBuffers,
) -> tuple[Tree, np.ndarray]:
    """Grow one squared-error tree of at most ``max_depth`` levels on every feature.

    ``y`` is a real target, and each leaf stores the mean of its rows.
    Growth stops at ``max_depth``, at nodes of one row and where no split
    gains.  ``work`` holds the buffers a node's split search reuses (one
    per thread).  Each node's cumulative row counts of every feature are
    carried down the tree: the root's are ``root_counts``, which must be
    ``codes.cumulate()``, and a split counts its smaller child's rows and
    gives the larger child the parent's counts minus those.

    Returns the tree and each row's leaf value.
    """
    tree = Tree()
    fitted = np.empty(codes.bins.shape[0])
    # (indices, depth, parent, side, cumulative counts, None at max_depth)
    stack = [(np.arange(codes.bins.shape[0]), 0, None, None, root_counts)]
    while stack:
        idx, depth, parent, side, counts = stack.pop()
        n = idx.size
        totals = np.array([float(y[idx].sum())])
        best = None
        if n >= 2 and depth < max_depth:
            # Only the root holds every row, and its idx is in order: no gather.
            codes.cumulate(None if n == codes.bins.shape[0] else idx, y[idx], work.sums, work)
            best = _best_split(counts[:, :-1], work.sums[None, :, :-1], n, totals, out=work.score)
        if best is None:
            value = float(totals[0] / n)
            node = tree.add_leaf(value)
            fitted[idx] = value
        else:
            f, b = best
            node = tree.add_split(f, edges[f][b])
            go_left = codes.bins[idx, f] <= b
            left, right = idx[go_left], idx[~go_left]
            left_counts = right_counts = None
            if depth + 1 < max_depth:
                small, large = work.child_counts[depth]
                left_smaller = left.size <= right.size
                codes.cumulate(left if left_smaller else right, out=small, work=work)
                np.subtract(counts, small, out=large)
                left_counts, right_counts = (small, large) if left_smaller else (large, small)
            stack.append((right, depth + 1, node, "right", right_counts))
            stack.append((left, depth + 1, node, "left", left_counts))
        if parent is not None:
            (tree.left if side == "left" else tree.right)[parent] = node
    return tree, fitted


def _best_split(n_left, s_left, n, totals, valid=None, out=None):
    """Best (candidate, position) split of a node, or None when none gains.

    ``n_left`` (candidates, positions) counts the rows left of each split
    position, and ``s_left`` (statistics, candidates, positions) sums the
    statistics over them; ``valid`` marks the positions that may split, by
    default those with rows on both sides.  The score
    sum(S_left**2) / n_left + sum(S_right**2) / n_right is maximised, with
    ties going to the first candidate, then the first position; the winner
    must beat the unsplit node's sum(totals**2) / n by more than _MIN_GAIN.

    With one statistic the score is computed in place: in ``out``, two
    float64 buffers shaped like ``n_left`` for the score and n_right
    (allocated when None), and in ``s_left``, which it overwrites.
    """
    score, n_right = out if out is not None else (None, None)
    n_right = np.subtract(n, n_left, out=n_right)
    if valid is None:
        valid = (n_left > 0) & (n_right > 0)
    if not valid.any():
        return None
    with np.errstate(divide="ignore", invalid="ignore"):
        if totals.size == 1:  # one statistic: square and divide in place
            score = np.square(s_left[0], out=score)
            score /= n_left
            right = np.subtract(totals[0], s_left[0], out=s_left[0])
            np.square(right, out=right)
        else:  # sum over statistics of S**2
            score = np.einsum("skb,skb->kb", s_left, s_left) / n_left
            s_right = totals[:, None, None] - s_left
            right = np.einsum("skb,skb->kb", s_right, s_right)
        right /= n_right
        score += right
    score[~valid] = -np.inf
    j, b = divmod(int(np.argmax(score)), score.shape[1])
    if score[j, b] - float((totals**2).sum()) / n <= _MIN_GAIN:
        return None
    return j, b
