import json
import math
import sys
import threading
import time
from functools import partial

import numpy as np
import pytest

from oracles import grow_tree_oracle, quantile_edges_oracle, route_oracle, split_oracle
from whiskerlab.learn import boosting
from whiskerlab.learn.boosting import BoostedTreesClassifier, BoostParams
from whiskerlab.learn.forest import BaggedTreesClassifier, ForestParams
from whiskerlab.learn.trees import (
    _HIST_BLOCK,
    BlockedCodes,
    PackedTrees,
    SplitBuffers,
    Tree,
    _best_split,
    _gini_split,
    grow_gini_tree,
    grow_regression_tree,
    offset_bins,
    quantile_bin_edges,
    running_sum,
)


def node_histograms(bins, stats, n_bins):
    """Counts (candidates, bins) and sums (statistics, candidates, bins) by loops."""
    m, k = bins.shape
    cnt = np.zeros((k, n_bins), dtype=np.int64)
    sums = np.zeros((stats.shape[1], k, n_bins), dtype=stats.dtype)
    for i in range(m):
        for j in range(k):
            cnt[j, bins[i, j]] += 1
            sums[:, j, bins[i, j]] += stats[i]
    return cnt, sums


def best_split(cnt, sums, n, totals):
    """_best_split fed a node's histograms as the grower feeds them: cumulated over bins."""
    return _best_split(np.cumsum(cnt, axis=1)[:, :-1], np.cumsum(sums, axis=2)[:, :, :-1], n, totals)


def random_node(rng, classes):
    """Bins of a random node whose candidates include duplicated columns."""
    m = int(rng.integers(1, 40))
    k = int(rng.integers(1, 6))
    n_bins = int(rng.integers(2, 8))
    bins = rng.integers(0, n_bins, size=(m, k))
    for j in range(1, k):
        if rng.random() < 0.4:
            bins[:, j] = bins[:, int(rng.integers(0, j))]
    if classes:
        labels = rng.integers(0, classes, size=m)
        stats = np.eye(classes, dtype=np.int64)[labels]
        totals = stats.sum(axis=0).astype(np.float64)
    else:
        target = np.round(rng.normal(size=m), int(rng.integers(0, 3)))
        stats = target[:, None]
        totals = np.array([float(target.sum())])
    cnt, sums = node_histograms(bins, stats, n_bins)
    return cnt, sums, m, totals


@pytest.mark.parametrize("classes", [None, 2, 3, 5])
def test_best_split_matches_oracle_on_random_nodes(classes):
    rng = np.random.default_rng(classes or 0)
    found = 0
    for _ in range(300):
        cnt, sums, m, totals = random_node(rng, classes)
        expected = split_oracle(cnt.tolist(), sums.tolist(), m, totals.tolist())
        assert best_split(cnt, sums, m, totals) == expected
        found += expected is not None
    assert 0 < found < 300  # both outcomes are exercised


@pytest.mark.parametrize("classes", [None, 3])
def test_best_split_ties_go_to_first_candidate_then_first_bin(classes):
    # Candidate 0 is noise; 1 and 2 are the same informative column, whose
    # bin 2 is empty, so splitting after bin 1 or after bin 2 scores the same.
    informative = np.array([0, 0, 1, 1, 3, 3, 3, 4])
    bins = np.stack([np.arange(8) % 5, informative, informative], axis=1)
    labels = np.array([0, 0, 0, 0, 1, 1, 2, 1])
    if classes:
        stats = np.eye(classes, dtype=np.int64)[labels]
        totals = stats.sum(axis=0).astype(np.float64)
    else:
        stats = (labels > 0).astype(np.float64)[:, None]
        totals = np.array([float(stats.sum())])
    cnt, sums = node_histograms(bins, stats, 5)
    assert best_split(cnt, sums, 8, totals) == (1, 1)
    assert split_oracle(cnt.tolist(), sums.tolist(), 8, totals.tolist()) == (1, 1)


def test_best_split_rejects_nodes_without_gain():
    # One occupied bin leaves no two-sided split; a constant target gains nothing.
    cnt, sums = node_histograms(np.zeros((6, 2), dtype=int), np.ones((6, 1)), 4)
    assert best_split(cnt, sums, 6, np.array([6.0])) is None
    cnt, sums = node_histograms(np.arange(12).reshape(6, 2) % 4, np.ones((6, 1)), 4)
    assert best_split(cnt, sums, 6, np.array([6.0])) is None
    assert split_oracle(cnt.tolist(), sums.tolist(), 6, [6.0]) is None


def small_gini_node(rng, max_bins):
    """A gini node of 2 .. max_bins rows inside a larger offset code matrix.

    Columns take their bins from a random subset, so occupied bins have
    empty ones between them; some columns duplicate an earlier one or are
    constant, and the candidates are every column, in order, or a sample of
    them.
    """
    n = int(rng.integers(2, max_bins + 1))
    d = int(rng.integers(1, 7))
    rows = n + int(rng.integers(0, 20))
    occupied = rng.choice(max_bins, size=int(rng.integers(1, max_bins + 1)), replace=False)
    bins = rng.choice(occupied, size=(rows, d))
    for j in range(d):
        if j and rng.random() < 0.4:
            bins[:, j] = bins[:, int(rng.integers(0, j))]
        elif rng.random() < 0.15:
            bins[:, j] = bins[0, j]
    classes = int(rng.integers(2, 5))
    y = rng.integers(0, classes, size=rows)
    if rng.random() < 0.3:  # labels that follow a column: strong splits, pure sides
        y = bins[:, int(rng.integers(0, d))] * classes // max_bins
    idx = np.sort(rng.choice(rows, size=n, replace=False))
    if rng.random() < 0.3:
        feats = np.arange(d)
    else:
        feats = rng.choice(d, size=int(rng.integers(1, d + 1)), replace=False)
    return bins, y, classes, idx, feats


@pytest.mark.parametrize("max_bins", [3, 8, 32])
def test_sorted_small_node_split_matches_oracle_on_its_histogram(max_bins):
    rng = np.random.default_rng(max_bins)
    found = 0
    for _ in range(300):
        bins, y, classes, idx, feats = small_gini_node(rng, max_bins)
        offset = bins + np.arange(bins.shape[1]) * max_bins
        totals = np.bincount(y[idx], minlength=classes).astype(np.float64)
        got = _gini_split(offset, y, idx, feats, classes, max_bins, totals)
        cnt, sums = node_histograms(bins[np.ix_(idx, feats)],
                                    np.eye(classes, dtype=np.int64)[y[idx]], max_bins)
        want = split_oracle(cnt.tolist(), sums.tolist(), idx.size, totals.tolist())
        assert got == (None if want is None else (int(feats[want[0]]), want[1]))
        found += want is not None
    assert 0 < found < 300  # both outcomes are exercised


def test_sorted_small_node_ties_go_to_first_candidate_then_first_occupied_bin():
    # Candidates 1 and 2 are one column whose bins 1 and 2 are empty, so splitting
    # after bin 0, 1 or 2 scores the same; 6 rows < 8 bins takes the sorted path.
    informative = np.array([0, 0, 3, 3, 5, 5])
    bins = np.stack([np.array([4, 1, 6, 1, 4, 6]), informative, informative], axis=1)
    offset = bins + np.arange(3) * 8
    y = np.array([0, 0, 1, 1, 1, 2])
    totals = np.bincount(y).astype(np.float64)
    assert _gini_split(offset, y, np.arange(6), np.arange(3), 3, 8, totals) == (1, 0)
    cnt, sums = node_histograms(bins, np.eye(3, dtype=np.int64)[y], 8)
    assert split_oracle(cnt.tolist(), sums.tolist(), 6, totals.tolist()) == (1, 0)
    # Each occupied bin holds one row of each class, so no split gains.
    y = np.array([0, 1, 1, 0, 1, 0])
    assert _gini_split(offset, y, np.arange(6), np.arange(3), 2, 8, np.array([3.0, 3.0])) is None


def random_problem(rng, max_bins):
    """Binned features with ties, a duplicated and a constant column, and labels
    that follow two of them, so trees grow deep and some nodes hold one class."""
    n = int(rng.integers(2, 600))
    d = int(rng.integers(2, 9))
    X = rng.normal(size=(n, d))
    X[:, 0] = np.round(X[:, 0] * 2)  # few distinct values
    if d > 3:
        X[:, 2] = X[:, 1]
    X[:, -1] = 0.5
    y = (X[:, 0] > 0).astype(np.int64) + (X[:, 1] > 0.7)
    flip = rng.random(n) < 0.2
    y[flip] = rng.integers(0, 3, size=int(flip.sum()))
    edges = quantile_bin_edges(X, max_bins)
    offset, bins = offset_bins(X, edges)
    return offset, y, edges, bins


@pytest.mark.parametrize("max_bins", [2, 3, 16, 256])
def test_grower_matches_oracle_on_gini_trees(max_bins):
    """Bootstrap rows and per-split feature samples, as the forest grows its
    trees; nodes fall on both sides of the sorted path's n < max_bins."""
    rng = np.random.default_rng(max_bins)
    for trial in range(10):
        offset, y, edges, bins = random_problem(rng, max_bins)
        n, d = offset.shape
        boot = rng.integers(0, n, size=n)
        k, seed = int(rng.integers(1, d + 1)), int(rng.integers(2**32))
        samplers = [partial(np.random.default_rng(seed).choice, d, size=k, replace=False)
                    for _ in range(2)]
        if trial % 4 == 0:  # every feature a candidate, in order
            samplers = [partial(np.arange, d)] * 2
        got = grow_gini_tree(offset[boot], y[boot], 3, edges, bins, samplers[0])
        want, _ = grow_tree_oracle(offset[boot], y[boot], 3, edges, bins, sample_features=samplers[1])
        assert got.to_dict() == want.to_dict()


def grow_regression(offset, target, edges, bins, max_depth):
    """grow_regression_tree over an offset matrix, with its codes, root counts
    (one flat histogram, cumulated) and buffers built as the booster builds them."""
    codes = BlockedCodes(offset, bins)
    flat_counts = np.bincount(offset.ravel(), minlength=offset.shape[1] * bins)
    root_counts = np.cumsum(flat_counts.reshape(-1, bins), axis=1, dtype=np.float64)
    return grow_regression_tree(codes, target, edges, max_depth, root_counts,
                                SplitBuffers(codes, max_depth))


def assert_regression_matches_oracle(offset, target, edges, bins, max_depth):
    got, got_fitted = grow_regression(offset, target, edges, bins, max_depth)
    want, want_leaves = grow_tree_oracle(offset, target, None, edges, bins, max_depth=max_depth)
    assert got.to_dict() == want.to_dict()
    assert got_fitted.tobytes() == want_leaves[:, 0].tobytes()
    return want


@pytest.mark.parametrize("max_depth", [1, 2, 3, 4, "rows"])
def test_grower_matches_oracle_on_regression_trees(max_depth):
    """Every feature a candidate, as the booster grows its trees; at depth
    "rows" no tree can reach the depth limit."""
    rng = np.random.default_rng(5 if max_depth == "rows" else max_depth)
    for trial in range(10):
        offset, labels, edges, bins = random_problem(rng, [2, 3, 16, 128][trial % 4])
        target = labels - np.round(rng.normal(size=labels.size), int(rng.integers(0, 3)))
        depth = labels.size if max_depth == "rows" else max_depth
        assert_regression_matches_oracle(offset, target, edges, bins, depth)


@pytest.mark.parametrize("d", [1, _HIST_BLOCK - 1, _HIST_BLOCK, _HIST_BLOCK + 1])
def test_grower_matches_oracle_at_histogram_block_edges(d):
    """Regression trees over one block, a full block and one column past it;
    the target follows the first and the last column, so splits fall in both
    the first and the last block."""
    rng = np.random.default_rng(d)
    X = rng.normal(size=(90, d))
    X[:, -1] = np.round(X[:, -1], 1)  # ties
    target = X[:, 0] - 2.0 * (X[:, -1] > 0.3) + np.round(rng.normal(size=90), 1)
    split_on = set()
    for max_bins in (4, 64):
        edges = quantile_bin_edges(X, max_bins)
        offset, bins = offset_bins(X, edges)
        for max_depth in (1, 3, 90):
            want = assert_regression_matches_oracle(offset, target, edges, bins, max_depth)
            split_on.update(want.feature)
    assert {0, d - 1} <= split_on


def test_split_buffers_hold_no_deeper_level_than_a_tree_can_reach():
    """A node at depth d holds at most rows - d rows, so a depth limit beyond
    the row count sizes the buffers, and grows the trees, as the row count does."""
    rng = np.random.default_rng(7)
    X = rng.normal(size=(40, 6))
    y = (X[:, 0] > 0).astype(int) + (X[:, 1] > 0.5)
    codes = BlockedCodes(*offset_bins(X, quantile_bin_edges(X, 16)))
    assert len(SplitBuffers(codes, 3).child_counts) == 2
    assert len(SplitBuffers(codes, 10**6).child_counts) == 39
    deep, rows = (BoostedTreesClassifier(BoostParams(rounds=3, max_depth=m)).fit(X, y)
                  for m in (10**6, 40))
    assert deep.to_dict()["trees"] == rows.to_dict()["trees"]


def boost_fit_oracle(X, yi, n_classes, params):
    """The booster's trees by its former serial loop: rounds, then classes, on
    the oracle grower."""
    edges = quantile_bin_edges(X, params.max_bins)
    offset, bins = offset_bins(X, edges)
    onehot = np.eye(n_classes)[yi]
    scores = np.zeros_like(onehot)
    rounds = []
    for _ in range(params.rounds):
        rounds.append([])
        for c in range(n_classes):
            tree, fitted = grow_tree_oracle(offset, onehot[:, c] - scores[:, c], None, edges, bins,
                                            max_depth=params.max_depth)
            scores[:, c] += params.learning_rate * fitted[:, 0]
            rounds[-1].append(tree.to_dict())
    return rounds


@pytest.mark.parametrize("n_classes", [10, 4])
def test_boosting_is_the_same_for_every_worker_count(monkeypatch, n_classes):
    """The class chains on 1, 2, 3 and one worker per class (more threads than
    cores), with threads switching often: the same model JSON and predictions,
    and the trees of the former serial loop."""
    rng = np.random.default_rng(n_classes)
    X = rng.normal(size=(150, _HIST_BLOCK + 30))  # two histogram blocks
    y = rng.integers(0, n_classes, size=150)
    X[:, 3] += y
    X[:, -1] -= 0.5 * y
    X_test = rng.normal(size=(40, X.shape[1]))
    params = BoostParams(rounds=4, max_bins=32)
    fits = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for workers in (1, 2, 3, n_classes):
            monkeypatch.setattr(boosting, "_workers", lambda n, w=workers: w)
            model = BoostedTreesClassifier(params).fit(X, y)
            fits.append((json.dumps(model.to_dict()), model.predict(X_test).tolist()))
    finally:
        sys.setswitchinterval(interval)
    assert all(fit == fits[0] for fit in fits[1:])
    assert json.loads(fits[0][0])["trees"] == boost_fit_oracle(X, y, n_classes, params)


def forest_fit_oracle(X, yi, n_classes, params, seed):
    """The forest's trees on the oracle grower, under the forest's own tree
    seeds, bootstrap rows and ceil(sqrt(d)) feature sampler."""
    edges = quantile_bin_edges(X, params.max_bins)
    offset, bins = offset_bins(X, edges)
    n, d = X.shape
    trees = []
    for tree_seed in np.random.default_rng(seed).integers(0, 2**63 - 1, size=params.n_trees):
        rng = np.random.default_rng(int(tree_seed))
        boot = rng.integers(0, n, size=n)
        sample = partial(rng.choice, d, size=math.ceil(math.sqrt(d)), replace=False)
        tree, _ = grow_tree_oracle(offset[boot], yi[boot], n_classes, edges, bins,
                                   sample_features=sample)
        trees.append(tree.to_dict())
    return trees


@pytest.mark.parametrize("n_classes", [10, 4])
def test_forest_fit_matches_the_oracle_grower(n_classes):
    """Nodes of 200 bootstrap rows down to 2 fall on both sides of the sorted
    path's n < max_bins; the sampler draws only at nodes of two classes or more."""
    rng = np.random.default_rng(n_classes)
    y = rng.permutation(np.arange(200) % n_classes)
    X = rng.normal(size=(200, 30))
    X[:, 2] += y
    X[:, 7] = np.round(X[:, 7])  # ties
    params = ForestParams(n_trees=6, max_bins=32)
    model = BaggedTreesClassifier(params, seed=n_classes).fit(X, y)
    assert [t.to_dict() for t in model.trees_] == forest_fit_oracle(X, y, n_classes, params, n_classes)


@pytest.mark.parametrize("failing", ["one", "every"])
def test_an_error_in_a_chain_reaches_the_caller_and_no_thread_outlives_fit(monkeypatch, failing):
    """Ten one-tree chains on 2 workers.  Chain 1 fails at once; chain 0 waits
    until chain 2 has started, on the worker that failed chain 1, and then
    grows (one chain fails) or fails too (every worker's first chain fails).
    fit raises the error of the first failed chain in class order, ends its
    workers and starts few of the other chains.  Chain 2 starts only if the
    failed chain 1 gave its buffers back; otherwise both workers' buffers are
    lost by the time chain 0 fails and fit would hang, so it runs in a thread
    joined with a timeout."""
    grow, lock, chain_2_started = boosting.grow_regression_tree, threading.Lock(), threading.Event()
    chains = []  # (class, worker) per chain started: one tree, so one call, per chain

    def grow_or_fail(codes, y, *args):
        c = int(np.argmax(y))  # y is the one-hot target of class c, and row c has label c
        with lock:
            chains.append((c, threading.current_thread()))
        if c == 2:
            chain_2_started.set()
        if c == 1:
            raise RuntimeError("chain 1 failed")
        if c == 0:
            chain_2_started.wait(timeout=5)
            if failing == "every":
                raise RuntimeError("chain 0 failed")
        time.sleep(0.05)  # time for fit to see the error and cancel the chains not started
        return grow(codes, y, *args)

    monkeypatch.setattr(boosting, "_workers", lambda n: 2)
    monkeypatch.setattr(boosting, "grow_regression_tree", grow_or_fail)
    rng = np.random.default_rng(0)
    X, y = rng.normal(size=(60, 5)), np.arange(60) % 10
    raised = []

    def fit():
        try:
            BoostedTreesClassifier(BoostParams(rounds=1)).fit(X, y)
        except BaseException as exc:
            raised.append(exc)

    before = set(threading.enumerate())
    runner = threading.Thread(target=fit, daemon=True)
    runner.start()
    runner.join(timeout=30)
    assert not runner.is_alive(), "fit hangs: a failed chain kept its buffers"
    assert [str(e) for e in raised] == ["chain 0 failed" if failing == "every" else "chain 1 failed"]
    assert set(threading.enumerate()) == before
    started = dict(chains)
    assert {0, 1, 2} <= set(started) and started[1] is started[2] is not started[0]
    assert len(chains) < 10


def edge_matrices(rng):
    """Random feature matrices: heavy ties, a constant column, one row, inf and NaN."""
    for trial in range(60):
        n = 1 if trial % 10 == 0 else int(rng.integers(2, 80))
        d = int(rng.integers(1, 6))
        if trial % 3 == 0:
            X = rng.integers(-3, 4, size=(n, d)).astype(np.float64)  # ties, no signed zeros
        else:
            X = rng.normal(size=(n, d))
        if trial % 4 == 0:
            X[:, -1] = 1.5
        if trial % 5 == 1:
            X[rng.integers(0, n), rng.integers(0, d)] = np.inf
        if trial % 5 == 2:
            X[rng.integers(0, n), rng.integers(0, d)] = -np.inf
        if trial % 7 == 3:
            X[rng.integers(0, n), rng.integers(0, d)] = np.nan
        yield X


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # inf - inf, as inside np.quantile
@pytest.mark.parametrize("max_bins", [2, 3, 128, 256])
def test_quantile_bin_edges_match_numpy_quantile_bit_for_bit(max_bins):
    rng = np.random.default_rng(max_bins)
    for X in edge_matrices(rng):
        got = quantile_bin_edges(X, max_bins)
        want = quantile_edges_oracle(X, max_bins)
        assert len(got) == len(want) == X.shape[1]
        for g, w in zip(got, want):
            assert g.dtype == w.dtype and g.tobytes() == w.tobytes(), (X, g, w)


GOOD_TREE = {"feature": [0, -1, -1], "threshold": [0.5, 0.0, 0.0],
             "left": [1, -1, -1], "right": [2, -1, -1], "value": [None, [1.0, 0.0], [0.0, 1.0]]}


def test_tree_from_dict_round_trips_a_valid_tree():
    tree = Tree.from_dict(GOOD_TREE)
    assert tree.to_dict() == GOOD_TREE
    leaves = PackedTrees.pack([tree], 2).route(np.array([[0.0], [1.0]]))
    assert leaves.tolist() == [[[1.0, 0.0], [0.0, 1.0]]]


@pytest.mark.parametrize("change", [
    {"left": [1, -1]},  # arrays of different lengths
    {k: [] for k in GOOD_TREE},  # no nodes
    {"left": [5, -1, -1]},  # child out of range
    {"right": [0, -1, -1]},  # child not later than its parent: a cycle
    {"left": [1.0, -1, -1]},  # child index not an int
    {"feature": [-2, -1, -1]},  # negative split feature
    {"feature": [0, -1, "x"]},
    {"value": [None, None, [0.0, 1.0]]},  # leaf without a value
])
def test_tree_from_dict_rejects_broken_structure(change):
    with pytest.raises(ValueError):
        Tree.from_dict({**GOOD_TREE, **change})


# Thresholds and inputs share a few values, so rows land exactly on thresholds.
GRID_VALUES = np.array([-1.0, -0.5, 0.0, 0.25, 0.5, 2.0])


def random_tree(rng, d, value_dim, max_depth):
    """A random tree built like the growers' trees: children after their parent."""
    tree = Tree()
    stack = [(0, None, None)]
    while stack:
        depth, parent, side = stack.pop()
        if depth < max_depth and rng.random() < 0.7:
            node = tree.add_split(int(rng.integers(0, d)), float(rng.choice(GRID_VALUES)))
            stack += [(depth + 1, node, "right"), (depth + 1, node, "left")]
        else:
            value = rng.normal(size=value_dim or 1)
            node = tree.add_leaf(value.tolist() if value_dim else float(value[0]))
        if parent is not None:
            (tree.left if side == "left" else tree.right)[parent] = node
    return tree


def random_rows(rng, n, d):
    X = rng.choice(GRID_VALUES, size=(n, d)) + (rng.random((n, d)) < 0.3) * rng.normal(size=(n, d))
    X[rng.random((n, d)) < 0.1] = np.nan
    return X


@pytest.mark.parametrize("value_dim", [None, 1, 3])
def test_router_matches_route_oracle_bit_for_bit(value_dim):
    rng = np.random.default_rng(value_dim or 0)
    for _ in range(40):
        d = int(rng.integers(1, 6))
        trees = [random_tree(rng, d, value_dim, int(rng.integers(0, 7)))
                 for _ in range(int(rng.integers(1, 12)))]
        X = random_rows(rng, int(rng.integers(0, 30)), d)
        got = PackedTrees.pack(trees, value_dim).route(X)
        assert got.shape == (len(trees), X.shape[0], value_dim or 1)
        for t, tree in enumerate(trees):
            assert got[t].tobytes() == route_oracle(tree, X, value_dim or 1).tobytes()


def test_leaf_only_trees_route_any_input_width():
    trees = [Tree.from_dict({"feature": [-1], "threshold": [0.0], "left": [-1],
                             "right": [-1], "value": [[0.25, 0.75]]})] * 3
    packed = PackedTrees.pack(trees, 2)
    assert packed.n_features == 0
    for X in (np.empty((4, 0)), np.empty((0, 0)), np.ones((2, 3))):
        assert packed.route(X).tolist() == [[[0.25, 0.75]] * X.shape[0]] * 3
    forest = BaggedTreesClassifier.from_dict({
        "kind": "bagged_trees", "params": {"n_trees": 3, "max_bins": 256}, "seed": 0,
        "classes": ["a", "b"], "trees": [t.to_dict() for t in trees]})
    assert forest.n_features_ == 0
    assert forest.predict(np.empty((4, 0))).tolist() == ["b"] * 4


@pytest.mark.parametrize("value_dim, leaf", [
    (2, [1.0, 0.0, 0.0]),  # three probabilities for two classes
    (2, 0.5),  # one number where a list is due
    (2, [[1.0, 0.0]]),
    (None, [0.5]),  # a list where one number is due
    (None, "x"),
])
def test_pack_rejects_leaves_of_the_wrong_shape(value_dim, leaf):
    tree = Tree.from_dict({**GOOD_TREE, "value": [None, leaf, leaf]})
    with pytest.raises(ValueError):
        PackedTrees.pack([tree], value_dim)


def test_running_sum_adds_in_order_from_zero():
    rng = np.random.default_rng(6)
    for shape in [(1000,), (300, 1, 1), (50, 4, 3), (0, 2)]:
        terms = rng.normal(size=shape) * 10.0 ** rng.integers(-12, 12, size=shape)
        total = np.zeros(shape[1:])
        for term in terms:
            total += term
        assert running_sum(terms).tobytes() == total.tobytes()
    assert running_sum(np.array([[-0.0]])).tobytes() == np.zeros(1).tobytes()  # 0.0 + -0.0


def test_ensembles_score_as_the_per_tree_oracle_loop():
    """A 100-tree forest and a boosted model score exactly as the old per-tree loops."""
    rng = np.random.default_rng(4)
    X = rng.normal(size=(120, 6))
    y = (X[:, 0] > 0).astype(int) + (X[:, 1] > 0.5)
    X_test = random_rows(rng, 40, 6)
    X_test[:10] = X[:10]

    forest = BaggedTreesClassifier(ForestParams(n_trees=100), seed=2).fit(X, y)
    probs = np.zeros((X_test.shape[0], 3))
    for tree in forest.trees_:
        probs += route_oracle(tree, X_test, 3)
    assert forest.decision_function(X_test).tobytes() == (probs / 100).tobytes()

    boost = BoostedTreesClassifier(BoostParams(rounds=20, learning_rate=0.3)).fit(X, y)
    scores = np.zeros((X_test.shape[0], 3))
    for round_trees in boost.trees_:
        for c, tree in enumerate(round_trees):
            scores[:, c] += 0.3 * route_oracle(tree, X_test, 1)[:, 0]
    assert boost.decision_function(X_test).tobytes() == scores.tobytes()
