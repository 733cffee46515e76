import numpy as np
import pytest

from oracles import quantile_edges_oracle, route_oracle, split_oracle
from whiskerlab.learn.boosting import BoostedTreesClassifier, BoostParams
from whiskerlab.learn.forest import BaggedTreesClassifier, ForestParams
from whiskerlab.learn.trees import PackedTrees, Tree, _best_split, quantile_bin_edges, running_sum


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
        assert _best_split(cnt, sums, m, totals) == expected
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
    assert _best_split(cnt, sums, 8, totals) == (1, 1)
    assert split_oracle(cnt.tolist(), sums.tolist(), 8, totals.tolist()) == (1, 1)


def test_best_split_rejects_nodes_without_gain():
    # One occupied bin leaves no two-sided split; a constant target gains nothing.
    cnt, sums = node_histograms(np.zeros((6, 2), dtype=int), np.ones((6, 1)), 4)
    assert _best_split(cnt, sums, 6, np.array([6.0])) is None
    cnt, sums = node_histograms(np.arange(12).reshape(6, 2) % 4, np.ones((6, 1)), 4)
    assert _best_split(cnt, sums, 6, np.array([6.0])) is None
    assert split_oracle(cnt.tolist(), sums.tolist(), 6, [6.0]) is None


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
    """A random tree built like grow_tree's: children after their parent."""
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
