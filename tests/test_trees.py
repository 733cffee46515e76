import numpy as np
import pytest

from oracles import split_oracle
from whiskerlab.learn.trees import _best_split


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
