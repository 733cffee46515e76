"""Independent reference implementations used as test oracles.

Everything here is written as plain loops over plain Python/numpy scalars,
deliberately ignoring how the package implements the same operations, so a
bug would have to appear twice (and identically) to slip through.
"""

import base64
import bisect
import math
import re
import struct
from pathlib import Path
from typing import Callable, Optional

import numpy as np

from whiskerlab.errors import ConfigError, check
from whiskerlab.learn.trees import Tree
from whiskerlab.sim import (
    DIRECTIONS_DEG,
    SlideConfig,
    TextureSpec,
    WhiskerArraySpec,
    _strain_grid,
    active_frame_count,
)
from whiskerlab.taxel_grid import TactileFrame, TaxelMatrix


def frame_from_rgb24(data: bytes, width: int, height: int) -> TactileFrame:
    """A frame from a raw RGB24 byte stream (row-major, top-left origin)."""
    if len(data) != width * height * 3:
        raise ValueError(f"raw stream has {len(data)} bytes, expected {width * height * 3}")
    return TactileFrame(np.frombuffer(data, dtype=np.uint8).reshape(height, width, 3).copy())


def read_ppm(path) -> TactileFrame:
    """A binary PPM (P6) file, as ``taxel_grid.write_ppm`` writes it."""
    data = Path(path).read_bytes()
    m = re.match(rb"P6\s+(\d+)\s+(\d+)\s+255\s", data)
    if not m:
        raise ValueError(f"{path}: not a supported P6 PPM file")
    width, height = int(m.group(1)), int(m.group(2))
    return frame_from_rgb24(data[m.end():m.end() + width * height * 3], width, height)


def roi_mean_oracle(pixels: np.ndarray, rows: int, cols: int, roi_side: int,
                    channel: int) -> np.ndarray:
    """Pixel-loop ROI means, normalized by 255."""
    image_side = pixels.shape[0]
    cell_h = image_side // rows
    cell_w = image_side // cols
    out = np.zeros((rows, cols), dtype=np.float64)
    for i in range(rows):
        for j in range(cols):
            top = i * cell_h + (cell_h - roi_side) // 2
            left = j * cell_w + (cell_w - roi_side) // 2
            acc = 0
            for r in range(top, top + roi_side):
                for c in range(left, left + roi_side):
                    acc += int(pixels[r, c, channel])
            out[i, j] = acc / (roi_side * roi_side * 255)
    return out


def feature_oracle(taxels: np.ndarray, epsilon: float) -> list[float]:
    """Direct loop evaluation of the row/column log-sum features."""
    rows, cols = taxels.shape
    out = []
    for i in range(rows):
        s = 0.0
        for j in range(cols):
            s += taxels[i, j]
        out.append(math.log(max(s, epsilon)))
    for j in range(cols):
        s = 0.0
        for i in range(rows):
            s += taxels[i, j]
        out.append(math.log(max(s, epsilon)))
    return out


def capture_reference(
    values: np.ndarray,
    window: int,
    backtrack: int,
    multiplier: float,
    length: int,
    baseline_windows: int = 5,
):
    """Step-by-step interpreter of the event-driven collection procedure.

    Literal trigger comparison (window sum > multiplier * baseline).  Scans
    channels in ascending order at each position; the first hit captures
    frames [t - backtrack, t - backtrack + length) and jumps the scan by a
    full sample length; otherwise the scan advances by one window.

    Returns (captures, discarded) where captures are
    (trigger_frame, channel_1based, matrix(channels, length)).
    """
    total, channels = values.shape
    calib = baseline_windows * window
    assert total >= calib, "stream too short to calibrate"
    baselines = []
    for k in range(channels):
        s = 0.0
        for t in range(calib):
            s += values[t, k]
        baselines.append(s / baseline_windows)

    captures = []
    discarded = 0
    t = calib
    while t + window <= total:
        fired = None
        for k in range(channels):
            s = 0.0
            for w in range(window):
                s += values[t + w, k]
            if s > multiplier * baselines[k]:
                fired = k
                break
        if fired is None:
            t += window
            continue
        start = t - backtrack
        if start + length <= total:
            captures.append((t, fired + 1, values[start : start + length].T.copy()))
        else:
            discarded += 1
        t += length
    return captures, discarded


def duration_oracle(totals, threshold: float):
    """First/last index scan for valid frames; None when nothing is valid."""
    first = last = None
    for t, v in enumerate(totals):
        if v > threshold and v != 0.0:
            if first is None:
                first = t
            last = t
    if first is None:
        return None
    return last - first


def _activation_times_oracle(channels: np.ndarray) -> np.ndarray:
    """First frame each channel reaches half of its min-to-max rise."""
    lo = channels.min(axis=1, keepdims=True)
    hi = channels.max(axis=1, keepdims=True)
    level = lo + 0.5 * (hi - lo)
    return (channels >= level).argmax(axis=1).astype(np.float64)


def _rank_oracle(a: np.ndarray) -> np.ndarray:
    """Average ranks (ties share the mean of their positions)."""
    order = np.argsort(a, kind="stable")
    ranks = np.empty(len(a), dtype=np.float64)
    i = 0
    while i < len(a):
        j = i
        while j + 1 < len(a) and a[order[j + 1]] == a[order[i]]:
            j += 1
        ranks[order[i : j + 1]] = 0.5 * (i + j) + 1.0
        i = j + 1
    return ranks


def _rank_correlation_oracle(times: np.ndarray) -> float:
    """Spearman correlation of activation times against channel position."""
    idx = np.arange(1.0, len(times) + 1.0)
    rt = _rank_oracle(times)
    if np.ptp(rt) == 0:
        return 0.0
    rt = rt - rt.mean()
    ri = idx - idx.mean()
    return float((rt * ri).sum() / math.sqrt((rt**2).sum() * (ri**2).sum()))


def direction_correlations_oracle(channels: np.ndarray) -> tuple[float, float]:
    """(row, column) rank correlations of a (channels, frames) array, one
    sorted tie-group scan per axis."""
    times = _activation_times_oracle(channels)
    half = channels.shape[0] // 2
    return _rank_correlation_oracle(times[:half]), _rank_correlation_oracle(times[half:])


def identify_direction_oracle(channels: np.ndarray) -> Optional[int]:
    """Degrees from the half-max activation order, or None when neither axis
    carries any ordering (where the package raises)."""
    row_corr, col_corr = direction_correlations_oracle(channels)
    if row_corr == 0.0 and col_corr == 0.0:
        return None
    if abs(col_corr) >= abs(row_corr):
        return 0 if col_corr > 0 else 180
    return 90 if row_corr < 0 else 270


def split_oracle(cnt, sums, n, totals, min_gain: float = 1e-12):
    """Loop over every (candidate, bin) split of a node's histograms.

    cnt[j][b] counts the node's rows in bin b of candidate j, sums[s][j][b]
    sums statistic s over them, and totals[s] over the whole node; splitting
    after bin b sends bins <= b left.  Returns the first (candidate, bin), in
    that order, with the highest sum(S_left^2)/n_left + sum(S_right^2)/n_right,
    or None when no split has both sides nonempty or the best score does not
    beat the unsplit sum(T^2)/n by more than min_gain.
    """
    best, best_score = None, None
    for j in range(len(cnt)):
        n_left = 0
        s_left = [0] * len(totals)
        for b in range(len(cnt[j]) - 1):
            n_left += int(cnt[j][b])
            for s in range(len(totals)):
                s_left[s] += sums[s][j][b]
            n_right = n - n_left
            if n_left == 0 or n_right == 0:
                continue
            score_left = 0
            score_right = 0
            for s in range(len(totals)):
                s_right = float(totals[s]) - s_left[s]
                score_left += s_left[s] * s_left[s]
                score_right += s_right * s_right
            score = score_left / n_left + score_right / n_right
            if best_score is None or score > best_score:
                best, best_score = (j, b), score
    if best is None:
        return None
    parent = 0.0
    for t in totals:
        parent += float(t) * float(t)
    if best_score - parent / n <= min_gain:
        return None
    return best


def quantile_edges_oracle(X: np.ndarray, max_bins: int) -> list[np.ndarray]:
    """One np.quantile call per feature at q = 1/max_bins .. (max_bins-1)/max_bins,
    then its distinct values: the tree bin edges as numpy defines them."""
    qs = np.arange(1, max_bins) / max_bins
    edges = []
    for f in range(X.shape[1]):
        e = np.unique(np.quantile(X[:, f], qs))
        edges.append(e.astype(np.float64))
    return edges


def offset_codes_oracle(X: np.ndarray, edges: list[np.ndarray]) -> tuple[np.ndarray, int]:
    """Each value's bin code by a binary search per value: x of feature f gets
    f * max_bins + (the number of edges[f] at or below x), with NaN above
    every number as in numpy's sort order, and max_bins one more than the
    most edges a feature has."""
    max_bins = max(len(e) for e in edges) + 1

    def key(v):
        return (True, 0.0) if math.isnan(v) else (False, v)

    offset = np.empty(X.shape, dtype=np.intp)
    for (i, f), x in np.ndenumerate(X):
        offset[i, f] = f * max_bins + bisect.bisect_right(edges[f].tolist(), key(x), key=key)
    return offset, max_bins


def _axis_offsets(direction_deg: int, array: WhiskerArraySpec) -> np.ndarray:
    """Per-whisker offset (mm) along the slide axis, shape (rows, cols).

    The rank with the largest offset reaches the specimen first, so the
    offsets encode which rows/columns activate first for each direction:
    0 deg sweeps columns in ascending order, 180 deg descending, 90 deg
    sweeps rows in descending order, 270 deg ascending.
    """
    rows = np.arange(array.rows, dtype=np.float64)
    cols = np.arange(array.cols, dtype=np.float64)
    if direction_deg == 0:
        per_col = (array.cols - 1 - cols) * array.pitch_mm
        return np.tile(per_col, (array.rows, 1))
    if direction_deg == 180:
        per_col = cols * array.pitch_mm
        return np.tile(per_col, (array.rows, 1))
    if direction_deg == 90:
        per_row = rows * array.pitch_mm
        return np.tile(per_row[:, None], (1, array.cols))
    if direction_deg == 270:
        per_row = (array.rows - 1 - rows) * array.pitch_mm
        return np.tile(per_row[:, None], (1, array.cols))
    raise ConfigError(f"direction must be one of {DIRECTIONS_DEG}, got {direction_deg}")


def simulate_slide_oracle(
    texture: TextureSpec,
    slide: SlideConfig,
    array: WhiskerArraySpec = WhiskerArraySpec(),
) -> list[TaxelMatrix]:
    """The simulator's frame loop one frame at a time: decay, inject the
    frame's emission scaled by fatigue, draw that frame's noise, clip.

    Strain and emission come from the package's own helpers; this pins the
    per-frame recurrence and the order of the noise draws.
    """
    texture.validate()
    slide.validate()
    array.validate()

    n_active = active_frame_count(slide)
    n_total = slide.lead_in_frames + n_active + slide.lead_out_frames
    offsets = _axis_offsets(slide.direction_deg, array)

    step_mm = slide.speed_mm_s / slide.fps
    sub = array.substeps
    t_sub = (np.arange(n_active * sub, dtype=np.float64) + 1.0) / sub
    positions = t_sub[:, None, None] * step_mm + offsets[None, :, :]

    strain = _strain_grid(texture, slide, array, positions)
    prev = np.concatenate([np.zeros((1,) + offsets.shape), strain[:-1]], axis=0)
    positive_rate = np.maximum(strain - prev, 0.0)
    emission = positive_rate.reshape(n_active, sub, *offsets.shape).sum(axis=1)

    decay = math.exp(-1.0 / array.decay_tau_frames)
    rng = np.random.default_rng(slide.seed)
    frames = []
    glow = np.zeros(offsets.shape)
    worn = np.zeros(offsets.shape)
    for t in range(n_total):
        glow = glow * decay
        a = t - slide.lead_in_frames
        if 0 <= a < n_active:
            glow = glow + emission[a] * np.exp(-array.fatigue * worn)
            worn = worn + emission[a]
        noise = rng.uniform(0.0, slide.noise_amp, size=offsets.shape) if slide.noise_amp else 0.0
        values = np.clip(array.gain * glow + noise, 0.0, 1.0)
        frames.append(TaxelMatrix(values, frame_index=t))
    return frames


def route_oracle(tree, X: np.ndarray, value_dim: int) -> np.ndarray:
    """Route all rows down the tree at once; samples go left when x < threshold.

    The former ``Tree.predict``, moved here unchanged but for ``self`` -> ``tree``.
    """
    out = np.empty((X.shape[0], value_dim), dtype=np.float64)
    stack = [(0, np.arange(X.shape[0]))]
    while stack:
        node, idx = stack.pop()
        if idx.size == 0:
            continue
        if tree.feature[node] < 0:
            out[idx] = tree.value[node]
            continue
        go_left = X[idx, tree.feature[node]] < tree.threshold[node]
        stack.append((tree.left[node], idx[go_left]))
        stack.append((tree.right[node], idx[~go_left]))
    return out


# The tree grower before its split search became node-aware, moved here
# unchanged but for its name: one full histogram per searched node, scored
# from its own cumsums.  The package's grower must return the same trees.
_MIN_GAIN = 1e-12


def grow_tree_oracle(
    offset: np.ndarray,
    y: np.ndarray,
    n_classes: Optional[int],
    edges: list[np.ndarray],
    max_bins: int,
    max_depth: Optional[int] = None,
    sample_features: Optional[Callable[[], np.ndarray]] = None,
) -> tuple[Tree, np.ndarray]:
    """Grow one tree over an offset bin matrix (see :func:`offset_codes_oracle`).

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


def linear_fit_oracle(X: np.ndarray, yi: np.ndarray, n_classes: int, reg: float,
                      epochs: int, learning_rate: float) -> tuple[np.ndarray, np.ndarray]:
    """The linear classifier's weights and bias from its former epoch loop.

    ``yi`` holds class indices below ``n_classes``.  This is the one-vs-rest
    hinge fit as it ran before the epochs were split into row blocks, moved
    here unchanged: each epoch multiplies the whole standardized matrix at
    once.  With every row in one block, the package's fit must match it bit
    for bit.
    """
    mean = X.mean(axis=0)
    std = X.std(axis=0)
    Xs = (X - mean) / np.where(std > 0, std, 1.0)

    n, d = Xs.shape
    targets = np.full((n, n_classes), -1.0)
    targets[np.arange(n), yi] = 1.0

    W = np.zeros((d, n_classes))
    b = np.zeros(n_classes)
    lr = learning_rate
    for _ in range(epochs):
        margins = targets * (Xs @ W + b)
        active = targets * (margins < 1.0)  # subgradient of hinge wrt score
        grad_W = reg * W - Xs.T @ active / n
        grad_b = -active.sum(axis=0) / n
        W -= lr * grad_W
        b -= lr * grad_b
    return W, b


def split_test_counts_oracle(class_sizes: dict, test_fraction: float) -> dict:
    """Per-class test counts of a stratified split, by the former top-up loop.

    Each class starts at round(fraction * size), keeping one training row;
    the total is topped up to round(fraction * n), one row at a time, from
    the class with the most training rows left among those that keep one
    after giving (else among those with any left), ties to the lowest id,
    then trimmed from the class with the most test rows.
    """
    classes = sorted(class_sizes)
    take = {c: min(int(round(test_fraction * class_sizes[c])), max(class_sizes[c] - 1, 0))
            for c in classes}
    target = int(round(test_fraction * sum(class_sizes.values())))
    while sum(take.values()) < target:
        by_train_left = sorted(classes, key=lambda c: (-(class_sizes[c] - take[c]), c))
        spare = [c for c in by_train_left if class_sizes[c] - take[c] > 1]
        exhaustible = [c for c in by_train_left if class_sizes[c] - take[c] > 0]
        if spare:
            take[spare[0]] += 1
        elif exhaustible:
            take[exhaustible[0]] += 1
        else:
            break
    while sum(take.values()) > target:
        by_take = sorted(classes, key=lambda c: (-take[c], c))
        if take[by_take[0]] == 0:
            break
        take[by_take[0]] -= 1
    return take


def record_values(record: dict) -> np.ndarray:
    """The (channels, frames) values of a sample JSONL record, unpacked with
    struct from x's base64 as little-endian float64s."""
    channels, frames = record["shape"]
    raw = base64.b64decode(record["x"], validate=True)
    return np.array(struct.unpack(f"<{channels * frames}d", raw)).reshape(channels, frames)


def record_x(values) -> str:
    """A record's x for values: the base64 of their C-order little-endian
    float64 bytes, packed with struct."""
    flat = [float(v) for v in np.ravel(values)]
    return base64.b64encode(struct.pack(f"<{len(flat)}d", *flat)).decode("ascii")


def check_array_oracle(name: str, value, kind, interval: Optional[str] = None) -> np.ndarray:
    """The per-cell check_array: every number of a JSON number or nested list
    through check, in row-major order, then the array of ``kind``."""
    cells = np.array(value, dtype=object)
    for cell in cells.flat:
        check(name, cell, kind, interval)
    return cells.astype(kind)
