"""Independent reference implementations used as test oracles.

Everything here is written as plain loops over plain Python/numpy scalars,
deliberately ignoring how the package implements the same operations, so a
bug would have to appear twice (and identically) to slip through.
"""

import math

import numpy as np

from whiskerlab.sim import (
    SlideConfig,
    TextureSpec,
    WhiskerArraySpec,
    _axis_offsets,
    _strain_grid,
    active_frame_count,
)
from whiskerlab.taxel_grid import TaxelMatrix


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
