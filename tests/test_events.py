import json

import numpy as np
import pytest

from whiskerlab.errors import CalibrationUnderrunError, ConfigError
from whiskerlab.events import DetectorConfig, TactileSample, capture_samples, scan
from whiskerlab.features import EPSILON, features_array
from whiskerlab.learn.dataset import SampleLabel, sample_to_dict

from oracles import capture_reference, record_values


def constant_stream(level, frames, channels=10):
    return np.full((frames, channels), float(level))


def hand_trace_stream():
    """One active channel: calibration at 1.0, a 2.5 burst, then quiet."""
    values = np.ones((18, 10))
    values[10:14, 0] = 2.5
    return values


def test_calibrate_constant_stream():
    # Ten frames at 1.0 calibrate every channel to a window sum of 2.0, so in
    # literal mode at multiplier 2.0 a window sum of exactly 4.0 does not
    # fire and one a hair above it does.
    cfg = DetectorConfig(window_frames=2, sample_frames=4, backtrack_frames=1,
                         trigger_multiplier=2.0, mode="literal")
    values = constant_stream(1.0, 20)
    values[12:14, 3] = 2.0
    assert scan(values, cfg) == ([], 0)
    values[12:14, 3] = np.nextafter(2.0, 3.0)
    samples, discarded = scan(values, cfg)
    assert [(s.trigger_frame, s.trigger_channel) for s in samples] == [(12, 4)]
    assert discarded == 0


def test_calibrate_zero_stream():
    # A zero prefix calibrates to 0.0: zeros never fire, any positive window does.
    cfg = DetectorConfig(window_frames=5, mode="literal")
    assert scan(constant_stream(0.0, 100), cfg) == ([], 0)
    values = constant_stream(0.0, 100)
    values[30, 9] = 1e-300
    samples, _ = scan(values, cfg)
    assert [(s.trigger_frame, s.trigger_channel) for s in samples] == [(30, 10)]


def test_calibrate_ramp():
    # Frames 0.1..1.0 average to a window sum of 5.5 / 5 = 1.1 per channel.
    cfg = DetectorConfig(window_frames=2, sample_frames=4, backtrack_frames=1,
                         trigger_multiplier=2.0, mode="literal")
    values = np.tile(np.linspace(0.1, 1.0, 10)[:, None], (1, 10))
    values = np.concatenate([values, constant_stream(0.5, 10)])
    values[14:16, 0] = 1.1 - 1e-9
    assert scan(values, cfg) == ([], 0)
    values[14:16, 0] = 1.1 + 1e-9
    samples, _ = scan(values, cfg)
    assert [(s.trigger_frame, s.trigger_channel) for s in samples] == [(14, 1)]


def test_calibration_underrun():
    cfg = DetectorConfig(window_frames=2, sample_frames=4, backtrack_frames=1)
    with pytest.raises(CalibrationUnderrunError):
        scan(constant_stream(1.0, 9), cfg)
    values = constant_stream(1.0, 20)
    values[3, 5] = np.inf
    with pytest.raises(ConfigError, match="finite"):
        scan(values, cfg)


def test_hand_trace_literal_mode():
    cfg = DetectorConfig(window_frames=2, backtrack_frames=1, trigger_multiplier=2.0,
                         sample_frames=4, mode="literal")
    samples, discarded = scan(hand_trace_stream(), cfg)
    assert len(samples) == 1 and discarded == 0
    sample = samples[0]
    assert sample.trigger_frame == 10
    assert sample.trigger_channel == 1
    # Capture covers frames 9..12: values 1.0, 2.5, 2.5, 2.5 on the active channel.
    assert np.array_equal(sample.values[0], [1.0, 2.5, 2.5, 2.5])
    assert np.all(sample.values[1:] == 1.0)


def test_constant_stream_never_triggers_in_shifted_mode():
    cfg = DetectorConfig(mode="shifted")
    samples = capture_samples(constant_stream(-3.0, 400), cfg)
    assert samples == []


def test_the_feature_floor_is_the_detector_shift():
    # Dark frames sit on the floor, so in shifted mode their window sums and
    # baselines both shift to exactly zero and only light above the floor
    # fires.  A shift taken from a larger floor would put every dark window
    # above its threshold and fire at once on dark frames; one from a smaller
    # floor would raise every threshold by (multiplier - 1) times the gap.
    # So the detector takes its shift from the one floor the features use.
    taxels = np.zeros((200, 5, 5))
    assert np.all(features_array(taxels) == np.log(EPSILON))
    assert scan(features_array(taxels)) == ([], 0)
    taxels[60:66, 2] = 0.3
    samples, discarded = scan(features_array(taxels))
    assert [(s.trigger_frame, s.trigger_channel) for s in samples] == [(60, 3)]
    assert discarded == 0


def test_literal_mode_negative_baseline_degeneracy():
    # With negative feature levels the verbatim comparison fires immediately
    # for any multiplier > 1; shifted mode is the remedy.
    cfg = DetectorConfig(mode="literal")
    samples = capture_samples(constant_stream(-3.0, 400), cfg)
    assert len(samples) > 0


def test_burst_separation_controls_sample_count():
    cfg = DetectorConfig(window_frames=2, backtrack_frames=1, trigger_multiplier=2.0,
                         sample_frames=6, mode="literal")

    def run(second_start):
        values = np.ones((60, 10))
        values[20:22, 2] = 5.0
        values[second_start : second_start + 2, 2] = 5.0
        return capture_samples(values, cfg)

    far = run(second_start=30)  # bursts a full sample length apart
    assert len(far) == 2
    assert far[1].trigger_frame - far[0].trigger_frame >= cfg.sample_frames
    near = run(second_start=24)  # second burst inside the suppression window
    assert len(near) == 1


def test_captures_match_reference_interpreter_on_random_streams():
    rng = np.random.default_rng(42)
    for case in range(50):
        m = int(rng.integers(1, 5))
        l = int(rng.integers(4, 13))
        c = int(rng.integers(0, min(l, 5 * m + 1)))
        b = float(rng.uniform(1.1, 3.0))
        n = 5 * m + int(rng.integers(30, 80))
        values = rng.uniform(0.0, 1.0, size=(n, 10))
        values[: 5 * m] = rng.uniform(0.5, 1.5, size=(5 * m, 10))
        for _ in range(int(rng.integers(1, 4))):
            start = int(rng.integers(5 * m, n - 2))
            width = int(rng.integers(2, 2 * m + 2))
            channel = int(rng.integers(0, 10))
            values[start : start + width, channel] = rng.uniform(2.0, 4.0)

        cfg = DetectorConfig(window_frames=m, backtrack_frames=c, trigger_multiplier=b,
                             sample_frames=l, mode="literal")
        samples, discarded = scan(values, cfg)
        expected, expected_discards = capture_reference(values, m, c, b, l)

        assert len(samples) == len(expected), f"case {case}"
        for sample, (t, k, matrix) in zip(samples, expected):
            assert sample.trigger_frame == t
            assert sample.trigger_channel == k
            assert np.array_equal(sample.values, matrix)
        assert discarded == expected_discards


def test_capture_is_exact_slice_of_stream():
    cfg = DetectorConfig(window_frames=2, backtrack_frames=3, trigger_multiplier=2.0,
                         sample_frames=8, mode="literal")
    rng = np.random.default_rng(1)
    values = rng.uniform(0.3, 0.5, size=(40, 10))
    values[15:18, 4] = 6.0
    samples = capture_samples(values, cfg)
    assert len(samples) == 1
    start = samples[0].trigger_frame - cfg.backtrack_frames
    assert np.array_equal(samples[0].values, values[start : start + 8].T)
    assert samples[0].values.shape == (10, 8)


def test_trigger_near_stream_end_is_discarded():
    cfg = DetectorConfig(window_frames=2, backtrack_frames=1, trigger_multiplier=2.0,
                         sample_frames=10, mode="literal")
    values = np.ones((14, 10))
    values[12:14, 0] = 9.0  # fires at t=12 but only 2 frames remain
    assert scan(values, cfg) == ([], 1)


def test_ascending_channel_wins_simultaneous_trigger():
    cfg = DetectorConfig(window_frames=2, backtrack_frames=1, trigger_multiplier=2.0,
                         sample_frames=4, mode="literal")
    values = np.ones((20, 10))
    values[10:12, 3] = 9.0
    values[10:12, 7] = 9.0
    samples = capture_samples(values, cfg)
    assert len(samples) == 1
    assert samples[0].trigger_channel == 4  # 1-based; channel index 3 beats 7


def test_backtrack_must_fit_in_calibration_prefix():
    with pytest.raises(ConfigError):
        DetectorConfig(window_frames=1, backtrack_frames=6, sample_frames=10).validate()


def test_shapes_follow_the_stream_width():
    cfg = DetectorConfig(window_frames=2, backtrack_frames=1, trigger_multiplier=2.0,
                         sample_frames=4, mode="literal")
    values = np.ones((18, 8))
    values[10:14, 6] = 2.5
    samples = capture_samples(values, cfg)
    assert len(samples) == 1 and samples[0].trigger_channel == 7
    assert samples[0].values.shape == (8, 4)
    for bad in (np.ones(8), np.ones((2, 2, 2))):
        with pytest.raises(ConfigError):
            TactileSample(bad, trigger_frame=0, trigger_channel=1)


def test_detection_is_deterministic_and_serializable(tmp_path):
    cfg = DetectorConfig(window_frames=2, backtrack_frames=2, trigger_multiplier=1.8,
                         sample_frames=6, mode="literal")
    rng = np.random.default_rng(8)
    values = rng.uniform(0.2, 1.0, size=(50, 10))
    values[20:23, 5] = 5.0
    runs = []
    for _ in range(2):
        samples = capture_samples(values, cfg)
        for s in samples:  # only labelled captures are saved
            s.label, s.seed, s.config_digest = SampleLabel(3, "sinc", 3, 150.0, 90), 8, "abc"
        runs.append("\n".join(json.dumps(sample_to_dict(s), sort_keys=True) for s in samples))
    assert runs[0] == runs[1] and runs[0]
    records = [json.loads(line) for line in runs[0].splitlines()]
    assert [r["shape"] for r in records] == [list(s.values.shape) for s in samples]
    assert all(record_values(r).tobytes() == s.values.tobytes() for r, s in zip(records, samples))


def test_asarray_gives_the_values_uncopied():
    sample = TactileSample(np.arange(12.0).reshape(2, 6), trigger_frame=0, trigger_channel=1)
    assert np.asarray(sample) is sample.values
    copied = np.array(sample, copy=True)
    assert np.array_equal(copied, sample.values) and not np.shares_memory(copied, sample.values)
