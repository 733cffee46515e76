import math

import numpy as np
import pytest

from whiskerlab.analysis import (
    DurationConfig,
    RegressionFit,
    _axis_correlations,
    activation_times,
    event_duration,
    fit_log_regression,
    identify_direction,
)
from whiskerlab.errors import (
    ConfigError,
    DegenerateFitError,
    DirectionIndeterminateError,
)
from whiskerlab.events import DetectorConfig, capture_samples
from whiskerlab.features import features_array, features_stream
from whiskerlab.seeding import derive_rng, derive_seed
from whiskerlab.sim import DIRECTIONS_DEG, SPECIMENS, SlideConfig, TextureSpec, simulate_slide
from whiskerlab.sim import WhiskerArraySpec, simulate_taxels
from whiskerlab.taxel_grid import TaxelMatrix

from oracles import direction_correlations_oracle, duration_oracle, identify_direction_oracle

CFG = DurationConfig()


def stream_with_totals(totals):
    return np.tile((np.asarray(totals, dtype=np.float64) / 25.0)[:, None, None], (1, 5, 5))


def test_all_dark_stream_has_no_duration():
    assert event_duration(stream_with_totals([0.0] * 30), CFG) is None
    assert event_duration(stream_with_totals([0.02] * 30), CFG) is None  # below threshold


def test_duration_counts_first_to_last_valid():
    totals = [0.01] * 60
    for t in range(12, 50):
        totals[t] = 0.3
    assert event_duration(stream_with_totals(totals), CFG) == 37


def test_single_valid_frame_gives_zero():
    totals = [0.0] * 9 + [1.0] + [0.0] * 5
    assert event_duration(stream_with_totals(totals), CFG) == 0


def test_duration_matches_scan_oracle():
    rng = np.random.default_rng(6)
    for _ in range(100):
        totals = rng.uniform(0.0, 0.2, size=rng.integers(1, 40)).tolist()
        got = event_duration(stream_with_totals(totals), CFG)
        assert got == duration_oracle(totals, CFG.valid_threshold)


def test_duration_invariant_to_appended_dark_frames():
    totals = [0.01] * 5 + [0.5] * 8 + [0.01] * 4
    base = event_duration(stream_with_totals(totals), CFG)
    padded = [0.0] * 7 + totals + [0.0] * 11
    assert event_duration(stream_with_totals(padded), CFG) == base


def test_duration_needs_nonempty_stream():
    for empty in ([], np.zeros((0, 5, 5)), np.zeros((3, 5, 5))[3:]):
        with pytest.raises(ConfigError):
            event_duration(empty, CFG)


def test_duration_of_array_stream_matches_per_frame_totals():
    values = np.zeros((12, 5, 5))
    values[2, 1, 3] = CFG.valid_threshold  # exactly at the threshold: not valid
    values[4:8] = 0.3 / 25
    values[9, 4, 0] = CFG.valid_threshold  # at the threshold again, after the event
    totals = [float(v.sum()) for v in values]
    assert totals[2] == totals[9] == CFG.valid_threshold
    assert event_duration(values, CFG) == duration_oracle(totals, CFG.valid_threshold) == 3
    assert event_duration(np.zeros((9, 5, 5)), CFG) is None
    values[9, 4, 0] = np.nextafter(CFG.valid_threshold, 1.0)
    assert event_duration(values, CFG) == 5


@pytest.mark.parametrize("side", [4, 5])
def test_duration_of_taxel_stream_matches_matrix_list(side):
    array = WhiskerArraySpec(rows=side, cols=side)
    rng = np.random.default_rng(side)
    for texture in (TextureSpec("flat", 0), TextureSpec("sinc", 2), TextureSpec("sawtooth", 4)):
        for direction in (0, 90, 180, 270):
            slide = SlideConfig(float(rng.uniform(60.0, 250.0)), direction, seed=int(rng.integers(2**31)),
                                noise_amp=float(rng.choice([0.0, 0.0015])))
            stream = simulate_slide(texture, slide, array)
            by_hand = [TaxelMatrix(m.values.copy(), m.frame_index) for m in stream]
            totals = [float(m.values.sum()) for m in by_hand]
            got = event_duration(stream, CFG)
            assert got == event_duration(by_hand, CFG) == duration_oracle(totals, CFG.valid_threshold)
            assert event_duration(stream.values[5:], CFG) == duration_oracle(totals[5:], CFG.valid_threshold)


def test_threshold_must_be_positive():
    with pytest.raises(ConfigError):
        DurationConfig(valid_threshold=0.0).validate()


def test_simulated_durations_nonincreasing_in_speed():
    tex = TextureSpec("sawtooth", 3)
    means = []
    for speed in (100.0, 140.0, 200.0):
        durations = [
            event_duration(simulate_slide(tex, SlideConfig(speed, seed=s)))
            for s in (1, 2)
        ]
        means.append(sum(durations) / len(durations))
    assert means[0] >= means[1] >= means[2]


def test_two_point_fit_is_exact():
    fit = fit_log_regression([(1.0, 5.0), (10.0, 3.0)])
    assert fit.intercept == pytest.approx(5.0, abs=1e-12)
    assert fit.slope == pytest.approx(-2.0, abs=1e-12)
    assert fit.r2 == pytest.approx(1.0, abs=1e-12)
    assert fit.n == 2


def test_fit_recovers_generating_model():
    speeds = np.arange(100.0, 201.0, 10.0)
    points = [(v, 151.06 - 56.29 * math.log10(v)) for v in speeds]
    fit = fit_log_regression(points)
    assert fit.intercept == pytest.approx(151.06, abs=1e-9)
    assert fit.slope == pytest.approx(-56.29, abs=1e-9)
    assert fit.r2 == pytest.approx(1.0, abs=1e-12)


def test_reference_model_magnitude_is_physical_in_frames():
    # The recovered coefficients predict ~38.5 frames at 100 mm/s, i.e. the
    # model only makes sense with a base-10 log (natural log would go negative).
    fit = RegressionFit(intercept=151.06, slope=-56.29, r2=0.99, n=55)
    assert fit.predict(100.0) == pytest.approx(38.48, abs=0.01)
    assert 151.06 - 56.29 * math.log(100.0) < 0


def test_degenerate_fits_raise():
    with pytest.raises(DegenerateFitError):
        fit_log_regression([(100.0, 30.0)])
    with pytest.raises(DegenerateFitError):
        fit_log_regression([(100.0, 30.0), (100.0, 31.0)])
    with pytest.raises(DegenerateFitError):
        fit_log_regression([(-5.0, 30.0), (100.0, 31.0)])


def test_zero_variance_durations_have_undefined_r2():
    fit = fit_log_regression([(100.0, 30.0), (200.0, 30.0)])
    assert fit.slope == 0.0
    assert fit.r2 is None


def bump_channels(times, frames=60):
    """(10, frames) array with a unit bump per channel at the given argmax times."""
    values = np.zeros((10, frames))
    for k, t in enumerate(times):
        if t is not None:
            values[k, t] = 1.0
    return values


def test_reverse_row_order_means_90_degrees():
    values = bump_channels([50, 40, 30, 20, 10, None, None, None, None, None])
    assert identify_direction(values) == 90


def test_sequential_column_order_means_0_degrees():
    values = bump_channels([None, None, None, None, None, 10, 20, 30, 40, 50])
    assert identify_direction(values) == 0


def test_reverse_column_and_sequential_row_orders():
    assert identify_direction(bump_channels([None] * 5 + [50, 40, 30, 20, 10])) == 180
    assert identify_direction(bump_channels([10, 20, 30, 40, 50] + [None] * 5)) == 270


def test_stronger_axis_wins():
    # Columns perfectly ordered, rows weakly (and inconsistently) ordered.
    values = bump_channels([10, 30, 20, 50, 40, 10, 20, 30, 40, 50])
    assert identify_direction(values) == 0


def test_indeterminate_direction_raises():
    with pytest.raises(DirectionIndeterminateError):
        identify_direction(np.ones((10, 30)))


def test_direction_invariant_to_positive_scaling():
    values = bump_channels([None] * 5 + [12, 19, 33, 41, 50]) + 0.01
    assert identify_direction(values) == identify_direction(values * 7.5) == 0


def test_half_max_crossing_rule():
    values = np.zeros((10, 40))
    for k, t in enumerate([5, 10, 15, 20, 25]):
        values[5 + k, t:] = 1.0  # steps, not bumps: a channel's maximum is a plateau
    times = activation_times(values)
    assert times[5:].tolist() == [5, 10, 15, 20, 25]
    assert identify_direction(values) == 0


def _check_against_oracle(channels):
    want = identify_direction_oracle(channels)
    if want is None:
        with pytest.raises(DirectionIndeterminateError):
            identify_direction(channels)
    else:
        assert identify_direction(channels) == want
    got = _axis_correlations(activation_times(channels))
    # Integer times give exact ranks and rank sums: the same bits, not just close.
    assert got.tolist() == list(direction_correlations_oracle(channels))


@pytest.mark.parametrize("half", range(2, 9))
def test_direction_matches_oracle_on_random_arrays(half):
    rng = np.random.default_rng(half)
    for trial in range(60):
        frames = int(rng.integers(1, 12))
        kind = trial % 4
        if kind == 0:  # continuous values: distinct times are likely
            channels = rng.normal(size=(2 * half, frames))
        elif kind == 1:  # few levels: tied times and plateaus at the maximum
            channels = rng.integers(0, 3, size=(2 * half, frames)).astype(np.float64)
        elif kind == 2:  # steps at random frames, so several channels share a time
            channels = (np.arange(frames) >= rng.integers(0, frames, size=(2 * half, 1))) * 1.0
        else:  # some channels constant
            channels = rng.normal(size=(2 * half, frames))
            channels[rng.random(2 * half) < 0.5] = rng.normal()
        _check_against_oracle(channels)
    _check_against_oracle(np.ones((2 * half, 5)))  # every channel constant: indeterminate


def test_direction_matches_oracle_on_simulated_captures():
    for seed in range(12):
        for direction in DIRECTIONS_DEG:
            sample = simulate_capture(direction, seed, pattern=("sinc", "sawtooth", "triangle")[seed % 3])
            _check_against_oracle(sample.values)
            _check_against_oracle(sample.values[:, ::-1])


@pytest.mark.parametrize("side, sample_frames", [(4, 60), (5, 70)])
def test_every_specimen_and_direction_is_identified(side, sample_frames):
    """10 specimens x 4 directions x 2 slides at 100-200 mm/s and 0-8 mm phase
    offsets: every capture and every whole stream reads its true direction."""
    array = WhiskerArraySpec(rows=side, cols=side)
    detector = DetectorConfig(sample_frames=sample_frames)
    right_captures = right_streams = n_captures = 0
    for sid, texture in enumerate(SPECIMENS, start=1):
        for direction in DIRECTIONS_DEG:
            for k in range(2):
                rng = derive_rng(7, "direction", side, sid, direction, k)
                slide = SlideConfig(speed_mm_s=rng.uniform(100.0, 200.0), direction_deg=direction,
                                    start_offset_mm=rng.uniform(0.0, 8.0),
                                    seed=derive_seed(7, "noise", side, sid, direction, k))
                stream = features_array(simulate_taxels(texture, slide, array))
                captures = capture_samples(stream, detector)
                n_captures += len(captures)
                right_captures += sum(identify_direction(c) == direction for c in captures)
                right_streams += identify_direction(stream.T) == direction
    assert (n_captures, right_captures, right_streams) == (80, 80, 80)


def simulate_capture(direction, seed, pattern="sawtooth", depth=3):
    slide = SlideConfig(speed_mm_s=120.0, direction_deg=direction, seed=seed)
    stream = features_stream(simulate_slide(TextureSpec(pattern, depth), slide))
    samples = capture_samples(stream)
    assert len(samples) == 1
    return samples[0]


def test_simulated_180_slides_identified_end_to_end():
    for seed in range(25):
        assert identify_direction(simulate_capture(180, seed)) == 180


def test_direction_is_texture_independent():
    for pattern, depth in [("sinc", 4), ("triangle", 2)]:
        for direction in (0, 90, 180, 270):
            sample = simulate_capture(direction, seed=3, pattern=pattern, depth=depth)
            assert identify_direction(sample) == direction


def test_reversed_stream_flips_by_180():
    for direction in (0, 90):
        sample = simulate_capture(direction, seed=5)
        flipped = identify_direction(sample.values[:, ::-1])
        assert flipped == (direction + 180) % 360


def test_direction_accepts_feature_stream_input():
    slide = SlideConfig(speed_mm_s=120.0, direction_deg=270, seed=8)
    stream = features_stream(simulate_slide(TextureSpec("sawtooth", 2), slide))
    assert identify_direction(stream.T) == 270
