import math

import numpy as np
import pytest

from whiskerlab.errors import ConfigError
from whiskerlab.features import EPSILON, features_array, features_stream, stream_to_array
from whiskerlab.taxel_grid import TaxelMatrix, TaxelStream

from oracles import feature_oracle


def test_uniform_fifth_gives_zero_features():
    fv = features_array(np.full((1, 5, 5), 0.2))[0]
    assert np.all(fv == 0.0)


def test_all_zero_hits_floor():
    fv = features_array(np.zeros((1, 5, 5)))[0]
    assert np.all(fv == math.log(1e-6))
    assert fv[0] == pytest.approx(-13.8155, abs=1e-4)


def test_single_taxel_half():
    values = np.zeros((5, 5))
    values[0, 0] = 0.5
    fv = features_array(values[None])[0]
    expected = feature_oracle(values, 1e-6)
    assert np.allclose(fv, expected, atol=0, rtol=0)
    assert fv[0] == pytest.approx(math.log(0.5), abs=1e-15)
    assert fv[5] == pytest.approx(math.log(0.5), abs=1e-15)
    floor = math.log(1e-6)
    others = np.delete(fv, [0, 5])
    assert np.all(others == floor)


def test_matches_loop_oracle_on_random_matrices():
    rng = np.random.default_rng(21)
    for _ in range(200):
        values = rng.uniform(0.0, 1.0, size=(5, 5))
        got = features_array(values[None])[0]
        expected = np.array(feature_oracle(values, EPSILON))
        assert np.max(np.abs(got - expected)) <= 1e-12


def test_bounds_hold_for_any_input():
    rng = np.random.default_rng(2)
    for _ in range(50):
        values = rng.uniform(0.0, 1.0, size=(5, 5))
        got = features_array(values[None])[0]
        assert np.all(got >= math.log(EPSILON))
        assert np.all(got <= math.log(5.0) + 1e-12)


def test_transpose_swaps_row_and_column_channels():
    rng = np.random.default_rng(13)
    for _ in range(50):
        values = rng.uniform(0.0, 1.0, size=(5, 5))
        plain = features_array(values[None])[0]
        swapped = features_array(values.T[None])[0]
        assert np.array_equal(swapped[:5], plain[5:])
        assert np.array_equal(swapped[5:], plain[:5])


def test_within_row_permutation_leaves_row_features_alone():
    rng = np.random.default_rng(17)
    values = rng.uniform(0.0, 1.0, size=(5, 5))
    base = features_array(values[None])[0]
    shuffled = values.copy()
    shuffled[2] = shuffled[2][[4, 2, 0, 1, 3]]
    got = features_array(shuffled[None])[0]
    # summation order may differ in the last ulp
    assert np.allclose(got[:5], base[:5], rtol=0, atol=1e-12)


def test_column_permutation_permutes_column_features():
    rng = np.random.default_rng(19)
    values = rng.uniform(0.0, 1.0, size=(5, 5))
    perm = [3, 0, 4, 1, 2]
    base = features_array(values[None])[0]
    got = features_array(values[:, perm][None])[0]
    assert np.array_equal(got[5:], base[5:][perm])
    assert np.allclose(got[:5], base[:5], rtol=0, atol=1e-12)


def test_monotone_in_each_taxel():
    rng = np.random.default_rng(23)
    values = rng.uniform(0.1, 0.9, size=(5, 5))
    base = features_array(values[None])[0]
    bumped_values = values.copy()
    bumped_values[1, 3] += 0.05
    bumped = features_array(bumped_values[None])[0]
    assert bumped[1] > base[1]
    assert bumped[5 + 3] > base[5 + 3]
    untouched = [k for k in range(10) if k not in (1, 8)]
    assert np.array_equal(bumped[untouched], base[untouched])


def test_channel_count_is_ten():
    assert features_array(np.zeros((1, 5, 5))).shape == (1, 10)
    # Other grids give rows + cols channels, rows first.
    values = np.zeros((2, 4, 4))
    values[:, 1, 2] = 0.5
    got = features_array(values)
    assert got.shape == (2, 8)
    assert np.array_equal(got[0], got[1])
    assert got[0, 1] == got[0, 4 + 2] == math.log(0.5)
    assert features_array(np.zeros((3, 3, 6))).shape == (3, 9)


def test_stream_empty_and_single():
    for empty in ([], TaxelStream(np.zeros((0, 5, 5))), TaxelStream(np.zeros((3, 5, 5)))[3:]):
        with pytest.raises(ConfigError):
            features_stream(empty)
    one = TaxelMatrix(np.full((5, 5), 0.2), frame_index=4)
    stream = features_stream([one])
    assert stream.shape == (1, 10)
    assert np.array_equal(stream[0], features_array(one.values[None])[0])


def test_stream_preserves_order_on_simulated_slide():
    from whiskerlab.sim import SlideConfig, TextureSpec, simulate_slide

    frames = simulate_slide(TextureSpec("sawtooth", 2), SlideConfig(150.0, seed=3))[:70]
    stream = features_stream(frames)
    assert stream.shape == (70, 10)
    for fv, m in zip(stream, frames):
        assert np.array_equal(fv, features_array(m.values[None])[0])


def test_features_array_matches_per_frame_features_bit_for_bit():
    rng = np.random.default_rng(4)
    taxels = rng.uniform(0.0, 0.3, size=(120, 5, 5))
    taxels[:10] = 0.0  # dark frames hit the floor
    taxels[10:20] *= 1e-8
    got = features_array(taxels)
    want = np.stack([features_array(v[None])[0] for v in taxels])
    assert got.shape == (120, 10) and got.tobytes() == want.tobytes()
    stream = features_stream([TaxelMatrix(v, t + 3) for t, v in enumerate(taxels)])
    assert stream.tobytes() == got.tobytes()


def test_stream_to_array_passes_a_feature_array_through():
    arr = np.zeros((7, 10))
    assert stream_to_array(arr) is arr
    for bad in (np.zeros(10), np.zeros((2, 5, 5))):
        with pytest.raises(ConfigError):
            stream_to_array(bad)


@pytest.mark.parametrize("side", [4, 5])
def test_features_stream_of_taxel_stream_matches_matrix_list_bitwise(side):
    from whiskerlab.sim import SlideConfig, TextureSpec, WhiskerArraySpec, simulate_slide

    array = WhiskerArraySpec(rows=side, cols=side)
    for seed, speed in ((1, 90.0), (2, 210.0)):
        stream = simulate_slide(TextureSpec("triangle", 3), SlideConfig(speed, 90, seed=seed), array)
        by_hand = [TaxelMatrix(m.values.copy(), m.frame_index) for m in stream]
        got = features_stream(stream)
        assert got.shape == (len(stream), 2 * side)
        assert got.tobytes() == features_stream(by_hand).tobytes()
        assert features_stream(stream[10:50]).tobytes() == got[10:50].tobytes()
