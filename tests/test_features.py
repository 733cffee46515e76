import math

import numpy as np
import pytest

from whiskerlab.errors import ConfigError, DataFileError
from whiskerlab.features import (
    FeatureConfig,
    features_array,
    features_from_taxels,
    features_stream,
    load_feature_csv,
    save_feature_csv,
    stream_to_array,
)
from whiskerlab.taxel_grid import TaxelMatrix

from oracles import feature_oracle

CFG = FeatureConfig()


def test_uniform_fifth_gives_zero_features():
    fv = features_from_taxels(TaxelMatrix(np.full((5, 5), 0.2)), CFG)
    assert np.all(fv.values == 0.0)


def test_all_zero_hits_floor():
    fv = features_from_taxels(TaxelMatrix(np.zeros((5, 5))), CFG)
    assert np.all(fv.values == math.log(1e-6))
    assert fv.values[0] == pytest.approx(-13.8155, abs=1e-4)


def test_single_taxel_half():
    values = np.zeros((5, 5))
    values[0, 0] = 0.5
    fv = features_from_taxels(TaxelMatrix(values), CFG)
    expected = feature_oracle(values, 1e-6)
    assert np.allclose(fv.values, expected, atol=0, rtol=0)
    assert fv.values[0] == pytest.approx(math.log(0.5), abs=1e-15)
    assert fv.values[5] == pytest.approx(math.log(0.5), abs=1e-15)
    floor = math.log(1e-6)
    others = np.delete(fv.values, [0, 5])
    assert np.all(others == floor)


def test_matches_loop_oracle_on_random_matrices():
    rng = np.random.default_rng(21)
    for _ in range(200):
        values = rng.uniform(0.0, 1.0, size=(5, 5))
        got = features_from_taxels(TaxelMatrix(values), CFG).values
        expected = np.array(feature_oracle(values, CFG.epsilon))
        assert np.max(np.abs(got - expected)) <= 1e-12


def test_bounds_hold_for_any_input():
    rng = np.random.default_rng(2)
    for _ in range(50):
        values = rng.uniform(0.0, 1.0, size=(5, 5))
        got = features_from_taxels(TaxelMatrix(values), CFG).values
        assert np.all(got >= math.log(CFG.epsilon))
        assert np.all(got <= math.log(5.0) + 1e-12)


def test_transpose_swaps_row_and_column_channels():
    rng = np.random.default_rng(13)
    for _ in range(50):
        values = rng.uniform(0.0, 1.0, size=(5, 5))
        plain = features_from_taxels(TaxelMatrix(values), CFG).values
        swapped = features_from_taxels(TaxelMatrix(values.T), CFG).values
        assert np.array_equal(swapped[:5], plain[5:])
        assert np.array_equal(swapped[5:], plain[:5])


def test_within_row_permutation_leaves_row_features_alone():
    rng = np.random.default_rng(17)
    values = rng.uniform(0.0, 1.0, size=(5, 5))
    base = features_from_taxels(TaxelMatrix(values), CFG).values
    shuffled = values.copy()
    shuffled[2] = shuffled[2][[4, 2, 0, 1, 3]]
    got = features_from_taxels(TaxelMatrix(shuffled), CFG).values
    # summation order may differ in the last ulp
    assert np.allclose(got[:5], base[:5], rtol=0, atol=1e-12)


def test_column_permutation_permutes_column_features():
    rng = np.random.default_rng(19)
    values = rng.uniform(0.0, 1.0, size=(5, 5))
    perm = [3, 0, 4, 1, 2]
    base = features_from_taxels(TaxelMatrix(values), CFG).values
    got = features_from_taxels(TaxelMatrix(values[:, perm]), CFG).values
    assert np.array_equal(got[5:], base[5:][perm])
    assert np.allclose(got[:5], base[:5], rtol=0, atol=1e-12)


def test_monotone_in_each_taxel():
    rng = np.random.default_rng(23)
    values = rng.uniform(0.1, 0.9, size=(5, 5))
    base = features_from_taxels(TaxelMatrix(values), CFG).values
    bumped_values = values.copy()
    bumped_values[1, 3] += 0.05
    bumped = features_from_taxels(TaxelMatrix(bumped_values), CFG).values
    assert bumped[1] > base[1]
    assert bumped[5 + 3] > base[5 + 3]
    untouched = [k for k in range(10) if k not in (1, 8)]
    assert np.array_equal(bumped[untouched], base[untouched])


def test_channel_count_is_ten():
    fv = features_from_taxels(TaxelMatrix(np.zeros((5, 5))), CFG)
    assert fv.values.shape == (10,)


def test_stream_empty_and_single():
    assert features_stream([], CFG) == []
    one = TaxelMatrix(np.full((5, 5), 0.2), frame_index=4)
    stream = features_stream([one], CFG)
    assert len(stream) == 1
    assert stream[0].frame_index == 4
    assert np.array_equal(stream[0].values, features_from_taxels(one, CFG).values)


def test_stream_preserves_order_on_simulated_slide():
    from whiskerlab.sim import SlideConfig, TextureSpec, simulate_slide

    frames = simulate_slide(TextureSpec("sawtooth", 2), SlideConfig(150.0, seed=3))[:70]
    stream = features_stream(frames, CFG)
    assert len(stream) == 70
    assert [fv.frame_index for fv in stream] == [m.frame_index for m in frames]
    for fv, m in zip(stream, frames):
        assert np.array_equal(fv.values, features_from_taxels(m, CFG).values)


def test_epsilon_must_be_positive():
    with pytest.raises(ConfigError):
        FeatureConfig(epsilon=0.0).validate()


def test_csv_round_trip(tmp_path):
    rng = np.random.default_rng(31)
    frames = [TaxelMatrix(rng.uniform(size=(5, 5)), frame_index=i) for i in range(8)]
    stream = features_stream(frames, CFG)
    path = tmp_path / "features.csv"
    save_feature_csv(path, stream)
    again = load_feature_csv(path)
    assert np.array_equal(stream_to_array(again), stream_to_array(stream))
    assert [fv.frame_index for fv in again] == [fv.frame_index for fv in stream]


def test_features_array_matches_per_frame_features_bit_for_bit():
    rng = np.random.default_rng(4)
    taxels = rng.uniform(0.0, 0.3, size=(120, 5, 5))
    taxels[:10] = 0.0  # dark frames hit the floor
    taxels[10:20] *= 1e-8
    for cfg in (CFG, FeatureConfig(epsilon=1e-3)):
        got = features_array(taxels, cfg)
        want = np.stack([features_from_taxels(TaxelMatrix(v, t), cfg).values
                         for t, v in enumerate(taxels)])
        assert got.shape == (120, 10) and got.tobytes() == want.tobytes()
        stream = features_stream([TaxelMatrix(v, t + 3) for t, v in enumerate(taxels)], cfg)
        assert stream_to_array(stream).tobytes() == got.tobytes()
        assert [fv.frame_index for fv in stream] == list(range(3, 123))


def test_features_array_validates_config():
    with pytest.raises(ConfigError):
        features_array(np.zeros((3, 5, 5)), FeatureConfig(epsilon=0.0))


def test_stream_to_array_passes_a_feature_array_through():
    arr = np.zeros((7, 10))
    assert stream_to_array(arr) is arr


@pytest.mark.parametrize("text", [
    "",
    "frame_index,f1,f2\n0,1,2\n",  # wrong channel count
    "frame_index," + ",".join(f"f{k}" for k in range(1, 11)) + "\n0,1,2\n",  # short row
    "frame_index," + ",".join(f"f{k}" for k in range(1, 11)) + "\n0" + ",x" * 10 + "\n",
])
def test_feature_csv_contents_are_data_errors(tmp_path, text):
    path = tmp_path / "features.csv"
    path.write_text(text)
    with pytest.raises(DataFileError):
        load_feature_csv(path)
