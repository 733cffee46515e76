import itertools
from dataclasses import replace

import numpy as np
import pytest

from oracles import simulate_slide_oracle
from whiskerlab.errors import ConfigError, DataFileError
from whiskerlab.sim import (
    DIRECTIONS_DEG,
    SPECIMENS,
    SlideConfig,
    TextureSpec,
    WhiskerArraySpec,
    active_frame_count,
    height_profile,
    load_slide_manifest,
    load_taxel_csv,
    save_slide_manifest,
    save_taxel_csv,
    simulate_slide,
    simulate_taxels,
    specimen_by_id,
)
from whiskerlab.taxel_grid import TaxelGridConfig, TaxelStream, extract_taxels, render_frame


def test_flat_profile_is_zero_everywhere():
    x = np.linspace(-5, 200, 777)
    assert np.all(height_profile(TextureSpec("flat", 0), x) == 0.0)


def test_triangle_apex_at_half_period():
    tex = TextureSpec("triangle", 2)
    assert tex.period_mm == 4.0
    assert height_profile(tex, tex.period_mm / 2) == pytest.approx(2.0, abs=1e-12)
    assert height_profile(tex, 0.0) == pytest.approx(0.0, abs=1e-12)


def test_sawtooth_ramp_values():
    tex = TextureSpec("sawtooth", 3)
    period = tex.period_mm
    got = height_profile(tex, np.array([0.0, period / 3, 2 * period / 3]))
    assert np.allclose(got, [0.0, 1.0, 2.0], atol=1e-12)


def test_sinc_peak_and_zero():
    tex = TextureSpec("sinc", 4)
    assert height_profile(tex, 0.0) == pytest.approx(4.0, abs=1e-12)
    # the rectified sinc passes through zero at half period
    assert height_profile(tex, tex.period_mm / 2) == pytest.approx(0.0, abs=1e-9)


def test_profiles_are_periodic():
    x = np.linspace(0.0, 30.0, 301)
    for tex in SPECIMENS[1:]:
        a = height_profile(tex, x)
        b = height_profile(tex, x + tex.period_mm)
        assert np.allclose(a, b, atol=1e-9), tex


def test_texture_validation():
    with pytest.raises(ConfigError):
        TextureSpec("sawtooth", 0).validate()
    with pytest.raises(ConfigError):
        TextureSpec("flat", 3).validate()
    with pytest.raises(ConfigError):
        TextureSpec("bumps", 2).validate()
    with pytest.raises(ConfigError):
        TextureSpec("sawtooth", 5).validate()


def test_specimen_table():
    assert len(SPECIMENS) == 10
    assert SPECIMENS[0] == TextureSpec("flat", 0)
    assert [specimen_by_id(sid) for sid in range(1, 11)] == list(SPECIMENS)
    depths = sorted({t.depth_mm for t in SPECIMENS})
    assert depths == [0, 2, 3, 4]


def test_active_frame_count_reciprocity():
    fast = SlideConfig(speed_mm_s=200.0)
    slow = SlideConfig(speed_mm_s=100.0)
    assert active_frame_count(slow) == 39
    assert active_frame_count(fast) == 20
    assert abs(active_frame_count(slow) - 2 * active_frame_count(fast)) <= 1


def test_stream_length_and_range():
    slide = SlideConfig(speed_mm_s=150.0, seed=5)
    stream = simulate_slide(TextureSpec("sinc", 3), slide)
    assert len(stream) == slide.lead_in_frames + active_frame_count(slide) + slide.lead_out_frames
    values = np.stack([m.values for m in stream])
    assert values.min() >= 0.0 and values.max() <= 1.0
    assert [m.frame_index for m in stream] == list(range(len(stream)))


def test_same_seed_bitwise_identical_different_seed_not():
    slide = SlideConfig(speed_mm_s=130.0, seed=77)
    a = simulate_slide(TextureSpec("sawtooth", 2), slide)
    b = simulate_slide(TextureSpec("sawtooth", 2), slide)
    assert all(np.array_equal(x.values, y.values) for x, y in zip(a, b))
    other = simulate_slide(TextureSpec("sawtooth", 2), SlideConfig(speed_mm_s=130.0, seed=78))
    assert any(not np.array_equal(x.values, y.values) for x, y in zip(a, other))


def test_flat_slide_shows_only_contact_onset_transient():
    slide = SlideConfig(speed_mm_s=150.0, seed=9)
    stream = simulate_slide(TextureSpec("flat", 0), slide)
    values = np.stack([m.values for m in stream])
    lead = slide.lead_in_frames
    assert values[:lead].max() <= slide.noise_amp
    onset = values[lead : lead + 10].max()
    assert onset > 5 * slide.noise_amp
    # Well after every whisker has engaged, the glow has decayed back to noise.
    settle = lead + 25
    assert values[settle : settle + 5].max() <= 3 * slide.noise_amp
    assert values[-5:].max() <= slide.noise_amp


def test_column_entry_order_follows_direction():
    def first_activation(stream, axis):
        values = np.stack([m.values for m in stream])
        sums = values.sum(axis=2) if axis == "row" else values.sum(axis=1)
        return [int(np.argmax(sums[:, k] > 0.05)) for k in range(5)]

    tex = TextureSpec("sawtooth", 3)
    times0 = first_activation(simulate_slide(tex, SlideConfig(120.0, 0, seed=1)), "col")
    assert times0 == sorted(times0) and len(set(times0)) == 5
    times180 = first_activation(simulate_slide(tex, SlideConfig(120.0, 180, seed=1)), "col")
    assert times180 == sorted(times180, reverse=True) and len(set(times180)) == 5
    times90 = first_activation(simulate_slide(tex, SlideConfig(120.0, 90, seed=1)), "row")
    assert times90 == sorted(times90, reverse=True)
    times270 = first_activation(simulate_slide(tex, SlideConfig(120.0, 270, seed=1)), "row")
    assert times270 == sorted(times270)


def test_pitch_sensitivity_preserves_entry_ordering():
    # Pitch is a free parameter; the sweep ordering must not depend on the
    # default value.
    for pitch in (3.0, 5.0):
        array = WhiskerArraySpec(pitch_mm=pitch)
        stream = simulate_slide(TextureSpec("sawtooth", 3),
                                SlideConfig(110.0, 0, seed=6), array)
        values = np.stack([m.values for m in stream])
        col_sums = values.sum(axis=1)
        times = [int(np.argmax(col_sums[:, j] > 0.05)) for j in range(5)]
        assert times == sorted(times) and len(set(times)) >= 4, pitch


def test_path_too_short_to_reach_specimen_stays_dark():
    slide = SlideConfig(speed_mm_s=150.0, path_mm=10.0, seed=4)
    stream = simulate_slide(TextureSpec("triangle", 3), slide)
    values = np.stack([m.values for m in stream])
    assert values.max() <= slide.noise_amp


def test_simulate_frames_round_trips_through_rendering():
    grid = TaxelGridConfig()
    slide = SlideConfig(speed_mm_s=180.0, seed=11, lead_in_frames=2, lead_out_frames=2)
    taxels = simulate_taxels(TextureSpec("sinc", 2), slide)
    frames = [render_frame(m, grid) for m in taxels]
    assert len(frames) == len(taxels)
    for frame, expected in zip(frames[:6], taxels[:6]):
        recovered = extract_taxels(frame, grid).values
        assert np.max(np.abs(recovered - expected)) <= 1 / 255


def test_slide_config_validation():
    with pytest.raises(ConfigError):
        SlideConfig(speed_mm_s=0.0).validate()
    with pytest.raises(ConfigError):  # refused when built: no stage checks the direction again
        SlideConfig(speed_mm_s=100.0, direction_deg=45)
    with pytest.raises(ConfigError):
        replace(SlideConfig(speed_mm_s=100.0), direction_deg=45)
    with pytest.raises(ConfigError):
        SlideConfig(speed_mm_s=100.0, fps=0).validate()
    with pytest.raises(ConfigError):
        SlideConfig(speed_mm_s=100.0, noise_amp=-0.1).validate()


def test_taxel_csv_round_trip(tmp_path):
    slide = SlideConfig(speed_mm_s=170.0, seed=2, lead_in_frames=3, lead_out_frames=3)
    taxels = simulate_taxels(TextureSpec("triangle", 2), slide)
    path = tmp_path / "slide.csv"
    save_taxel_csv(path, taxels)
    names = [f"o{i}{j}" for i in range(1, 6) for j in range(1, 6)]
    assert path.read_text().splitlines()[0] == ",".join(["frame_index"] + names)
    indices, again = load_taxel_csv(path)
    assert indices.tolist() == list(range(len(taxels)))
    assert again.dtype == np.float64 and again.tobytes() == taxels.tobytes()


def test_taxel_csv_round_trips_every_value_bit_for_bit(tmp_path):
    rng = np.random.default_rng(12)
    for shape in ((1, 1, 1), (7, 3, 3), (40, 5, 5)):
        taxels = rng.uniform(size=shape)
        taxels.flat[: min(6, taxels.size)] = [0.0, 1.0, 5e-324, np.nextafter(1.0, 0.0), 1 / 3, -0.0][
            : min(6, taxels.size)]
        path = tmp_path / f"{shape[0]}.csv"
        save_taxel_csv(path, taxels)
        indices, again = load_taxel_csv(path)
        assert indices.tolist() == list(range(shape[0]))
        assert again.tobytes() == taxels.tobytes()
        save_taxel_csv(tmp_path / "again.csv", again)
        assert (tmp_path / "again.csv").read_bytes() == path.read_bytes()
        save_taxel_csv(tmp_path / "stream.csv", TaxelStream(taxels))
        assert (tmp_path / "stream.csv").read_bytes() == path.read_bytes()


def test_taxel_csv_keeps_the_frame_indices_it_reads(tmp_path):
    path = tmp_path / "slide.csv"
    path.write_text("frame_index,o11\n3,0.25\n5,0.5\n4,1\n")
    indices, taxels = load_taxel_csv(path)
    assert indices.tolist() == [3, 5, 4]
    assert taxels.tolist() == [[[0.25]], [[0.5]], [[1.0]]]


def test_taxel_csv_round_trip_past_nine_rows_keeps_every_taxel(tmp_path):
    slide = SlideConfig(speed_mm_s=150.0, seed=4, lead_in_frames=2, lead_out_frames=2)
    taxels = simulate_taxels(TextureSpec("sinc", 4), slide, WhiskerArraySpec(rows=12, cols=12))
    path = tmp_path / "slide.csv"
    save_taxel_csv(path, taxels)
    header = path.read_text().splitlines()[0].split(",")
    assert header[:3] == ["frame_index", "o1_1", "o1_2"] and header[-1] == "o12_12"
    assert len(set(header)) == 1 + 12 * 12
    indices, again = load_taxel_csv(path)
    assert indices.tolist() == list(range(len(taxels)))
    assert again.tobytes() == taxels.tobytes()


def test_slide_manifest_round_trip(tmp_path):
    tex = TextureSpec("sinc", 4)
    slide = SlideConfig(speed_mm_s=140.0, seed=3)
    array = WhiskerArraySpec()
    path = tmp_path / "slide.json"
    save_slide_manifest(path, tex, slide, array)
    t2, s2, a2 = load_slide_manifest(path)
    assert (t2, s2, a2) == (tex, slide, array)


# Grids with one rank along either axis, and substep counts on both sides of
# numpy's eight-wide pairwise summation block, pin the order of the substep sum.
EDGE_GRIDS = ((1, 1), (1, 5), (5, 1), (2, 7), (4, 4), (5, 5))


@pytest.mark.parametrize("noise_amp", [0.0, 0.0015])
def test_array_core_matches_per_frame_oracle_bit_for_bit(noise_amp):
    rng = np.random.default_rng(17)
    for (rows, cols), substeps in itertools.product(EDGE_GRIDS, (1, 8, 9)):
        array = WhiskerArraySpec(rows=rows, cols=cols, substeps=substeps)
        for texture, direction in itertools.product(SPECIMENS, DIRECTIONS_DEG):
            slide = SlideConfig(speed_mm_s=float(rng.uniform(60.0, 250.0)),
                                direction_deg=direction, seed=int(rng.integers(2**62)),
                                noise_amp=noise_amp, start_offset_mm=float(rng.uniform(0, 8)),
                                lead_in_frames=int(rng.choice((0, 25))),
                                lead_out_frames=int(rng.integers(0, 61)))
            want = simulate_slide_oracle(texture, slide, array)
            taxels = simulate_taxels(texture, slide, array)
            case = (rows, cols, substeps, texture, slide)
            assert taxels.tobytes() == np.stack([m.values for m in want]).tobytes(), case
            frames = simulate_slide(texture, slide, array)
            assert [m.frame_index for m in frames] == list(range(len(want)))
            assert all(m.values.tobytes() == w.values.tobytes() for m, w in zip(frames, want)), case


@pytest.mark.parametrize("noise_amp", [0.0, 0.0015])
def test_simulated_taxels_are_a_fresh_contiguous_array(noise_amp):
    slide = SlideConfig(speed_mm_s=150.0, direction_deg=90, seed=4, noise_amp=noise_amp)
    first, second = (simulate_taxels(SPECIMENS[3], slide) for _ in range(2))
    for taxels in (first, second):
        assert taxels.dtype == np.float64
        assert taxels.flags.c_contiguous and taxels.flags.writeable and taxels.flags.owndata
    assert not np.shares_memory(first, second)


@pytest.mark.parametrize("text", [
    "",  # no header
    "frame_index,o11,o12\n0,0.1,0.2\n",  # 2 taxels: not a square grid
    "index,o11\n0,0.1\n",
    "frame_index,a,b,c,d\n0,0.1,0.2,0.3,0.4\n",  # 2x2 by count, but not its names
    "frame_index,o11,o12,o21,o23\n0,0.1,0.2,0.3,0.4\n",
    ",".join(["frame_index"] + [f"o{i}{j}" for i in range(1, 11) for j in range(1, 11)])
    + "\n0" + ",0.1" * 100 + "\n",  # 10x10 without "_"
    "frame_index,o11\n0\n",  # short row
    "frame_index,o11\n0,0.1,0.2\n",  # long row
    "frame_index,o11\n0,abc\n",  # non-numeric cell
    "frame_index,o11\n0,nan\n",  # not in [0, 1]
    "frame_index,o11\n0,1.5\n",
    "frame_index,o11\nzero,0.1\n",
])
def test_taxel_csv_contents_are_data_errors(tmp_path, text):
    path = tmp_path / "slide.csv"
    path.write_text(text)
    with pytest.raises(DataFileError):
        load_taxel_csv(path)
