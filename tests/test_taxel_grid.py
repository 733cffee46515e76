import ast
from pathlib import Path

import numpy as np
import pytest

import whiskerlab
from whiskerlab.errors import ConfigError, DataFileError
from whiskerlab.taxel_grid import (
    CHANNELS,
    TactileFrame,
    TaxelGridConfig,
    TaxelMatrix,
    TaxelStream,
    extract_taxels,
    render_frame,
    taxel_array,
    write_ppm,
)

from oracles import frame_from_rgb24, read_ppm, roi_mean_oracle

CFG = TaxelGridConfig()


def black_frame(side=400):
    return TactileFrame(np.zeros((side, side, 3), dtype=np.uint8))


def test_all_black_frame_extracts_zero():
    taxels = extract_taxels(black_frame(), CFG)
    assert taxels.values.shape == (5, 5)
    assert np.all(taxels.values == 0.0)


def test_saturated_green_extracts_one():
    pixels = np.zeros((400, 400, 3), dtype=np.uint8)
    pixels[:, :, 1] = 255
    taxels = extract_taxels(TactileFrame(pixels), CFG)
    assert np.all(taxels.values == 1.0)


def test_single_roi_at_half_green():
    pixels = np.zeros((400, 400, 3), dtype=np.uint8)
    top, left = CFG.roi_origin(1, 2)
    pixels[top : top + 50, left : left + 50, 1] = 128
    taxels = extract_taxels(TactileFrame(pixels), CFG)
    assert taxels.values[1, 2] == pytest.approx(128 / 255, abs=1e-15)
    expected = roi_mean_oracle(pixels, 5, 5, 50, 1)
    assert np.array_equal(taxels.values, expected)
    assert np.count_nonzero(taxels.values) == 1


def test_extraction_matches_pixel_loop_oracle_on_random_frames():
    rng = np.random.default_rng(7)
    for _ in range(5):
        pixels = rng.integers(0, 256, size=(400, 400, 3), dtype=np.uint8)
        got = extract_taxels(TactileFrame(pixels), CFG).values
        expected = roi_mean_oracle(pixels, 5, 5, 50, 1)
        assert np.array_equal(got, expected)
        assert got.min() >= 0.0 and got.max() <= 1.0


def test_extraction_is_monotone_in_roi_pixels():
    rng = np.random.default_rng(11)
    pixels = rng.integers(0, 255, size=(400, 400, 3), dtype=np.uint8)
    base = extract_taxels(TactileFrame(pixels), CFG).values
    top, left = CFG.roi_origin(3, 4)
    brighter = pixels.copy()
    brighter[top + 5, left + 5, 1] = 255
    bumped = extract_taxels(TactileFrame(brighter), CFG).values
    assert bumped[3, 4] >= base[3, 4]
    mask = np.ones((5, 5), dtype=bool)
    mask[3, 4] = False
    assert np.array_equal(bumped[mask], base[mask])


def test_pixels_between_rois_do_not_contribute():
    pixels = np.zeros((400, 400, 3), dtype=np.uint8)
    pixels[0:10, 0:10, 1] = 255  # inside cell (0, 0) but outside its centered ROI
    taxels = extract_taxels(TactileFrame(pixels), CFG)
    assert np.all(taxels.values == 0.0)


def test_render_all_zero_gives_black_frame():
    frame = render_frame(np.zeros((5, 5)), CFG)
    assert np.all(frame.pixels == 0)


def test_render_single_taxel_lights_one_roi():
    values = np.zeros((5, 5))
    values[0, 0] = 1.0
    frame = render_frame(values.tolist(), CFG)
    top, left = CFG.roi_origin(0, 0)
    roi = frame.pixels[top : top + 50, left : left + 50]
    assert np.all(roi[:, :, 1] == 255)
    assert np.all(roi[:, :, [0, 2]] == 0)
    assert frame.pixels[:, :, 1].sum() == 255 * 50 * 50


def test_round_trip_within_one_count():
    rng = np.random.default_rng(3)
    for _ in range(100):
        values = rng.uniform(0.0, 1.0, size=(5, 5))
        recovered = extract_taxels(render_frame(values, CFG), CFG).values
        assert np.max(np.abs(recovered - values)) <= 1 / 255


def test_dimension_mismatch_rejected():
    with pytest.raises(ConfigError):
        extract_taxels(black_frame(side=200), CFG)


def test_zero_roi_rejected():
    with pytest.raises(ConfigError):
        extract_taxels(black_frame(), TaxelGridConfig(roi_side=0))


def test_oversized_roi_rejected():
    with pytest.raises(ConfigError):
        TaxelGridConfig(roi_side=81).validate()


def test_render_rejects_out_of_range_values():
    for bad in (1.5, -1e-9, np.nan, np.inf):
        values = np.full((5, 5), 0.5)
        values[2, 3] = bad
        with pytest.raises(ConfigError):
            render_frame(values, CFG)


def test_render_takes_a_taxel_matrix_as_its_values():
    values = np.random.default_rng(4).uniform(size=(5, 5))
    want = render_frame(values, CFG).pixels
    assert np.array_equal(render_frame(TaxelMatrix(values, 9), CFG).pixels, want)


def test_ppm_round_trip(tmp_path):
    rng = np.random.default_rng(5)
    pixels = rng.integers(0, 256, size=(400, 400, 3), dtype=np.uint8)
    path = tmp_path / "frame.ppm"
    write_ppm(path, TactileFrame(pixels))
    again = read_ppm(path)
    assert np.array_equal(again.pixels, pixels)


def test_ppm_rejects_garbage(tmp_path):
    path = tmp_path / "bad.ppm"
    path.write_bytes(b"not a ppm at all")
    with pytest.raises(ValueError):
        read_ppm(path)


def test_raw_rgb24_round_trip():
    rng = np.random.default_rng(9)
    pixels = rng.integers(0, 256, size=(16, 16, 3), dtype=np.uint8)
    frame = TactileFrame(pixels)
    again = frame_from_rgb24(frame.to_rgb24(), 16, 16)
    assert np.array_equal(again.pixels, pixels)
    with pytest.raises(ValueError):
        frame_from_rgb24(b"\x00" * 10, 16, 16)


@pytest.mark.parametrize("pixels", [
    np.full((4, 4, 3), 0.9),  # floats in [0, 1] would read as black
    np.full((4, 4, 3), 300),  # would wrap to 44
    np.full((4, 4, 3), -1),
    np.ones((4, 4, 3), dtype=bool),
], ids=["float", "300", "-1", "bool"])
def test_frame_rejects_pixels_that_are_not_bytes(pixels):
    with pytest.raises(DataFileError):
        TactileFrame(pixels)


def test_frame_takes_in_range_integers_and_keeps_uint8_as_is():
    wide = np.arange(48, dtype=np.int64).reshape(4, 4, 3) * 5  # 0 .. 235
    frame = TactileFrame(wide)
    assert frame.pixels.dtype == np.uint8 and np.array_equal(frame.pixels, wide)
    pixels = np.zeros((4, 4, 3), dtype=np.uint8)
    assert TactileFrame(pixels).pixels is pixels


def test_channel_selector_is_configurable():
    pixels = np.zeros((400, 400, 3), dtype=np.uint8)
    pixels[:, :, 0] = 200  # red everywhere, green dark
    red_cfg = TaxelGridConfig(channel="red")
    assert np.all(extract_taxels(TactileFrame(pixels), red_cfg).values == 200 / 255)
    assert np.all(extract_taxels(TactileFrame(pixels), CFG).values == 0.0)


GEOMETRIES = [
    TaxelGridConfig(rows=4, cols=4),
    TaxelGridConfig(rows=3, cols=7, roi_side=40, image_side=301),  # 301 = 3 * 100 + 1
    TaxelGridConfig(rows=1, cols=1, roi_side=400),
    TaxelGridConfig(channel="red"),
]


def non_contiguous(pixels):
    """The same pixels as a frame whose rows run backwards inside a wider buffer."""
    side = pixels.shape[0]
    buffer = np.zeros((2 * side, side, 3), dtype=np.uint8)
    buffer[::-2] = pixels
    view = buffer[::-2]
    assert not view.flags.c_contiguous and np.array_equal(view, pixels)
    return view


@pytest.mark.parametrize("cfg", GEOMETRIES, ids=lambda c: f"{c.rows}x{c.cols}-{c.image_side}-{c.channel}")
def test_extraction_matches_oracle_on_every_geometry(cfg):
    cfg.validate()
    rng = np.random.default_rng(cfg.rows * 10 + cfg.cols)
    pixels = rng.integers(0, 256, size=(cfg.image_side, cfg.image_side, 3), dtype=np.uint8)
    expected = roi_mean_oracle(pixels, cfg.rows, cfg.cols, cfg.roi_side, CHANNELS[cfg.channel])
    for frame in (TactileFrame(pixels), TactileFrame(non_contiguous(pixels))):
        got = extract_taxels(frame, cfg).values
        assert got.tobytes() == expected.tobytes()


@pytest.mark.parametrize("cfg", GEOMETRIES, ids=lambda c: f"{c.rows}x{c.cols}-{c.image_side}-{c.channel}")
def test_round_trip_within_one_count_on_every_geometry(cfg):
    rng = np.random.default_rng(cfg.roi_side)
    for _ in range(20):
        values = rng.uniform(0.0, 1.0, size=(cfg.rows, cfg.cols))
        frame = render_frame(values, cfg)
        expected = np.zeros((cfg.image_side, cfg.image_side, 3), dtype=np.uint8)
        for i in range(cfg.rows):
            for j in range(cfg.cols):
                top, left = cfg.roi_origin(i, j)
                expected[top : top + cfg.roi_side, left : left + cfg.roi_side,
                         CHANNELS[cfg.channel]] = round(255 * values[i, j])
        assert np.array_equal(frame.pixels, expected)
        for f in (frame, TactileFrame(non_contiguous(frame.pixels))):
            recovered = extract_taxels(f, cfg).values
            assert np.max(np.abs(recovered - values)) <= 1 / 255


# One ROI row sums in uint16 up to roi_side 257 (257 * 255 = 65535) and in
# uint32 from 258.  Random pixels (mean 127.5) keep even a 400-pixel row below
# 65535, so only saturated pixels reach the top of each accumulator.
BOUNDARY_GRIDS = [TaxelGridConfig(rows=1, cols=1, roi_side=side, image_side=side + 3, channel=channel)
                  for side in (257, 258, 400) for channel in CHANNELS]


@pytest.mark.parametrize("cfg", BOUNDARY_GRIDS, ids=lambda c: f"1x1-{c.roi_side}-{c.channel}")
def test_extraction_is_exact_at_the_accumulator_boundaries(cfg):
    side = cfg.image_side
    random = np.random.default_rng(cfg.roi_side).integers(0, 256, size=(side, side, 3), dtype=np.uint8)
    saturated = np.full((side, side, 3), 255, dtype=np.uint8)
    for pixels in (saturated, random):
        expected = roi_mean_oracle(pixels, 1, 1, cfg.roi_side, CHANNELS[cfg.channel])
        for frame in (TactileFrame(pixels), TactileFrame(non_contiguous(pixels))):
            assert extract_taxels(frame, cfg).values.tobytes() == expected.tobytes()
    assert extract_taxels(TactileFrame(saturated), cfg).values.tolist() == [[1.0]]


def test_taxel_stream_iterates_frames_as_views():
    values = np.random.default_rng(8).uniform(size=(7, 4, 5))
    s = TaxelStream(values)
    assert len(s) == 7
    assert np.asarray(s) is s.values and taxel_array(s) is s.values
    assert not hasattr(s, "__getitem__")
    frames = list(s)
    assert all(isinstance(m, TaxelMatrix) for m in frames)
    assert [m.frame_index for m in frames] == list(range(7))
    assert all(np.asarray(m) is m.values for m in frames)
    assert all(np.shares_memory(m.values, s.values) for m in frames)
    assert all(np.array_equal(m.values, v) for m, v in zip(frames, values))


def test_taxel_array_slices_are_views_of_the_stream():
    taxels = taxel_array(TaxelStream(np.random.default_rng(9).uniform(size=(10, 5, 5))))
    tail = taxel_array(taxels[3:8])
    assert len(tail) == 5 and np.shares_memory(tail, taxels)
    assert tail.tobytes() == taxels[3:8].tobytes()
    assert taxel_array(taxels[-2:]).tobytes() == taxels[8:].tobytes()
    strided = taxel_array(taxels[::3])
    assert strided.tobytes() == np.stack([taxels[t] for t in (0, 3, 6, 9)]).tobytes()
    with pytest.raises(ConfigError):
        taxel_array(taxels[20:])


def test_taxel_array_reads_every_stream_kind_the_same_way():
    values = np.random.default_rng(10).uniform(size=(6, 5, 5))
    assert taxel_array(values) is values
    for stream in (TaxelStream(values), [TaxelMatrix(v, t) for t, v in enumerate(values)],
                   list(values), values.tolist()):
        got = taxel_array(stream)
        assert got.dtype == np.float64 and got.tobytes() == values.tobytes()
    assert taxel_array(np.ones((2, 3, 3), dtype=np.int64)).dtype == np.float64


def test_empty_or_misshapen_taxel_streams_are_config_errors():
    for bad in ([], np.zeros((0, 5, 5)), np.zeros((4, 5, 5))[4:], np.zeros((5, 5)),
                TaxelMatrix(np.zeros((5, 5))), np.zeros((2, 3, 5, 5))):
        with pytest.raises(ConfigError):
            taxel_array(bad)
        with pytest.raises(ConfigError):
            TaxelStream(bad)


PER_FRAME_TYPES = {"TaxelMatrix", "TaxelStream"}
# The taxel grid defines them, sim.simulate_slide wraps a slide in one and the
# package exports both; every other module takes taxel arrays.
PER_FRAME_MODULES = {"taxel_grid.py", "sim.py", "__init__.py"}


def per_frame_names(source: str) -> list[int]:
    """Line numbers where the source names ``TaxelMatrix`` or ``TaxelStream``."""
    return [node.lineno for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Name) and node.id in PER_FRAME_TYPES
            or isinstance(node, ast.Attribute) and node.attr in PER_FRAME_TYPES
            or isinstance(node, ast.ImportFrom) and PER_FRAME_TYPES & {a.name for a in node.names}]


@pytest.mark.parametrize("source, names", [
    ("from .taxel_grid import TaxelMatrix", True),
    ("from ..taxel_grid import render_frame, TaxelStream as S", True),
    ("x = TaxelMatrix(v)", True),
    ("isinstance(x, taxel_grid.TaxelStream)", True),
    ("def f(m: TaxelMatrix): pass", True),
    ("from .taxel_grid import taxel_array", False),
    ("x = taxel_array(v)  # not a TaxelMatrix", False),
    ('"""A TaxelStream in prose."""', False),
])
def test_per_frame_name_detector(source, names):
    assert bool(per_frame_names(source)) == names


def test_stream_stages_take_taxel_arrays():
    package = Path(whiskerlab.__file__).parent
    offenders = {
        str(path.relative_to(package)): lines
        for path in sorted(package.rglob("*.py"))
        if str(path.relative_to(package)) not in PER_FRAME_MODULES
        and (lines := per_frame_names(path.read_text()))
    }
    assert offenders == {}, f"read taxels through taxel_array, not per-frame objects: {offenders}"
