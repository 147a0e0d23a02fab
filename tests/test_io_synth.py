"""PPM/PGM round trips, parse diagnostics, synthetic data, dataset loading."""

import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st
from hypothesis.extra import numpy as hnp

from srrnet.data import (DatasetError, load_sequence, load_static_pool, load_video_dataset,
                         sequence_dirs)
from srrnet.pnm import (
    PnmParseError,
    read_frame,
    read_mask,
    read_pgm,
    read_ppm,
    write_error_map,
    write_frame,
    write_mask,
    write_pgm,
    write_ppm,
)
from srrnet.synth import (
    OBJECT_SCALE,
    SynthParams,
    generate_arrays,
    generate_sequence,
    generate_static_pool,
)
from srrnet.tensor import ConfigurationError


# ---------------------------------------------------------------------------
# pnm formats


def test_ppm_round_trip_and_header(tmp_path, rng):
    img = rng.integers(0, 256, size=(5, 7, 3)).astype(np.uint8)
    path = tmp_path / "x.ppm"
    write_ppm(path, img)
    raw = path.read_bytes()
    assert raw.startswith(b"P6\n7 5\n255\n")
    assert len(raw) == len(b"P6\n7 5\n255\n") + 5 * 7 * 3
    np.testing.assert_array_equal(read_ppm(path), img)


def test_pgm_round_trip_and_header(tmp_path, rng):
    img = rng.integers(0, 256, size=(4, 6)).astype(np.uint8)
    path = tmp_path / "x.pgm"
    write_pgm(path, img)
    assert path.read_bytes().startswith(b"P5\n6 4\n255\n")
    np.testing.assert_array_equal(read_pgm(path), img)


def test_mask_round_trip_exact(tmp_path, rng):
    mask = (rng.random((1, 8, 8)) > 0.5).astype(np.float64)
    path = tmp_path / "m.pgm"
    write_mask(path, mask)
    np.testing.assert_array_equal(read_mask(path), mask)


def test_frame_round_trip_within_quantization(tmp_path, rng):
    frame = rng.random((3, 8, 8))
    path = tmp_path / "f.ppm"
    write_frame(path, frame)
    back = read_frame(path)
    assert back.shape == (3, 8, 8)
    assert np.abs(back - frame).max() <= 0.5 / 255.0 + 1e-12


def test_error_map_rounds_half_up(tmp_path):
    path = tmp_path / "e.pgm"
    write_error_map(path, np.array([[0.5, 0.0], [1.0, 1.5]]))
    np.testing.assert_array_equal(read_pgm(path), [[128, 0], [255, 255]])


def test_header_comments_are_skipped(tmp_path):
    payload = bytes(range(6))
    (tmp_path / "c.pgm").write_bytes(b"P5\n# a comment\n3 2\n# another\n255\n" + payload)
    np.testing.assert_array_equal(read_pgm(tmp_path / "c.pgm"),
                                  np.frombuffer(payload, dtype=np.uint8).reshape(2, 3))


_extent = st.integers(1, 48)
_comment = st.text(st.characters(min_codepoint=32, max_codepoint=126), max_size=12)


def _with_comments(raw: bytes, comments: list[str]) -> bytes:
    """Put a '#' comment line after the magic and after each of width and height."""
    magic, width, height, rest = raw.split(maxsplit=3)
    lines = [magic, width, height]
    for i, text in enumerate(comments):
        lines[i] += b"\n#" + text.encode("ascii")
    return b"\n".join(lines) + b"\n" + rest


@given(image=hnp.arrays(np.uint8, st.tuples(_extent, _extent)),
       comments=st.lists(_comment, max_size=3))
def test_pgm_round_trips_any_payload(image, comments):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "x.pgm"
        write_pgm(path, image)
        np.testing.assert_array_equal(read_pgm(path), image)
        path.write_bytes(_with_comments(path.read_bytes(), comments))
        np.testing.assert_array_equal(read_pgm(path), image)


@given(image=hnp.arrays(np.uint8, st.tuples(_extent, _extent, st.just(3))),
       comments=st.lists(_comment, max_size=3))
def test_frame_round_trips_any_payload(image, comments):
    frame = image.transpose(2, 0, 1) / 255.0
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "x.ppm"
        write_frame(path, frame)
        np.testing.assert_array_equal(read_ppm(path), image)
        path.write_bytes(_with_comments(path.read_bytes(), comments))
        np.testing.assert_array_equal(read_frame(path), frame)


def test_parse_errors_carry_byte_offsets(tmp_path):
    bad_magic = tmp_path / "bad.pgm"
    bad_magic.write_bytes(b"P4\n2 2\n255\n" + bytes(4))
    with pytest.raises(PnmParseError) as exc:
        read_pgm(bad_magic)
    assert exc.value.offset == 0

    truncated = tmp_path / "short.pgm"
    truncated.write_bytes(b"P5\n4 4\n255\n" + bytes(3))
    with pytest.raises(PnmParseError, match="truncated"):
        read_pgm(truncated)

    non_numeric = tmp_path / "weird.pgm"
    non_numeric.write_bytes(b"P5\nxx 4\n255\n")
    with pytest.raises(PnmParseError, match="non-numeric"):
        read_pgm(non_numeric)

    bad_maxval = tmp_path / "max.pgm"
    bad_maxval.write_bytes(b"P5\n2 2\n65535\n" + bytes(8))
    with pytest.raises(PnmParseError, match="maxval"):
        read_pgm(bad_maxval)


def test_write_shape_validation(tmp_path):
    with pytest.raises(ValueError):
        write_ppm(tmp_path / "x.ppm", np.zeros((4, 4)))
    with pytest.raises(ValueError):
        write_pgm(tmp_path / "x.pgm", np.zeros((4, 4, 3)))


# ---------------------------------------------------------------------------
# synthetic generator


def test_synth_params_validation():
    with pytest.raises(ConfigurationError):
        SynthParams(contrast=1.5)
    with pytest.raises(ConfigurationError):
        SynthParams(size=48)
    with pytest.raises(ConfigurationError):
        SynthParams(frames=0)
    with pytest.raises(ConfigurationError):
        SynthParams(occlusion_prob=2.0)
    for grain in (0, -4):
        with pytest.raises(ConfigurationError, match="texture_grain"):
            SynthParams(texture_grain=grain)
    for amplitude in (-0.5, float("nan"), float("inf")):
        with pytest.raises(ConfigurationError, match="motion_amplitude"):
            SynthParams(motion_amplitude=amplitude)
    SynthParams(texture_grain=1, motion_amplitude=0.0)  # the range ends


def test_synth_deterministic_bytes(tmp_path):
    params = SynthParams(seed=5, frames=3, size=32)
    a = generate_sequence(params, tmp_path / "a")
    b = generate_sequence(params, tmp_path / "b")
    for name in sorted(p.name for p in a.iterdir()):
        assert (a / name).read_bytes() == (b / name).read_bytes(), name


def test_synth_output_ranges_and_mask_area():
    params = SynthParams(seed=1, frames=6, size=64)
    frames, masks = generate_arrays(params)
    assert len(frames) == len(masks) == 6
    nominal = math.pi * (OBJECT_SCALE * params.size) ** 2
    for frame, mask in zip(frames, masks):
        assert frame.shape == (3, 64, 64)
        assert frame.min() >= 0.0 and frame.max() <= 1.0
        assert set(np.unique(mask)) <= {0.0, 1.0}
        # generous envelope around the generator's own self-check bounds
        assert 0.2 * nominal <= mask.sum() <= 2.2 * nominal


def test_synth_contrast_extremes_differ():
    camo = generate_arrays(SynthParams(seed=2, frames=1, size=32, contrast=0.0))
    loud = generate_arrays(SynthParams(seed=2, frames=1, size=32, contrast=1.0))
    mask = camo[1][0][0] > 0.5

    def channel_gap(frame):
        return np.abs(frame[:, mask].mean(axis=1)
                      - frame[:, ~mask].mean(axis=1)).mean()

    assert channel_gap(loud[0][0]) > channel_gap(camo[0][0]) + 0.1


def test_synth_object_moves():
    _, masks = generate_arrays(SynthParams(seed=3, frames=5, size=64,
                                           motion_amplitude=4.0))
    centers = [np.argwhere(m[0] > 0.5).mean(axis=0) for m in masks]
    moved = max(np.linalg.norm(centers[i + 1] - centers[i]) for i in range(4))
    assert moved > 1.0


def test_static_pool_layout(tmp_path):
    out = generate_static_pool(1, 5, 32, tmp_path / "pool")
    manifest = (out / "categories.txt").read_text().splitlines()
    assert manifest == ["00000 cat0", "00001 cat1", "00002 cat2",
                       "00003 cat0", "00004 cat1"]
    assert (out / "00004.ppm").exists() and (out / "00004.pgm").exists()


# ---------------------------------------------------------------------------
# dataset loading


def test_load_sequence_round_trip(tmp_path):
    params = SynthParams(seed=4, frames=3, size=32)
    out = generate_sequence(params, tmp_path / "seq")
    record = load_sequence(out)
    assert record.name == "seq"
    assert len(record.frames) == 3 and len(record.masks) == 3
    frames, masks = generate_arrays(params)
    np.testing.assert_array_equal(record.masks[0], masks[0])
    assert np.abs(record.frames[0] - frames[0]).max() <= 0.5 / 255.0 + 1e-12


def test_load_sequence_missing_masks(tmp_path):
    out = generate_sequence(SynthParams(seed=4, frames=2, size=32), tmp_path / "seq")
    (out / "00001.pgm").unlink()
    with pytest.raises(DatasetError, match="missing mask"):
        load_sequence(out)
    record = load_sequence(out, require_masks=False)
    assert len(record.frames) == 2 and len(record.masks) == 1


def test_load_sequence_refuses_a_mask_of_another_extent_naming_it(tmp_path):
    out = generate_sequence(SynthParams(seed=4, frames=2, size=64), tmp_path / "seq")
    generate_sequence(SynthParams(seed=4, frames=2, size=32), tmp_path / "small")
    (out / "00001.pgm").write_bytes((tmp_path / "small" / "00001.pgm").read_bytes())
    for require_masks in (True, False):
        with pytest.raises(DatasetError, match=r"mask .*00001\.pgm is 32x32 but its frame is 64x64"):
            load_sequence(out, require_masks=require_masks)


def test_load_video_dataset_layouts(tmp_path):
    root = tmp_path / "data"
    generate_sequence(SynthParams(seed=1, frames=2, size=32), root / "s1")
    generate_sequence(SynthParams(seed=2, frames=3, size=32), root / "s2")
    records = load_video_dataset(root)
    assert [r.name for r in records] == ["s1", "s2"]
    # bare sequence directory fallback
    bare = load_video_dataset(root / "s2")
    assert len(bare) == 1 and len(bare[0].frames) == 3
    empty = tmp_path / "empty"
    empty.mkdir()
    with pytest.raises(DatasetError):
        load_video_dataset(empty)


def test_sequence_dirs_are_sorted_subdirectories_or_the_root(tmp_path):
    root = tmp_path / "data"
    for name in ("b", "a"):
        (root / name).mkdir(parents=True)
    (root / "notes.txt").write_text("not a sequence")
    assert sequence_dirs(root) == [root / "a", root / "b"]
    bare = root / "a"
    (bare / "00000.ppm").write_bytes(b"")
    assert sequence_dirs(bare) == [bare]


def test_load_static_pool(tmp_path):
    out = generate_static_pool(1, 4, 32, tmp_path / "pool")
    pool = load_static_pool(out)
    assert [r.category for r in pool] == ["cat0", "cat1", "cat2", "cat0"]
    assert pool[0].image.shape == (3, 32, 32)
    (out / "categories.txt").write_text("00000\n")
    with pytest.raises(DatasetError, match="malformed"):
        load_static_pool(out)
    (out / "categories.txt").unlink()
    with pytest.raises(DatasetError, match="categories.txt"):
        load_static_pool(out)


def test_load_static_pool_refuses_a_mask_of_another_extent_naming_it(tmp_path):
    out = generate_static_pool(1, 2, 64, tmp_path / "pool")
    small = generate_static_pool(1, 2, 32, tmp_path / "small")
    (out / "00001.pgm").write_bytes((small / "00001.pgm").read_bytes())
    with pytest.raises(DatasetError, match=r"mask .*00001\.pgm is 32x32 but its frame is 64x64"):
        load_static_pool(out)
