"""PPM/PGM round trips, parse diagnostics, synthetic data, dataset loading."""

import math
import tempfile
import tracemalloc
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, strategies as st
from hypothesis.extra import numpy as hnp

from srrnet.data import (DatasetError, load_sequence, load_static_pool, load_video_dataset,
                         sequence_dirs)
from srrnet import pnm
from srrnet.pnm import (
    PnmParseError,
    decode_frame,
    decode_mask,
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

from conftest import needs_proc, run_peak_probe
from keep_byte_loop import read_header_token_by_byte


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
    np.testing.assert_array_equal(decode_mask(read_pgm(path)), mask)


def test_frame_round_trip_within_quantization(tmp_path, rng):
    frame = rng.random((3, 8, 8))
    path = tmp_path / "f.ppm"
    write_frame(path, frame)
    back = decode_frame(read_ppm(path))
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
WHITESPACE = [bytes([c]) for c in range(256) if bytes([c]).isspace()]
_whitespace = st.sampled_from(WHITESPACE)
# whitespace, then any mix of whitespace bytes and '#' comment lines
_gap = st.tuples(_whitespace, st.lists(
    st.one_of(_whitespace, _comment.map(lambda text: b"#" + text.encode("ascii") + b"\n")),
    max_size=4)).map(lambda parts: parts[0] + b"".join(parts[1]))
_gaps = st.lists(_gap, min_size=3, max_size=3)


def _with_gaps(raw: bytes, gaps: list[bytes], end: bytes) -> bytes:
    """Put ``gaps`` after the magic, width and height, and the byte ``end`` after maxval."""
    magic, width, height, rest = raw.split(maxsplit=3)
    maxval, payload = rest[:3], rest[4:]
    return magic + gaps[0] + width + gaps[1] + height + gaps[2] + maxval + end + payload


def test_the_header_scanner_reads_the_six_whitespace_bytes_as_whitespace():
    """``bytes.isspace`` and the scanner's regex ``\\s`` agree on every byte."""
    assert WHITESPACE == [b"\t", b"\n", b"\x0b", b"\x0c", b"\r", b" "]
    for c in range(256):
        byte = bytes([c])
        assert (pnm._SKIP.match(byte).end() == 1) == (byte.isspace() or byte == b"#")
        assert (pnm._TOKEN.match(byte).end() == 1) == (not byte.isspace())


def _scan(read_token, data: bytes, pos: int):
    try:
        return read_token(data, pos)
    except PnmParseError as exc:
        return str(exc), exc.offset


@given(data=st.lists(st.sampled_from(WHITESPACE + [b"#", b"0", b"7", b"x", b"\x00", b"\xff"]),
                     max_size=12).map(b"".join), at=st.integers(0, 12))
def test_the_header_scanner_reads_as_the_byte_loop(data, at):
    pos = min(at, len(data))
    assert _scan(pnm._read_header_token, data, pos) == _scan(read_header_token_by_byte, data, pos)


@given(image=hnp.arrays(np.uint8, st.tuples(_extent, _extent)), gaps=_gaps, end=_whitespace)
def test_pgm_round_trips_any_payload(image, gaps, end):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "x.pgm"
        write_pgm(path, image)
        np.testing.assert_array_equal(read_pgm(path), image)
        path.write_bytes(_with_gaps(path.read_bytes(), gaps, end))
        np.testing.assert_array_equal(read_pgm(path), image)


@given(image=hnp.arrays(np.uint8, st.tuples(_extent, _extent, st.just(3))), gaps=_gaps,
       end=_whitespace)
def test_frame_round_trips_any_payload(image, gaps, end):
    frame = image.transpose(2, 0, 1) / 255.0
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "x.ppm"
        write_frame(path, frame)
        np.testing.assert_array_equal(read_ppm(path), image)
        path.write_bytes(_with_gaps(path.read_bytes(), gaps, end))
        np.testing.assert_array_equal(decode_frame(read_ppm(path)), frame)


@given(width=_extent, height=_extent, gaps=_gaps, end=_whitespace)
def test_a_file_cut_in_its_header_is_refused_at_an_offset_within_it(width, height, gaps, end):
    header = _with_gaps(b"P5\n%d %d\n255\n" % (width, height), gaps, end)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "x.pgm"
        for cut in range(len(header) + 1):
            path.write_bytes(header[:cut])
            with pytest.raises(PnmParseError) as exc:
                read_pgm(path)
            assert exc.value.offset <= cut, header[:cut]


def test_parse_errors_carry_byte_offsets(tmp_path):
    bad_magic = tmp_path / "bad.pgm"
    bad_magic.write_bytes(b"P4\n2 2\n255\n" + bytes(4))
    with pytest.raises(PnmParseError) as exc:
        read_pgm(bad_magic)
    assert exc.value.offset == 0

    truncated = tmp_path / "short.pgm"
    truncated.write_bytes(b"P5\n4 4\n255\n" + bytes(3))
    with pytest.raises(PnmParseError, match="truncated") as exc:
        read_pgm(truncated)
    assert str(exc.value) == "truncated payload: expected 16 bytes, got 3 (byte offset 14)"

    non_numeric = tmp_path / "weird.pgm"
    non_numeric.write_bytes(b"P5\nxx 4\n255\n")
    with pytest.raises(PnmParseError, match="non-numeric"):
        read_pgm(non_numeric)

    bad_maxval = tmp_path / "max.pgm"
    bad_maxval.write_bytes(b"P5\n2 2\n65535\n" + bytes(8))
    with pytest.raises(PnmParseError, match="maxval"):
        read_pgm(bad_maxval)

    ends_at_maxval = tmp_path / "end.pgm"
    for header in (b"P5\n2 2\n255", b"P5\n0 0\n255"):  # no whitespace byte after maxval
        ends_at_maxval.write_bytes(header)
        with pytest.raises(PnmParseError) as exc:
            read_pgm(ends_at_maxval)
        assert str(exc.value) == "unexpected end of header (byte offset 10)"


@pytest.mark.parametrize("read, write, shape", [(read_ppm, write_ppm, (352, 352, 3)),
                                                (read_pgm, write_pgm, (352, 352))])
def test_a_read_holds_the_file_once(tmp_path, rng, read, write, shape):
    """The array views the payload inside the file's bytes, so a read's traced
    peak is the file's size plus a little: slicing the payload out first
    peaked at twice the size (743,853 bytes for a 371,727-byte 352x352 PPM)."""
    path = tmp_path / "image"
    image = rng.integers(0, 256, shape, dtype=np.uint8)
    write(path, image)
    tracemalloc.start()
    try:
        pixels = read(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    np.testing.assert_array_equal(pixels, image)
    assert peak < 1.1 * path.stat().st_size, (peak, path.stat().st_size)


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


def test_load_sequence_refuses_a_frame_of_another_extent_naming_it(tmp_path):
    out = generate_sequence(SynthParams(seed=4, frames=2, size=64), tmp_path / "seq")
    generate_sequence(SynthParams(seed=4, frames=2, size=32), tmp_path / "small")
    for ext in (".ppm", ".pgm"):
        (out / f"00002{ext}").write_bytes((tmp_path / "small" / f"00001{ext}").read_bytes())
    for require_masks in (True, False):
        with pytest.raises(DatasetError, match=r"frame .*00002\.ppm is 32x32 but the frames "
                                               r"before it are 64x64"):
            load_sequence(out, require_masks=require_masks)


@st.composite
def _sequence_pixels(draw):
    """One to three frames and masks of one drawn extent, as the 8-bit pixels written."""
    h, w, n = draw(st.integers(1, 24)), draw(st.integers(1, 24)), draw(st.integers(1, 3))
    return ([draw(hnp.arrays(np.uint8, (h, w, 3))) for _ in range(n)],
            [draw(hnp.arrays(np.uint8, (h, w))) for _ in range(n)])


def _assert_bitwise(a: np.ndarray, b: np.ndarray):
    assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


# the two loaders of a sequence: a single pass's and training's
SEQUENCE_LOADERS = {"load_sequence": load_sequence,
                    "load_video_dataset": lambda directory: load_video_dataset(directory)[0]}


# every mask byte, so both sides of the threshold between 127 and 128, on a non-square extent
@pytest.mark.parametrize("loader", SEQUENCE_LOADERS)
@example(([np.zeros((8, 32, 3), np.uint8)], [np.arange(256, dtype=np.uint8).reshape(8, 32)]))
@given(pixels=_sequence_pixels())
def test_loaded_records_decode_bitwise_like_reading_each_file(loader, pixels):
    images, masks = pixels
    with tempfile.TemporaryDirectory() as tmp:
        for i, (image, mask) in enumerate(zip(images, masks)):
            write_ppm(Path(tmp) / f"{i:05d}.ppm", image)
            write_pgm(Path(tmp) / f"{i:05d}.pgm", mask)
        record = SEQUENCE_LOADERS[loader](tmp)
        assert len(record.frames) == len(record.masks) == len(images)
        for i in range(len(images)):
            _assert_bitwise(record.frames[i], decode_frame(read_ppm(Path(tmp) / f"{i:05d}.ppm")))
            _assert_bitwise(record.masks[i], decode_mask(read_pgm(Path(tmp) / f"{i:05d}.pgm")))


def test_loaded_frames_and_masks_are_fresh_arrays_on_each_access(tmp_path):
    out = generate_sequence(SynthParams(seed=4, frames=3, size=32), tmp_path / "seq")
    record = load_sequence(out)
    for images in (record.frames, record.masks):
        kept = [image.copy() for image in images]
        for image in images:
            image[...] = -1.0
        for i in range(-len(kept), len(kept)):
            _assert_bitwise(images[i], kept[i])


@pytest.mark.parametrize("loader", SEQUENCE_LOADERS)
def test_a_loaded_sequence_checks_each_file_again_on_access(tmp_path, loader):
    """Every loader keeps paths, so each access reads and checks its file."""
    out = generate_sequence(SynthParams(seed=4, frames=3, size=64), tmp_path / "seq")
    small = generate_sequence(SynthParams(seed=4, frames=1, size=32), tmp_path / "small")
    record = SEQUENCE_LOADERS[loader](out)
    for ext, images in ((".ppm", record.frames), (".pgm", record.masks)):
        (out / f"00001{ext}").write_bytes((small / f"00000{ext}").read_bytes())
        kind = "frame" if ext == ".ppm" else "mask"
        with pytest.raises(DatasetError, match=rf"{kind} .*00001\{ext} is 32x32 but its "
                                               r"sequence was loaded at 64x64"):
            images[1]
    truncated = out / "00002.ppm"
    truncated.write_bytes(truncated.read_bytes()[:-1])
    with pytest.raises(PnmParseError, match="truncated payload"):
        record.frames[2]
    (out / "00000.pgm").unlink()
    with pytest.raises(FileNotFoundError):
        record.masks[0]
    _assert_bitwise(record.frames[0], decode_frame(read_ppm(out / "00000.ppm")))


def test_a_loaded_static_pool_checks_each_file_again_on_access(tmp_path):
    """A ``StaticRecord`` keeps paths, so each ``image`` or ``mask`` read
    reads and checks its file."""
    out = generate_static_pool(1, 3, 64, tmp_path / "pool")
    small = generate_static_pool(1, 1, 32, tmp_path / "small")
    pool = load_static_pool(out)
    for ext, attr in ((".ppm", "image"), (".pgm", "mask")):
        (out / f"00001{ext}").write_bytes((small / f"00000{ext}").read_bytes())
        kind = "frame" if ext == ".ppm" else "mask"
        with pytest.raises(DatasetError, match=rf"{kind} .*00001\{ext} is 32x32 but its "
                                               r"pool was loaded at 64x64"):
            getattr(pool[1], attr)
    truncated = out / "00002.ppm"
    truncated.write_bytes(truncated.read_bytes()[:-1])
    with pytest.raises(PnmParseError, match="truncated payload"):
        pool[2].image
    (out / "00000.pgm").unlink()
    with pytest.raises(FileNotFoundError):
        pool[0].mask
    _assert_bitwise(pool[0].image, decode_frame(read_ppm(out / "00000.ppm")))


def test_every_loader_reads_each_file_once_at_load_and_once_per_access(tmp_path, monkeypatch):
    """No loader keeps pixels: each reads every file once to check it, and
    then once on each access, training's sampling included (a static sample's
    reads are pinned in test_pipeline)."""
    import srrnet.data
    from srrnet.pipeline import sample_training_triplet
    reads = Counter()
    for name in ("read_ppm", "read_pgm"):  # wrapped where the loaders look them up
        read = getattr(srrnet.data, name)
        monkeypatch.setattr(srrnet.data, name,
                            lambda path, read=read: reads.update([Path(path).name]) or read(path))
    out = generate_sequence(SynthParams(seed=4, frames=4, size=32), tmp_path / "seq")
    each_once = Counter(p.name for p in out.iterdir())
    assert len(each_once) == 8
    for loader in SEQUENCE_LOADERS.values():
        reads.clear()
        record = loader(out)
        assert reads == each_once
        record.frames[1], record.frames[1], record.masks[3], list(record.frames)
        assert reads == each_once + Counter({"00000.ppm": 1, "00001.ppm": 3, "00002.ppm": 1,
                                             "00003.ppm": 1, "00003.pgm": 1})
    video, rng = load_video_dataset(out), np.random.default_rng(0)
    reads.clear()
    for _ in range(20):
        sample_training_triplet(video[0], rng)
    assert sum(reads.values()) == 20 * 6  # C, P and R: a frame and a mask each
    pool_dir = generate_static_pool(1, 4, 32, tmp_path / "pool")
    reads.clear()
    pool = load_static_pool(pool_dir)
    assert reads == Counter(p.name for p in pool_dir.iterdir() if p.suffix != ".txt")
    reads.clear()
    pool[2].image, pool[2].image, pool[0].mask
    assert reads == Counter({"00002.ppm": 2, "00000.pgm": 1})


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


@pytest.mark.parametrize("loader", SEQUENCE_LOADERS)
def test_decoded_images_take_an_integer_index_and_refuse_a_slice(tmp_path, loader):
    """ints, negative ints and numpy integers read one image; a slice raises
    TypeError at the call, not inside the reader, from either loader."""
    out = generate_sequence(SynthParams(seed=4, frames=3, size=32), tmp_path / "seq")
    record = SEQUENCE_LOADERS[loader](out)
    frames = [record.frames[i] for i in range(3)]
    for index, want in ((-1, 2), (np.int64(1), 1), (np.uint8(0), 0)):
        np.testing.assert_array_equal(record.frames[index], frames[want])
        np.testing.assert_array_equal(record.masks[index], record.masks[want])
    for images in (record.frames, record.masks):
        with pytest.raises(TypeError, match="'slice' object cannot be interpreted"):
            images[0:2]
        with pytest.raises(TypeError, match="'float' object cannot be interpreted"):
            images[1.0]
        with pytest.raises(IndexError):
            images[3]


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


def test_static_pool_records_decode_bitwise_like_reading_each_file(tmp_path):
    out = generate_static_pool(2, 5, 32, tmp_path / "pool")
    pool = load_static_pool(out)
    assert len(pool) == 5 and [r.name for r in pool] == [f"{i:05d}" for i in range(5)]
    for i in range(-len(pool), len(pool)):
        stem = pool[i].name
        _assert_bitwise(pool[i].image, decode_frame(read_ppm(out / f"{stem}.ppm")))
        _assert_bitwise(pool[i].mask, decode_mask(read_pgm(out / f"{stem}.pgm")))
    pool[0].image[...] = -1.0  # each read is a fresh array
    _assert_bitwise(pool[0].image, decode_frame(read_ppm(out / "00000.ppm")))
    with pytest.raises(IndexError):
        pool[5]


LOAD_PEAK_PROBE = """
import sys
import srrnet.data

before = resident_bytes()
loaded = getattr(srrnet.data, sys.argv[1])(sys.argv[2])
print(peak_bytes() - before)
"""


@needs_proc
@pytest.mark.parametrize("loader", ["load_static_pool", "load_video_dataset"])
def test_a_loaded_training_set_holds_far_less_than_a_byte_a_pixel(tmp_path, loader):
    """A loaded pool or video root keeps each file's path, not its pixels, so
    the load rises only by the file it is reading: at most 0.13 bytes a pixel
    measured over these 32 images. Keeping each image's and mask's 8-bit
    pixels rose by 4.3 on both; decoding them to float64 at load held 32
    bytes a pixel (38.7 measured on a pool)."""
    images, size = 32, 256
    if loader == "load_static_pool":
        out = generate_static_pool(0, images, size, tmp_path / "pool")
    else:
        out = tmp_path / "video"
        for seq in range(4):
            generate_sequence(SynthParams(seed=seq, frames=images // 4, size=size),
                              out / f"s{seq}")
    rise = int(run_peak_probe(LOAD_PEAK_PROBE, loader, out))
    assert rise <= 0.5 * images * size * size, rise / (images * size * size)


def test_load_static_pool_refuses_a_mask_of_another_extent_naming_it(tmp_path):
    out = generate_static_pool(1, 2, 64, tmp_path / "pool")
    small = generate_static_pool(1, 2, 32, tmp_path / "small")
    (out / "00001.pgm").write_bytes((small / "00001.pgm").read_bytes())
    with pytest.raises(DatasetError, match=r"mask .*00001\.pgm is 32x32 but its frame is 64x64"):
        load_static_pool(out)


def test_load_static_pool_refuses_an_image_of_another_extent_naming_it(tmp_path):
    """Every pool image shares the first image's extent, as a sequence's frames do."""
    out = generate_static_pool(1, 4, 32, tmp_path / "pool")
    big = generate_static_pool(1, 4, 64, tmp_path / "big")
    for ext in (".ppm", ".pgm"):
        (out / f"00002{ext}").write_bytes((big / f"00002{ext}").read_bytes())
    with pytest.raises(DatasetError, match=r"frame .*00002\.ppm is 64x64 but the images "
                                           r"before it are 32x32"):
        load_static_pool(out)
