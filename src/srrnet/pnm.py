"""Binary PPM/PGM reading and writing.

Frames are 8-bit binary PPM (``P6``); masks and error maps are 8-bit binary
PGM (``P5``). Masks use 0 for background and 255 for foreground; error maps
are scaled by 255 and rounded half-up. ``srrnet infer`` writes the error map
of an ``--error-target signed`` model, which lies in (-1, 1), as
``(e + 1) / 2``: zero error reads 128 and a negative error (a predicted false
positive) reads below it. Parse failures report the byte offset.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np


class PnmParseError(ValueError):
    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (byte offset {offset})")
        self.offset = offset


def _read_header_token(data: bytes, pos: int) -> tuple[bytes, int]:
    """Read one whitespace-delimited header token, skipping '#' comments."""
    n = len(data)
    while pos < n:
        ch = data[pos:pos + 1]
        if ch.isspace():
            pos += 1
        elif ch == b"#":
            while pos < n and data[pos:pos + 1] != b"\n":
                pos += 1
        else:
            break
    if pos >= n:
        raise PnmParseError("unexpected end of header", pos)
    start = pos
    while pos < n and not data[pos:pos + 1].isspace():
        pos += 1
    return data[start:pos], pos


def _read_pnm(path, expected_magic: bytes) -> np.ndarray:
    data = Path(path).read_bytes()
    if data[:2] != expected_magic:
        raise PnmParseError(f"bad magic number {data[:2]!r}, expected {expected_magic!r}", 0)
    pos = 2
    fields = []
    for _ in range(3):
        token, pos = _read_header_token(data, pos)
        if not token.isdigit():
            raise PnmParseError(f"non-numeric header field {token!r}", pos - len(token))
        fields.append(int(token))
    width, height, maxval = fields
    if maxval != 255:
        raise PnmParseError(f"unsupported maxval {maxval}", pos)
    pos += 1  # single whitespace byte after maxval
    channels = 3 if expected_magic == b"P6" else 1
    expected = width * height * channels
    payload = data[pos:pos + expected]
    if len(payload) != expected:
        raise PnmParseError(
            f"truncated payload: expected {expected} bytes, got {len(payload)}", pos + len(payload))
    arr = np.frombuffer(payload, dtype=np.uint8)
    if channels == 3:
        return arr.reshape(height, width, 3)
    return arr.reshape(height, width)


def read_ppm(path) -> np.ndarray:
    """Read an 8-bit binary PPM as an H x W x 3 uint8 array."""
    return _read_pnm(path, b"P6")


def read_pgm(path) -> np.ndarray:
    """Read an 8-bit binary PGM as an H x W uint8 array."""
    return _read_pnm(path, b"P5")


def write_ppm(path, image: np.ndarray):
    """Write an H x W x 3 uint8 array as binary PPM."""
    image = np.asarray(image, dtype=np.uint8)
    if image.ndim != 3 or image.shape[2] != 3:
        raise ValueError(f"write_ppm expects H x W x 3, got {image.shape}")
    h, w, _ = image.shape
    with open(path, "wb") as f:
        f.write(b"P6\n%d %d\n255\n" % (w, h))
        f.write(image.tobytes())


def write_pgm(path, image: np.ndarray):
    """Write an H x W uint8 array as binary PGM."""
    image = np.asarray(image, dtype=np.uint8)
    if image.ndim != 2:
        raise ValueError(f"write_pgm expects H x W, got {image.shape}")
    h, w = image.shape
    with open(path, "wb") as f:
        f.write(b"P5\n%d %d\n255\n" % (w, h))
        f.write(image.tobytes())


def decode_frame(img: np.ndarray) -> np.ndarray:
    """An H x W x 3 uint8 image as the 3 x H x W float64 frame in [0, 1] the model reads."""
    return img.astype(np.float64).transpose(2, 0, 1) / 255.0


def decode_mask(m: np.ndarray) -> np.ndarray:
    """An H x W uint8 image as a 1 x H x W float64 mask in {0, 1}: 128 and up is foreground."""
    return (m.astype(np.float64) / 255.0 >= 0.5).astype(np.float64)[None]


def write_mask(path, mask: np.ndarray):
    """Write a binary mask (values in [0, 1], any leading singleton axes) as PGM."""
    m = np.asarray(mask, dtype=np.float64)
    m = m.reshape(m.shape[-2], m.shape[-1])
    write_pgm(path, (m >= 0.5).astype(np.uint8) * 255)


def write_error_map(path, error: np.ndarray):
    """Write an error map in [0, 1] as PGM, scaled by 255 and rounded half-up."""
    e = np.asarray(error, dtype=np.float64)
    e = e.reshape(e.shape[-2], e.shape[-1])
    scaled = np.floor(np.clip(e, 0.0, 1.0) * 255.0 + 0.5)
    write_pgm(path, scaled.astype(np.uint8))


def write_frame(path, frame: np.ndarray):
    """Write a 3 x H x W float64 frame in [0, 1] as PPM (rounded half-up)."""
    f = np.asarray(frame, dtype=np.float64)
    img = np.floor(np.clip(f, 0.0, 1.0) * 255.0 + 0.5).astype(np.uint8)
    write_ppm(path, img.transpose(1, 2, 0))
