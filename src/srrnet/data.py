"""Dataset directory loading.

Layout: one directory per sequence, frames ``NNNNN.ppm`` with masks
``NNNNN.pgm``. A static pool is a flat directory of image/mask pairs plus a
``categories.txt`` manifest with one ``NNNNN <category>`` line per image.

Every loader reads and checks every file once at load, so a bad file stops a
command before its first step, and then keeps only each file's path and the
(H, W) its images share. Each ``frames[i]``, ``masks[i]``, ``pool[i].image``
and ``pool[i].mask`` reads, checks and decodes its file again: a file
rewritten at another extent since the load raises ``DatasetError`` naming it,
a truncated one ``PnmParseError`` and a deleted one ``FileNotFoundError``. So
neither a single pass (``load_sequence``) nor training (``load_video_dataset``,
``load_static_pool``) holds the pixels of an image it is not reading.
"""

from __future__ import annotations

import operator
from collections.abc import Sequence
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from .pnm import decode_frame, decode_mask, read_pgm, read_ppm


class DatasetError(ValueError):
    pass


def _read(path: Path, extent: Optional[tuple], against: str) -> np.ndarray:
    """The 8-bit pixels of the frame (``.ppm``) or mask (``.pgm``) at ``path``.

    An (H, W) other than ``extent`` is refused with
    ``<frame|mask> <path> is HxW but <against> <extent>``; ``None`` takes any.
    """
    pixels = read_ppm(path) if path.suffix == ".ppm" else read_pgm(path)
    if extent is not None and pixels.shape[:2] != extent:
        kind = "frame" if pixels.ndim == 3 else "mask"
        raise DatasetError(f"{kind} {path} is {pixels.shape[0]}x{pixels.shape[1]} but "
                           f"{against} {extent[0]}x{extent[1]}")
    return pixels


def _decoded(path: Path, extent: tuple, against: str) -> np.ndarray:
    """The file at ``path`` read again, checked against its loaded ``extent`` and
    decoded: a 3 x H x W frame in [0, 1] or a 1 x H x W mask in {0, 1}, float64."""
    pixels = _read(path, extent, against)
    return decode_frame(pixels) if pixels.ndim == 3 else decode_mask(pixels)


class DecodedImages(Sequence):
    """A sequence's frame or mask files, each read, checked and decoded to a
    fresh float64 array on every access."""

    def __init__(self, paths: list[Path], extent: tuple[int, int]):
        self._paths = paths
        self._extent = extent

    def __len__(self) -> int:
        return len(self._paths)

    def __getitem__(self, index: int) -> np.ndarray:
        # one image per access: a slice is refused here, not inside the reader
        return _decoded(self._paths[operator.index(index)], self._extent,
                        "its sequence was loaded at")


@dataclass
class SequenceRecord:
    """A sequence's frames and masks, read by ``len``, ``[i]`` and iteration.

    The loaders fill both with ``DecodedImages``, which read each file on
    access. Any sequence of arrays, such as a list, works too. ``extent`` is
    the (H, W) every frame shares.
    """

    name: str
    frames: Sequence[np.ndarray]   # each 3 x H x W float64 in [0, 1]
    masks: Sequence[np.ndarray]    # each 1 x H x W float64 in {0, 1}; may be empty for unlabeled
    extent: tuple[int, int]


@dataclass(frozen=True, eq=False)
class StaticRecord:
    """One static pool image and its mask, kept as their paths and the pool's (H, W).

    ``image`` and ``mask`` read, check and decode their file on each read, so
    reading a record's ``category`` or ``extent`` reads nothing.
    """

    name: str
    category: str
    image_path: Path
    mask_path: Path
    extent: tuple[int, int]

    @property
    def image(self) -> np.ndarray:
        """3 x H x W float64 in [0, 1]."""
        return _decoded(self.image_path, self.extent, "its pool was loaded at")

    @property
    def mask(self) -> np.ndarray:
        """1 x H x W float64 in {0, 1}."""
        return _decoded(self.mask_path, self.extent, "its pool was loaded at")


def _frame_stems(directory: Path) -> list[str]:
    stems = sorted(p.stem for p in directory.glob("*.ppm"))
    if not stems:
        raise DatasetError(f"no .ppm frames in {directory}")
    return stems


def _walk_sequence(directory: Path, require_masks: bool) -> SequenceRecord:
    """Read and check every file of a sequence, keeping only their paths.

    A frame whose extent differs from the first frame's, or a mask whose
    extent differs from its frame's, is refused naming the file.
    """
    frames, masks, extent = [], [], None
    for stem in _frame_stems(directory):
        frame = directory / f"{stem}.ppm"
        extent = _read(frame, extent, "the frames before it are").shape[:2]
        frames.append(frame)
        mask = directory / f"{stem}.pgm"
        if mask.exists():
            _read(mask, extent, "its frame is")
            masks.append(mask)
        elif require_masks:
            raise DatasetError(f"missing mask {mask}")
    return SequenceRecord(directory.name, DecodedImages(frames, extent),
                          DecodedImages(masks, extent), extent)


def load_sequence(directory, require_masks: bool = True) -> SequenceRecord:
    """Read and check every file of a sequence, keeping only their paths.

    Each ``frames[i]`` or ``masks[i]`` reads its file again and makes every
    check of the load (see the module docstring).
    """
    return _walk_sequence(Path(directory), require_masks)


def sequence_dirs(root) -> list[Path]:
    """A dataset root's sequence directories: its sorted subdirectories, or itself without any."""
    root = Path(root)
    return sorted(d for d in root.iterdir() if d.is_dir()) or [root]


def load_video_dataset(root) -> list[SequenceRecord]:
    """Every sequence under ``root``, each loaded as by ``load_sequence`` with its masks required."""
    # not through ``load_sequence``: the benchmark's tracer times that name as a single pass's load
    return [_walk_sequence(directory, True) for directory in sequence_dirs(root)]


def load_static_pool(directory) -> list[StaticRecord]:
    """Read and check every image and mask the manifest names, keeping only their paths.

    An image whose extent differs from the first image's, or a mask whose
    extent differs from its image's, is refused naming the file.
    """
    directory = Path(directory)
    manifest = directory / "categories.txt"
    if not manifest.exists():
        raise DatasetError(f"static pool {directory} lacks categories.txt")
    pool, extent = [], None
    for line in manifest.read_text().splitlines():
        line = line.strip()
        if not line:
            continue
        try:
            stem, category = line.split()
        except ValueError as exc:
            raise DatasetError(f"malformed manifest line {line!r}") from exc
        image, mask = directory / f"{stem}.ppm", directory / f"{stem}.pgm"
        extent = _read(image, extent, "the images before it are").shape[:2]
        _read(mask, extent, "its frame is")
        pool.append(StaticRecord(stem, category, image, mask, extent))
    if not pool:
        raise DatasetError(f"static pool {directory} is empty")
    return pool
