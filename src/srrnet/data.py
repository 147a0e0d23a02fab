"""Dataset directory loading.

Layout: one directory per sequence, frames ``NNNNN.ppm`` with masks
``NNNNN.pgm``. A static pool is a flat directory of image/mask pairs plus a
``categories.txt`` manifest with one ``NNNNN <category>`` line per image.

A loaded sequence or static pool keeps each file's 8-bit pixels (3 bytes a
pixel for a frame, 1 for a mask) and decodes a frame or mask to float64 only
when it is read, since a pass or a training sample reads only a few.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from .pnm import decode_frame, decode_mask, read_pgm, read_ppm


class DatasetError(ValueError):
    pass


class DecodedImages(Sequence):
    """Read-only stored 8-bit images that decode to a fresh float64 array on each access."""

    def __init__(self, pixels: list[np.ndarray], decode: Callable[[np.ndarray], np.ndarray]):
        self._pixels = pixels
        self._decode = decode

    def __len__(self) -> int:
        return len(self._pixels)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return DecodedImages(self._pixels[index], self._decode)
        return self._decode(self._pixels[index])


@dataclass
class SequenceRecord:
    """A sequence's frames and masks, read by ``len``, ``[i]`` and iteration.

    ``load_sequence`` fills both with ``DecodedImages``; any sequence of
    arrays, such as a list, works too.
    """

    name: str
    frames: Sequence[np.ndarray]   # each 3 x H x W float64 in [0, 1]
    masks: Sequence[np.ndarray]    # each 1 x H x W float64 in {0, 1}; may be empty for unlabeled


@dataclass
class StaticRecord:
    name: str
    category: str
    image: np.ndarray  # 3 x H x W float64 in [0, 1]
    mask: np.ndarray   # 1 x H x W float64 in {0, 1}


class StaticPool(Sequence):
    """A loaded static pool, read by ``len`` and ``[i]`` like a list of ``StaticRecord``.

    Images and masks stay at 8 bits. ``pool[i]`` is a view of record i: its
    ``name`` and ``category`` are stored, and its ``image`` and ``mask``
    decode a fresh float64 array on each read, so indexing the pool's
    categories decodes nothing.
    """

    def __init__(self, names: list[str], categories: list[str],
                 images: list[np.ndarray], masks: list[np.ndarray]):
        self.names, self.categories = names, categories
        self.images = DecodedImages(images, decode_frame)
        self.masks = DecodedImages(masks, decode_mask)

    def __len__(self) -> int:
        return len(self.names)

    def __getitem__(self, index: int) -> "PooledRecord":
        if not -len(self) <= index < len(self):  # IndexError also ends iteration
            raise IndexError(f"static pool index {index} out of range")
        return PooledRecord(self, index)


@dataclass(frozen=True)
class PooledRecord:
    """Record ``index`` of a ``StaticPool``, read like a ``StaticRecord``."""

    pool: StaticPool
    index: int

    @property
    def name(self) -> str:
        return self.pool.names[self.index]

    @property
    def category(self) -> str:
        return self.pool.categories[self.index]

    @property
    def image(self) -> np.ndarray:
        return self.pool.images[self.index]

    @property
    def mask(self) -> np.ndarray:
        return self.pool.masks[self.index]


def _frame_stems(directory: Path) -> list[str]:
    stems = sorted(p.stem for p in directory.glob("*.ppm"))
    if not stems:
        raise DatasetError(f"no .ppm frames in {directory}")
    return stems


def _read_mask_for(path: Path, extent: tuple) -> np.ndarray:
    """Read a mask's 8-bit pixels, refusing an extent other than its frame's (H, W)."""
    mask = read_pgm(path)
    if mask.shape != extent:
        raise DatasetError(f"mask {path} is {mask.shape[0]}x{mask.shape[1]} but its frame "
                           f"is {extent[0]}x{extent[1]}")
    return mask


def load_sequence(directory, require_masks: bool = True) -> SequenceRecord:
    """Read and check every file of a sequence, keeping its pixels at 8 bits.

    A frame whose extent differs from the first frame's, or a mask whose
    extent differs from its frame's, is refused naming the file.
    """
    directory = Path(directory)
    frames, masks = [], []
    for stem in _frame_stems(directory):
        frame_path = directory / f"{stem}.ppm"
        frame = read_ppm(frame_path)
        if frames and frame.shape != frames[0].shape:
            (h, w, _), (first_h, first_w, _) = frame.shape, frames[0].shape
            raise DatasetError(f"frame {frame_path} is {h}x{w} but the frames before it "
                               f"are {first_h}x{first_w}")
        frames.append(frame)
        mask_path = directory / f"{stem}.pgm"
        if mask_path.exists():
            masks.append(_read_mask_for(mask_path, frame.shape[:2]))
        elif require_masks:
            raise DatasetError(f"missing mask {mask_path}")
    return SequenceRecord(name=directory.name, frames=DecodedImages(frames, decode_frame),
                          masks=DecodedImages(masks, decode_mask))


def sequence_dirs(root) -> list[Path]:
    """A dataset root's sequence directories: its sorted subdirectories, or itself without any."""
    root = Path(root)
    return sorted(d for d in root.iterdir() if d.is_dir()) or [root]


def load_video_dataset(root) -> list[SequenceRecord]:
    return [load_sequence(d) for d in sequence_dirs(root)]


def load_static_pool(directory) -> StaticPool:
    """Read and check every image and mask the manifest names, keeping their pixels at 8 bits."""
    directory = Path(directory)
    manifest = directory / "categories.txt"
    if not manifest.exists():
        raise DatasetError(f"static pool {directory} lacks categories.txt")
    names, categories, images, masks = [], [], [], []
    for line in manifest.read_text().splitlines():
        line = line.strip()
        if not line:
            continue
        try:
            stem, category = line.split()
        except ValueError as exc:
            raise DatasetError(f"malformed manifest line {line!r}") from exc
        image = read_ppm(directory / f"{stem}.ppm")
        masks.append(_read_mask_for(directory / f"{stem}.pgm", image.shape[:2]))
        names.append(stem)
        categories.append(category)
        images.append(image)
    if not names:
        raise DatasetError(f"static pool {directory} is empty")
    return StaticPool(names, categories, images, masks)
