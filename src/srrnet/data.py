"""Dataset directory loading.

Layout: one directory per sequence, frames ``NNNNN.ppm`` with masks
``NNNNN.pgm``. A static pool is a flat directory of image/mask pairs plus a
``categories.txt`` manifest with one ``NNNNN <category>`` line per image.

Every loader reads and checks every file once at load, so a bad file stops a
command before its first step. What it then keeps depends on how often the
caller reads a file:

- ``load_sequence``, the loader of a single pass (``infer``, ``trace-score``),
  keeps only each file's path. ``frames[i]`` and ``masks[i]`` read, check and
  decode their file again on each access, so the pass holds no pixels of the
  frames it has not reached or has done with.
- ``load_video_dataset`` and ``load_static_pool``, the loaders of training,
  keep each file's 8-bit pixels (3 bytes a pixel for a frame, 1 for a mask),
  since training reads each frame many times; a frame or mask is decoded to
  float64 only when it is read. A static pool is a list of ``StaticRecord``,
  whose ``pool[i].image`` and ``pool[i].mask`` decode on each read.
"""

from __future__ import annotations

import operator
from collections.abc import Sequence
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

import numpy as np

from .pnm import decode_frame, decode_mask, read_pgm, read_ppm


class DatasetError(ValueError):
    pass


class DecodedImages(Sequence):
    """Read-only stored images that decode to a fresh float64 array on each access.

    Each stored item is what a loader kept of one file, its 8-bit pixels or
    its path, and ``decode`` turns it into the array the model reads.
    """

    def __init__(self, items: list, decode: Callable[[object], np.ndarray]):
        self._items = items
        self._decode = decode

    def __len__(self) -> int:
        return len(self._items)

    def __getitem__(self, index: int) -> np.ndarray:
        # one image per access: a slice is refused here, not inside the decoder
        return self._decode(self._items[operator.index(index)])


@dataclass
class SequenceRecord:
    """A sequence's frames and masks, read by ``len``, ``[i]`` and iteration.

    ``load_sequence`` fills both with ``DecodedImages`` that read each file on
    access, and ``load_video_dataset`` with ones that decode stored 8-bit
    pixels (see the module docstring for why). Any sequence of arrays, such as
    a list, works too. ``extent`` is the (H, W) every frame shares; a loader
    sets it from the files, and a record built from arrays takes its first
    frame's.
    """

    name: str
    frames: Sequence[np.ndarray]   # each 3 x H x W float64 in [0, 1]
    masks: Sequence[np.ndarray]    # each 1 x H x W float64 in {0, 1}; may be empty for unlabeled
    extent: Optional[tuple[int, int]] = None

    def __post_init__(self):
        if self.extent is None:
            self.extent = tuple(self.frames[0].shape[-2:])


@dataclass(frozen=True, eq=False)
class StaticRecord:
    """One static pool image and its mask, kept at 8 bits.

    ``image`` and ``mask`` decode a fresh float64 array on each read, so
    reading a record's ``category`` or ``extent`` decodes nothing.
    """

    name: str
    category: str
    image_pixels: np.ndarray  # H x W x 3 uint8
    mask_pixels: np.ndarray   # H x W uint8

    @property
    def extent(self) -> tuple[int, int]:
        return self.image_pixels.shape[:2]

    @property
    def image(self) -> np.ndarray:
        """3 x H x W float64 in [0, 1]."""
        return decode_frame(self.image_pixels)

    @property
    def mask(self) -> np.ndarray:
        """1 x H x W float64 in {0, 1}."""
        return decode_mask(self.mask_pixels)


def _frame_stems(directory: Path) -> list[str]:
    stems = sorted(p.stem for p in directory.glob("*.ppm"))
    if not stems:
        raise DatasetError(f"no .ppm frames in {directory}")
    return stems


def _checked(path: Path, pixels: np.ndarray, extent: tuple, against: str) -> np.ndarray:
    """``pixels`` read from ``path``, refusing an (H, W) other than ``extent``.

    The refusal reads ``<frame|mask> <path> is HxW but <against> <extent>``.
    """
    if pixels.shape[:2] != extent:
        kind = "frame" if pixels.ndim == 3 else "mask"
        raise DatasetError(f"{kind} {path} is {pixels.shape[0]}x{pixels.shape[1]} but "
                           f"{against} {extent[0]}x{extent[1]}")
    return pixels


def _walk_sequence(directory: Path, require_masks: bool,
                   keep: Callable[[Path, np.ndarray], object]) -> tuple[list, list, tuple]:
    """Read and check every file of a sequence, keeping ``keep(path, pixels)`` of each.

    A frame whose extent differs from the first frame's, or a mask whose
    extent differs from its frame's, is refused naming the file. Returns what
    was kept of the frames and of the masks, and the frames' (H, W).
    """
    frames, masks, extent = [], [], None
    for stem in _frame_stems(directory):
        frame_path = directory / f"{stem}.ppm"
        frame = read_ppm(frame_path)
        extent = extent or frame.shape[:2]
        frames.append(keep(frame_path, _checked(frame_path, frame, extent,
                                                "the frames before it are")))
        mask_path = directory / f"{stem}.pgm"
        if mask_path.exists():
            masks.append(keep(mask_path, _checked(mask_path, read_pgm(mask_path), extent,
                                                  "its frame is")))
        elif require_masks:
            raise DatasetError(f"missing mask {mask_path}")
    return frames, masks, extent


def load_sequence(directory, require_masks: bool = True) -> SequenceRecord:
    """Read and check every file of a sequence, keeping only their paths.

    Each ``frames[i]`` or ``masks[i]`` reads its file again and makes every
    check of the load, so a file rewritten at another extent since the load
    raises ``DatasetError`` naming it, a truncated one ``PnmParseError`` and a
    deleted one ``FileNotFoundError``.
    """
    directory = Path(directory)
    paths, mask_paths, extent = _walk_sequence(directory, require_masks, lambda path, _: path)

    def reread(read, decode):
        return lambda path: decode(_checked(path, read(path), extent,
                                            "its sequence was loaded at"))

    return SequenceRecord(directory.name, DecodedImages(paths, reread(read_ppm, decode_frame)),
                          DecodedImages(mask_paths, reread(read_pgm, decode_mask)), extent)


def sequence_dirs(root) -> list[Path]:
    """A dataset root's sequence directories: its sorted subdirectories, or itself without any."""
    root = Path(root)
    return sorted(d for d in root.iterdir() if d.is_dir()) or [root]


def load_video_dataset(root) -> list[SequenceRecord]:
    """Read and check every file of every sequence under ``root``, keeping their 8-bit pixels."""
    records = []
    for directory in sequence_dirs(root):
        frames, masks, extent = _walk_sequence(directory, True, lambda _, pixels: pixels)
        records.append(SequenceRecord(directory.name, DecodedImages(frames, decode_frame),
                                      DecodedImages(masks, decode_mask), extent))
    return records


def load_static_pool(directory) -> list[StaticRecord]:
    """Read and check every image and mask the manifest names, keeping their pixels at 8 bits."""
    directory = Path(directory)
    manifest = directory / "categories.txt"
    if not manifest.exists():
        raise DatasetError(f"static pool {directory} lacks categories.txt")
    pool = []
    for line in manifest.read_text().splitlines():
        line = line.strip()
        if not line:
            continue
        try:
            stem, category = line.split()
        except ValueError as exc:
            raise DatasetError(f"malformed manifest line {line!r}") from exc
        image = read_ppm(directory / f"{stem}.ppm")
        mask_path = directory / f"{stem}.pgm"
        mask = _checked(mask_path, read_pgm(mask_path), image.shape[:2], "its frame is")
        pool.append(StaticRecord(stem, category, image, mask))
    if not pool:
        raise DatasetError(f"static pool {directory} is empty")
    return pool
