"""Dataset directory loading.

Layout: one directory per sequence, frames ``NNNNN.ppm`` with masks
``NNNNN.pgm``. A static pool is a flat directory of image/mask pairs plus a
``categories.txt`` manifest with one ``NNNNN <category>`` line per image.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .pnm import read_frame, read_mask


class DatasetError(ValueError):
    pass


@dataclass
class SequenceRecord:
    name: str
    frames: list[np.ndarray]   # each 3 x H x W in [0, 1]
    masks: list[np.ndarray]    # each 1 x H x W in {0, 1}; may be empty for unlabeled


@dataclass
class StaticRecord:
    name: str
    category: str
    image: np.ndarray
    mask: np.ndarray


def _frame_stems(directory: Path) -> list[str]:
    stems = sorted(p.stem for p in directory.glob("*.ppm"))
    if not stems:
        raise DatasetError(f"no .ppm frames in {directory}")
    return stems


def load_sequence(directory, require_masks: bool = True) -> SequenceRecord:
    directory = Path(directory)
    frames, masks = [], []
    for stem in _frame_stems(directory):
        frames.append(read_frame(directory / f"{stem}.ppm"))
        mask_path = directory / f"{stem}.pgm"
        if mask_path.exists():
            masks.append(read_mask(mask_path))
        elif require_masks:
            raise DatasetError(f"missing mask {mask_path}")
    return SequenceRecord(name=directory.name, frames=frames, masks=masks)


def sequence_dirs(root) -> list[Path]:
    """A dataset root's sequence directories: its sorted subdirectories, or itself without any."""
    root = Path(root)
    return sorted(d for d in root.iterdir() if d.is_dir()) or [root]


def load_video_dataset(root) -> list[SequenceRecord]:
    return [load_sequence(d) for d in sequence_dirs(root)]


def load_static_pool(directory) -> list[StaticRecord]:
    directory = Path(directory)
    manifest = directory / "categories.txt"
    if not manifest.exists():
        raise DatasetError(f"static pool {directory} lacks categories.txt")
    records = []
    for line in manifest.read_text().splitlines():
        line = line.strip()
        if not line:
            continue
        try:
            stem, category = line.split()
        except ValueError as exc:
            raise DatasetError(f"malformed manifest line {line!r}") from exc
        records.append(StaticRecord(
            name=stem,
            category=category,
            image=read_frame(directory / f"{stem}.ppm"),
            mask=read_mask(directory / f"{stem}.pgm"),
        ))
    if not records:
        raise DatasetError(f"static pool {directory} is empty")
    return records
