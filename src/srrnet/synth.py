"""Deterministic synthetic camouflage sequences.

A textured background and a similarly-textured moving object, with ground
truth masks. The ``contrast`` knob blends the object texture between the
background's own statistics (0, perfectly camouflaged) and a fully distinct
appearance (1, trivially separable). The same seed always produces byte
identical files.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import tensor as T
from .backbone import check_extent
from .pnm import write_frame, write_mask
from .tensor import ConfigurationError, Tensor

OBJECT_SCALE = 0.22  # object radius as a fraction of the frame extent
POOL_CATEGORIES = 3  # static pool categories, each with its own texture grain
POOL_CONTRAST = 0.5


@dataclass
class SynthParams:
    seed: int = 0
    frames: int = 16
    size: int = 64
    texture_grain: int = 8
    contrast: float = 0.35
    motion_amplitude: float = 3.0
    occlusion_prob: float = 0.0

    def __post_init__(self):
        if not 0.0 <= self.contrast <= 1.0:
            raise ConfigurationError(f"contrast must be in [0, 1], got {self.contrast}")
        check_extent("size", self.size)
        if self.frames < 1:
            raise ConfigurationError(f"frames must be at least 1, got {self.frames}")
        if not 0.0 <= self.occlusion_prob <= 1.0:
            raise ConfigurationError(f"occlusion_prob must be in [0, 1], got {self.occlusion_prob}")
        if self.texture_grain < 1:
            raise ConfigurationError(f"texture_grain must be at least 1, got {self.texture_grain}")
        if not (math.isfinite(self.motion_amplitude) and self.motion_amplitude >= 0):
            raise ConfigurationError(
                f"motion_amplitude must be finite and non-negative, got {self.motion_amplitude}")


def _value_noise(rng: np.random.Generator, size: int, grain: int) -> np.ndarray:
    """Smooth 3-channel value noise in [0, 1], grain = feature size in pixels."""
    coarse = max(2, size // max(1, grain))
    grid = rng.random((1, 3, coarse, coarse))
    return np.clip(T.bilinear_resize(Tensor(grid), size, size).data[0], 0.0, 1.0)


def _object_mask(size: int, cx: float, cy: float, rx: float, ry: float,
                 wobble: np.ndarray) -> np.ndarray:
    """Elliptical blob with an angular wobble on the radius."""
    yy, xx = np.mgrid[0:size, 0:size]
    dx = (xx - cx) / rx
    dy = (yy - cy) / ry
    angle = np.arctan2(dy, dx)
    radius = np.sqrt(dx * dx + dy * dy)
    bumps = sum(a * np.cos(k * angle + p) for k, (a, p) in enumerate(wobble, start=2))
    return (radius <= 1.0 + bumps).astype(np.float64)


def generate_arrays(params: SynthParams) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Produce (frames, masks): frames are 3 x S x S in [0, 1], masks 1 x S x S in {0, 1}."""
    rng = np.random.default_rng(params.seed)
    size = params.size
    background = _value_noise(rng, size, params.texture_grain)
    # Object texture: same grain statistics as the background, pushed toward a
    # distinct color by the contrast knob.
    object_texture = _value_noise(rng, size, max(2, params.texture_grain // 2))
    distinct = np.empty_like(object_texture)
    distinct[0] = 0.9
    distinct[1] = 0.25
    distinct[2] = 0.2
    object_texture = ((1.0 - params.contrast) * object_texture
                      + params.contrast * distinct)

    radius = OBJECT_SCALE * size
    rx = radius * rng.uniform(0.8, 1.2)
    ry = radius * rng.uniform(0.8, 1.2)
    wobble = [(rng.uniform(0.0, 0.12), rng.uniform(0.0, 2.0 * math.pi))
              for _ in range(3)]
    margin = max(rx, ry) * 1.3
    cx = rng.uniform(margin, size - margin)
    cy = rng.uniform(margin, size - margin)
    heading = rng.uniform(0.0, 2.0 * math.pi)

    nominal_area = math.pi * rx * ry
    frames, masks = [], []
    for t in range(params.frames):
        drift_x = rng.uniform(-0.6, 0.6) * size / max(1, params.frames)
        drift = np.roll(background, shift=int(round(0.3 * t)), axis=2)
        wob = np.array(wobble) * (1.0 + 0.1 * math.sin(0.7 * t))
        mask = _object_mask(size, cx, cy, rx, ry, wob)
        frame = drift * (1.0 - mask) + object_texture * mask

        if rng.random() < params.occlusion_prob:
            bar_w = int(0.3 * rx) + 1
            bar_x = int(np.clip(cx + rng.uniform(-rx, rx), 0, size - bar_w))
            frame[:, :, bar_x:bar_x + bar_w] = drift[:, :, bar_x:bar_x + bar_w]
            mask[:, bar_x:bar_x + bar_w] = 0.0

        area = mask.sum()
        if not (0.35 * nominal_area <= area <= 1.5 * nominal_area):
            raise RuntimeError(
                f"generator self-check failed at frame {t}: mask area {area:.0f} "
                f"outside bounds for nominal {nominal_area:.0f}")

        frames.append(np.clip(frame, 0.0, 1.0))
        masks.append(mask[None])

        # Bounded random walk: step length capped by motion_amplitude.
        heading += rng.uniform(-0.8, 0.8)
        step = rng.uniform(0.5, 1.0) * params.motion_amplitude
        cx = float(np.clip(cx + step * math.cos(heading) + drift_x, margin, size - margin))
        cy = float(np.clip(cy + step * math.sin(heading), margin, size - margin))
    return frames, masks


def generate_sequence(params: SynthParams, out_dir) -> Path:
    """Write a sequence directory of NNNNN.ppm frames and NNNNN.pgm masks."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    frames, masks = generate_arrays(params)
    for i, (frame, mask) in enumerate(zip(frames, masks)):
        write_frame(out_dir / f"{i:05d}.ppm", frame)
        write_mask(out_dir / f"{i:05d}.pgm", mask)
    return out_dir


def generate_static_pool(seed: int, images: int, size: int, out_dir) -> Path:
    """Write a static pretraining pool with a per-image category manifest."""
    if images < 1:
        raise ConfigurationError(f"static pool images must be at least 1, got {images}")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    lines = []
    for i in range(images):
        category = i % POOL_CATEGORIES
        params = SynthParams(seed=seed * 10_000 + i, frames=1, size=size,
                             contrast=POOL_CONTRAST, texture_grain=6 + 2 * category)
        frames, masks = generate_arrays(params)
        write_frame(out_dir / f"{i:05d}.ppm", frames[0])
        write_mask(out_dir / f"{i:05d}.pgm", masks[0])
        lines.append(f"{i:05d} cat{category}")
    (out_dir / "categories.txt").write_text("\n".join(lines) + "\n")
    return out_dir
