"""Dual-purpose decoder: fused mask prediction plus a pixel-wise error estimate.

The twelve pyramid maps are fused stage-by-stage to a common quarter-resolution
grid, combined, and fed to two heads: a two-channel mask head (its logits are
resized to the input extent, where argmax gives the binary mask, ties
classifying as background) and an error head that estimates the per-pixel
deviation of that mask from the unseen ground truth. The spatial mean of the
error map is the frame's predicted-quality score.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .backbone import PyramidFeatures
from .nn import Conv2d, Linear, Module
from .tensor import ConfigurationError, Tensor

ERROR_TARGETS = ("absolute", "signed")


@dataclass
class DecoderConfig:
    ch_prime: int          # fusion width
    ch_double_prime: int   # head width
    error_target: str = "absolute"  # |gt - mask| in [0, 1], or signed gt - mask in [-1, 1]

    def __post_init__(self):
        if self.ch_prime <= 0 or self.ch_double_prime <= 0:
            raise ConfigurationError("decoder widths must be positive")
        if self.error_target not in ERROR_TARGETS:
            raise ConfigurationError(f"unknown error target {self.error_target!r}")


@dataclass
class PredictionPair:
    """Decoder output: mask logits, binary mask, error map, scalar score."""

    mask_logits: Tensor         # B x 2 x (H/4) x (W/4)
    supervision_logits: Tensor  # B x 2 x H x W, mask_logits resized to the input
    o_msk: np.ndarray           # B x 1 x H x W, values in {0, 1}
    o_err: Tensor               # B x 1 x (H/4) x (W/4), in (0, 1), or (-1, 1) if signed
    score: Tensor               # scalar, spatial mean of o_err

    @property
    def score_value(self) -> float:
        return float(self.score.data)


def channel_linear(x_map: Tensor, linear: Linear) -> Tensor:
    """Apply a pointwise linear map over the channel axis of a B x C x H x W tensor.

    The map is folded to a B x (H*W) x C token view rather than transposed to
    B x H x W x C: numpy runs a 4-d matmul as one GEMM per image row, each
    repacking the whole weight, while this view gets one GEMM per batch item.
    The fold is a view for NCHW-contiguous and channels-last maps alike, so
    nothing is copied.
    """
    batch, channels, height, width = x_map.shape
    tokens = T.transpose(T.reshape(x_map, (batch, channels, height * width)), (0, 2, 1))
    y = T.transpose(linear(tokens), (0, 2, 1))
    return T.reshape(y, (batch, y.shape[1], height, width))


def binary_mask_from_logits(logits: Tensor) -> np.ndarray:
    """Argmax over the two-channel axis; equal logits classify as background."""
    return (logits.data[:, 1:2] > logits.data[:, 0:1]).astype(np.float64)


def mae_score(o_err: Tensor) -> Tensor:
    """Scalar predicted-error score: arithmetic mean over every position."""
    return T.mean(o_err)


class DualPurposeDecoder(Module):
    def __init__(self, stage_channels: list[int], cfg: DecoderConfig,
                 rng: np.random.Generator):
        self.cfg = cfg
        self.fuse_linears = [Linear(3 * ch, cfg.ch_prime, rng) for ch in stage_channels]
        self.fuse_all_linear = Linear(4 * cfg.ch_prime, cfg.ch_prime, rng)
        self.fuse_conv = Conv2d(cfg.ch_prime, cfg.ch_double_prime, 3, rng,
                                stride=1, padding=1)
        self.mask_head = Linear(cfg.ch_double_prime, 2, rng)
        self.err_head = Linear(cfg.ch_double_prime + 2, 1, rng)

    def fuse_stage(self, c: Tensor, p: Tensor, r: Tensor,
                   target_h: int, target_w: int, stage: int) -> Tensor:
        """Concat the three branch maps, project to the fusion width, resize."""
        if not (c.shape == p.shape == r.shape):
            raise T.ShapeMismatchError(
                f"stage feature shapes disagree: {c.shape}/{p.shape}/{r.shape}")
        fused = channel_linear(T.concat([c, p, r], axis=1), self.fuse_linears[stage])
        if fused.shape[2:] != (target_h, target_w):
            fused = T.bilinear_resize(fused, target_h, target_w)
        return fused

    def fuse_all(self, fused_stages: list[Tensor]) -> Tensor:
        shapes = {f.shape for f in fused_stages}
        if len(shapes) != 1:
            raise T.ShapeMismatchError(f"fused stage shapes disagree: {sorted(shapes)}")
        f = channel_linear(T.concat(fused_stages, axis=1), self.fuse_all_linear)
        return self.fuse_conv(f)

    def fuse(self, features: PyramidFeatures) -> Tensor:
        """The fused map ``f`` both heads read, on the stage-1 grid."""
        target_h, target_w = features.c[0].shape[2], features.c[0].shape[3]
        return self.fuse_all([self.fuse_stage(features.c[i], features.p[i], features.r[i],
                                              target_h, target_w, i)
                              for i in range(4)])

    def predict_mask(self, f: Tensor, full_h: int, full_w: int):
        """Quarter-resolution logits, the logits at full_h x full_w, and the binary mask."""
        m = channel_linear(f, self.mask_head)
        logits_full = T.bilinear_resize(m, full_h, full_w)
        return m, logits_full, binary_mask_from_logits(logits_full)

    def predict_error(self, f: Tensor, m: Tensor) -> Tensor:
        # The mask logits enter through a stop-gradient boundary so error-branch
        # supervision cannot disturb mask behavior.
        f_prime = T.concat([f, m.detach()], axis=1)
        raw = channel_linear(f_prime, self.err_head)
        if self.cfg.error_target == "absolute":
            return T.sigmoid(raw)
        return T.sigmoid(raw) * 2.0 - 1.0  # 2σ(x) − 1 = tanh(x/2), range (-1, 1)

    def __call__(self, features: PyramidFeatures, full_h: int, full_w: int) -> PredictionPair:
        f = self.fuse(features)
        m, logits_full, o_msk = self.predict_mask(f, full_h, full_w)
        o_err = self.predict_error(f, m)
        return PredictionPair(mask_logits=m, supervision_logits=logits_full,
                              o_msk=o_msk, o_err=o_err, score=mae_score(o_err))
