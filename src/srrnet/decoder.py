"""Dual-purpose decoder: fused mask prediction plus a pixel-wise error estimate.

The twelve pyramid maps are fused stage-by-stage to a common quarter-resolution
grid, combined, and fed to two heads: a two-channel mask head (its logits are
resized to the input extent, where argmax gives the binary mask, ties
classifying as background) and an error head that estimates the per-pixel
deviation of that mask from the unseen ground truth. The spatial mean of the
error map is the frame's predicted-quality score.

Stage ``i`` is fused by ``fuse_linears[i]`` (weight ``W_i``, bias ``b_i``) and
resized to the stage-1 grid; the four maps are concatenated and mixed by
``fuse_all_linear`` (weight ``A``, bias ``b_all``; ``A_i`` is its i-th block of
``ch_prime`` rows). With the gradient tape off and a ``ReferenceSlot`` given,
the chain runs folded instead (structural re-parameterisation, as in RepVGG):

    fuse_all_linear(concat_i resize(x_i W_i + b_i))
        = sum_i resize(x_i W'_i) + b',   W'_i = W_i A_i,   b' = b_all + sum_i b_i A_i

This is exact up to rounding: a channel mix commutes with ``bilinear_resize``,
which mixes positions only, and the resize's interpolation matrices are
row-stochastic, so a per-channel constant such as ``b_i A_i`` passes through
it unchanged. The folded form skips the 4·ch' -> ch' GEMM on every frame.
``W'_i`` and ``b'`` are built once per slot and decoder and kept in the slot;
training, gradient checks and slot-less calls run the factored chain.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import tensor as T
from .backbone import PyramidFeatures, ReferenceSlot
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


def channel_linear(x_map: Tensor, linear: Callable[[Tensor], Tensor]) -> Tensor:
    """Apply a pointwise linear map over the channel axis of a B x C x H x W tensor.

    ``linear`` maps B x N x C tokens to B x N x C' (a ``Linear`` or a bare
    projection).

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

    def folded(self, slot: Optional[ReferenceSlot]) -> Optional[tuple[list[Tensor], Tensor]]:
        """The folded fuse weights ``([W'_i], b')`` kept in ``slot``, built when stale.

        ``None`` (the factored chain runs) without a slot and while the
        gradient tape is on: the folded weights carry no graph, so gradients
        would not reach ``fuse_linears`` or ``fuse_all_linear``. Like the
        reference encoding, the fold assumes the weights do not change while
        the slot is filled.
        """
        if slot is None or T.grad_enabled():
            return None
        if slot.decoder is not self:
            slot.decoder = slot.fold = None  # drop the old fold before building the new one
            slot.fold = self._fold()
            slot.decoder = self
        return slot.fold

    def _fold(self) -> tuple[list[Tensor], Tensor]:
        ch = self.cfg.ch_prime
        a = self.fuse_all_linear.weight.data
        blocks = [a[i * ch:(i + 1) * ch] for i in range(len(self.fuse_linears))]
        weights = [Tensor(lin.weight.data @ a_i) for lin, a_i in zip(self.fuse_linears, blocks)]
        bias = self.fuse_all_linear.bias.data.copy()
        for lin, a_i in zip(self.fuse_linears, blocks):
            bias += lin.bias.data @ a_i
        return weights, Tensor(bias.reshape(1, ch, 1, 1))

    def fuse_stage(self, c: Tensor, p: Tensor, r: Tensor, target_h: int, target_w: int,
                   stage: int, folded_weight: Optional[Tensor] = None) -> Tensor:
        """Concat the three branch maps, project to the fusion width, resize.

        With ``folded_weight`` (``W'_i``) the projection is that bias-free
        matmul, which already holds this stage's share of ``fuse_all_linear``.
        """
        if not (c.shape == p.shape == r.shape):
            raise T.ShapeMismatchError(
                f"stage feature shapes disagree: {c.shape}/{p.shape}/{r.shape}")
        project = (self.fuse_linears[stage] if folded_weight is None
                   else lambda tokens: T.matmul(tokens, folded_weight))
        fused = channel_linear(T.concat([c, p, r], axis=1), project)
        if fused.shape[2:] != (target_h, target_w):
            fused = T.bilinear_resize(fused, target_h, target_w)
        return fused

    def fuse_all(self, fused_stages: list[Tensor],
                 folded_bias: Optional[Tensor] = None) -> Tensor:
        """Mix the fused stages (concat + ``fuse_all_linear``), then ``fuse_conv``.

        With ``folded_bias`` (``b'``) the stages were projected by the folded
        weights, so the mix is their sum plus that bias.
        """
        shapes = {f.shape for f in fused_stages}
        if len(shapes) != 1:
            raise T.ShapeMismatchError(f"fused stage shapes disagree: {sorted(shapes)}")
        if folded_bias is None:
            f = channel_linear(T.concat(fused_stages, axis=1), self.fuse_all_linear)
        else:
            f = fused_stages[0]
            for fused in fused_stages[1:]:
                f = f + fused
            f = f + folded_bias
        return self.fuse_conv(f)

    def fuse(self, features: PyramidFeatures,
             fold: Optional[tuple[list[Tensor], Tensor]] = None) -> Tensor:
        """The fused map ``f`` both heads read, on the stage-1 grid.

        ``fold`` is ``folded(slot)``; without it the factored chain runs.
        """
        target_h, target_w = features.c[0].shape[2], features.c[0].shape[3]
        weights, bias = fold if fold is not None else ([None] * 4, None)
        return self.fuse_all([self.fuse_stage(features.c[i], features.p[i], features.r[i],
                                              target_h, target_w, i, weights[i])
                              for i in range(4)], bias)

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

    def __call__(self, features: PyramidFeatures, full_h: int, full_w: int,
                 slot: Optional[ReferenceSlot] = None) -> PredictionPair:
        """Both heads' outputs; with ``slot`` and the tape off, the fuse chain runs folded."""
        f = self.fuse(features, self.folded(slot))
        m, logits_full, o_msk = self.predict_mask(f, full_h, full_w)
        o_err = self.predict_error(f, m)
        return PredictionPair(mask_logits=m, supervision_logits=logits_full,
                              o_msk=o_msk, o_err=o_err, score=mae_score(o_err))
