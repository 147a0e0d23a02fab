"""Dual-purpose decoder: fused mask prediction plus a pixel-wise error estimate.

The twelve pyramid maps are fused stage-by-stage to a common quarter-resolution
grid, combined, and fed to two heads: a two-channel mask head (its logits are
resized to the input extent, where argmax gives the binary mask, ties
classifying as background) and an error head that estimates the per-pixel
deviation of that mask from the unseen ground truth. The spatial mean of the
error map is the frame's predicted-quality score.

The parameters define a factored chain: stage ``i``'s branch maps
``x_i = [c_i, p_i, r_i]`` are projected by ``fuse_linears[i]`` (weight
``W_i``, bias ``b_i``) and resized by ``R`` to the stage-1 grid; the four
maps are concatenated and mixed by ``fuse_all_linear`` (weight ``A``, bias
``b_all``; ``A_i`` is its i-th block of ``ch_prime`` rows), so
``g = sum_i R(x_i W_i + b_i) A_i + b_all``; ``fuse_conv`` (3x3 kernel ``K``,
bias ``k``, zero padding) gives ``f = K * pad(g) + k``; the mask head gives
``m = f M + b_m`` and the error head reads ``[f, m]`` with ``m`` behind a
stop-gradient, ``raw = f E_f + m E_m + b_e``; only the sigmoid on ``raw``,
the argmax on the resized ``m`` and the stop-gradient are not linear.

Every call computes that chain collapsed to one 27-channel map per stage
(structural re-parameterisation: sequential linear merging as in RepVGG and
Diverse Branch Block), built from the parameters in ``tensor`` ops, so with
the gradient tape on the collapse is differentiable back to every parameter.

1. Merge the heads, all but the stop-gradient term:

       [m, raw_f] = f H + h,   H = [M, E_f]   (ch'' x 3),   h = [b_m, b_e],

   and ``H`` multiplies into ``fuse_conv``:
   ``[m, raw_f] = K3 * pad(g) + (k H + h)`` with ``K3 = K H``, a 3x3 conv
   from ``ch_prime`` channels to 3. ``m E_m`` stays outside the merge and is
   added to ``raw_f`` from ``m`` detached: merged into ``H`` it would carry
   the error loss's gradient into the mask head through ``M``.

2. Push the taps into the stages. Tap ``t = 3 ky + kx`` of ``K3`` is a
   ``ch_prime`` x 3 matrix ``Theta_t``; stacked, ``Theta`` is ``ch_prime`` x 27.
   A conv is the shift-add of its taps applied pointwise,
   ``(K3 * pad(g))(y, x) = sum_t (pad(g) Theta_t)(y + ky - 1, x + kx - 1)``,
   and ``pad(g) Theta = pad(g Theta)`` because a channel mix maps the zero
   border to zero. A channel mix commutes with ``R``, which mixes positions
   only, and ``R``'s interpolation matrices are row-stochastic, so a
   per-channel constant passes through it unchanged. Hence

       g Theta = sum_i R(x_i V_i) + beta,   V_i = W_i (A_i Theta)   (3 ch_i x 27),
       beta = (b_all + sum_i b_i A_i) Theta.

   ``A_i Theta`` is formed first, so the ``3 ch_i`` x ``ch_prime`` product
   ``W_i A_i`` never is. ``beta`` is added before the zero padding: the
   border of ``pad(g Theta)`` is zero, not ``beta``.

Each call projects every stage to 27 channels and resizes it
(``fuse_stage``); sums the four maps and adds ``beta``, then one 3x3 conv
with the constant 0/1 kernel ``SHIFT_ADD`` pads, shift-adds the nine taps and
adds ``k H + h`` (``fuse_all``), giving the two mask-logit channels
(``predict_mask``) and ``raw_f``, to which ``predict_error`` adds ``m E_m``.
This is exact up to rounding.

The collapse (``V_i``, ``beta``, ``k H + h``) is ``collapse()``. A call
builds it unless it is given one, so a training step or a parameter written
in place is always seen; an inference session builds it once and passes it
in (``model.SRRNet`` keeps it, and decides when it is stale).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import tensor as T
from .backbone import PyramidFeatures
from .nn import Conv2d, Linear, Module
from .tensor import ConfigurationError, Tensor

ERROR_TARGETS = ("absolute", "signed")
TAPS = 9  # taps of the 3x3 fuse_conv


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
    """Decoder output: mask logits, binary mask, error map, scalar score.

    ``o_msk`` is bool, one byte a pixel; mixed with a float64 operand it reads
    as exactly 0.0 and 1.0. ``error_target`` is the decoder's own, so the
    loss supervises ``o_err`` toward the target its head was built for.
    """

    mask_logits: Tensor         # B x 2 x (H/4) x (W/4)
    supervision_logits: Tensor  # B x 2 x H x W, mask_logits resized to the input
    o_msk: np.ndarray           # B x 1 x H x W bool
    o_err: Tensor               # B x 1 x (H/4) x (W/4), in (0, 1), or (-1, 1) if signed
    score: Tensor               # scalar, spatial mean of |o_err|
    error_target: str           # one of ERROR_TARGETS

    @property
    def score_value(self) -> float:
        return float(self.score.data)


@dataclass
class DecoderCollapse:
    """The decoder collapsed to one 27-channel map per stage (see above)."""

    stage_maps: list   # V_i per stage, a 3·ch_i x 27 Tensor; column 3 t + o is tap t, output o
    tap_bias: Tensor   # beta, 1 x 27 x 1 x 1, added before the zero padding
    out_bias: Tensor   # k H + h, 3 entries


# SHIFT_ADD[o, 3 t + q, ky, kx] = [o == q][t == 3 ky + kx]: a padded 3x3 conv by it
# sums, for output o, tap t's channel shifted by (ky - 1, kx - 1)
SHIFT_ADD = Tensor(np.einsum("oq,tyx->otqyx", np.eye(3), np.eye(TAPS).reshape(TAPS, 3, 3))
                   .reshape(3, TAPS * 3, 3, 3))


def channel_linear(x_map: Tensor, weight: Tensor) -> Tensor:
    """Multiply the channel axis of a B x C x H x W tensor by a C x C' weight matrix.

    The map is folded to a B x (H*W) x C token view rather than transposed to
    B x H x W x C: numpy runs a 4-d matmul as one GEMM per image row, each
    repacking the whole weight, while this view gets one GEMM per batch item.
    The fold is a view for NCHW-contiguous and channels-last maps alike, so
    nothing is copied.
    """
    batch, channels, height, width = x_map.shape
    tokens = T.transpose(T.reshape(x_map, (batch, channels, height * width)), (0, 2, 1))
    y = T.transpose(T.matmul(tokens, weight), (0, 2, 1))
    return T.reshape(y, (batch, y.shape[1], height, width))


def binary_mask_from_logits(logits: Tensor) -> np.ndarray:
    """Argmax over the two-channel axis as a B x 1 x H x W bool array.

    Equal logits classify as background. The mask stays bool rather than
    uint8 because ``bool - bool`` raises where ``uint8 - uint8`` would wrap.
    """
    return logits.data[:, 1:2] > logits.data[:, 0:1]


def mae_score(o_err: Tensor) -> Tensor:
    """Scalar predicted MAE: the mean of ``|o_err|`` over every position.

    A signed map's plain mean would rank the frame predicted to over-segment
    most as the best; an absolute map is positive, so its score is its mean.
    The score selects the reference and is never trained, so it is off the tape.
    """
    return Tensor(np.abs(o_err.data).mean())


def _row(bias: Tensor) -> Tensor:
    """A bias vector as a 1 x n matrix."""
    return T.reshape(bias, (1, bias.shape[0]))


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

    def collapse(self) -> DecoderCollapse:
        """The decoder collapsed from its parameters, in tensor ops (see above)."""
        ch, ch2 = self.cfg.ch_prime, self.cfg.ch_double_prime
        heads = T.concat([self.mask_head.weight, T.narrow(self.err_head.weight, 0, 0, ch2)],
                         axis=1)
        # theta[c, 3 t + o] = sum_j K[j, c, ky, kx] H[j, o] with t = 3 ky + kx
        kernel = T.transpose(T.reshape(self.fuse_conv.weight, (ch2, ch * TAPS)), (1, 0))
        theta = T.reshape(T.matmul(kernel, heads), (ch, TAPS * 3))
        mix_theta = T.matmul(self.fuse_all_linear.weight, theta)  # the A_i Theta, stacked
        beta = T.matmul(_row(self.fuse_all_linear.bias), theta)
        stage_maps = []
        for i, lin in enumerate(self.fuse_linears):
            block = T.narrow(mix_theta, 0, i * ch, ch)
            stage_maps.append(T.matmul(lin.weight, block))
            beta = beta + T.matmul(_row(lin.bias), block)
        out_bias = (T.matmul(_row(self.fuse_conv.bias), heads)
                    + T.concat([_row(self.mask_head.bias), _row(self.err_head.bias)], axis=1))
        return DecoderCollapse(stage_maps, T.reshape(beta, (1, TAPS * 3, 1, 1)),
                               T.reshape(out_bias, (3,)))

    def fuse_stage(self, c: Tensor, p: Tensor, r: Tensor, target_h: int, target_w: int,
                   stage: int, collapse: DecoderCollapse) -> Tensor:
        """Concat the three branch maps, project them by ``V_i`` to the 27 tap channels, resize."""
        if not (c.shape == p.shape == r.shape):
            raise T.ShapeMismatchError(
                f"stage feature shapes disagree: {c.shape}/{p.shape}/{r.shape}")
        fused = channel_linear(T.concat([c, p, r], axis=1), collapse.stage_maps[stage])
        if fused.shape[2:] != (target_h, target_w):
            fused = T.bilinear_resize(fused, target_h, target_w)
        return fused

    def fuse_all(self, fused_stages: list[Tensor], collapse: DecoderCollapse) -> Tensor:
        """Sum the fused stages plus ``beta``, then pad and shift-add the taps: ``[m, raw_f]``."""
        shapes = {f.shape for f in fused_stages}
        if len(shapes) != 1:
            raise T.ShapeMismatchError(f"fused stage shapes disagree: {sorted(shapes)}")
        z = fused_stages[0] + collapse.tap_bias
        for fused in fused_stages[1:]:
            z = z + fused
        return T.conv2d(z, SHIFT_ADD, collapse.out_bias, padding=1)

    def fuse(self, features: PyramidFeatures, collapse: DecoderCollapse) -> Tensor:
        """The heads' linear outputs ``[m, raw_f]`` on the stage-1 grid."""
        target_h, target_w = features.c[0].shape[2], features.c[0].shape[3]
        return self.fuse_all([self.fuse_stage(features.c[i], features.p[i], features.r[i],
                                              target_h, target_w, i, collapse)
                              for i in range(4)], collapse)

    def predict_mask(self, f: Tensor, full_h: int, full_w: int):
        """Quarter-resolution logits, the logits at full_h x full_w, and the binary mask."""
        m = T.narrow(f, 1, 0, 2)
        logits_full = T.bilinear_resize(m, full_h, full_w)
        return m, logits_full, binary_mask_from_logits(logits_full)

    def predict_error(self, f: Tensor, m: Tensor) -> Tensor:
        """The error map from ``raw_f`` in ``f`` plus ``m E_m``.

        The mask logits enter through a stop-gradient boundary so error-branch
        supervision cannot disturb mask behavior.
        """
        err_mask = T.narrow(self.err_head.weight, 0, self.cfg.ch_double_prime, 2)
        raw = T.narrow(f, 1, 2, 1) + channel_linear(m.detach(), err_mask)
        if self.cfg.error_target == "absolute":
            return T.sigmoid(raw)
        return T.sigmoid(raw) * 2.0 - 1.0  # 2σ(x) − 1 = tanh(x/2), range (-1, 1)

    def __call__(self, features: PyramidFeatures, full_h: int, full_w: int,
                 collapse: Optional[DecoderCollapse] = None) -> PredictionPair:
        """Both heads' outputs, through ``collapse`` or, without one, a new ``collapse()``."""
        f = self.fuse(features, collapse if collapse is not None else self.collapse())
        m, logits_full, o_msk = self.predict_mask(f, full_h, full_w)
        o_err = self.predict_error(f, m)
        return PredictionPair(mask_logits=m, supervision_logits=logits_full,
                              o_msk=o_msk, o_err=o_err, score=mae_score(o_err),
                              error_target=self.cfg.error_target)
