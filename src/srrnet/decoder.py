"""Dual-purpose decoder: fused mask prediction plus a pixel-wise error estimate.

The twelve pyramid maps are fused stage-by-stage to a common quarter-resolution
grid, combined, and fed to two heads: a two-channel mask head (its logits are
resized to the input extent, where argmax gives the binary mask, ties
classifying as background) and an error head that estimates the per-pixel
deviation of that mask from the unseen ground truth. The spatial mean of the
error map is the frame's predicted-quality score.

The factored chain, which training, gradient checks and slot-less calls run:
stage ``i``'s branch maps ``x_i = [c_i, p_i, r_i]`` are projected by
``fuse_linears[i]`` (weight ``W_i``, bias ``b_i``) and resized by ``R`` to the
stage-1 grid; the four maps are concatenated and mixed by ``fuse_all_linear``
(weight ``A``, bias ``b_all``; ``A_i`` is its i-th block of ``ch_prime``
rows), so ``g = sum_i R(x_i W_i + b_i) A_i + b_all``; ``fuse_conv`` (3x3
kernel ``K``, bias ``k``, zero padding) gives ``f = K * pad(g) + k``; the mask
head gives ``m = f M + b_m`` and the error head reads ``[f, m]`` through a
stop-gradient, ``raw = f E_f + m E_m + b_e``; only the sigmoid on ``raw`` and
the argmax on the resized ``m`` are not linear.

With the gradient tape off and a ``ReferenceSlot`` given, the decoder runs the
same chain collapsed to one 27-channel map per stage (structural
re-parameterisation: sequential linear merging as in RepVGG and Diverse
Branch Block), built in two steps.

1. Merge the heads. Substituting ``m`` into ``raw``,

       [m, raw] = f H + h,   H = [M, E_f + M E_m]   (ch'' x 3),
                             h = [b_m, b_m E_m + b_e],

   and ``H`` multiplies into ``fuse_conv``:
   ``[m, raw] = K3 * pad(g) + (k H + h)`` with ``K3 = K H``, a 3x3 conv from
   ``ch_prime`` channels to 3.

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

Each frame then projects every stage to 27 channels and resizes it
(``fuse_stage``), sums the four maps, adds ``beta``, pads, shift-adds the nine
taps and adds ``k H + h`` (``fuse_all``), giving the two mask-logit channels
(``predict_mask``) and the raw error channel (``predict_error``). This is
exact up to rounding. ``V_i``, ``beta`` and ``k H + h`` are built once per
slot, decoder and weights generation and kept in the slot.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import tensor as T
from .backbone import PyramidFeatures, ReferenceSlot
from .nn import Conv2d, Linear, Module, weights_key
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
    """Decoder output: mask logits, binary mask, error map, scalar score."""

    mask_logits: Tensor         # B x 2 x (H/4) x (W/4)
    supervision_logits: Tensor  # B x 2 x H x W, mask_logits resized to the input
    o_msk: np.ndarray           # B x 1 x H x W, values in {0, 1}
    o_err: Tensor               # B x 1 x (H/4) x (W/4), in (0, 1), or (-1, 1) if signed
    score: Tensor               # scalar, spatial mean of o_err

    @property
    def score_value(self) -> float:
        return float(self.score.data)


@dataclass
class DecoderCollapse:
    """The inference decoder collapsed to one 27-channel map per stage (see above)."""

    stage_maps: list       # V_i per stage, a 3·ch_i x 27 Tensor; column 3 t + o is tap t, output o
    tap_bias: np.ndarray   # beta, 1 x 27 x 1 x 1, added before the zero padding
    out_bias: np.ndarray   # k H + h, 1 x 3 x 1 x 1


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

    def collapsed(self, slot: Optional[ReferenceSlot]) -> Optional[DecoderCollapse]:
        """The collapsed decoder kept in ``slot``, built when stale.

        ``None`` (the factored chain runs) without a slot and while the
        gradient tape is on: the collapsed weights carry no graph, so
        gradients would not reach the decoder's parameters. The collapse is
        stale when another decoder built it or the weights generation moved on.
        """
        if slot is None or T.grad_enabled():
            return None
        key = weights_key(self)
        if slot.collapse_key != key:
            slot.collapse_key = slot.collapse = None  # drop the old collapse before building
            slot.collapse = self._collapse()
            slot.collapse_key = key
        return slot.collapse

    def _collapse(self) -> DecoderCollapse:
        ch = self.cfg.ch_prime
        mask_w, mask_b = self.mask_head.weight.data, self.mask_head.bias.data
        err_w, err_b = self.err_head.weight.data, self.err_head.bias.data
        err_f, err_m = err_w[:self.cfg.ch_double_prime], err_w[self.cfg.ch_double_prime:]
        heads = np.concatenate([mask_w, err_f + mask_w @ err_m], axis=1)
        head_bias = np.concatenate([mask_b, mask_b @ err_m + err_b])
        # theta[c, 3 t + o] = sum_j K[j, c, ky, kx] H[j, o] with t = 3 ky + kx
        kernel = self.fuse_conv.weight.data
        theta = np.einsum("jcyx,jo->cyxo", kernel, heads).reshape(ch, TAPS * 3)
        mix_theta = self.fuse_all_linear.weight.data @ theta  # the A_i Theta, stacked
        beta = self.fuse_all_linear.bias.data @ theta
        stage_maps = []
        for i, lin in enumerate(self.fuse_linears):
            block = mix_theta[i * ch:(i + 1) * ch]
            stage_maps.append(Tensor(lin.weight.data @ block))
            beta = beta + lin.bias.data @ block
        out_bias = self.fuse_conv.bias.data @ heads + head_bias
        return DecoderCollapse(stage_maps, beta.reshape(1, TAPS * 3, 1, 1),
                               out_bias.reshape(1, 3, 1, 1))

    def fuse_stage(self, c: Tensor, p: Tensor, r: Tensor, target_h: int, target_w: int,
                   stage: int, collapse: Optional[DecoderCollapse] = None) -> Tensor:
        """Concat the three branch maps, project to the fusion width, resize.

        With ``collapse`` the projection is the bias-free matmul by ``V_i``, to
        the 27 tap channels.
        """
        if not (c.shape == p.shape == r.shape):
            raise T.ShapeMismatchError(
                f"stage feature shapes disagree: {c.shape}/{p.shape}/{r.shape}")
        project = (self.fuse_linears[stage] if collapse is None
                   else lambda tokens: T.matmul(tokens, collapse.stage_maps[stage]))
        fused = channel_linear(T.concat([c, p, r], axis=1), project)
        if fused.shape[2:] != (target_h, target_w):
            fused = T.bilinear_resize(fused, target_h, target_w)
        return fused

    def fuse_all(self, fused_stages: list[Tensor],
                 collapse: Optional[DecoderCollapse] = None) -> Tensor:
        """Mix the fused stages (concat + ``fuse_all_linear``), then ``fuse_conv``.

        With ``collapse`` the stages hold the 27 tap channels: their sum plus
        ``beta`` is zero-padded and its nine taps shift-added, plus ``k H + h``,
        which gives the 3-channel map ``[m, raw]`` in place of ``f``.
        """
        shapes = {f.shape for f in fused_stages}
        if len(shapes) != 1:
            raise T.ShapeMismatchError(f"fused stage shapes disagree: {sorted(shapes)}")
        if collapse is None:
            f = channel_linear(T.concat(fused_stages, axis=1), self.fuse_all_linear)
            return self.fuse_conv(f)
        batch, _, height, width = fused_stages[0].shape
        z = fused_stages[0].data + collapse.tap_bias
        for fused in fused_stages[1:]:
            z += fused.data
        padded = np.zeros((batch, TAPS, 3, height + 2, width + 2))
        padded[..., 1:height + 1, 1:width + 1] = z.reshape(batch, TAPS, 3, height, width)
        out = np.broadcast_to(collapse.out_bias, (batch, 3, height, width)).copy()
        for t in range(TAPS):
            ky, kx = divmod(t, 3)
            out += padded[:, t, :, ky:ky + height, kx:kx + width]
        return Tensor(out)

    def fuse(self, features: PyramidFeatures,
             collapse: Optional[DecoderCollapse] = None) -> Tensor:
        """The fused map both heads read, on the stage-1 grid.

        Factored, that is ``f``; with ``collapse`` it is the heads' linear
        outputs ``[m, raw]``.
        """
        target_h, target_w = features.c[0].shape[2], features.c[0].shape[3]
        return self.fuse_all([self.fuse_stage(features.c[i], features.p[i], features.r[i],
                                              target_h, target_w, i, collapse)
                              for i in range(4)], collapse)

    def predict_mask(self, f: Tensor, full_h: int, full_w: int,
                     collapse: Optional[DecoderCollapse] = None):
        """Quarter-resolution logits, the logits at full_h x full_w, and the binary mask.

        With ``collapse``, ``f`` is the collapsed ``[m, raw]`` map and the
        logits are its first two channels.
        """
        m = channel_linear(f, self.mask_head) if collapse is None else T.narrow(f, 1, 0, 2)
        logits_full = T.bilinear_resize(m, full_h, full_w)
        return m, logits_full, binary_mask_from_logits(logits_full)

    def predict_error(self, f: Tensor, m: Tensor,
                      collapse: Optional[DecoderCollapse] = None) -> Tensor:
        """The error map; with ``collapse``, ``f`` is ``[m, raw]`` and ``m`` is not read."""
        if collapse is None:
            # The mask logits enter through a stop-gradient boundary so
            # error-branch supervision cannot disturb mask behavior.
            raw = channel_linear(T.concat([f, m.detach()], axis=1), self.err_head)
        else:
            raw = T.narrow(f, 1, 2, 1)
        if self.cfg.error_target == "absolute":
            return T.sigmoid(raw)
        return T.sigmoid(raw) * 2.0 - 1.0  # 2σ(x) − 1 = tanh(x/2), range (-1, 1)

    def __call__(self, features: PyramidFeatures, full_h: int, full_w: int,
                 slot: Optional[ReferenceSlot] = None) -> PredictionPair:
        """Both heads' outputs; with ``slot`` and the tape off, the decoder runs collapsed."""
        collapse = self.collapsed(slot)
        f = self.fuse(features, collapse)
        m, logits_full, o_msk = self.predict_mask(f, full_h, full_w, collapse)
        o_err = self.predict_error(f, m, collapse)
        return PredictionPair(mask_logits=m, supervision_logits=logits_full,
                              o_msk=o_msk, o_err=o_err, score=mae_score(o_err))
