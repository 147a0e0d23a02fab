"""Three-branch asymmetric attention blocks.

Each block processes current-frame (C), previous-frame (P) and reference-frame
(R) token streams. After per-branch self-attention, a cross stage lets
information flow strictly R -> P -> C: R attends only to itself, P attends to
the concatenated P/R keys, and C attends to the concatenation of all three.
P and R share one weight set; C has its own.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .nn import Conv2d, LayerNorm, Linear, Mlp, Module
from .tensor import ConfigurationError, Tensor

ATTENTION_MODES = ("rma", "self_only", "motion_only", "full")


@dataclass
class AttentionConfig:
    heads: int
    head_dim: int
    sr_ratio: int = 1
    mlp_ratio: float = 4.0

    def __post_init__(self):
        if self.heads < 1 or self.head_dim < 1:
            raise ConfigurationError(f"heads/head_dim must be positive: {self.heads}/{self.head_dim}")
        if self.sr_ratio < 1 or (self.sr_ratio & (self.sr_ratio - 1)) != 0:
            raise ConfigurationError(f"sr_ratio must be a power of two, got {self.sr_ratio}")
        if self.mlp_ratio < 1:
            raise ConfigurationError(f"mlp_ratio must be >= 1, got {self.mlp_ratio}")

    @property
    def channels(self) -> int:
        return self.heads * self.head_dim


@dataclass
class BranchTokens:
    """Token matrices for the three branches plus their shared spatial extent."""

    c: Tensor  # B x N x Ch
    p: Tensor
    r: Tensor
    h: int
    w: int

    def __post_init__(self):
        if not (self.c.shape == self.p.shape == self.r.shape):
            raise T.ShapeMismatchError(
                f"branch token shapes disagree: {self.c.shape}/{self.p.shape}/{self.r.shape}")
        if self.h * self.w != self.c.shape[1]:
            raise T.ShapeMismatchError(
                f"spatial extent {self.h}x{self.w} does not match token count {self.c.shape[1]}")


def scaled_dot_attention(q: Tensor, k: Tensor, v: Tensor, heads: int,
                         proj: Linear | None = None) -> Tensor:
    """Multi-head softmax(QK^T / sqrt(d))V with merged heads, optionally projected."""
    batch, n_q, channels = q.shape
    n_k = k.shape[1]
    if n_k == 0:
        raise ValueError("attention requires at least one key/value row")
    if channels % heads != 0:
        raise T.ShapeMismatchError(f"channels {channels} not divisible by heads {heads}")
    if k.shape != v.shape or k.shape[-1] != channels:
        raise T.ShapeMismatchError(f"key/value shapes disagree with query: {k.shape}/{v.shape} vs {q.shape}")
    head_dim = channels // heads

    def split(x, n):
        return T.transpose(T.reshape(x, (batch, n, heads, head_dim)), (0, 2, 1, 3))

    qh = split(q, n_q)
    kh = split(k, n_k)
    vh = split(v, n_k)
    scores = T.matmul(qh, T.transpose(kh, (0, 1, 3, 2)))
    attn = T.softmax(scores, axis=-1, scale=1.0 / math.sqrt(head_dim))
    out = T.matmul(attn, vh)
    out = T.reshape(T.transpose(out, (0, 2, 1, 3)), (batch, n_q, channels))
    return proj(out) if proj is not None else out


def build_joint_kv(k_c, v_c, k_p, v_p, k_r, v_r):
    """Concatenate per-branch key/value rows into the joint sets.

    K_u/V_u stack P then R rows; K_w/V_w stack C, P, R rows in that order.
    """
    k_u = T.concat([k_p, k_r], axis=1)
    v_u = T.concat([v_p, v_r], axis=1)
    k_w = T.concat([k_c, k_p, k_r], axis=1)
    v_w = T.concat([v_c, v_p, v_r], axis=1)
    return k_u, v_u, k_w, v_w


class BranchWeights(Module):
    """All learnable state for one branch weight set of a block.

    The cross stage reuses the self-attention ``q``/``k``/``v`` projections.
    """

    def __init__(self, cfg: AttentionConfig, rng: np.random.Generator):
        ch = cfg.channels
        self.norm1 = LayerNorm(ch)
        self.q = Linear(ch, ch, rng)
        self.k = Linear(ch, ch, rng)
        self.v = Linear(ch, ch, rng)
        self.proj = Linear(ch, ch, rng)
        self.norm_cross = LayerNorm(ch)
        self.proj_cross = Linear(ch, ch, rng)
        self.norm2 = LayerNorm(ch)
        self.mlp = Mlp(ch, int(round(ch * cfg.mlp_ratio)), rng)
        if cfg.sr_ratio > 1:
            self.sr = Conv2d(ch, ch, cfg.sr_ratio, rng, stride=cfg.sr_ratio)
            self.sr_norm = LayerNorm(ch)


class RMABlock(Module):
    """One pre-norm residual block: self-attention, asymmetric cross stage, MLP.

    Outside ``full`` mode the R branch never reads C or P, so the block splits
    into ``reference_step`` (R alone, returning the keys/values R exposes to
    the cross stage) and ``current_step`` (C and P against those keys/values).
    ``__call__`` composes the two, so a caller may run ``reference_step`` once
    and reuse its result for any number of current/previous inputs.
    """

    def __init__(self, cfg: AttentionConfig, rng: np.random.Generator,
                 mode: str = "rma"):
        if mode not in ATTENTION_MODES:
            raise ConfigurationError(f"unknown attention mode {mode!r}; expected one of {ATTENTION_MODES}")
        self.cfg = cfg
        self.mode = mode
        self.cur = BranchWeights(cfg, rng)
        self.ref = BranchWeights(cfg, rng)

    def _reduce(self, x: Tensor, weights: BranchWeights, h: int, w: int) -> Tensor:
        """Spatially downsample key/value tokens when sr_ratio > 1."""
        if self.cfg.sr_ratio == 1:
            return x
        batch, _, ch = x.shape
        m = T.transpose(T.reshape(x, (batch, h, w, ch)), (0, 3, 1, 2))
        m = weights.sr(m)
        _, _, rh, rw = m.shape
        tokens = T.reshape(T.transpose(m, (0, 2, 3, 1)), (batch, rh * rw, ch))
        return weights.sr_norm(tokens)

    def _self_attend(self, x: Tensor, weights: BranchWeights, h: int, w: int) -> Tensor:
        y = weights.norm1(x)
        kv = self._reduce(y, weights, h, w)
        out = scaled_dot_attention(weights.q(y), weights.k(kv), weights.v(kv),
                                   self.cfg.heads, proj=weights.proj)
        return x + out

    def _cross_qkv(self, x: Tensor, weights: BranchWeights, h: int, w: int):
        """Cross-stage queries and (reduced) keys/values of one branch."""
        xn = weights.norm_cross(x)
        kv = self._reduce(xn, weights, h, w)
        return weights.q(xn), weights.k(kv), weights.v(kv)

    def _mlp(self, x: Tensor, weights: BranchWeights) -> Tensor:
        return x + weights.mlp(weights.norm2(x))

    def _reference_cross(self, r: Tensor, h: int, w: int):
        """R's cross output (projected, pre-residual) and its cross keys/values."""
        q_r, k_r, v_r = self._cross_qkv(r, self.ref, h, w)
        a_r = scaled_dot_attention(q_r, k_r, v_r, self.cfg.heads, proj=self.ref.proj_cross)
        return a_r, k_r, v_r

    def _current_cross(self, c: Tensor, p: Tensor, k_r: Tensor, v_r: Tensor,
                       h: int, w: int) -> tuple[Tensor, Tensor]:
        """C and P cross outputs (projected, pre-residual) against R's keys/values.

        ``rma`` gives P the P+R set and C the C+P+R set; ``motion_only``
        drops R, giving P itself and C the C+P set.
        """
        heads = self.cfg.heads
        q_c, k_c, v_c = self._cross_qkv(c, self.cur, h, w)
        q_p, k_p, v_p = self._cross_qkv(p, self.ref, h, w)
        if self.mode == "motion_only":
            a_c = scaled_dot_attention(q_c, T.concat([k_c, k_p], axis=1),
                                       T.concat([v_c, v_p], axis=1), heads)
            a_p = scaled_dot_attention(q_p, k_p, v_p, heads)
        else:  # rma
            k_u, v_u, k_w, v_w = build_joint_kv(k_c, v_c, k_p, v_p, k_r, v_r)
            a_p = scaled_dot_attention(q_p, k_u, v_u, heads)
            a_c = scaled_dot_attention(q_c, k_w, v_w, heads)
        return self.cur.proj_cross(a_c), self.ref.proj_cross(a_p)

    def attend_cross(self, tokens: BranchTokens) -> tuple[Tensor, Tensor, Tensor]:
        """Cross-stage attention outputs (A_C, A_P, A_R), pre-residual.

        The default mode gives R self-only keys, P the P+R set, and C the
        full C+P+R set; ``full`` gives every branch the joint C+P+R set.
        """
        h, w, heads = tokens.h, tokens.w, self.cfg.heads
        if self.mode != "full":
            a_r, k_r, v_r = self._reference_cross(tokens.r, h, w)
            a_c, a_p = self._current_cross(tokens.c, tokens.p, k_r, v_r, h, w)
            return a_c, a_p, a_r
        q_c, k_c, v_c = self._cross_qkv(tokens.c, self.cur, h, w)
        q_p, k_p, v_p = self._cross_qkv(tokens.p, self.ref, h, w)
        q_r, k_r, v_r = self._cross_qkv(tokens.r, self.ref, h, w)
        _, _, k_w, v_w = build_joint_kv(k_c, v_c, k_p, v_p, k_r, v_r)
        return (scaled_dot_attention(q_c, k_w, v_w, heads, proj=self.cur.proj_cross),
                scaled_dot_attention(q_p, k_w, v_w, heads, proj=self.ref.proj_cross),
                scaled_dot_attention(q_r, k_w, v_w, heads, proj=self.ref.proj_cross))

    def reference_step(self, r: Tensor, h: int, w: int):
        """Run the R branch alone: ``(r_out, k_r, v_r)``.

        ``k_r``/``v_r`` are the keys/values R exposes to the cross stage
        (``None`` in ``self_only`` mode). Not defined in ``full`` mode, where
        R attends to C and P.
        """
        if self.mode == "full":
            raise ConfigurationError("full attention mode has no separable reference step")
        r = self._self_attend(r, self.ref, h, w)
        k_r = v_r = None
        if self.mode != "self_only":
            a_r, k_r, v_r = self._reference_cross(r, h, w)
            r = r + a_r
        return self._mlp(r, self.ref), k_r, v_r

    def current_step(self, c: Tensor, p: Tensor, k_r: Tensor | None, v_r: Tensor | None,
                     h: int, w: int) -> tuple[Tensor, Tensor]:
        """Run the C and P branches against R's cross keys/values from ``reference_step``."""
        c = self._self_attend(c, self.cur, h, w)
        p = self._self_attend(p, self.ref, h, w)
        if self.mode != "self_only":
            a_c, a_p = self._current_cross(c, p, k_r, v_r, h, w)
            c = c + a_c
            p = p + a_p
        return self._mlp(c, self.cur), self._mlp(p, self.ref)

    def __call__(self, tokens: BranchTokens) -> BranchTokens:
        h, w = tokens.h, tokens.w
        if self.mode != "full":
            r, k_r, v_r = self.reference_step(tokens.r, h, w)
            c, p = self.current_step(tokens.c, tokens.p, k_r, v_r, h, w)
            return BranchTokens(c, p, r, h, w)
        c = self._self_attend(tokens.c, self.cur, h, w)
        p = self._self_attend(tokens.p, self.ref, h, w)
        r = self._self_attend(tokens.r, self.ref, h, w)
        a_c, a_p, a_r = self.attend_cross(BranchTokens(c, p, r, h, w))
        return BranchTokens(self._mlp(c + a_c, self.cur), self._mlp(p + a_p, self.ref),
                            self._mlp(r + a_r, self.ref), h, w)
