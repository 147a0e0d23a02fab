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
    share_cross_qkv: bool = True

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
    """All learnable state for one branch weight set of a block."""

    def __init__(self, cfg: AttentionConfig, rng: np.random.Generator):
        ch = cfg.channels
        self.norm1 = LayerNorm(ch)
        self.q = Linear(ch, ch, rng)
        self.k = Linear(ch, ch, rng)
        self.v = Linear(ch, ch, rng)
        self.proj = Linear(ch, ch, rng)
        self.norm_cross = LayerNorm(ch)
        if not cfg.share_cross_qkv:
            self.q_cross = Linear(ch, ch, rng)
            self.k_cross = Linear(ch, ch, rng)
            self.v_cross = Linear(ch, ch, rng)
        self.proj_cross = Linear(ch, ch, rng)
        self.norm2 = LayerNorm(ch)
        self.mlp = Mlp(ch, int(round(ch * cfg.mlp_ratio)), rng)
        if cfg.sr_ratio > 1:
            self.sr = Conv2d(ch, ch, cfg.sr_ratio, rng, stride=cfg.sr_ratio)
            self.sr_norm = LayerNorm(ch)

    def cross_q(self, cfg: AttentionConfig):
        return self.q if cfg.share_cross_qkv else self.q_cross

    def cross_k(self, cfg: AttentionConfig):
        return self.k if cfg.share_cross_qkv else self.k_cross

    def cross_v(self, cfg: AttentionConfig):
        return self.v if cfg.share_cross_qkv else self.v_cross


class RMABlock(Module):
    """One pre-norm residual block: self-attention, asymmetric cross stage, MLP."""

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

    def attend_cross(self, tokens: BranchTokens) -> tuple[Tensor, Tensor, Tensor]:
        """Cross-stage attention outputs (A_C, A_P, A_R), pre-residual.

        The joint key/value construction depends on the mode: the default
        gives R self-only keys, P the P+R set, and C the full C+P+R set.
        """
        cfg = self.cfg
        cn = self.cur.norm_cross(tokens.c)
        pn = self.ref.norm_cross(tokens.p)
        rn = self.ref.norm_cross(tokens.r)
        c_kv = self._reduce(cn, self.cur, tokens.h, tokens.w)
        p_kv = self._reduce(pn, self.ref, tokens.h, tokens.w)
        r_kv = self._reduce(rn, self.ref, tokens.h, tokens.w)
        k_c, v_c = self.cur.cross_k(cfg)(c_kv), self.cur.cross_v(cfg)(c_kv)
        k_p, v_p = self.ref.cross_k(cfg)(p_kv), self.ref.cross_v(cfg)(p_kv)
        k_r, v_r = self.ref.cross_k(cfg)(r_kv), self.ref.cross_v(cfg)(r_kv)
        q_c = self.cur.cross_q(cfg)(cn)
        q_p = self.ref.cross_q(cfg)(pn)
        q_r = self.ref.cross_q(cfg)(rn)

        if self.mode == "motion_only":
            a_c = scaled_dot_attention(q_c, T.concat([k_c, k_p], axis=1),
                                       T.concat([v_c, v_p], axis=1), cfg.heads)
            a_p = scaled_dot_attention(q_p, k_p, v_p, cfg.heads)
            a_r = scaled_dot_attention(q_r, k_r, v_r, cfg.heads)
        elif self.mode == "full":
            _, _, k_w, v_w = build_joint_kv(k_c, v_c, k_p, v_p, k_r, v_r)
            a_c = scaled_dot_attention(q_c, k_w, v_w, cfg.heads)
            a_p = scaled_dot_attention(q_p, k_w, v_w, cfg.heads)
            a_r = scaled_dot_attention(q_r, k_w, v_w, cfg.heads)
        else:  # rma
            k_u, v_u, k_w, v_w = build_joint_kv(k_c, v_c, k_p, v_p, k_r, v_r)
            a_r = scaled_dot_attention(q_r, k_r, v_r, cfg.heads)
            a_p = scaled_dot_attention(q_p, k_u, v_u, cfg.heads)
            a_c = scaled_dot_attention(q_c, k_w, v_w, cfg.heads)
        return (self.cur.proj_cross(a_c), self.ref.proj_cross(a_p), self.ref.proj_cross(a_r))

    def __call__(self, tokens: BranchTokens) -> BranchTokens:
        h, w = tokens.h, tokens.w
        c = self._self_attend(tokens.c, self.cur, h, w)
        p = self._self_attend(tokens.p, self.ref, h, w)
        r = self._self_attend(tokens.r, self.ref, h, w)
        if self.mode != "self_only":
            a_c, a_p, a_r = self.attend_cross(BranchTokens(c, p, r, h, w))
            c = c + a_c
            p = p + a_p
            r = r + a_r
        c = c + self.cur.mlp(self.cur.norm2(c))
        p = p + self.ref.mlp(self.ref.norm2(p))
        r = r + self.ref.mlp(self.ref.norm2(r))
        return BranchTokens(c, p, r, h, w)
