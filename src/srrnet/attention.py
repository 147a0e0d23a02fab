"""Three-branch asymmetric attention blocks.

Each block processes current-frame (C), previous-frame (P) and reference-frame
(R) tokens as two streams, one per weight set: C has its own, and P and R share
one and run stacked on the batch axis, so each shared weight is read once for
P and R together rather than once per branch: at ``full`` most of a frame's
time goes to streaming these weights (the spatial-reduction convs of PVT, Wang
et al., arXiv 2102.12122, hold 2-3 MB each), not to arithmetic. A block runs
self-attention, a cross stage and an MLP on each stream. Self-attention keeps
each batch item on its own keys, so only the cross stage splits the stacked
stream into branches. Where R's cross keys/values are given from an earlier
call, the stream holds P alone and runs exactly P's ops.

Which keys each branch's queries read in the cross stage is one table,
``VISIBILITY``: per attention mode, each branch maps to the branches whose
cross keys/values it reads, concatenated in that order. The default ``rma``
lets information flow strictly R -> P -> C: R reads only R, P reads P+R and
C reads C+P+R. ``motion_only`` drops R from C and P, ``full`` gives every
branch all three, and ``self_only`` (an empty entry) has no cross stage.

``scaled_dot_attention`` checks the shapes and makes one
``tensor.softmax(q, k, v, heads)`` call: the whole multi-head attention
core, softmax(q k^T / sqrt(d)) v, as one node. It splits the heads as
views, scales the queries by 1/sqrt(d) once, runs the query rows in tiles
whose scores stay in L2, writes every tile's scores into one buffer,
normalizes after the P.V product as FlashAttention does (Dao et al., arXiv
2205.14135) and skips the row-max pass when a norm bound proves the scores
small (see ``tensor.softmax``). Its output is a view of a B x n_q x H x d
buffer, so merging the heads is a view too. Against the per-block loop it
replaced (``narrow``, a scores ``matmul`` against a strided k^T, a fresh
score buffer per block, then ``concat``), the ``stream_desk128`` frame
median went 41.8 -> 32.9 ms
(-21%) over 10 alternating pairs at seed 0 (2-core x86, one BLAS thread),
with bitwise identical outputs. Values agree with the
normalize-then-multiply chain to 1e-13 relative and gradients to 1e-12;
whole sessions keep the same masks and reference frames, with error maps
and scores within 1e-12.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import tensor as T
from .nn import Conv2d, LayerNorm, Linear, Mlp, Module
from .tensor import ConfigurationError, Tensor

VISIBILITY = {
    "rma": {"c": "cpr", "p": "pr", "r": "r"},
    "self_only": {},
    "motion_only": {"c": "cp", "p": "p", "r": "r"},
    "full": {"c": "cpr", "p": "cpr", "r": "cpr"},
}
ATTENTION_MODES = tuple(VISIBILITY)


def reference_is_separable(mode: str) -> bool:
    """Whether R reads no C or P keys in ``mode``, so it can run apart from them."""
    return set(VISIBILITY[mode].get("r", "")) <= {"r"}


@dataclass
class AttentionConfig:
    heads: int
    head_dim: int
    sr_ratio: int = 1

    def __post_init__(self):
        if self.heads < 1 or self.head_dim < 1:
            raise ConfigurationError(f"heads/head_dim must be positive: {self.heads}/{self.head_dim}")
        if self.sr_ratio < 1 or (self.sr_ratio & (self.sr_ratio - 1)) != 0:
            raise ConfigurationError(f"sr_ratio must be a power of two, got {self.sr_ratio}")

    @property
    def channels(self) -> int:
        return self.heads * self.head_dim


def scaled_dot_attention(q: Tensor, k: Tensor, v: Tensor, heads: int) -> Tensor:
    """Multi-head softmax((Q / sqrt(d)) K^T) V with merged heads: one ``tensor.softmax`` node."""
    if k.shape != v.shape:  # softmax checks the rest, but lets v's channels differ from q's
        raise T.ShapeMismatchError(f"key and value shapes disagree: {k.shape} vs {v.shape}")
    return T.softmax(q, k, v, heads)


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
        self.mlp = Mlp(ch, 4 * ch, rng)
        if cfg.sr_ratio > 1:
            self.sr = Conv2d(ch, ch, cfg.sr_ratio, rng, stride=cfg.sr_ratio)
            self.sr_norm = LayerNorm(ch)


def split_batch(x: Tensor, count: int) -> list:
    """The ``count`` equal batch slices of a stacked tensor; a lone one as it is."""
    if count == 1:
        return [x]
    size = x.shape[0] // count
    return [T.narrow(x, 0, i * size, size) for i in range(count)]


class RMABlock(Module):
    """One pre-norm residual block: self-attention, cross stage, MLP.

    A block takes two token streams, one per weight set: ``c`` (C, on
    ``cur``) and ``pr`` (on ``ref``), which holds P and R stacked on the
    batch axis, or P alone when R's cross keys/values are given from an
    earlier call. Every LayerNorm, Linear, SR conv, MLP and self-attention
    runs once per stream, so each weight of ``ref`` is read once for P and R
    together; self-attention keeps each batch item on its own keys. Only the
    cross stage (``attend_cross``) splits ``pr`` into branches, to give each
    one the keys ``VISIBILITY`` lets it read.
    """

    def __init__(self, cfg: AttentionConfig, rng: np.random.Generator,
                 mode: str = "rma"):
        if mode not in VISIBILITY:
            raise ConfigurationError(f"unknown attention mode {mode!r}; expected one of {ATTENTION_MODES}")
        self.cfg = cfg
        self.mode = mode
        self.visible = VISIBILITY[mode]
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
        """Self-attention of a stream, each batch item over its own keys."""
        y = weights.norm1(x)
        kv = self._reduce(y, weights, h, w)
        return x + weights.proj(scaled_dot_attention(weights.q(y), weights.k(kv), weights.v(kv),
                                                     self.cfg.heads))

    def attend_cross(self, c: Tensor, pr: Tensor, h: int, w: int,
                     given: Optional[tuple] = None) -> tuple[Tensor, Tensor, tuple]:
        """Cross-stage outputs ``(a_c, a_pr, (k_r, v_r))``, pre-residual.

        ``pr`` holds P and R stacked, or P alone when ``given`` is R's cross
        ``(k, v)``. ``a_pr`` is stacked like ``pr``; the returned ``(k, v)``
        is R's, computed here or ``given``. A key set read by several
        branches is concatenated once.
        """
        if not self.visible:
            raise ConfigurationError(f"{self.mode} attention has no cross stage")
        names = "pr" if given is None else "p"
        if pr.shape[0] != len(names) * c.shape[0]:
            raise T.ShapeMismatchError(
                f"pr stream batch {pr.shape[0]} is not {len(names)} x the C batch {c.shape[0]}")
        q, kv = {}, {}
        for weights, branches, x in ((self.cur, "c", c), (self.ref, names, pr)):
            xn = weights.norm_cross(x)
            reduced = self._reduce(xn, weights, h, w)
            n = len(branches)
            q.update(zip(branches, split_batch(weights.q(xn), n)))
            kv.update(zip(branches, zip(split_batch(weights.k(reduced), n),
                                        split_batch(weights.v(reduced), n))))
        if given is not None:
            kv["r"] = given
        visible = self.visible
        joint = {}
        for keys in dict.fromkeys(visible[b] for b in q):
            joint[keys] = kv[keys] if len(keys) == 1 else (
                T.concat([kv[j][0] for j in keys], axis=1),
                T.concat([kv[j][1] for j in keys], axis=1))
        out = {b: scaled_dot_attention(q[b], *joint[visible[b]], self.cfg.heads) for b in q}
        a_pr = out["p"] if given is not None else T.concat([out["p"], out["r"]], axis=0)
        return self.cur.proj_cross(out["c"]), self.ref.proj_cross(a_pr), kv["r"]

    def __call__(self, c: Tensor, pr: Tensor, h: int, w: int,
                 given: Optional[tuple] = None) -> tuple[Tensor, Tensor, Optional[tuple]]:
        """Self-attention, cross stage and MLP of both streams: ``(c, pr, (k_r, v_r))``.

        ``c`` and ``pr`` are B x N x Ch and 2B x N x Ch (or B x N x Ch with
        ``given``) tokens on an ``h`` x ``w`` grid; see ``attend_cross``.
        R's cross ``(k, v)`` is ``None`` when the mode has no cross stage.
        """
        c = self._self_attend(c, self.cur, h, w)
        pr = self._self_attend(pr, self.ref, h, w)
        kv_r = None
        if self.visible:
            a_c, a_pr, kv_r = self.attend_cross(c, pr, h, w, given)
            c, pr = c + a_c, pr + a_pr
        return (c + self.cur.mlp(self.cur.norm2(c)),
                pr + self.ref.mlp(self.ref.norm2(pr)), kv_r)
