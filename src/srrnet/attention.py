"""Three-branch asymmetric attention blocks.

Each block processes current-frame (C), previous-frame (P) and reference-frame
(R) token streams: per-branch self-attention, a cross stage, then an MLP. P and
R share one weight set; C has its own. A block runs the branches of one weight
set as one batch, stacked on the batch axis, so that each of its weights is
read once for P and R together rather than once per branch: at ``full`` most
of a frame's time goes to streaming these weights (the spatial-reduction convs
of PVT, Wang et al., arXiv 2102.12122, hold 2-3 MB each), not to arithmetic.
A weight set with one branch to run (C always; P alone when R's keys/values
are given) runs exactly that branch's ops, with no stacking.

Which keys each branch's queries read in the cross stage is one table,
``VISIBILITY``: per attention mode, each branch maps to the branches whose
cross keys/values it reads, concatenated in that order. The default ``rma``
lets information flow strictly R -> P -> C: R reads only R, P reads P+R and
C reads C+P+R. ``motion_only`` drops R from C and P, ``full`` gives every
branch all three, and ``self_only`` (an empty entry) has no cross stage.

``scaled_dot_attention`` runs its ``matmul -> softmax -> matmul`` chain over
blocks of query rows, as FlashAttention does over query tiles (Dao et al.,
arXiv 2205.14135), so that one block's scores and probabilities stay in
cache instead of streaming two full score buffers through memory. The
budget, ``SCORE_TILE`` = 2**16 score entries per block (512 KB of float64,
about 1 MB with the probabilities), sits one doubling below a 2 MB per-core
L2: on a 2-core x86 host with one BLAS thread, desk@128 frames took 111-143
ms with blocks of 2**18 or 2**19 entries, where the pair outgrows L2, and
108-117 ms unsplit. In paired 25 s ``stream_desk128`` runs 2**16 beat 2**17
in 5 of 5 pairs (frame median 61.99 against 72.22 ms) and read 65.5 against
66.2 ms at another seed (2 of 3 pairs), likely because a 2**17 block's
P.V GEMM at head dim 8 crosses OpenBLAS's small-matrix cut-off (M*N*K of
1M). The rows are spread evenly over the fewest blocks that fit the budget.
Rows are
independent, so blocking changes only the GEMM row counts: results agree
with the unsplit chain to rounding. An attention whose scores fit one block
runs exactly the unsplit ops: every one at full@64, and at desk@128 those
of stages 3 and 4.
"""

from __future__ import annotations

import math
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
SCORE_TILE = 2 ** 16  # score entries per query-row block; see the module docstring


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


def scaled_dot_attention(q: Tensor, k: Tensor, v: Tensor, heads: int) -> Tensor:
    """Multi-head softmax(QK^T / sqrt(d))V with merged heads, in query-row blocks.

    Each block's score tensor holds at most ``SCORE_TILE`` entries (and at
    least one query row), and the rows are spread evenly over the fewest
    blocks that allows; a problem that fits in one block runs unsplit.
    """
    batch, n_q, channels = q.shape
    n_k = k.shape[1]
    if n_k == 0:
        raise ValueError("attention requires at least one key/value row")
    if channels % heads != 0:
        raise T.ShapeMismatchError(f"channels {channels} not divisible by heads {heads}")
    if k.shape != v.shape or k.shape[-1] != channels:
        raise T.ShapeMismatchError(f"key/value shapes disagree with query: {k.shape}/{v.shape} vs {q.shape}")
    head_dim = channels // heads
    scale = 1.0 / math.sqrt(head_dim)

    def split(x, n):
        return T.transpose(T.reshape(x, (batch, n, heads, head_dim)), (0, 2, 1, 3))

    qh = split(q, n_q)
    kt = T.transpose(split(k, n_k), (0, 1, 3, 2))
    vh = split(v, n_k)

    def attend(qb):
        return T.matmul(T.softmax(T.matmul(qb, kt), scale=scale), vh)

    blocks = -(-n_q // max(1, SCORE_TILE // (batch * heads * n_k)))
    if blocks == 1:
        out = attend(qh)
    else:  # spread the rows evenly: block sizes differ by at most one row
        bounds = [i * n_q // blocks for i in range(blocks + 1)]
        out = T.concat([attend(T.narrow(qh, 2, start, stop - start))
                        for start, stop in zip(bounds, bounds[1:])], axis=2)
    return T.reshape(T.transpose(out, (0, 2, 1, 3)), (batch, n_q, channels))


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


def stack_batch(tensors: list) -> Tensor:
    """Tensors of one weight set stacked on the batch axis; a lone one as it is."""
    return tensors[0] if len(tensors) == 1 else T.concat(tensors, axis=0)


def split_batch(x: Tensor, count: int) -> list:
    """The ``count`` equal batch slices of a stacked tensor (``stack_batch`` undone)."""
    if count == 1:
        return [x]
    size = x.shape[0] // count
    return [T.narrow(x, 0, i * size, size) for i in range(count)]


class RMABlock(Module):
    """One pre-norm residual block: self-attention, cross stage, MLP.

    ``__call__`` runs any subset of the branches: C alone, C and P against
    R's cross keys/values given from an earlier call, R alone where R reads
    only R, or all three. It groups the branches by weight set (C on
    ``cur``; P and R on ``ref``) and stacks each group on the batch axis, so
    every LayerNorm, Linear, SR conv and MLP of a weight set runs once per
    call, reading its weights once for P and R together. Attention runs per
    branch, on the keys ``VISIBILITY`` gives it. A group of one branch runs
    exactly the ops of that branch alone, with no stacking.
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

    def _groups(self, x: dict) -> list:
        """``(weights, branches, stacked tokens)`` per weight set that runs in ``x``."""
        groups = []
        for weights, names in ((self.cur, "c"), (self.ref, "pr")):
            branches = [b for b in names if b in x]
            if branches:
                groups.append((weights, branches, stack_batch([x[b] for b in branches])))
        return groups

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

    def _self_attend(self, x: Tensor, weights: BranchWeights, count: int,
                     h: int, w: int) -> Tensor:
        """Self-attention of ``count`` stacked branches, each over its own keys."""
        y = weights.norm1(x)
        kv = self._reduce(y, weights, h, w)
        out = [scaled_dot_attention(q, k, v, self.cfg.heads) for q, k, v in
               zip(split_batch(weights.q(y), count), split_batch(weights.k(kv), count),
                   split_batch(weights.v(kv), count))]
        return x + weights.proj(stack_batch(out))

    def _cross(self, groups: list, h: int, w: int, given: dict) -> tuple[list, dict]:
        """Cross-stage outputs (projected, pre-residual, stacked per group).

        ``given`` holds the ``(k, v)`` of branches that run elsewhere. Also
        returns the ``(k, v)`` each branch of ``groups`` exposes to the
        stage. A key set read by several branches is concatenated once.
        """
        visible = self.visible
        branches = [b for _, bs, _ in groups for b in bs]
        for b in branches:
            missing = set(visible[b]) - set(branches) - set(given)
            if missing:
                raise ConfigurationError(
                    f"{self.mode} attention: branch {b} reads {''.join(sorted(missing))}, "
                    "which neither runs here nor is given")
        q, kv = {}, dict(given)
        for weights, bs, x in groups:
            xn = weights.norm_cross(x)
            reduced = self._reduce(xn, weights, h, w)
            q.update(zip(bs, split_batch(weights.q(xn), len(bs))))
            kv.update(zip(bs, zip(split_batch(weights.k(reduced), len(bs)),
                                  split_batch(weights.v(reduced), len(bs)))))
        joint = {}
        for keys in dict.fromkeys(visible[b] for b in branches):
            joint[keys] = kv[keys] if len(keys) == 1 else (
                T.concat([kv[j][0] for j in keys], axis=1),
                T.concat([kv[j][1] for j in keys], axis=1))
        out = [weights.proj_cross(stack_batch([
                   scaled_dot_attention(q[b], *joint[visible[b]], self.cfg.heads) for b in bs]))
               for weights, bs, _ in groups]
        return out, {b: kv[b] for b in branches}

    def attend_cross(self, tokens: BranchTokens) -> tuple[Tensor, Tensor, Tensor]:
        """Cross-stage attention outputs (A_C, A_P, A_R) of ``tokens``, pre-residual."""
        if not self.visible:
            raise ConfigurationError(f"{self.mode} attention has no cross stage")
        groups = self._groups({"c": tokens.c, "p": tokens.p, "r": tokens.r})
        a, _ = self._cross(groups, tokens.h, tokens.w, {})
        (a_c,), (a_p, a_r) = (split_batch(ag, len(bs)) for ag, (_, bs, _) in zip(a, groups))
        return a_c, a_p, a_r

    def __call__(self, x: dict, h: int, w: int, given: Optional[dict] = None) -> tuple[dict, dict]:
        """Self-attention, cross stage and MLP of the branches in ``x``.

        ``x`` maps branch names (``c``, ``p``, ``r``) to B x N x Ch tokens
        on an ``h`` x ``w`` grid; ``given`` maps branches that do not run
        here to the cross ``(k, v)`` an earlier call returned for them.
        Returns the outputs and each branch's cross ``(k, v)`` (empty when
        the mode has no cross stage).
        """
        groups = [(weights, bs, self._self_attend(xg, weights, len(bs), h, w))
                  for weights, bs, xg in self._groups(x)]
        kv = {}
        if self.visible:
            a, kv = self._cross(groups, h, w, given or {})
            groups = [(weights, bs, xg + ag) for (weights, bs, xg), ag in zip(groups, a)]
        out = {}
        for weights, bs, xg in groups:
            out.update(zip(bs, split_batch(xg + weights.mlp(weights.norm2(xg)), len(bs))))
        return out, kv
