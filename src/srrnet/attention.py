"""Three-branch asymmetric attention blocks.

Each block processes current-frame (C), previous-frame (P) and reference-frame
(R) token streams: per-branch self-attention, a cross stage, then an MLP. P and
R share one weight set; C has its own.

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
budget, ``SCORE_TILE`` = 2**17 score entries per block (1 MB of float64, so
about 2 MB with the probabilities), is set by a 2 MB per-core L2: on a
2-core x86 host with one BLAS thread, desk@128 frames took 54-71 ms with
blocks of 2**15 to 2**17 entries, but 111-143 ms with 2**18 or 2**19, where
the pair outgrows L2, and 108-117 ms unsplit. Rows are
independent, so blocking changes only the GEMM row counts: results agree
with the unsplit chain to rounding. An attention whose scores fit one block
runs exactly the unsplit ops: every one at full@64, and at desk@128 all but
stage 1 and the C cross stage of stage 2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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
SCORE_TILE = 2 ** 17  # score entries per query-row block; see the module docstring


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
    least one query row); a problem that fits in one block runs unsplit.
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

    rows = max(1, SCORE_TILE // (batch * heads * n_k))
    if rows >= n_q:
        out = attend(qh)
    else:
        out = T.concat([attend(T.narrow(qh, 2, start, min(rows, n_q - start)))
                        for start in range(0, n_q, rows)], axis=2)
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


class RMABlock(Module):
    """One pre-norm residual block: self-attention, cross stage, MLP.

    Every route runs ``_advance`` on some subset of the branches. Where R
    reads only R (every mode but ``full``), the block splits into
    ``reference_step`` (R alone, returning the keys/values R exposes to the
    cross stage) and ``current_step`` (C and P against those keys/values),
    so a caller may run ``reference_step`` once and reuse its result for any
    number of current/previous inputs.
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

    def _weights(self, branch: str) -> BranchWeights:
        return self.cur if branch == "c" else self.ref

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
        out = scaled_dot_attention(weights.q(y), weights.k(kv), weights.v(kv), self.cfg.heads)
        return x + weights.proj(out)

    def _mlp(self, x: Tensor, weights: BranchWeights) -> Tensor:
        return x + weights.mlp(weights.norm2(x))

    def _cross(self, x: dict, h: int, w: int, given: dict) -> tuple[dict, dict]:
        """Cross-stage outputs (projected, pre-residual) of the branches in ``x``.

        ``given`` holds the ``(k, v)`` of branches that run elsewhere. Also
        returns the ``(k, v)`` each branch of ``x`` exposes to the stage. A
        key set read by several branches is concatenated once.
        """
        visible = self.visible
        for b in x:
            missing = set(visible[b]) - set(x) - set(given)
            if missing:
                raise ConfigurationError(
                    f"{self.mode} attention: branch {b} reads {''.join(sorted(missing))}, "
                    "which neither runs here nor is given")
        q, kv = {}, dict(given)
        for b, xb in x.items():
            weights = self._weights(b)
            xn = weights.norm_cross(xb)
            reduced = self._reduce(xn, weights, h, w)
            q[b], kv[b] = weights.q(xn), (weights.k(reduced), weights.v(reduced))
        joint = {}
        for keys in dict.fromkeys(visible[b] for b in x):
            joint[keys] = kv[keys] if len(keys) == 1 else (
                T.concat([kv[j][0] for j in keys], axis=1),
                T.concat([kv[j][1] for j in keys], axis=1))
        out = {b: self._weights(b).proj_cross(
                   scaled_dot_attention(q[b], *joint[visible[b]], self.cfg.heads))
               for b in x}
        return out, {b: kv[b] for b in x}

    def _advance(self, x: dict, h: int, w: int, given: dict) -> tuple[dict, dict]:
        """Self-attention, cross stage and MLP of the branches in ``x``.

        Returns the outputs and each branch's cross ``(k, v)`` (empty when the
        mode has no cross stage).
        """
        x = {b: self._self_attend(xb, self._weights(b), h, w) for b, xb in x.items()}
        kv = {}
        if self.visible:
            a, kv = self._cross(x, h, w, given)
            x = {b: xb + a[b] for b, xb in x.items()}
        return {b: self._mlp(xb, self._weights(b)) for b, xb in x.items()}, kv

    def attend_cross(self, tokens: BranchTokens) -> tuple[Tensor, Tensor, Tensor]:
        """Cross-stage attention outputs (A_C, A_P, A_R) of ``tokens``, pre-residual."""
        if not self.visible:
            raise ConfigurationError(f"{self.mode} attention has no cross stage")
        a, _ = self._cross({"c": tokens.c, "p": tokens.p, "r": tokens.r},
                           tokens.h, tokens.w, {})
        return a["c"], a["p"], a["r"]

    def reference_step(self, r: Tensor, h: int, w: int):
        """Run the R branch alone: ``(r_out, k_r, v_r)``.

        ``k_r``/``v_r`` are the keys/values R exposes to the cross stage
        (``None`` without a cross stage). Raises where R reads C or P.
        """
        out, kv = self._advance({"r": r}, h, w, {})
        k_r, v_r = kv.get("r", (None, None))
        return out["r"], k_r, v_r

    def current_step(self, c: Tensor, p: Tensor, k_r: Tensor | None, v_r: Tensor | None,
                     h: int, w: int) -> tuple[Tensor, Tensor]:
        """Run the C and P branches against R's cross keys/values from ``reference_step``."""
        given = {} if k_r is None else {"r": (k_r, v_r)}
        out, _ = self._advance({"c": c, "p": p}, h, w, given)
        return out["c"], out["p"]

    def __call__(self, tokens: BranchTokens) -> BranchTokens:
        out, _ = self._advance({"c": tokens.c, "p": tokens.p, "r": tokens.r},
                               tokens.h, tokens.w, {})
        return BranchTokens(out["c"], out["p"], out["r"], tokens.h, tokens.w)
