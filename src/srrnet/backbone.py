"""Four-stage pyramid encoder over the three frame branches.

Each stage tokenizes its input with an overlapping strided convolution (kernel
7, stride 4, padding 3 in stage 1; kernel 3, stride 2, padding 1 after), runs
a stack of asymmetric attention blocks, and reshapes the tokens back into
feature maps. Stage ``i`` emits maps of extent ``H / 2^(i+1)``. The previous
and reference branches share every weight set; the current branch has its own.

The backbone stacks the previous and reference branches on the batch axis
once, at its input; every stage and block keeps them stacked (see
``attention.RMABlock``), so every weight they share is read once per stage for
both, and the backbone splits each stage's P/R output map for the grid. Where
the attention mode lets R read only R (every mode but ``full``), R's encoding
does not depend on C or P: the backbone either runs C, P and R jointly, or C
and P alone against R's maps and cross keys/values from an earlier pass,
exactly the ops of P alone. The backbone is a pure function of its arguments:
``PyramidFeatures.reference()`` copies R's half of a joint pass, and whoever
keeps it across calls (``model.SRRNet``, in the triplet's reference slot)
decides when it is still valid.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import tensor as T
from .attention import ATTENTION_MODES, AttentionConfig, RMABlock, split_batch
from .nn import Conv2d, LayerNorm, Module
from .tensor import ConfigurationError, Tensor

# Stage 1 strides by 4 and stages 2-4 by 2 each (4 * 2 * 2 * 2 = 32): every
# stage divides a side that 32 divides evenly, so stage i's maps are exactly
# H / 2^(i+1).
EXTENT_MULTIPLE = 32


def check_extent(name: str, value: int):
    """Refuse a frame side (or a size or crop that sets one) the stages cannot divide."""
    if value <= 0 or value % EXTENT_MULTIPLE:
        raise ConfigurationError(
            f"{name} must be a positive multiple of {EXTENT_MULTIPLE}, got {value}")


@dataclass
class StageConfig:
    channels: int
    depth: int
    attention: AttentionConfig

    def __post_init__(self):
        if self.attention.channels != self.channels:
            raise ConfigurationError(
                f"heads x head_dim = {self.attention.channels} must equal stage channels {self.channels}")


@dataclass
class FrameTriplet:
    """Network input: current frame, previous frame+mask, reference frame+mask.

    ``reference`` optionally carries a slot in which ``model.SRRNet`` keeps
    its encoding of ``r_in`` for the next call with the same reference, and
    its collapsed decoder; the backbone never reads it.
    """

    c_img: Tensor  # B x 3 x H x W
    p_in: Tensor   # B x 4 x H x W (image with mask channel appended)
    r_in: Tensor   # B x 4 x H x W
    reference: Optional[object] = None  # the slot of ``model.SRRNet``; see ``model``

    def __post_init__(self):
        if self.c_img.shape[1] != 3 or self.p_in.shape[1] != 4 or self.r_in.shape[1] != 4:
            raise T.ShapeMismatchError(
                f"triplet channels must be 3/4/4, got {self.c_img.shape[1]}/{self.p_in.shape[1]}/{self.r_in.shape[1]}")
        _, _, h, w = self.c_img.shape
        if self.p_in.shape[2:] != (h, w) or self.r_in.shape[2:] != (h, w):
            raise T.ShapeMismatchError("triplet spatial extents disagree")
        check_extent("input height", h)
        check_extent("input width", w)

    @property
    def height(self) -> int:
        return self.c_img.shape[2]

    @property
    def width(self) -> int:
        return self.c_img.shape[3]


@dataclass
class PyramidFeatures:
    """Per-stage feature maps for the three branches, each B x Ch_i x H_i x W_i.

    ``kv`` holds, per stage, each block's R cross ``(k, v)``, or ``None`` for
    a block without a cross stage.
    """

    c: list = field(default_factory=list)
    p: list = field(default_factory=list)
    r: list = field(default_factory=list)
    kv: list = field(default_factory=list)

    def reference(self) -> "PyramidFeatures":
        """R's maps and cross keys/values as arrays that own their buffers, off any graph.

        A joint pass's R arrays are views into buffers stacked with P; a copy
        keeps R's half alone alive, in the same layout (so the same GEMM
        rounding).
        """
        def own(t: Tensor) -> Tensor:
            return Tensor(t.data.copy(order="K"))

        return PyramidFeatures(
            r=[own(r) for r in self.r],
            kv=[[None if kv is None else (own(kv[0]), own(kv[1])) for kv in stage]
                for stage in self.kv])


class PatchEmbed(Module):
    """Overlapping strided convolution followed by token layer norm."""

    def __init__(self, in_channels: int, out_channels: int, kernel: int, stride: int,
                 padding: int, rng: np.random.Generator):
        self.conv = Conv2d(in_channels, out_channels, kernel, rng,
                           stride=stride, padding=padding)
        self.norm = LayerNorm(out_channels)

    def __call__(self, x: Tensor) -> tuple[Tensor, int, int]:
        m = self.conv(x)
        batch, ch, h, w = m.shape
        tokens = T.reshape(T.transpose(m, (0, 2, 3, 1)), (batch, h * w, ch))
        return self.norm(tokens), h, w


def _tokens_to_map(tokens: Tensor, h: int, w: int) -> Tensor:
    batch, _, ch = tokens.shape
    return T.transpose(T.reshape(tokens, (batch, h, w, ch)), (0, 3, 1, 2))


class BackboneStage(Module):
    def __init__(self, index: int, in_c: int, in_pr: int, cfg: StageConfig,
                 rng: np.random.Generator, attention_mode: str):
        kernel, stride, padding = (7, 4, 3) if index == 0 else (3, 2, 1)
        self.embed_c = PatchEmbed(in_c, cfg.channels, kernel, stride, padding, rng)
        self.embed_pr = PatchEmbed(in_pr, cfg.channels, kernel, stride, padding, rng)
        self.blocks = [RMABlock(cfg.attention, rng, mode=attention_mode)
                       for _ in range(cfg.depth)]
        self.norm_c = LayerNorm(cfg.channels)
        self.norm_pr = LayerNorm(cfg.channels)

    def __call__(self, c_map: Tensor, pr_map: Tensor, kv: Optional[list] = None):
        """Stage outputs ``(c, pr, kv)``: the C map, the P/R map and each block's R cross ``(k, v)``.

        ``pr_map`` holds P and R stacked on the batch axis, or P alone when
        ``kv`` gives R's cross keys/values from an earlier pass; the output
        map is stacked like it, and the returned ``kv`` is R's, computed here
        or given.
        """
        c, h, w = self.embed_c(c_map)
        pr, _, _ = self.embed_pr(pr_map)
        kv_out = []
        for i, block in enumerate(self.blocks):
            c, pr, kv_r = block(c, pr, h, w, None if kv is None else kv[i])
            kv_out.append(kv_r)
        return (_tokens_to_map(self.norm_c(c), h, w),
                _tokens_to_map(self.norm_pr(pr), h, w), kv_out)


class RMABackbone(Module):
    """The full four-stage encoder producing the 4 x 3 feature grid."""

    def __init__(self, stages: list[StageConfig], rng: np.random.Generator,
                 attention_mode: str = "rma"):
        if len(stages) != 4:
            raise ConfigurationError(f"expected 4 stage configs, got {len(stages)}")
        if attention_mode not in ATTENTION_MODES:
            raise ConfigurationError(f"unknown attention mode {attention_mode!r}")
        for prev, cur in zip(stages, stages[1:]):
            if cur.channels < prev.channels:
                raise ConfigurationError("stage channels must be nondecreasing")
        built = []
        in_c, in_pr = 3, 4
        for i, cfg in enumerate(stages):
            built.append(BackboneStage(i, in_c, in_pr, cfg, rng, attention_mode))
            in_c = in_pr = cfg.channels
        self.stages = built

    def __call__(self, triplet: FrameTriplet,
                 reference: Optional[PyramidFeatures] = None) -> PyramidFeatures:
        """The 4 x 3 feature grid; the triplet's slot is neither read nor written.

        Without ``reference``, P and R are stacked once, here, and run jointly
        with C. ``reference`` holds R's maps and cross keys/values from an
        earlier pass over the same ``r_in`` (``PyramidFeatures.reference()``;
        valid only where R reads only R): P then runs alone against them.
        """
        features = PyramidFeatures()
        joint = reference is None
        c = triplet.c_img
        pr = T.concat([triplet.p_in, triplet.r_in], axis=0) if joint else triplet.p_in
        for i, stage in enumerate(self.stages):
            c, pr, kv = stage(c, pr, None if joint else reference.kv[i])
            p, r = split_batch(pr, 2) if joint else (pr, reference.r[i])
            features.c.append(c)
            features.p.append(p)
            features.r.append(r)
            features.kv.append(kv)
        return features
