"""Four-stage pyramid encoder over the three frame branches.

Each stage tokenizes its input with an overlapping strided convolution (kernel
7, stride 4, padding 3 in stage 1; kernel 3, stride 2, padding 1 after), runs
a stack of asymmetric attention blocks, and reshapes the tokens back into
feature maps. Stage ``i`` emits maps of extent ``H / 2^(i+1)``. The previous
and reference branches share every weight set; the current branch has its own.

A stage embeds the previous and reference branches stacked on the batch axis,
keeps them stacked through every block (see ``attention.RMABlock``) and splits
them after its last norm, so every weight they share is read once per stage
for both. Where the attention mode lets R read only R (every mode but
``full``), R's encoding does not depend on C or P, and a stage either runs C,
P and R jointly and returns R's encoding as a stage reference (the stage's R
output map plus each block's cross keys/values), or runs C and P alone against
a stage reference it is given. A ``ReferenceSlot`` on the input triplet lets a
caller keep the references of all stages across calls with an unchanged
reference input; it is filled from the joint pass with copies of R's arrays
(not views into the buffers stacked with P) and used only with the gradient
tape off. A frame that reuses the slot runs P alone in the stacked stream's
place, exactly the ops of P alone.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import tensor as T
from .attention import (ATTENTION_MODES, AttentionConfig, RMABlock, reference_is_separable,
                        split_batch)
from .nn import Conv2d, LayerNorm, Module, weights_key
from .tensor import ConfigurationError, Tensor


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
class StageReference:
    """One stage's encoded reference branch."""

    r_map: Tensor  # B x Ch x H_i x W_i, the stage's R output
    kv: list       # per block R's cross (k, v); None without a cross stage

    def owned(self) -> "StageReference":
        """A copy whose arrays own their buffers, off any graph.

        The joint pass's ``r_map`` and keys/values are views into buffers
        stacked with P; a copy keeps R's half alone alive.
        """
        def own(t: Tensor) -> Tensor:
            return Tensor(t.data.copy(order="K"))  # the same layout: same GEMM rounding

        return StageReference(own(self.r_map),
                              [None if kv is None else (own(kv[0]), own(kv[1])) for kv in self.kv])


@dataclass
class ReferenceSlot:
    """What a model keeps across the calls of one inference session.

    The backbone keeps its reference encoding, valid for one ``r_in``, one
    backbone and one weights generation; the decoder keeps the collapse it
    otherwise builds on every call (see ``decoder``), valid for one decoder
    and one weights generation. Both are kept only with the gradient tape
    off. Each part is keyed on ``nn.weights_key`` of its owner and rebuilt
    when the key differs; ``nn.load_checkpoint`` and ``AdamW.step`` start a
    new weights generation. A parameter written in place by any other means
    leaves the slot stale, and a stale slot changes outputs: give the session
    a new slot after such a write.
    """

    reference_key: Optional[tuple] = None  # weights_key of the backbone that encoded ``stages``
    r_in: Optional[np.ndarray] = None
    stages: Optional[list] = None  # StageReference per backbone stage
    collapse_key: Optional[tuple] = None  # weights_key of the decoder that built ``collapse``
    collapse: Optional[object] = None     # DecoderCollapse: 27-channel stage maps and biases


@dataclass
class FrameTriplet:
    """Network input: current frame, previous frame+mask, reference frame+mask.

    ``reference`` optionally carries a slot in which the model may keep its
    encoding of ``r_in`` for the next call with the same reference, and its
    collapsed decoder.
    """

    c_img: Tensor  # B x 3 x H x W
    p_in: Tensor   # B x 4 x H x W (image with mask channel appended)
    r_in: Tensor   # B x 4 x H x W
    reference: Optional[ReferenceSlot] = None

    def __post_init__(self):
        for name in ("c_img", "p_in", "r_in"):
            value = getattr(self, name)
            if not isinstance(value, Tensor):
                setattr(self, name, Tensor(value))
        if self.c_img.shape[1] != 3 or self.p_in.shape[1] != 4 or self.r_in.shape[1] != 4:
            raise T.ShapeMismatchError(
                f"triplet channels must be 3/4/4, got {self.c_img.shape[1]}/{self.p_in.shape[1]}/{self.r_in.shape[1]}")
        _, _, h, w = self.c_img.shape
        if self.p_in.shape[2:] != (h, w) or self.r_in.shape[2:] != (h, w):
            raise T.ShapeMismatchError("triplet spatial extents disagree")
        if h % 32 or w % 32:
            raise ConfigurationError(f"input extent {h}x{w} must be divisible by 32")

    @property
    def height(self) -> int:
        return self.c_img.shape[2]

    @property
    def width(self) -> int:
        return self.c_img.shape[3]


@dataclass
class PyramidFeatures:
    """Per-stage feature maps for the three branches, each B x Ch_i x H_i x W_i."""

    c: list = field(default_factory=list)
    p: list = field(default_factory=list)
    r: list = field(default_factory=list)


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

    def __call__(self, c_map: Tensor, p_map: Tensor, r_map: Tensor,
                 reference: Optional[StageReference] = None):
        """Stage outputs ``(c, p, reference)``: C and P maps and R's stage reference.

        Without ``reference``, C, P and R run jointly and the returned
        reference holds R's output map and cross keys/values. With one
        (valid only where R reads only R), C and P run against it, ``r_map``
        is not read and the same reference is returned.
        """
        c, h, w = self.embed_c(c_map)
        pr_map = p_map if reference is not None else T.concat([p_map, r_map], axis=0)
        pr, _, _ = self.embed_pr(pr_map)
        kv = []
        for i, block in enumerate(self.blocks):
            c, pr, kv_r = block(c, pr, h, w, None if reference is None else reference.kv[i])
            kv.append(kv_r)
        p = self.norm_pr(pr)
        if reference is None:
            p, r = split_batch(p, 2)
            reference = StageReference(_tokens_to_map(r, h, w), kv)
        return _tokens_to_map(self.norm_c(c), h, w), _tokens_to_map(p, h, w), reference


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
        self.attention_mode = attention_mode
        built = []
        in_c, in_pr = 3, 4
        for i, cfg in enumerate(stages):
            built.append(BackboneStage(i, in_c, in_pr, cfg, rng, attention_mode))
            in_c = in_pr = cfg.channels
        self.stages = built

    def __call__(self, triplet: FrameTriplet) -> PyramidFeatures:
        """The 4 x 3 feature grid, reading and refilling the triplet's slot.

        The slot is usable with the gradient tape off (cached tensors carry
        no graph, so gradients would not reach R's weights) and where R reads
        only R (every mode but ``full``). A usable slot that holds the stage
        references of this ``r_in``, backbone and weights generation lets
        every stage skip R; otherwise the stages run R jointly with C and P
        and the slot is refilled from that pass.
        """
        slot = triplet.reference
        usable = (slot is not None and reference_is_separable(self.attention_mode)
                  and not T.grad_enabled())
        r_in, key = triplet.r_in.data, weights_key(self)
        memory = None
        if usable:
            if slot.reference_key == key and np.array_equal(slot.r_in, r_in):
                memory = slot.stages
            else:  # drop the old references before building the new ones
                slot.reference_key = slot.r_in = slot.stages = None
        features = PyramidFeatures()
        c, p, r = triplet.c_img, triplet.p_in, triplet.r_in
        references = []
        for i, stage in enumerate(self.stages):
            c, p, reference = stage(c, p, r, None if memory is None else memory[i])
            r = reference.r_map
            references.append(reference)
            features.c.append(c)
            features.p.append(p)
            features.r.append(r)
        if usable and memory is None:
            slot.stages = [reference.owned() for reference in references]
            slot.reference_key, slot.r_in = key, r_in.copy()
        return features
