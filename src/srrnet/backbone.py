"""Four-stage pyramid encoder over the three frame branches.

Each stage tokenizes its input with an overlapping strided convolution (kernel
7, stride 4, padding 3 in stage 1; kernel 3, stride 2, padding 1 after), runs
a stack of asymmetric attention blocks, and reshapes the tokens back into
feature maps. Stage ``i`` emits maps of extent ``H / 2^(i+1)``. The previous
and reference branches share every weight set; the current branch has its own.

Where the attention mode lets R read only R (every mode but ``full``), the
reference branch depends on nothing but its own input, so each stage encodes
it first into a stage reference (the stage's R output map plus each block's
cross keys/values) and runs the C and P branches against it. A
``ReferenceSlot`` on the input triplet lets a caller keep the encodings of all
stages across calls with an unchanged reference input; it is used only with
the gradient tape off.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import tensor as T
from .attention import (ATTENTION_MODES, AttentionConfig, BranchTokens, RMABlock,
                        reference_is_separable)
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
    kv: list       # per block (k_r, v_r); (None, None) without a cross stage


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
        self.separable_reference = reference_is_separable(attention_mode)
        kernel, stride, padding = (7, 4, 3) if index == 0 else (3, 2, 1)
        self.embed_c = PatchEmbed(in_c, cfg.channels, kernel, stride, padding, rng)
        self.embed_pr = PatchEmbed(in_pr, cfg.channels, kernel, stride, padding, rng)
        self.blocks = [RMABlock(cfg.attention, rng, mode=attention_mode)
                       for _ in range(cfg.depth)]
        self.norm_c = LayerNorm(cfg.channels)
        self.norm_pr = LayerNorm(cfg.channels)

    def encode_reference(self, r_map: Tensor) -> StageReference:
        """Run the R branch of this stage alone (only where R reads only R)."""
        r, h, w = self.embed_pr(r_map)
        kv = []
        for block in self.blocks:
            r, k_r, v_r = block.reference_step(r, h, w)
            kv.append((k_r, v_r))
        return StageReference(_tokens_to_map(self.norm_pr(r), h, w), kv)

    def __call__(self, c_map: Tensor, p_map: Tensor, r_map: Tensor,
                 reference: Optional[StageReference] = None):
        """Stage outputs (c, p, r) as maps.

        Where R reads only R, ``reference`` is this stage's encoding of
        ``r_map`` (encoded here when not given) and ``r_map`` is not read.
        """
        c, h, w = self.embed_c(c_map)
        p, _, _ = self.embed_pr(p_map)
        if not self.separable_reference:
            r, _, _ = self.embed_pr(r_map)
            tokens = BranchTokens(c, p, r, h, w)
            for block in self.blocks:
                tokens = block(tokens)
            c, p, r_out = tokens.c, tokens.p, _tokens_to_map(self.norm_pr(tokens.r), h, w)
        else:
            if reference is None:
                reference = self.encode_reference(r_map)
            for block, (k_r, v_r) in zip(self.blocks, reference.kv):
                c, p = block.current_step(c, p, k_r, v_r, h, w)
            r_out = reference.r_map
        c = _tokens_to_map(self.norm_c(c), h, w)
        p = _tokens_to_map(self.norm_pr(p), h, w)
        return c, p, r_out


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

    def encode_reference(self, r_in: Tensor) -> list[StageReference]:
        """Encode the R branch through every stage (only where R reads only R)."""
        memory = []
        r = r_in
        for stage in self.stages:
            memory.append(stage.encode_reference(r))
            r = memory[-1].r_map
        return memory

    def _cached_reference(self, triplet: FrameTriplet) -> Optional[list[StageReference]]:
        """The reference encoding from the triplet's slot, refilled when stale.

        ``None`` (each stage then encodes R itself) without a slot, where R
        reads C or P (``full`` mode), and while the gradient tape is on: cached tensors carry
        no graph, so gradients would not reach R's weights.
        """
        slot = triplet.reference
        if slot is None or not reference_is_separable(self.attention_mode) or T.grad_enabled():
            return None
        r_in = triplet.r_in.data
        key = weights_key(self)
        if slot.reference_key != key or not np.array_equal(slot.r_in, r_in):
            # drop the old encoding before building the new one
            slot.reference_key = slot.r_in = slot.stages = None
            slot.stages = self.encode_reference(triplet.r_in)
            slot.reference_key, slot.r_in = key, r_in.copy()
        return slot.stages

    def __call__(self, triplet: FrameTriplet) -> PyramidFeatures:
        features = PyramidFeatures()
        c, p, r = triplet.c_img, triplet.p_in, triplet.r_in
        memory = self._cached_reference(triplet)
        for i, stage in enumerate(self.stages):
            c, p, r = stage(c, p, r, None if memory is None else memory[i])
            features.c.append(c)
            features.p.append(p)
            features.r.append(r)
        return features
