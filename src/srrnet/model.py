"""Full segmentation model and its size presets.

The ``desk`` preset is small enough for exhaustive finite-difference checks;
the ``full`` preset approximates the published ~54M-parameter configuration
(the exact stage widths are unpublished, so the count is reported rather than
asserted).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import tensor as T
from .attention import AttentionConfig, reference_is_separable
from .backbone import FrameTriplet, PyramidFeatures, RMABackbone, StageConfig
from .decoder import DecoderCollapse, DecoderConfig, DualPurposeDecoder, PredictionPair
from .nn import Module, load_checkpoint, read_checkpoint_config, weights_key
from .tensor import ConfigurationError

FULL_SCALE_REFERENCE_PARAMS = 53_790_000  # published headline parameter count


@dataclass
class ModelConfig:
    stages: list[StageConfig]
    decoder: DecoderConfig
    attention_mode: str = "rma"


# Per preset: stage channels, depths, heads and spatial-reduction ratios, then
# the decoder's fusion and head widths. ``desk`` is small: fast forward passes,
# exact attention, checkable gradients. ``full`` is laid out to land near the
# published model size.
PRESETS = {
    "desk": ([8, 16, 24, 32], [1, 1, 1, 1], [1, 2, 2, 4], [1, 1, 1, 1], 64, 32),
    "full": ([64, 128, 320, 512], [3, 4, 6, 3], [1, 2, 5, 8], [8, 4, 2, 1], 1024, 256),
}


def preset_config(name: str, attention_mode: str = "rma",
                  error_target: str = "absolute") -> ModelConfig:
    if name not in PRESETS:
        raise ConfigurationError(f"unknown preset {name!r}; expected one of {sorted(PRESETS)}")
    channels, depths, heads, sr, ch_prime, ch_double_prime = PRESETS[name]
    stages = [StageConfig(channels=ch, depth=depth,
                          attention=AttentionConfig(heads=h, head_dim=ch // h, sr_ratio=r))
              for ch, depth, h, r in zip(channels, depths, heads, sr)]
    decoder = DecoderConfig(ch_prime=ch_prime, ch_double_prime=ch_double_prime,
                            error_target=error_target)
    return ModelConfig(stages=stages, decoder=decoder, attention_mode=attention_mode)


@dataclass
class ReferenceSlot:
    """What a model keeps across the calls of one inference session.

    ``reference`` is R's encoding of ``r_in``: the ``r`` and ``kv`` of the
    joint pass that first read it, as they are (views into buffers stacked
    with P, which they keep alive), kept only where R reads only R (every
    attention mode but ``full``), and ``collapse`` the collapsed decoder (see
    ``decoder``). Both are valid for one model and one weights generation,
    ``key``: a call with another key empties the slot first.
    ``nn.load_checkpoint`` and ``AdamW.step`` start a new weights generation;
    a parameter written in place by any other means leaves the slot stale,
    and a stale slot changes outputs: give the session a new slot after such
    a write. The slot is ignored with the gradient tape on, since its tensors
    carry no graph.
    """

    key: Optional[tuple] = None  # weights_key of the model that filled the slot
    r_in: Optional[np.ndarray] = None
    reference: Optional[PyramidFeatures] = None
    collapse: Optional[DecoderCollapse] = None


class _ZeroDraws:
    """A stand-in generator whose every draw is zeros."""

    @staticmethod
    def normal(loc, scale, size):
        return np.zeros(size)


class SRRNet(Module):
    """Backbone plus dual-purpose decoder: FrameTriplet in, PredictionPair out.

    Without ``rng``, drawn weights start at zero and nothing is drawn (for
    ``load_model``, which overwrites every weight from the checkpoint).
    """

    def __init__(self, config: ModelConfig, rng: np.random.Generator | None = None):
        rng = rng if rng is not None else _ZeroDraws()
        self.config = config
        self.backbone = RMABackbone(config.stages, rng,
                                    attention_mode=config.attention_mode)
        self.decoder = DualPurposeDecoder([s.channels for s in config.stages],
                                          config.decoder, rng)

    def __call__(self, triplet: FrameTriplet) -> PredictionPair:
        """Both heads' outputs, reading and refilling the triplet's slot, if any."""
        slot = triplet.reference
        if slot is None or T.grad_enabled():
            features = self.backbone(triplet)
            return self.decoder(features, triplet.height, triplet.width)
        key, r_in = weights_key(self), triplet.r_in.data
        if slot.key != key:
            slot.r_in = slot.reference = slot.collapse = None
            slot.key = key
        if slot.reference is not None and not np.array_equal(slot.r_in, r_in):
            slot.r_in = slot.reference = None  # drop the old encoding before building a new one
        features = self.backbone(triplet, slot.reference)
        if slot.reference is None and reference_is_separable(self.config.attention_mode):
            slot.reference = PyramidFeatures(r=features.r, kv=features.kv)
            slot.r_in = r_in.copy()
        if slot.collapse is None:
            slot.collapse = self.decoder.collapse()
        return self.decoder(features, triplet.height, triplet.width, slot.collapse)


def build_model(preset: str = "desk", attention_mode: str = "rma",
                seed: int = 0, error_target: str = "absolute") -> SRRNet:
    cfg = preset_config(preset, attention_mode=attention_mode, error_target=error_target)
    return SRRNet(cfg, np.random.default_rng(seed))


def load_model(path) -> SRRNet:
    """Rebuild the model a checkpoint was saved from, with its weights."""
    stored = read_checkpoint_config(path)
    if stored is None:
        raise ValueError(f"checkpoint {path} holds no model config")
    try:
        stages = [StageConfig(**{**s, "attention": AttentionConfig(**s["attention"])})
                  for s in stored["stages"]]
        model = SRRNet(ModelConfig(stages=stages, decoder=DecoderConfig(**stored["decoder"]),
                                   attention_mode=stored["attention_mode"]))
    except (TypeError, KeyError) as exc:
        raise ValueError(f"checkpoint {path} holds a model config that does not build a "
                         f"model: {type(exc).__name__}: {exc}") from exc
    load_checkpoint(path, model)
    return model
