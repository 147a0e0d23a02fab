"""Full segmentation model and its size presets.

The ``desk`` preset is small enough for exhaustive finite-difference checks;
the ``full`` preset approximates the published ~54M-parameter configuration
(the exact stage widths are unpublished, so the count is reported rather than
asserted).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .attention import AttentionConfig
from .backbone import FrameTriplet, RMABackbone, StageConfig
from .decoder import DecoderConfig, DualPurposeDecoder, PredictionPair
from .nn import Module
from .tensor import ConfigurationError

FULL_SCALE_REFERENCE_PARAMS = 53_790_000  # published headline parameter count


@dataclass
class ModelConfig:
    stages: list[StageConfig]
    decoder: DecoderConfig
    attention_mode: str = "rma"

    @property
    def stage_channels(self) -> list[int]:
        return [s.channels for s in self.stages]


def _stage(channels: int, depth: int, heads: int, sr: int) -> StageConfig:
    if channels % heads:
        raise ConfigurationError(f"channels {channels} not divisible by heads {heads}")
    return StageConfig(
        channels=channels,
        depth=depth,
        attention=AttentionConfig(heads=heads, head_dim=channels // heads, sr_ratio=sr),
    )


def desk_config(attention_mode: str = "rma",
                error_activation: str = "sigmoid") -> ModelConfig:
    """Small configuration: fast forward passes, exact attention, checkable gradients."""
    channels = [8, 16, 24, 32]
    depths = [1, 1, 1, 1]
    heads = [1, 2, 2, 4]
    sr = [1, 1, 1, 1]
    stages = [_stage(*spec) for spec in zip(channels, depths, heads, sr)]
    decoder = DecoderConfig(ch_prime=64, ch_double_prime=32,
                            error_activation=error_activation)
    return ModelConfig(stages=stages, decoder=decoder, attention_mode=attention_mode)


def full_config(attention_mode: str = "rma",
                error_activation: str = "sigmoid") -> ModelConfig:
    """Full-scale configuration, laid out to land near the published model size."""
    channels = [64, 128, 320, 512]
    depths = [3, 4, 6, 3]
    heads = [1, 2, 5, 8]
    sr = [8, 4, 2, 1]
    stages = [_stage(*spec) for spec in zip(channels, depths, heads, sr)]
    decoder = DecoderConfig(ch_prime=1024, ch_double_prime=256,
                            error_activation=error_activation)
    return ModelConfig(stages=stages, decoder=decoder, attention_mode=attention_mode)


PRESETS = {"desk": desk_config, "full": full_config}


def preset_config(name: str, attention_mode: str = "rma",
                  error_activation: str = "sigmoid") -> ModelConfig:
    if name not in PRESETS:
        raise ConfigurationError(f"unknown preset {name!r}; expected one of {sorted(PRESETS)}")
    return PRESETS[name](attention_mode=attention_mode, error_activation=error_activation)


class SRRNet(Module):
    """Backbone plus dual-purpose decoder: FrameTriplet in, PredictionPair out."""

    def __init__(self, config: ModelConfig, rng: np.random.Generator | None = None):
        rng = rng if rng is not None else np.random.default_rng(0)
        self.config = config
        self.backbone = RMABackbone(config.stages, rng,
                                    attention_mode=config.attention_mode)
        self.decoder = DualPurposeDecoder(config.stage_channels, config.decoder, rng)

    def __call__(self, triplet: FrameTriplet) -> PredictionPair:
        features = self.backbone(triplet)
        return self.decoder(features, triplet.height, triplet.width)


def build_model(preset: str = "desk", attention_mode: str = "rma",
                seed: int = 0, error_activation: str = "sigmoid") -> SRRNet:
    cfg = preset_config(preset, attention_mode=attention_mode,
                        error_activation=error_activation)
    return SRRNet(cfg, np.random.default_rng(seed))
