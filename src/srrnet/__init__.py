"""Video camouflaged-object segmentation with score-driven reference memory."""

__version__ = "0.1.0"

from .attention import ATTENTION_MODES, AttentionConfig, RMABlock
from .backbone import FrameTriplet, PyramidFeatures, RMABackbone, StageConfig
from .decoder import DecoderConfig, DualPurposeDecoder, PredictionPair
from .model import ReferenceSlot, SRRNet, build_model, load_model, preset_config
from .nn import AdamW, Module, Parameter, count_parameters, load_checkpoint, save_checkpoint
from .pipeline import (
    InferenceSession,
    MemoryState,
    REFERENCE_MODES,
    TrainSchedule,
    compute_loss,
    infer_sequence,
    sample_training_triplet,
    train,
)
from .tensor import Tensor, backward, no_grad
