"""Training losses, triplet samplers, and the sequential inference protocol.

Inference is a strict single pass: each frame is processed once, in order,
using only the carried previous frame and the remembered reference frame. The
reference is replaced whenever a frame's predicted-error score is strictly
smaller than the best score so far, which makes the reference index a running
prefix-argmin of the score stream (earliest minimum on ties).
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional, Sequence

import numpy as np

from . import tensor as T
from .backbone import FrameTriplet
from .data import SequenceRecord, StaticRecord
from .decoder import binary_mask_from_logits
from .model import SRRNet
from .nn import AdamW, save_checkpoint
from .tensor import ConfigurationError, Tensor

REFERENCE_MODES = ("off", "random", "scored")


# ---------------------------------------------------------------------------
# losses


@dataclass
class LossConfig:
    gamma: float = 1.0
    error_target: str = "absolute"  # or "signed"

    def __post_init__(self):
        if self.gamma < 0:
            raise ConfigurationError(f"gamma must be non-negative, got {self.gamma}")
        if self.error_target not in ("absolute", "signed"):
            raise ConfigurationError(f"unknown error target {self.error_target!r}")


def compute_loss(mask_logits: Tensor, o_err: Tensor, gt: np.ndarray,
                 cfg: LossConfig) -> tuple[Tensor, dict]:
    """Segmentation BCE plus gamma-weighted MSE on the predicted error map.

    ``mask_logits`` is the two-channel map at supervision resolution; the BCE
    acts on the foreground-minus-background logit. The error target is derived
    from the detached binary mask and resized to the error map's grid when the
    resolutions differ.
    """
    gt = np.asarray(gt, dtype=np.float64)
    if gt.shape[0] != mask_logits.shape[0] or gt.shape[2:] != tuple(mask_logits.shape[2:]):
        raise T.ShapeMismatchError(
            f"ground truth shape {gt.shape} does not match logits {mask_logits.shape}")
    logit_diff = T.narrow(mask_logits, 1, 1, 1) - T.narrow(mask_logits, 1, 0, 1)
    bce = T.bce_with_logits(logit_diff, gt)

    o_msk = binary_mask_from_logits(mask_logits)  # detached by construction
    raw = gt - o_msk
    target = np.abs(raw) if cfg.error_target == "absolute" else raw
    if target.shape[2:] != tuple(o_err.shape[2:]):
        target = T.resize_array(target, o_err.shape[2], o_err.shape[3])
    mse = T.mse(o_err, target)
    total = bce + cfg.gamma * mse
    return total, {"bce": float(bce.data), "mse": float(mse.data),
                   "total": float(total.data)}


# ---------------------------------------------------------------------------
# training triplet samplers


@dataclass
class TrainTriplet:
    c_img: np.ndarray
    c_gt: np.ndarray
    p_img: np.ndarray
    p_seg: np.ndarray
    r_img: np.ndarray
    r_seg: np.ndarray
    c_index: int
    p_index: int
    r_index: int


def sample_training_triplet(sequence: SequenceRecord,
                            rng: np.random.Generator) -> TrainTriplet:
    """Video sampling: random current frame, its predecessor, an earlier reference."""
    n = len(sequence.frames)
    if n < 2:
        # degenerate single-frame sequence: reuse the frame for all branches
        img, seg = sequence.frames[0], sequence.masks[0]
        return TrainTriplet(img, seg, img, seg, img, seg, 0, 0, 0)
    c = int(rng.integers(1, n))
    p = c - 1
    r = int(rng.integers(0, c))
    return TrainTriplet(
        c_img=sequence.frames[c], c_gt=sequence.masks[c],
        p_img=sequence.frames[p], p_seg=sequence.masks[p],
        r_img=sequence.frames[r], r_seg=sequence.masks[r],
        c_index=c, p_index=p, r_index=r,
    )


def sample_static_triplet(pool: Sequence[StaticRecord],
                          rng: np.random.Generator) -> TrainTriplet:
    """Static sampling: same-category neighbor as P, any pool image as R."""
    if not pool:
        raise ConfigurationError("static pool is empty")
    c = int(rng.integers(0, len(pool)))
    current = pool[c]
    same = [i for i, rec in enumerate(pool)
            if rec.category == current.category and i != c]
    p = int(rng.choice(same)) if same else c
    r = int(rng.integers(0, len(pool)))
    prev, ref = pool[p], pool[r]
    return TrainTriplet(
        c_img=current.image, c_gt=current.mask,
        p_img=prev.image, p_seg=prev.mask,
        r_img=ref.image, r_seg=ref.mask,
        c_index=c, p_index=p, r_index=r,
    )


def triplet_to_input(trip: TrainTriplet) -> tuple[FrameTriplet, np.ndarray]:
    c = trip.c_img[None]
    p = np.concatenate([trip.p_img, trip.p_seg], axis=0)[None]
    r = np.concatenate([trip.r_img, trip.r_seg], axis=0)[None]
    return FrameTriplet(Tensor(c), Tensor(p), Tensor(r)), trip.c_gt[None]


# ---------------------------------------------------------------------------
# augmentation


def _augment(trip: TrainTriplet, rng: np.random.Generator, flip: bool,
             crop: Optional[int], mask_dropout: float = 0.0) -> TrainTriplet:
    arrays = [trip.c_img, trip.c_gt, trip.p_img, trip.p_seg, trip.r_img, trip.r_seg]
    if flip and rng.random() < 0.5:
        arrays = [a[..., ::-1].copy() for a in arrays]
    # Bootstrap augmentation: inference starts from a degenerate triplet whose
    # mask channels are all zero, so training must sometimes show that regime.
    if mask_dropout > 0.0:
        if rng.random() < mask_dropout:
            arrays[3] = np.zeros_like(arrays[3])
        if rng.random() < mask_dropout:
            arrays[5] = np.zeros_like(arrays[5])
    if crop is not None:
        h, w = arrays[0].shape[-2:]
        if crop % 32:
            raise ConfigurationError(f"crop size {crop} must be divisible by 32")
        if crop < h or crop < w:
            top = int(rng.integers(0, h - crop + 1))
            left = int(rng.integers(0, w - crop + 1))
            arrays = [a[..., top:top + crop, left:left + crop].copy() for a in arrays]
    return TrainTriplet(arrays[0], arrays[1], arrays[2], arrays[3],
                        arrays[4], arrays[5], trip.c_index, trip.p_index, trip.r_index)


# ---------------------------------------------------------------------------
# reference memory and sessions


@dataclass
class MemoryState:
    """Stored reference frame, its mask, and the best score seen so far."""

    r_img: np.ndarray
    r_msk: np.ndarray
    score: float = 1.0
    ref_frame_index: int = 0

    def update(self, frame_index: int, frame: np.ndarray, mask: np.ndarray,
               score: float) -> bool:
        """Replace the reference iff the new score is strictly smaller."""
        if score < self.score:
            self.r_img = frame
            self.r_msk = mask
            self.score = score
            self.ref_frame_index = frame_index
            return True
        return False


@dataclass
class StepResult:
    frame_index: int
    o_msk: np.ndarray       # 1 x H x W binary
    o_err: np.ndarray       # 1 x (H/4) x (W/4)
    score: float
    updated: bool
    ref_frame_index: int


class InferenceSession:
    """Strictly sequential single-pass inference with score-driven memory."""

    def __init__(self, model: SRRNet, reference_mode: str = "scored",
                 seed: int = 0,
                 score_override: Optional[Callable[[int], float]] = None):
        if reference_mode not in REFERENCE_MODES:
            raise ConfigurationError(
                f"unknown reference mode {reference_mode!r}; expected one of {REFERENCE_MODES}")
        self.model = model
        self.reference_mode = reference_mode
        self.rng = np.random.default_rng(seed)
        self.score_override = score_override
        self.memory: Optional[MemoryState] = None
        self.prev_img: Optional[np.ndarray] = None
        self.prev_msk: Optional[np.ndarray] = None
        self.frame_counter = 0
        self._history: list[tuple[np.ndarray, np.ndarray]] = []  # random mode only

    def start(self, first_frame: np.ndarray):
        """Initialize from the first frame: P = R = frame, masks zero, S = 1."""
        first_frame = np.asarray(first_frame, dtype=np.float64)
        zeros = np.zeros((1,) + first_frame.shape[1:])
        self.memory = MemoryState(r_img=first_frame, r_msk=zeros,
                                  score=1.0, ref_frame_index=0)
        self.prev_img = first_frame
        self.prev_msk = zeros
        self.frame_counter = 0
        self._history = []
        return self

    def step(self, frame: np.ndarray) -> StepResult:
        if self.memory is None:
            raise RuntimeError("session not initialized; call start() first")
        frame = np.asarray(frame, dtype=np.float64)
        if frame.shape != self.prev_img.shape:
            raise ConfigurationError(
                f"frame shape changed mid-sequence: {frame.shape} vs {self.prev_img.shape}")

        if self.reference_mode == "off":
            r_img, r_msk = self.prev_img, self.prev_msk
        elif self.reference_mode == "random" and self._history:
            pick = int(self.rng.integers(0, len(self._history)))
            r_img, r_msk = self._history[pick]
        else:
            r_img, r_msk = self.memory.r_img, self.memory.r_msk

        triplet = FrameTriplet(
            Tensor(frame[None]),
            Tensor(np.concatenate([self.prev_img, self.prev_msk], axis=0)[None]),
            Tensor(np.concatenate([r_img, r_msk], axis=0)[None]),
        )
        with T.no_grad():
            pred = self.model(triplet)
        o_msk = pred.o_msk[0]
        o_err = pred.o_err.data[0]
        score = pred.score_value
        index = self.frame_counter
        decision_score = (self.score_override(index)
                          if self.score_override is not None else score)

        updated = self.memory.update(index, frame, o_msk, decision_score)
        self.prev_img = frame
        self.prev_msk = o_msk
        if self.reference_mode == "random":
            self._history.append((frame, o_msk))
        self.frame_counter += 1
        return StepResult(frame_index=index, o_msk=o_msk, o_err=o_err,
                          score=score, updated=updated,
                          ref_frame_index=self.memory.ref_frame_index)


def init_session(model: SRRNet, first_frame: np.ndarray,
                 reference_mode: str = "scored", seed: int = 0) -> InferenceSession:
    return InferenceSession(model, reference_mode=reference_mode, seed=seed).start(first_frame)


def infer_sequence(model: SRRNet, frames: Sequence[np.ndarray],
                   reference_mode: str = "scored", seed: int = 0,
                   score_override: Optional[Callable[[int], float]] = None
                   ) -> list[StepResult]:
    """Run the session over an ordered frame source, one pass, no lookahead."""
    if len(frames) == 0:
        raise ConfigurationError("empty sequence")
    session = InferenceSession(model, reference_mode=reference_mode, seed=seed,
                               score_override=score_override)
    results = []
    for t in range(len(frames)):
        frame = frames[t]
        if t == 0:
            session.start(frame)
        results.append(session.step(frame))
    return results


def write_score_trace(path, results: Sequence[StepResult],
                      gts: Optional[Sequence[np.ndarray]] = None):
    """CSV trace: frame_index, score, true_mae (blank without gt), updated, ref index."""
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["frame_index", "score", "true_mae", "updated", "ref_frame_index"])
        for res in results:
            true_mae = ""
            if gts is not None:
                gt = np.asarray(gts[res.frame_index], dtype=np.float64)
                true_mae = f"{np.abs(res.o_msk - gt).mean():.9f}"
            writer.writerow([res.frame_index, f"{res.score:.9f}", true_mae,
                             int(res.updated), res.ref_frame_index])


# ---------------------------------------------------------------------------
# training


@dataclass
class TrainSchedule:
    static_iterations: int = 0
    video_iterations: int = 0
    static_lr: float = 6e-5
    video_lr: float = 1e-5
    gamma: float = 1.0
    error_target: str = "absolute"
    seed: int = 0
    flip: bool = True
    crop: Optional[int] = None
    mask_dropout: float = 0.0  # probability of zeroing each mask input channel
    weight_decay: float = 1e-2
    log_every: int = 50


@dataclass
class TrainResult:
    loss_trace: list = field(default_factory=list)  # (iteration, stage, bce, mse, total)
    checkpoint_path: Optional[Path] = None
    csv_path: Optional[Path] = None


def _train_stage(model: SRRNet, sample: Callable[[np.random.Generator], TrainTriplet],
                 iterations: int, lr: float, schedule: TrainSchedule,
                 loss_cfg: LossConfig, rng: np.random.Generator, stage: str,
                 trace: list, progress: Optional[Callable[[int, dict], None]] = None):
    opt = AdamW(model.parameters(), lr=lr, weight_decay=schedule.weight_decay)
    for it in range(iterations):
        trip = _augment(sample(rng), rng, schedule.flip, schedule.crop,
                        schedule.mask_dropout)
        triplet, gt = triplet_to_input(trip)
        pred = model(triplet)
        loss, parts = compute_loss(pred.supervision_logits, pred.o_err, gt, loss_cfg)
        if not np.isfinite(loss.data).all():
            # a non-finite loss would poison every weight through the optimizer
            raise RuntimeError(
                f"non-finite loss {loss.item()} at {stage} iteration {it + 1}")
        opt.zero_grad()
        T.backward(loss)
        opt.step()
        trace.append((len(trace), stage, parts["bce"], parts["mse"], parts["total"]))
        if progress is not None and (it + 1) % schedule.log_every == 0:
            progress(it + 1, parts)


def train(model: SRRNet, schedule: TrainSchedule,
          video_sequences: Optional[Sequence[SequenceRecord]] = None,
          static_pool: Optional[Sequence[StaticRecord]] = None,
          out_dir=None,
          progress: Optional[Callable[[int, dict], None]] = None) -> TrainResult:
    """Static pretrain then video fine-tune; either stage may be skipped."""
    loss_cfg = LossConfig(gamma=schedule.gamma, error_target=schedule.error_target)
    rng = np.random.default_rng(schedule.seed)
    result = TrainResult()

    if schedule.static_iterations > 0:
        if not static_pool:
            raise ConfigurationError("static pretraining requested without a static pool")
        _train_stage(model, lambda r: sample_static_triplet(static_pool, r),
                     schedule.static_iterations, schedule.static_lr, schedule,
                     loss_cfg, rng, "static", result.loss_trace, progress)

    if schedule.video_iterations > 0:
        if not video_sequences:
            raise ConfigurationError("video fine-tuning requested without sequences")
        sequences = list(video_sequences)

        def sample_video(r: np.random.Generator) -> TrainTriplet:
            seq = sequences[int(r.integers(0, len(sequences)))]
            return sample_training_triplet(seq, r)

        _train_stage(model, sample_video, schedule.video_iterations,
                     schedule.video_lr, schedule, loss_cfg, rng, "video",
                     result.loss_trace, progress)

    if out_dir is not None:
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        result.csv_path = out_dir / "loss.csv"
        with open(result.csv_path, "w", newline="") as f:
            writer = csv.writer(f)
            writer.writerow(["iteration", "stage", "bce", "mse", "total"])
            for row in result.loss_trace:
                writer.writerow([row[0], row[1], f"{row[2]:.9f}", f"{row[3]:.9f}",
                                 f"{row[4]:.9f}"])
        result.checkpoint_path = out_dir / "checkpoint.npz"
        save_checkpoint(result.checkpoint_path, model)
    return result
