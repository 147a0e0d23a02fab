"""Training losses, triplet samplers, and the sequential inference protocol.

Inference is a strict single pass: each frame is processed once, in order,
using only the carried previous frame and the remembered reference frame. The
reference is replaced whenever a frame's predicted-error score is strictly
smaller than the best score so far, which makes the reference index a running
prefix-argmin of the score stream (earliest minimum on ties).
"""

from __future__ import annotations

import csv
import itertools
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

from . import tensor as T
from .backbone import FrameTriplet, check_extent
from .data import SequenceRecord, StaticRecord
from .decoder import PredictionPair
from .model import ReferenceSlot, SRRNet
from .nn import AdamW, save_checkpoint
from .tensor import ConfigurationError, Tensor

REFERENCE_MODES = ("off", "random", "scored")


# ---------------------------------------------------------------------------
# losses


def compute_loss(pred: PredictionPair, gt: np.ndarray, gamma: float) -> tuple[Tensor, dict]:
    """Segmentation BCE plus gamma-weighted MSE on the predicted error map.

    The BCE acts on the foreground-minus-background logit of
    ``pred.supervision_logits``. The error target is ``gt - pred.o_msk`` (its
    absolute value unless ``pred.error_target``, the decoder's, is
    ``"signed"``), resized to the error map's grid; ``o_msk`` is an argmax, so
    no gradient flows through the target.
    """
    logits, o_err = pred.supervision_logits, pred.o_err
    gt = np.asarray(gt, dtype=np.float64)
    if gt.shape[0] != logits.shape[0] or gt.shape[2:] != tuple(logits.shape[2:]):
        raise T.ShapeMismatchError(
            f"ground truth shape {gt.shape} does not match logits {logits.shape}")
    logit_diff = T.narrow(logits, 1, 1, 1) - T.narrow(logits, 1, 0, 1)
    bce = T.bce_with_logits(logit_diff, gt)

    raw = gt - pred.o_msk
    target = np.abs(raw) if pred.error_target == "absolute" else raw
    target = T.bilinear_resize(Tensor(target), o_err.shape[2], o_err.shape[3]).data
    mse = T.mse(o_err, target)
    total = bce + gamma * mse
    return total, {"bce": float(bce.data), "mse": float(mse.data),
                   "total": float(total.data)}


# ---------------------------------------------------------------------------
# training triplet samplers


class TrainTriplet(NamedTuple):
    """One training sample as the model's inputs: C (1 x 3 x H x W), P and R
    (1 x 4 x H x W, each frame with its mask appended) and C's ground truth
    (1 x 1 x H x W)."""

    c_img: np.ndarray
    p_in: np.ndarray
    r_in: np.ndarray
    gt: np.ndarray


def _branch_input(frame: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """A P or R model input: the frame with its mask appended, 1 x 4 x H x W."""
    return np.concatenate([frame, mask], axis=0)[None]


def _triplet(c: tuple, p: tuple, r: tuple) -> TrainTriplet:
    """The sample whose C, P and R are the given (frame, mask) pairs."""
    return TrainTriplet(c[0][None], _branch_input(*p), _branch_input(*r), c[1][None])


def sample_training_triplet(sequence: SequenceRecord,
                            rng: np.random.Generator) -> TrainTriplet:
    """Video sampling: random current frame, its predecessor, an earlier reference."""
    n = len(sequence.frames)
    if n < 2:
        c = p = r = 0  # a single-frame sequence fills every branch with its frame
    else:
        c = int(rng.integers(1, n))
        p, r = c - 1, int(rng.integers(0, c))
    return _triplet(*[(sequence.frames[i], sequence.masks[i]) for i in (c, p, r)])


def static_sampler(pool: Sequence[StaticRecord]
                   ) -> Callable[[np.random.Generator], TrainTriplet]:
    """Static sampling: same-category neighbor as P, any pool image as R.

    The pool's categories are indexed once, here; each sample then reads
    only its own category's members and its three records.
    """
    if not pool:
        raise ConfigurationError("static pool is empty")
    members: dict[str, list[int]] = {}
    for i, rec in enumerate(pool):
        members.setdefault(rec.category, []).append(i)

    def sample(rng: np.random.Generator) -> TrainTriplet:
        c = int(rng.integers(0, len(pool)))
        same = [i for i in members[pool[c].category] if i != c]
        p = int(rng.choice(same)) if same else c
        r = int(rng.integers(0, len(pool)))
        return _triplet(*[(pool[i].image, pool[i].mask) for i in (c, p, r)])

    return sample


def triplet_to_input(trip: TrainTriplet) -> tuple[FrameTriplet, np.ndarray]:
    return FrameTriplet(Tensor(trip.c_img), Tensor(trip.p_in), Tensor(trip.r_in)), trip.gt


# ---------------------------------------------------------------------------
# augmentation


def _without_mask(branch_in: np.ndarray) -> np.ndarray:
    """A P or R input with its mask channel zeroed."""
    out = branch_in.copy()
    out[:, 3] = 0.0
    return out


def _augment(trip: TrainTriplet, rng: np.random.Generator,
             schedule: TrainSchedule) -> TrainTriplet:
    if schedule.flip and rng.random() < 0.5:
        trip = TrainTriplet(*(a[..., ::-1].copy() for a in trip))
    # Bootstrap augmentation: inference starts from a degenerate triplet whose
    # mask channels are all zero, so training must sometimes show that regime.
    if schedule.mask_dropout > 0.0:
        if rng.random() < schedule.mask_dropout:
            trip = trip._replace(p_in=_without_mask(trip.p_in))
        if rng.random() < schedule.mask_dropout:
            trip = trip._replace(r_in=_without_mask(trip.r_in))
    crop = schedule.crop
    if crop is not None:
        h, w = trip.gt.shape[-2:]
        if crop < h or crop < w:
            top = int(rng.integers(0, h - crop + 1))
            left = int(rng.integers(0, w - crop + 1))
            trip = TrainTriplet(*(a[..., top:top + crop, left:left + crop].copy() for a in trip))
    return trip


# ---------------------------------------------------------------------------
# reference memory and sessions


@dataclass
class StepResult:
    """One frame's outputs. ``o_msk`` is bool, so a kept result costs one
    byte a mask pixel plus its quarter-resolution float64 error map."""

    frame_index: int
    o_msk: np.ndarray       # 1 x H x W bool
    o_err: np.ndarray       # 1 x (H/4) x (W/4)
    score: float
    updated: bool
    ref_frame_index: int


class InferenceSession:
    """Strictly sequential single-pass inference with score-driven memory.

    The session holds the pass state: P's input ``prev_in``, R's ``r_in`` (each
    a frame with its mask, 1 x 4 x H x W), the best score and its frame index.
    """

    def __init__(self, model: SRRNet, reference_mode: str = "scored", seed: int = 0):
        if reference_mode not in REFERENCE_MODES:
            raise ConfigurationError(
                f"unknown reference mode {reference_mode!r}; expected one of {REFERENCE_MODES}")
        self.model = model
        self.reference_mode = reference_mode
        self.rng = np.random.default_rng(seed)
        self.prev_in: Optional[np.ndarray] = None  # None until start()

    def start(self, first_frame: np.ndarray):
        """Initialize from the first frame: P = R = the frame with a zero mask, S = 1.

        A frame's model input is built once, when its prediction is committed:
        it is the next P and, while its score is the best so far, R.
        """
        first_frame = np.asarray(first_frame, dtype=np.float64)
        self.prev_in = _branch_input(first_frame,
                                     np.zeros((1,) + first_frame.shape[1:], dtype=bool))
        self.r_in = self.prev_in
        self.best_score = 1.0
        self.ref_frame_index = 0
        self.frame_counter = 0
        self._history: list[tuple[np.ndarray, np.ndarray]] = []  # random mode only
        # the model's encoding of the current reference input and its
        # collapsed decoder, kept across frames and refilled by the model
        self.reference_slot = ReferenceSlot()
        return self

    def step(self, frame: np.ndarray) -> StepResult:
        if self.prev_in is None:
            raise RuntimeError("session not initialized; call start() first")
        frame = np.asarray(frame, dtype=np.float64)
        expected = (self.prev_in.shape[1] - 1,) + self.prev_in.shape[2:]
        if frame.shape != expected:
            raise ConfigurationError(
                f"frame shape changed mid-sequence: {frame.shape} vs {expected}")

        if self.reference_mode == "off":
            r_in = self.prev_in
        elif self.reference_mode == "random" and self._history:
            pick = int(self.rng.integers(0, len(self._history)))
            r_in = _branch_input(*self._history[pick])
        else:
            r_in = self.r_in

        triplet = FrameTriplet(Tensor(frame[None]), Tensor(self.prev_in), Tensor(r_in),
                               reference=self.reference_slot)
        with T.no_grad():
            pred = self.model(triplet)
        o_msk = pred.o_msk[0]
        o_err = pred.o_err.data[0]
        score = pred.score_value
        index = self.frame_counter

        self.prev_in = _branch_input(frame, o_msk)
        updated = score < self.best_score  # strictly smaller: ties keep the older reference
        if updated:
            self.r_in, self.best_score, self.ref_frame_index = self.prev_in, score, index
        if self.reference_mode == "random":
            self._history.append((frame, o_msk))
        self.frame_counter += 1
        return StepResult(frame_index=index, o_msk=o_msk, o_err=o_err,
                          score=score, updated=updated,
                          ref_frame_index=self.ref_frame_index)


def infer_sequence(model: SRRNet, frames: Sequence[np.ndarray],
                   reference_mode: str = "scored", seed: int = 0) -> list[StepResult]:
    """Run the session over an ordered frame source, one pass, no lookahead."""
    if len(frames) == 0:
        raise ConfigurationError("empty sequence")
    session = InferenceSession(model, reference_mode=reference_mode, seed=seed)
    results = []
    for t in range(len(frames)):
        frame = frames[t]
        if t == 0:
            session.start(frame)
        results.append(session.step(frame))
    return results


def write_score_trace(path, results: Sequence[StepResult],
                      gts: Optional[Sequence[np.ndarray]] = None) -> Optional[list[float]]:
    """CSV trace: frame_index, score, true_mae (blank without gt), updated, ref index.

    Returns each frame's true MAE as written, in the order of ``results``, or
    ``None`` without ground truth: each mask is read once for both.
    """
    maes = None if gts is None else [
        float(np.abs(res.o_msk - np.asarray(gts[res.frame_index], dtype=np.float64)).mean())
        for res in results]
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["frame_index", "score", "true_mae", "updated", "ref_frame_index"])
        for i, res in enumerate(results):
            true_mae = "" if maes is None else f"{maes[i]:.9f}"
            writer.writerow([res.frame_index, f"{res.score:.9f}", true_mae,
                             int(res.updated), res.ref_frame_index])
    return maes


# ---------------------------------------------------------------------------
# training


@dataclass
class TrainSchedule:
    static_iterations: int = 0
    video_iterations: int = 0
    static_lr: float = 6e-5
    video_lr: float = 1e-5
    gamma: float = 1.0
    seed: int = 0
    flip: bool = True
    crop: Optional[int] = None
    mask_dropout: float = 0.0  # probability of zeroing each mask input channel
    log_every: int = 50

    def __post_init__(self):
        for name in ("static_iterations", "video_iterations"):
            if getattr(self, name) < 0:
                raise ConfigurationError(
                    f"{name} must be non-negative, got {getattr(self, name)}")
        for name in ("static_lr", "video_lr", "gamma"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0):  # NaN fails every comparison
                raise ConfigurationError(f"{name} must be finite and non-negative, got {value}")
        if self.crop is not None:
            check_extent("crop", self.crop)
        if not 0.0 <= self.mask_dropout <= 1.0:
            raise ConfigurationError(f"mask_dropout must be in [0, 1], got {self.mask_dropout}")


@dataclass
class TrainResult:
    checkpoint_path: Path
    csv_path: Path
    loss_trace: list  # (iteration, stage, bce, mse, total)


def _train_stage(model: SRRNet, sample: Callable[[np.random.Generator], TrainTriplet],
                 iterations: int, lr: float, schedule: TrainSchedule,
                 rng: np.random.Generator, stage: str, trace: list,
                 progress: Optional[Callable[[int, dict], None]] = None):
    opt = AdamW(model.parameters(), lr=lr)
    for it in range(iterations):
        trip = _augment(sample(rng), rng, schedule)
        triplet, gt = triplet_to_input(trip)
        model.zero_grad()  # the last step's gradients are not kept alive through this forward
        pred = model(triplet)
        loss, parts = compute_loss(pred, gt, schedule.gamma)
        if not np.isfinite(loss.data).all():
            # a non-finite loss would poison every weight through the optimizer
            raise RuntimeError(
                f"non-finite loss {float(loss.data)} at {stage} iteration {it + 1}")
        T.backward(loss)
        opt.step()
        trace.append((len(trace), stage, parts["bce"], parts["mse"], parts["total"]))
        if progress is not None and (it + 1) % schedule.log_every == 0:
            progress(it + 1, parts)


def train(model: SRRNet, schedule: TrainSchedule, out_dir,
          video_sequences: Optional[Sequence[SequenceRecord]] = None,
          static_pool: Optional[Sequence[StaticRecord]] = None,
          progress: Optional[Callable[[int, dict], None]] = None) -> TrainResult:
    """Static pretrain then video fine-tune; either stage may be skipped.

    Writes ``loss.csv`` and ``checkpoint.npz`` into ``out_dir``. A crop
    larger than any given frame or pool image is refused before any step.
    """
    if schedule.crop is not None:  # stored extents: nothing is decoded
        for h, w in itertools.chain((seq.extent for seq in video_sequences or ()),
                                    (rec.extent for rec in static_pool or ())):
            if schedule.crop > h or schedule.crop > w:
                raise ConfigurationError(
                    f"crop {schedule.crop} exceeds the {h}x{w} frame extent")
    rng = np.random.default_rng(schedule.seed)
    out_dir = Path(out_dir)
    result = TrainResult(checkpoint_path=out_dir / "checkpoint.npz",
                         csv_path=out_dir / "loss.csv", loss_trace=[])

    if schedule.static_iterations > 0:
        if not static_pool:
            raise ConfigurationError("static pretraining requested without a static pool")
        _train_stage(model, static_sampler(static_pool), schedule.static_iterations,
                     schedule.static_lr, schedule, rng, "static", result.loss_trace, progress)

    if schedule.video_iterations > 0:
        if not video_sequences:
            raise ConfigurationError("video fine-tuning requested without sequences")
        sequences = list(video_sequences)

        def sample_video(r: np.random.Generator) -> TrainTriplet:
            seq = sequences[int(r.integers(0, len(sequences)))]
            return sample_training_triplet(seq, r)

        _train_stage(model, sample_video, schedule.video_iterations,
                     schedule.video_lr, schedule, rng, "video",
                     result.loss_trace, progress)

    out_dir.mkdir(parents=True, exist_ok=True)
    with open(result.csv_path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["iteration", "stage", "bce", "mse", "total"])
        for row in result.loss_trace:
            writer.writerow([row[0], row[1], f"{row[2]:.9f}", f"{row[3]:.9f}",
                             f"{row[4]:.9f}"])
    save_checkpoint(result.checkpoint_path, model)
    return result
