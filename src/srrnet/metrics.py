"""Segmentation quality measures and dataset-level aggregation.

Five measures over prediction/ground-truth mask pairs: pixel MAE, Dice, IoU,
the structure measure (object-aware plus quadrant region-aware terms), and the
distance-weighted F-measure. The structure and weighted-F constructions follow
the standard reference implementations used throughout the camouflage
segmentation literature.
"""

from __future__ import annotations

import csv
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy import ndimage

from .data import sequence_dirs
from .pnm import read_pgm

_EPS = 1e-12
S_ALPHA = 0.5  # S-measure weight of the object-aware term against the region-aware one
F_BETA2 = 1.0  # weighted F-measure: beta squared
SMOOTHING_SIZE, SMOOTHING_SIGMA = 7, 5.0  # weighted F-measure's Gaussian dependency kernel
MEASURES = ("s_alpha", "f_w_beta", "mae", "mdice", "miou")  # report column order


def _validate_pair(pred: np.ndarray, gt: np.ndarray):
    if pred.shape != gt.shape:
        raise ValueError(f"pred/gt shapes disagree: {pred.shape} vs {gt.shape}")


def mae(pred: np.ndarray, gt: np.ndarray) -> float:
    """Mean absolute pixel difference."""
    pred = np.asarray(pred, dtype=np.float64)
    gt = np.asarray(gt, dtype=np.float64)
    _validate_pair(pred, gt)
    return float(np.abs(pred - gt).mean())


def _binary(mask: np.ndarray) -> np.ndarray:
    """The foreground of a mask in [0, 1]: its pixels above 0.5."""
    return np.asarray(mask, dtype=np.float64) > 0.5


def mdice(pred: np.ndarray, gt: np.ndarray) -> float:
    """Dice coefficient of the masks binarized at 0.5; both-empty pairs score 1."""
    pred, gt = _binary(pred), _binary(gt)
    _validate_pair(pred, gt)
    inter = np.logical_and(pred, gt).sum()
    total = pred.sum() + gt.sum()
    if total == 0:
        return 1.0
    return float(2.0 * inter / total)


def miou(pred: np.ndarray, gt: np.ndarray) -> float:
    """Intersection over union of the masks binarized at 0.5; both-empty pairs score 1."""
    pred, gt = _binary(pred), _binary(gt)
    _validate_pair(pred, gt)
    inter = np.logical_and(pred, gt).sum()
    union = np.logical_or(pred, gt).sum()
    if union == 0:
        return 1.0
    return float(inter / union)


# ---------------------------------------------------------------------------
# structure measure


def _object_score(values: np.ndarray) -> float:
    if values.size == 0:
        return 0.0
    m = values.mean()
    s = values.std(ddof=1) if values.size > 1 else 0.0
    return float(2.0 * m / (m * m + 1.0 + s + _EPS))

def _s_object(pred: np.ndarray, gt: np.ndarray) -> float:
    fg = pred[gt > 0.5]
    bg = 1.0 - pred[gt <= 0.5]
    u = gt.mean()
    return u * _object_score(fg) + (1.0 - u) * _object_score(bg)


def _ssim_region(pred: np.ndarray, gt: np.ndarray) -> float:
    n = pred.size
    if n <= 1:
        return 1.0 if np.allclose(pred, gt) else 0.0
    x, y = pred.mean(), gt.mean()
    sx = ((pred - x) ** 2).sum() / (n - 1)
    sy = ((gt - y) ** 2).sum() / (n - 1)
    sxy = ((pred - x) * (gt - y)).sum() / (n - 1)
    alpha = 4.0 * x * y * sxy
    beta = (x * x + y * y) * (sx + sy)
    if alpha != 0.0:
        return float(alpha / (beta + _EPS))
    if alpha == 0.0 and beta == 0.0:
        return 1.0
    return 0.0


def _gt_centroid(gt: np.ndarray) -> tuple[int, int]:
    rows, cols = np.nonzero(gt > 0.5)
    cy = int(round(rows.mean())) + 1
    cx = int(round(cols.mean())) + 1
    return cy, cx


def _s_region(pred: np.ndarray, gt: np.ndarray) -> float:
    h, w = gt.shape
    cy, cx = _gt_centroid(gt)
    area = h * w
    # quadrant weights proportional to area
    w1 = (cx * cy) / area
    w2 = ((w - cx) * cy) / area
    w3 = (cx * (h - cy)) / area
    w4 = 1.0 - w1 - w2 - w3
    q1 = _ssim_region(pred[:cy, :cx], gt[:cy, :cx])
    q2 = _ssim_region(pred[:cy, cx:], gt[:cy, cx:])
    q3 = _ssim_region(pred[cy:, :cx], gt[cy:, :cx])
    q4 = _ssim_region(pred[cy:, cx:], gt[cy:, cx:])
    return w1 * q1 + w2 * q2 + w3 * q3 + w4 * q4


def s_measure(pred: np.ndarray, gt: np.ndarray) -> float:
    """Structure measure: ``S_ALPHA``-weighted object-aware and region-aware terms.

    Degenerate all-background ground truth scores ``1 - mean(pred)``;
    all-foreground scores ``mean(pred)``.
    """
    pred = np.asarray(pred, dtype=np.float64)
    gt = _binary(gt).astype(np.float64)
    _validate_pair(pred, gt)
    y = gt.mean()
    if y == 0.0:
        return float(1.0 - pred.mean())
    if y == 1.0:
        return float(pred.mean())
    score = S_ALPHA * _s_object(pred, gt) + (1.0 - S_ALPHA) * _s_region(pred, gt)
    return float(max(score, 0.0))


# ---------------------------------------------------------------------------
# weighted F-measure


def _gaussian_kernel() -> np.ndarray:
    half = SMOOTHING_SIZE // 2
    ax = np.arange(-half, half + 1, dtype=np.float64)
    xx, yy = np.meshgrid(ax, ax)
    k = np.exp(-(xx * xx + yy * yy) / (2.0 * SMOOTHING_SIGMA * SMOOTHING_SIGMA))
    return k / k.sum()


def weighted_fbeta(pred: np.ndarray, gt: np.ndarray) -> float:
    """Distance-weighted F-measure with Gaussian dependency smoothing.

    Raises ValueError on an empty ground truth; callers aggregating over a
    dataset skip those frames with a warning.
    """
    pred = np.asarray(pred, dtype=np.float64)
    gt_bool = _binary(gt)
    _validate_pair(pred, gt_bool)
    if not gt_bool.any():
        raise ValueError("weighted_fbeta is undefined for an empty ground truth")
    gt_f = gt_bool.astype(np.float64)

    error = np.abs(pred - gt_f)
    dist, idx = ndimage.distance_transform_edt(~gt_bool, return_indices=True)
    # background errors inherit the error at the nearest foreground pixel
    error_transferred = error.copy()
    bg = ~gt_bool
    error_transferred[bg] = error[idx[0][bg], idx[1][bg]]
    smoothed = ndimage.convolve(error_transferred, _gaussian_kernel(), mode="constant")
    min_error = error.copy()
    use_smoothed = gt_bool & (smoothed < error)
    min_error[use_smoothed] = smoothed[use_smoothed]
    # dependency weighting: background errors decay with distance to the object
    weight = np.ones_like(gt_f)
    weight[bg] = 2.0 - np.exp(np.log(0.5) / 5.0 * dist[bg])
    weighted_error = min_error * weight

    tp_w = gt_f.sum() - weighted_error[gt_bool].sum()
    fp_w = weighted_error[bg].sum()
    recall = 1.0 - weighted_error[gt_bool].mean()
    precision = tp_w / (tp_w + fp_w) if (tp_w + fp_w) > 0 else 0.0
    denom = recall + F_BETA2 * precision
    if denom <= 0:
        return 0.0
    return float(max((1.0 + F_BETA2) * precision * recall / denom, 0.0))


# ---------------------------------------------------------------------------
# aggregation


@dataclass
class SequenceMetrics:
    name: str
    n_frames: int
    s_alpha: float
    f_w_beta: float  # nan when every frame had empty ground truth
    mae: float
    mdice: float
    miou: float
    f_skipped: int = 0


@dataclass
class MetricReport:
    s_alpha: float
    f_w_beta: float
    mae: float
    mdice: float
    miou: float
    per_sequence: list[SequenceMetrics] = field(default_factory=list)
    aggregation: str = "per_sequence"


def compute_pair_metrics(pred: np.ndarray, gt: np.ndarray) -> dict:
    """All five measures for one frame."""
    out = {
        "s_alpha": s_measure(pred, gt),
        "mae": mae(_binary(pred).astype(np.float64), _binary(gt).astype(np.float64)),
        "mdice": mdice(pred, gt),
        "miou": miou(pred, gt),
    }
    try:
        out["f_w_beta"] = weighted_fbeta(pred, gt)
    except ValueError:
        out["f_w_beta"] = np.nan
    return out


def _mean_measures(rows: list[dict]) -> dict:
    """Mean of each measure over rows; weighted F skips NaN (empty ground truth) rows."""
    means = {key: float(np.mean([r[key] for r in rows])) for key in MEASURES if key != "f_w_beta"}
    f_vals = [r["f_w_beta"] for r in rows if not np.isnan(r["f_w_beta"])]
    return {**means, "f_w_beta": float(np.mean(f_vals)) if f_vals else float("nan")}


def _sequence_frames(directory: Path) -> list[str]:
    return sorted(p.stem for p in directory.glob("*.pgm"))


def evaluate_dataset(pred_dir, gt_dir, allow_missing: bool = False,
                     flat: bool = False) -> MetricReport:
    """Per-frame metrics, per-sequence means, macro mean over sequences.

    ``flat=True`` instead averages over all frames regardless of sequence.
    Prediction masks absent from ``pred_dir`` abort the run unless
    ``allow_missing`` is set.
    """
    pred_dir, gt_dir = Path(pred_dir), Path(gt_dir)
    missing: list[str] = []
    sequences: list[SequenceMetrics] = []
    flat_rows: list[dict] = []
    for seq in sequence_dirs(gt_dir):
        rel = seq.name if seq != gt_dir else ""
        rows = []
        skipped = 0
        for stem in _sequence_frames(seq):
            pred_path = pred_dir / rel / f"{stem}.pgm"
            if not pred_path.exists():
                missing.append(str(pred_path))
                continue
            gt_path = seq / f"{stem}.pgm"
            gt = read_pgm(gt_path).astype(np.float64) / 255.0
            pred = read_pgm(pred_path).astype(np.float64) / 255.0
            if pred.shape != gt.shape:
                raise ValueError(f"prediction {pred_path} is {pred.shape[0]}x{pred.shape[1]} but "
                                 f"its ground truth {gt_path} is {gt.shape[0]}x{gt.shape[1]}")
            row = compute_pair_metrics(pred, gt)
            if np.isnan(row["f_w_beta"]):
                skipped += 1
            rows.append(row)
        if not rows:
            continue
        if skipped:
            warnings.warn(
                f"sequence {rel or gt_dir.name}: {skipped} empty-ground-truth frames "
                "excluded from weighted-F averaging")
        sequences.append(SequenceMetrics(name=rel or gt_dir.name, n_frames=len(rows),
                                         f_skipped=skipped, **_mean_measures(rows)))
        flat_rows.extend(rows)
    if missing and not allow_missing:
        raise FileNotFoundError(
            f"{len(missing)} prediction masks missing, e.g. {missing[:5]}; "
            "pass allow_missing to skip them")
    if not sequences:
        raise FileNotFoundError(f"no evaluable frames under {gt_dir}")

    rows = flat_rows if flat else [vars(m) for m in sequences]
    return MetricReport(per_sequence=sequences, **_mean_measures(rows),
                        aggregation="per_frame_flat" if flat else "per_sequence")


def write_report_csv(path, report: MetricReport):
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["sequence", "frames", *MEASURES])
        for s in report.per_sequence:
            writer.writerow([s.name, s.n_frames, *(f"{getattr(s, k):.6f}" for k in MEASURES)])
        writer.writerow(["__overall__", sum(s.n_frames for s in report.per_sequence),
                         *(f"{getattr(report, k):.6f}" for k in MEASURES)])


def format_report_table(report: MetricReport) -> str:
    def cells(m) -> str:
        return "".join(f"{getattr(m, k):>10.4f}" for k in MEASURES)

    header = f"{'sequence':<20}{'frames':>8}{'S':>10}{'Fw':>10}{'MAE':>10}{'mDice':>10}{'mIoU':>10}"
    lines = [header, "-" * len(header)]
    lines += [f"{s.name:<20}{s.n_frames:>8}{cells(s)}" for s in report.per_sequence]
    lines.append("-" * len(header))
    lines.append(f"{'overall':<20}{sum(s.n_frames for s in report.per_sequence):>8}"
                 f"{cells(report)}")
    return "\n".join(lines)
