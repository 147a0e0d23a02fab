"""Evaluation measures against independent brute-force and transcription oracles."""

import numpy as np
import pytest
from scipy import ndimage

from srrnet.metrics import (
    compute_pair_metrics,
    evaluate_dataset,
    format_report_table,
    mae,
    mdice,
    miou,
    s_measure,
    weighted_fbeta,
    write_report_csv,
)
from srrnet.pnm import write_pgm


# ---------------------------------------------------------------------------
# brute-force oracles (explicit loops, no shared code with the implementation)


def _mae_oracle(pred, gt):
    total = 0.0
    h, w = pred.shape
    for i in range(h):
        for j in range(w):
            total += abs(pred[i, j] - gt[i, j])
    return total / (h * w)


def _dice_iou_oracle(pred, gt):
    inter = fp = fn = 0
    h, w = pred.shape
    for i in range(h):
        for j in range(w):
            p, g = pred[i, j] > 0.5, gt[i, j] > 0.5
            inter += p and g
            fp += p and not g
            fn += g and not p
    union = inter + fp + fn
    dice = 1.0 if (2 * inter + fp + fn) == 0 else 2.0 * inter / (2 * inter + fp + fn)
    iou = 1.0 if union == 0 else inter / union
    return dice, iou


def _s_measure_oracle(pred, gt, alpha=0.5):
    """Independent transcription of the structure-measure construction."""
    gt = (gt > 0.5).astype(np.float64)
    y = gt.mean()
    if y == 0.0:
        return 1.0 - pred.mean()
    if y == 1.0:
        return pred.mean()

    def obj(x):
        if x.size == 0:
            return 0.0
        m = x.mean()
        s = np.sqrt(((x - m) ** 2).sum() / (x.size - 1)) if x.size > 1 else 0.0
        return 2.0 * m / (m * m + 1.0 + s + 1e-12)

    s_o = y * obj(pred[gt > 0.5]) + (1.0 - y) * obj(1.0 - pred[gt <= 0.5])

    rows, cols = np.where(gt > 0.5)
    cy = int(round(rows.mean())) + 1
    cx = int(round(cols.mean())) + 1
    h, w = gt.shape

    def ssim(p, g):
        n = p.size
        if n <= 1:
            return 1.0 if np.allclose(p, g) else 0.0
        xm, ym = p.mean(), g.mean()
        sx = ((p - xm) ** 2).sum() / (n - 1)
        sy = ((g - ym) ** 2).sum() / (n - 1)
        sxy = ((p - xm) * (g - ym)).sum() / (n - 1)
        a = 4.0 * xm * ym * sxy
        b = (xm * xm + ym * ym) * (sx + sy)
        if a != 0.0:
            return a / (b + 1e-12)
        return 1.0 if b == 0.0 else 0.0

    quads = [(pred[:cy, :cx], gt[:cy, :cx], cx * cy),
             (pred[:cy, cx:], gt[:cy, cx:], (w - cx) * cy),
             (pred[cy:, :cx], gt[cy:, :cx], cx * (h - cy))]
    s_r = 0.0
    used = 0.0
    for p, g, area in quads:
        s_r += area / (h * w) * ssim(p, g)
        used += area / (h * w)
    s_r += (1.0 - used) * ssim(pred[cy:, cx:], gt[cy:, cx:])
    return max(alpha * s_o + (1.0 - alpha) * s_r, 0.0)


def _weighted_fbeta_oracle(pred, gt, beta2=1.0):
    """Independent transcription of the weighted F construction (loop conv)."""
    gtb = gt > 0.5
    if not gtb.any():
        raise ValueError("empty gt")
    gtf = gtb.astype(np.float64)
    err = np.abs(pred - gtf)
    dist, idx = ndimage.distance_transform_edt(~gtb, return_indices=True)
    et = err.copy()
    h, w = gt.shape
    for i in range(h):
        for j in range(w):
            if not gtb[i, j]:
                et[i, j] = err[idx[0, i, j], idx[1, i, j]]
    # 7x7 sigma-5 Gaussian, zero padded, written as explicit loops
    half = 3
    ax = np.arange(-half, half + 1, dtype=np.float64)
    kk = np.exp(-(ax[:, None] ** 2 + ax[None, :] ** 2) / 50.0)
    kk /= kk.sum()
    sm = np.zeros_like(et)
    for i in range(h):
        for j in range(w):
            acc = 0.0
            for di in range(-half, half + 1):
                for dj in range(-half, half + 1):
                    ii, jj = i + di, j + dj
                    if 0 <= ii < h and 0 <= jj < w:
                        acc += et[ii, jj] * kk[di + half, dj + half]
            sm[i, j] = acc
    mn = err.copy()
    for i in range(h):
        for j in range(w):
            if gtb[i, j] and sm[i, j] < err[i, j]:
                mn[i, j] = sm[i, j]
    wt = np.ones((h, w))
    for i in range(h):
        for j in range(w):
            if not gtb[i, j]:
                wt[i, j] = 2.0 - np.exp(np.log(0.5) / 5.0 * dist[i, j])
    ew = mn * wt
    tpw = gtf.sum() - ew[gtb].sum()
    fpw = ew[~gtb].sum()
    recall = 1.0 - ew[gtb].mean()
    precision = tpw / (tpw + fpw) if (tpw + fpw) > 0 else 0.0
    denom = recall + beta2 * precision
    if denom <= 0:
        return 0.0
    return max((1.0 + beta2) * precision * recall / denom, 0.0)


# ---------------------------------------------------------------------------
# oracle comparisons


def _random_pair(gen, soft=False):
    gt = (gen.random((8, 8)) > gen.uniform(0.2, 0.8)).astype(np.float64)
    pred = gen.random((8, 8)) if soft else (gen.random((8, 8)) > 0.5).astype(np.float64)
    return pred, gt


def test_binary_metrics_match_brute_force_exactly():
    gen = np.random.default_rng(7)
    for _ in range(200):
        pred, gt = _random_pair(gen)
        assert mae(pred, gt) == _mae_oracle(pred, gt)
        d, j = _dice_iou_oracle(pred, gt)
        assert mdice(pred, gt) == d
        assert miou(pred, gt) == j


def test_s_measure_matches_transcription_oracle():
    gen = np.random.default_rng(11)
    for _ in range(100):
        pred, gt = _random_pair(gen, soft=True)
        assert abs(s_measure(pred, gt) - _s_measure_oracle(pred, gt)) < 1e-9


def test_weighted_fbeta_matches_transcription_oracle():
    gen = np.random.default_rng(13)
    checked = 0
    while checked < 50:
        pred, gt = _random_pair(gen, soft=True)
        if not (gt > 0.5).any():
            continue
        assert abs(weighted_fbeta(pred, gt) - _weighted_fbeta_oracle(pred, gt)) < 1e-9
        checked += 1


# ---------------------------------------------------------------------------
# fixed cases and properties


def test_perfection_values():
    gen = np.random.default_rng(3)
    gt = (gen.random((8, 8)) > 0.5).astype(np.float64)
    assert s_measure(gt, gt) == pytest.approx(1.0, abs=1e-9)
    assert weighted_fbeta(gt, gt) == pytest.approx(1.0, abs=1e-12)
    assert mae(gt, gt) == 0.0
    assert mdice(gt, gt) == 1.0 and miou(gt, gt) == 1.0


def test_hand_counted_overlap():
    pred = np.zeros((4, 4))
    gt = np.zeros((4, 4))
    pred[0, :4] = 1          # |A| = 4
    gt[0, 2:], gt[1, :2] = 1, 1  # |B| = 4, overlap = 2
    assert mdice(pred, gt) == 0.5
    assert miou(pred, gt) == pytest.approx(1.0 / 3.0)


def test_complementary_masks():
    gen = np.random.default_rng(5)
    gt = (gen.random((8, 8)) > 0.5).astype(np.float64)
    pred = 1.0 - gt
    assert mae(pred, gt) == 1.0
    assert mdice(pred, gt) == 0.0 and miou(pred, gt) == 0.0
    assert s_measure(pred, gt) < 0.25


def test_degenerate_ground_truth_conventions():
    pred = np.full((6, 6), 0.2)
    assert s_measure(pred, np.zeros((6, 6))) == pytest.approx(0.8)
    assert s_measure(pred, np.ones((6, 6))) == pytest.approx(0.2)
    assert s_measure(np.zeros((6, 6)), np.zeros((6, 6))) == 1.0
    with pytest.raises(ValueError):
        weighted_fbeta(pred, np.zeros((6, 6)))


def test_zero_prediction_scores_zero_weighted_f():
    # object far enough from the border that the smoothing window sees no
    # zero padding: recall is exactly zero
    gt = np.zeros((16, 16))
    gt[6:10, 6:10] = 1.0
    assert weighted_fbeta(np.zeros((16, 16)), gt) == 0.0


def test_metric_invariances():
    gen = np.random.default_rng(17)
    for _ in range(50):
        pred, gt = _random_pair(gen, soft=True)
        if not (gt > 0.5).any() or (gt > 0.5).all():
            continue
        fp, fg = pred[:, ::-1], gt[:, ::-1]
        # centroid rounding (S) and nearest-foreground tie-breaking (Fw) can
        # each shift by one pixel under a flip, so these two are only
        # approximately flip-invariant; the binary measures are exact
        assert s_measure(pred, gt) == pytest.approx(s_measure(fp, fg), abs=0.05)
        assert weighted_fbeta(pred, gt) == pytest.approx(weighted_fbeta(fp, fg), abs=0.05)
        assert mae(pred, gt) == mae(gt, pred)
        binary = (pred > 0.5).astype(np.float64)
        assert mdice(binary, gt) == mdice(gt, binary)
        assert mdice(binary, gt) >= miou(binary, gt)


def test_both_empty_convention():
    z = np.zeros((4, 4))
    assert mdice(z, z) == 1.0 and miou(z, z) == 1.0


def test_shape_mismatch_rejected():
    with pytest.raises(ValueError):
        mae(np.zeros((4, 4)), np.zeros((4, 5)))


def test_compute_pair_metrics_empty_gt_yields_nan_f():
    row = compute_pair_metrics(np.zeros((4, 4)), np.zeros((4, 4)))
    assert np.isnan(row["f_w_beta"])
    assert row["mdice"] == 1.0


# ---------------------------------------------------------------------------
# dataset aggregation


def _write_mask_dir(root, name, masks):
    d = root / name
    d.mkdir(parents=True, exist_ok=True)
    for i, m in enumerate(masks):
        write_pgm(d / f"{i:05d}.pgm", (m > 0.5).astype(np.uint8) * 255)


def _blob(offset):
    m = np.zeros((16, 16))
    m[offset:offset + 6, offset:offset + 6] = 1.0
    return m


def test_evaluate_dataset_perfect_predictions(tmp_path):
    gt_root = tmp_path / "gt"
    pred_root = tmp_path / "pred"
    for seq in ("a", "b"):
        masks = [_blob(2), _blob(4)]
        _write_mask_dir(gt_root, seq, masks)
        _write_mask_dir(pred_root, seq, masks)
    report = evaluate_dataset(pred_root, gt_root)
    assert report.s_alpha == pytest.approx(1.0, abs=1e-9)
    assert report.f_w_beta == pytest.approx(1.0, abs=1e-9)
    assert report.mae == 0.0
    assert report.mdice == 1.0 and report.miou == 1.0
    assert len(report.per_sequence) == 2
    assert report.aggregation == "per_sequence"


def test_evaluate_dataset_bare_sequence_directory(tmp_path):
    """A ground-truth directory without subdirectories is one sequence, read flat."""
    _write_mask_dir(tmp_path, "gt", [_blob(2), _blob(4)])
    _write_mask_dir(tmp_path, "pred", [_blob(2), _blob(4)])
    report = evaluate_dataset(tmp_path / "pred", tmp_path / "gt")
    assert [(s.name, s.n_frames) for s in report.per_sequence] == [("gt", 2)]
    assert report.mae == 0.0


def test_evaluate_dataset_macro_vs_flat(tmp_path):
    gt_root = tmp_path / "gt"
    pred_root = tmp_path / "pred"
    # sequence a: 1 frame, perfect; sequence b: 3 frames, half-shifted masks
    _write_mask_dir(gt_root, "a", [_blob(2)])
    _write_mask_dir(pred_root, "a", [_blob(2)])
    _write_mask_dir(gt_root, "b", [_blob(2)] * 3)
    _write_mask_dir(pred_root, "b", [_blob(5)] * 3)
    macro = evaluate_dataset(pred_root, gt_root)
    flat = evaluate_dataset(pred_root, gt_root, flat=True)
    seq_b_dice = mdice(_blob(5), _blob(2))
    assert macro.mdice == pytest.approx((1.0 + seq_b_dice) / 2.0)
    assert flat.mdice == pytest.approx((1.0 + 3.0 * seq_b_dice) / 4.0)
    assert flat.aggregation == "per_frame_flat"


def test_evaluate_dataset_missing_predictions(tmp_path):
    gt_root = tmp_path / "gt"
    pred_root = tmp_path / "pred"
    _write_mask_dir(gt_root, "a", [_blob(2), _blob(3)])
    _write_mask_dir(pred_root, "a", [_blob(2)])
    with pytest.raises(FileNotFoundError):
        evaluate_dataset(pred_root, gt_root)
    report = evaluate_dataset(pred_root, gt_root, allow_missing=True)
    assert report.per_sequence[0].n_frames == 1


def test_evaluate_dataset_refuses_a_prediction_of_another_extent_naming_it(tmp_path):
    _write_mask_dir(tmp_path, "gt", [_blob(2), _blob(4)])
    _write_mask_dir(tmp_path, "pred", [_blob(2), np.zeros((8, 16))])
    with pytest.raises(ValueError, match=r"prediction .*pred.00001\.pgm is 8x16 but its "
                                         r"ground truth .*gt.00001\.pgm is 16x16"):
        evaluate_dataset(tmp_path / "pred", tmp_path / "gt")


def test_evaluate_dataset_empty_gt_frames_warn(tmp_path):
    gt_root = tmp_path / "gt"
    pred_root = tmp_path / "pred"
    _write_mask_dir(gt_root, "a", [_blob(2), np.zeros((16, 16))])
    _write_mask_dir(pred_root, "a", [_blob(2), np.zeros((16, 16))])
    with pytest.warns(UserWarning, match="empty-ground-truth"):
        report = evaluate_dataset(pred_root, gt_root)
    assert report.per_sequence[0].f_skipped == 1
    assert report.f_w_beta == pytest.approx(1.0, abs=1e-9)


def test_report_csv_and_table(tmp_path):
    gt_root = tmp_path / "gt"
    pred_root = tmp_path / "pred"
    _write_mask_dir(gt_root, "a", [_blob(2)])
    _write_mask_dir(pred_root, "a", [_blob(3)])
    report = evaluate_dataset(pred_root, gt_root)
    out = tmp_path / "report.csv"
    write_report_csv(out, report)
    import csv as csv_mod
    with open(out) as f:
        rows = list(csv_mod.reader(f))
    assert rows[0][0] == "sequence"
    assert rows[-1][0] == "__overall__"
    assert float(rows[1][4]) == pytest.approx(report.mae, abs=1e-6)
    table = format_report_table(report)
    assert "overall" in table and "a" in table
