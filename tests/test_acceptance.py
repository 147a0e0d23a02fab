"""Acceptance suite: ten criteria, one printed verdict line per criterion.

Each test prints ``ACCEPTANCE n: PASS/FAIL — detail`` (echoed after the run
via the terminal-summary hook in conftest) and then asserts. Criterion 6
trains the desk model for real and dominates the suite's runtime.
"""

import math
import time

import numpy as np
import pytest
from scipy import stats

from conftest import acceptance_lines
from srrnet import tensor as T
from srrnet.backbone import ATTENTION_MODES, FrameTriplet
from srrnet.data import SequenceRecord
from srrnet.decoder import PredictionPair, binary_mask_from_logits
from srrnet.gradcheck import gradcheck_model
from srrnet.model import FULL_SCALE_REFERENCE_PARAMS, build_model
from srrnet.nn import count_parameters
from srrnet.pipeline import REFERENCE_MODES, TrainSchedule, compute_loss, infer_sequence, train
from srrnet.synth import SynthParams, generate_arrays
from srrnet.tensor import Tensor


def _verdict(n: int, ok: bool, detail: str):
    line = f"ACCEPTANCE {n}: {'PASS' if ok else 'FAIL'} — {detail}"
    print(line, flush=True)
    acceptance_lines.append(line)
    assert ok, line


# ---------------------------------------------------------------------------
# criterion 1: full finite-difference gradient suite


def test_criterion_1_gradient_suite():
    model = build_model("desk", seed=0)
    t0 = time.time()
    report = gradcheck_model(model, size=32, samples_per_param=2, seed=0)
    dt = time.time() - t0
    ok = report.passed and dt < 600
    _verdict(1, ok,
             f"max relative error {report.max_rel_err:.2e} < 1e-3 over "
             f"{len(report.checks)} parameter tensors in {dt:.0f}s (< 10 min)")


# ---------------------------------------------------------------------------
# criterion 2: pyramid shape law


def _shape_law_holds(model, size, channels=(8, 16, 24, 32)) -> bool:
    gen = np.random.default_rng(0)
    features = model.backbone(FrameTriplet(
        Tensor(gen.uniform(-1, 1, size=(1, 3, size, size))),
        Tensor(gen.uniform(-1, 1, size=(1, 4, size, size))),
        Tensor(gen.uniform(-1, 1, size=(1, 4, size, size))),
    ))
    for i in range(4):
        # stage numbering is 1-based: stage i has extent H / 2^(i+1)
        extent = size // 2 ** (i + 2)
        for branch in (features.c, features.p, features.r):
            if branch[i].shape != (1, channels[i], extent, extent):
                return False
    return True


def test_criterion_2_shape_law(desk_model):
    ok = all(_shape_law_holds(desk_model, size) for size in (64, 96, 128))
    _verdict(2, ok, "stage extents equal H/2^(i+1) exactly for H = W in {64, 96, 128}")


# ---------------------------------------------------------------------------
# criterion 3: asymmetry closure


def _poke(arr, gen):
    out = arr.copy()
    flat = out.reshape(-1)
    flat[gen.integers(0, flat.size)] += 0.25
    return out


def _asymmetry_trial(model, gen, size=32, check_p_closure=True) -> bool:
    c = gen.uniform(-1, 1, size=(1, 3, size, size))
    p = gen.uniform(-1, 1, size=(1, 4, size, size))
    r = gen.uniform(-1, 1, size=(1, 4, size, size))
    base = model.backbone(FrameTriplet(Tensor(c), Tensor(p), Tensor(r)))
    poked_c = model.backbone(FrameTriplet(Tensor(_poke(c, gen)), Tensor(p), Tensor(r)))
    poked_p = model.backbone(FrameTriplet(Tensor(c), Tensor(_poke(p, gen)), Tensor(r)))
    r_closed = all(np.array_equal(base.r[i].data, poked_c.r[i].data)
                   and np.array_equal(base.r[i].data, poked_p.r[i].data)
                   for i in range(4))
    p_closed = all(np.array_equal(base.p[i].data, poked_c.p[i].data)
                   for i in range(4))
    c_changes = any(not np.array_equal(base.c[i].data, poked_c.c[i].data)
                    for i in range(4))
    return r_closed and (p_closed or not check_p_closure) and c_changes


def test_criterion_3_asymmetry_closure(desk_model):
    gen = np.random.default_rng(3)
    ok = all(_asymmetry_trial(desk_model, gen) for _ in range(20))
    _verdict(3, ok, "20 trials: R bit-identical under C/P perturbations, "
                    "P bit-identical under C perturbations, C changes")


# ---------------------------------------------------------------------------
# criterion 4: reference-protocol oracle


def test_criterion_4_protocol_oracle():
    from test_pipeline import StubModel, prefix_argmin
    gen = np.random.default_rng(4)
    frame = np.zeros((3, 32, 32))
    ok = True
    for _ in range(1000):
        n = int(gen.integers(1, 101))
        # two-decimal quantization forces ties, exercising the earliest-minimum rule
        scores = [float(s) for s in np.round(gen.random(n), 2)]
        results = list(infer_sequence(StubModel(scores=scores), [frame] * n,
                                      reference_mode="scored"))
        if [r.ref_frame_index for r in results] != prefix_argmin(scores):
            ok = False
            break
    _verdict(4, ok, "1000 injected score streams (length <= 100): session "
                    "ref_frame_index trace equals brute-force prefix-argmin")


# ---------------------------------------------------------------------------
# criterion 5: loss correctness


def test_criterion_5_loss_correctness(desk_model, rng):
    from test_backbone import make_triplet

    # hand-computed 2x2 case: BCE = ln 2, MSE = 0.25
    logits = Tensor(np.zeros((1, 2, 2, 2)))
    o_err = T.sigmoid(Tensor(np.zeros((1, 1, 2, 2))))
    gt = np.zeros((1, 1, 2, 2))
    gt[0, 0, 0, 0] = 1.0
    pred = PredictionPair(mask_logits=logits, supervision_logits=logits,
                          o_msk=binary_mask_from_logits(logits), o_err=o_err,
                          score=T.mean(o_err), error_target="absolute")
    total, parts = compute_loss(pred, gt, 1.0)
    hand_ok = (abs(parts["bce"] - math.log(2.0)) < 1e-12
               and abs(parts["mse"] - 0.25) < 1e-12
               and abs(float(total.data) - (math.log(2.0) + 0.25)) < 1e-12)

    # gamma = 0 gradients equal a mask-only loss's, entry for entry
    trip = make_triplet(rng, size=32)
    full_gt = (rng.random((1, 1, 32, 32)) > 0.5).astype(np.float64)
    desk_model.zero_grad()
    pred = desk_model(trip)
    loss, _ = compute_loss(pred, full_gt, 0.0)
    T.backward(loss)
    joint = {n: (p.grad.copy() if p.grad is not None else None)
             for n, p in desk_model.named_parameters()}
    desk_model.zero_grad()
    pred = desk_model(trip)
    diff = T.narrow(pred.supervision_logits, 1, 1, 1) - \
        T.narrow(pred.supervision_logits, 1, 0, 1)
    T.backward(T.bce_with_logits(diff, full_gt))
    gamma_ok = all(
        (a is None or not np.abs(a).any()) and (p.grad is None or not np.abs(p.grad).any())
        if (a := joint[n]) is None or p.grad is None
        else np.array_equal(a, p.grad)
        for n, p in desk_model.named_parameters())

    # error-branch supervision alone leaves the mask head untouched
    desk_model.zero_grad()
    pred = desk_model(trip)
    T.backward(T.mse(pred.o_err, np.zeros(pred.o_err.shape)))
    mask_head_ok = all(p.grad is None or not np.abs(p.grad).any()
                       for n, p in desk_model.named_parameters()
                       if n.startswith("decoder.mask_head"))
    err_head_touched = any(p.grad is not None and np.abs(p.grad).any()
                           for n, p in desk_model.named_parameters()
                           if n.startswith("decoder.err_head"))
    desk_model.zero_grad()

    ok = hand_ok and gamma_ok and mask_head_ok and err_head_touched
    _verdict(5, ok, "hand case exact to 1e-12; gamma=0 grads equal mask-only "
                    "grads; error loss puts zero gradient on the mask head")


# ---------------------------------------------------------------------------
# criterion 6: overfit + score/error trend


# [DERIVED] recipe frozen after an experiment campaign; see the ledger.
# Occlusions in the sequence give the held-out frames genuinely varying
# difficulty; mask dropout lets the session bootstrap from empty masks.
DATA_SEED = 7
MODEL_SEED = 0
TRAIN_RNG_SEED = 1
ITERATIONS = 1400
MASK_DROPOUT = 0.3
LEARNING_RATE = 1e-3


@pytest.mark.slow
def test_criterion_6_overfit_and_score_trend(tmp_path):
    t0 = time.time()
    frames, masks = generate_arrays(SynthParams(seed=DATA_SEED, frames=32, size=64,
                                                contrast=0.35, occlusion_prob=0.5))
    seq = SequenceRecord(name="train", frames=frames[:16], masks=masks[:16], extent=(64, 64))
    model = build_model("desk", seed=MODEL_SEED)
    schedule = TrainSchedule(video_iterations=ITERATIONS, video_lr=LEARNING_RATE,
                             mask_dropout=MASK_DROPOUT, flip=False, seed=TRAIN_RNG_SEED)
    result = train(model, schedule, tmp_path, video_sequences=[seq])
    bces = [row[2] for row in result.loss_trace]
    reached = next((i for i, b in enumerate(bces) if b < 0.05), None)

    # held-out continuation: frames 16-31 of the same generated sequence
    results = list(infer_sequence(model, frames[16:], reference_mode="scored", seed=0))
    scores = [r.score for r in results]
    maes = [float(np.abs(r.o_msk - masks[16 + i]).mean())
            for i, r in enumerate(results)]
    rho = stats.spearmanr(scores, maes).statistic
    dt = time.time() - t0

    ok = reached is not None and rho > 0.6 and dt < 1800
    _verdict(6, ok, f"BCE < 0.05 at iteration {reached} (budget 2000); held-out "
                    f"score/MAE Spearman {rho:.3f} > 0.6; {dt:.0f}s < 30 min")


# ---------------------------------------------------------------------------
# criterion 7: metric oracles


def test_criterion_7_metric_oracles():
    from test_metrics import (_dice_iou_oracle, _mae_oracle, _s_measure_oracle,
                              _weighted_fbeta_oracle)
    from srrnet.metrics import mae, mdice, miou, s_measure, weighted_fbeta

    gen = np.random.default_rng(7)
    ok = True
    worst = 0.0
    for _ in range(500):
        pred = (gen.random((8, 8)) > 0.5).astype(np.float64)
        gt = (gen.random((8, 8)) > 0.5).astype(np.float64)
        while not gt.any():
            gt = (gen.random((8, 8)) > 0.5).astype(np.float64)
        dice_o, iou_o = _dice_iou_oracle(pred, gt)
        ok &= mae(pred, gt) == _mae_oracle(pred, gt)
        ok &= mdice(pred, gt) == dice_o and miou(pred, gt) == iou_o
        s_err = abs(s_measure(pred, gt) - _s_measure_oracle(pred, gt))
        f_err = abs(weighted_fbeta(pred, gt) - _weighted_fbeta_oracle(pred, gt))
        worst = max(worst, s_err, f_err)
        ok &= s_err <= 1e-9 and f_err <= 1e-9

    perfect = (gen.random((8, 8)) > 0.5).astype(np.float64)
    perfect[3, 3] = 1.0
    # the S-measure carries eps stabilizers, so allow 1e-9 slack on the 1.0
    ok &= abs(s_measure(perfect, perfect) - 1.0) <= 1e-9
    ok &= (weighted_fbeta(perfect, perfect), mae(perfect, perfect),
           mdice(perfect, perfect), miou(perfect, perfect)) == (1.0, 0.0, 1.0, 1.0)
    _verdict(7, ok, f"500 random 8x8 pairs: binary metrics exact, S/weighted-F "
                    f"within 1e-9 of transcription oracles (worst {worst:.1e}); "
                    f"perfect prediction scores (1, 1, 0, 1, 1)")


# ---------------------------------------------------------------------------
# criterion 8: single-pass causality


def test_criterion_8_single_pass_causality(desk_model):
    from test_pipeline import CausalFrames
    frames, _ = generate_arrays(SynthParams(seed=1, frames=4, size=32))
    source = CausalFrames(frames)
    results = list(infer_sequence(desk_model, source, reference_mode="scored"))
    ok = len(results) == 4 and max(source.accesses) <= 3
    _verdict(8, ok, "instrumented frame source: infer_sequence never requested "
                    f"a future frame (access order {source.accesses})")


# ---------------------------------------------------------------------------
# criterion 9: parameter anchor (soft)


def test_criterion_9_parameter_anchor():
    total = count_parameters(build_model("full", seed=0))
    ratio = total / FULL_SCALE_REFERENCE_PARAMS
    ok = 0.8 <= ratio <= 1.2
    _verdict(9, ok, f"full preset has {total:,} parameters = {ratio:.1%} of the "
                    f"{FULL_SCALE_REFERENCE_PARAMS / 1e6:.2f}M reference (soft "
                    f"band 80%-120%)")


# ---------------------------------------------------------------------------
# criterion 10: ablation configurations


def test_criterion_10_ablation_configurations():
    from test_pipeline import StubModel
    ok = True
    notes = []

    # all four attention modes instantiate and pass criteria 1-3 where applicable
    outputs = {}
    for mode in ATTENTION_MODES:
        model = build_model("desk", attention_mode=mode, seed=0)
        report = gradcheck_model(model, size=32, samples_per_param=1, seed=0)
        ok &= report.passed
        ok &= _shape_law_holds(model, 64)
        if mode != "full":  # full mode deliberately breaks the asymmetry
            gen = np.random.default_rng(10)
            ok &= _asymmetry_trial(model, gen,
                                   check_p_closure=(mode != "motion_only"))
        gen = np.random.default_rng(11)
        feats = model.backbone(FrameTriplet(
            Tensor(gen.uniform(-1, 1, size=(1, 3, 32, 32))),
            Tensor(gen.uniform(-1, 1, size=(1, 4, 32, 32))),
            Tensor(gen.uniform(-1, 1, size=(1, 4, 32, 32))),
        ))
        outputs[mode] = np.concatenate([f.data.reshape(-1)
                                        for f in feats.c + feats.p + feats.r])
    modes = list(ATTENTION_MODES)
    distinct = all(not np.array_equal(outputs[a], outputs[b])
                   for i, a in enumerate(modes) for b in modes[i + 1:])
    ok &= distinct
    notes.append(f"{len(modes)} attention modes pass gradients/shapes/asymmetry "
                 f"and give pairwise distinct features")

    # all three reference modes behave per their contracts on a scripted run
    gen = np.random.default_rng(12)
    frames = [gen.random((3, 32, 32)) for _ in range(4)]
    per_mode = {}
    for mode in REFERENCE_MODES:
        stub = StubModel(scores=[0.5, 0.2, 0.8, 0.9])
        list(infer_sequence(stub, frames, reference_mode=mode, seed=3))
        per_mode[mode] = [t.r_in.data[0, :3].copy() for t in stub.triplets]
    # off: reference always duplicates the previous frame
    stub = StubModel(scores=[0.5, 0.2, 0.8, 0.9])
    list(infer_sequence(stub, frames, reference_mode="off", seed=3))
    ok &= all(np.array_equal(t.r_in.data, t.p_in.data) for t in stub.triplets)
    # scored: steps 2 and 3 carry frame 1 (the running best, score 0.2)
    ok &= np.array_equal(per_mode["scored"][2], frames[1])
    ok &= np.array_equal(per_mode["scored"][3], frames[1])
    # random: every reference is a previously seen frame
    ok &= all(any(np.array_equal(per_mode["random"][t], frames[k])
                  for k in range(t)) for t in range(1, 4))
    # and the three modes do not collapse onto one behavior
    ok &= not all(np.array_equal(per_mode["scored"][t], per_mode["off"][t])
                  for t in range(4))
    notes.append("3 reference modes follow their contracts and differ")

    _verdict(10, ok, "; ".join(notes))
