"""Losses, samplers, reference memory protocol, sessions, and training."""

import csv
import dataclasses
import math

import numpy as np
import pytest

from srrnet import tensor as T
from srrnet.attention import ATTENTION_MODES
from srrnet.backbone import FrameTriplet
from srrnet.data import SequenceRecord, StaticRecord
from srrnet.decoder import (ERROR_TARGETS, DualPurposeDecoder, PredictionPair,
                            binary_mask_from_logits, mae_score)
from srrnet.model import ReferenceSlot, SRRNet, build_model
from srrnet.nn import load_checkpoint, save_checkpoint, weights_key
from srrnet.pipeline import (
    InferenceSession,
    TrainSchedule,
    TrainTriplet,
    _augment,
    compute_loss,
    infer_sequence,
    sample_training_triplet,
    static_sampler,
    train,
    triplet_to_input,
    write_score_trace,
)
from srrnet.tensor import ConfigurationError, ShapeMismatchError, Tensor

from conftest import desk_tape_bytes, needs_proc, run_peak_probe
from factored_decoder import FOLD_RTOL, factored_decoder, max_rel_diff
from keep_zero_filled import zero_filled_accumulate


# ---------------------------------------------------------------------------
# loss


def prediction(logits: Tensor, o_err: Tensor, error_target: str = "absolute") -> PredictionPair:
    """A decoder output built from full-resolution logits and an error map."""
    return PredictionPair(mask_logits=logits, supervision_logits=logits,
                          o_msk=binary_mask_from_logits(logits), o_err=o_err,
                          score=T.mean(o_err), error_target=error_target)


def test_loss_hand_computed_case():
    # Zero logits everywhere: BCE = ln 2; the tie convention gives an all-zero
    # mask, so the error target equals the ground truth; constant 0.5 error map
    # with a single foreground pixel out of four gives MSE = 0.25.
    logits = Tensor(np.zeros((1, 2, 2, 2)))
    o_err = T.sigmoid(Tensor(np.zeros((1, 1, 2, 2))))  # exactly 0.5
    gt = np.zeros((1, 1, 2, 2))
    gt[0, 0, 0, 0] = 1.0
    total, parts = compute_loss(prediction(logits, o_err), gt, 1.0)
    assert abs(parts["bce"] - math.log(2.0)) < 1e-12
    assert abs(parts["mse"] - 0.25) < 1e-12
    assert abs(float(total.data) - (math.log(2.0) + 0.25)) < 1e-12


def test_loss_total_is_exact_weighted_sum(desk_model, rng):
    from test_backbone import make_triplet
    pred = desk_model(make_triplet(rng, size=32))
    gt = (rng.random((1, 1, 32, 32)) > 0.5).astype(np.float64)
    for gamma in (0.0, 0.5, 2.0):
        total, parts = compute_loss(pred, gt, gamma)
        assert parts["bce"] >= 0 and parts["mse"] >= 0
        assert float(total.data) == parts["bce"] + gamma * parts["mse"]


def test_loss_resizes_error_target_to_error_grid(desk_model, rng):
    from test_backbone import make_triplet
    pred = desk_model(make_triplet(rng, size=32))
    gt = (rng.random((1, 1, 32, 32)) > 0.5).astype(np.float64)
    total, parts = compute_loss(pred, gt, 1.0)
    assert np.isfinite(parts["mse"])


def test_signed_error_target_changes_loss():
    # a false positive at (0, 0) and a miss at (0, 1): the absolute target is
    # 1 at both, the signed target -1 and +1; a zero error map scores both
    # the same, a map of +1 at (0, 1) only fits the signed one there
    logits = Tensor(np.zeros((1, 2, 2, 2)))
    logits.data[0, 1, 0, 0] = 1.0
    gt = np.zeros((1, 1, 2, 2))
    gt[0, 0, 0, 1] = 1.0
    zero = T.sigmoid(Tensor(np.zeros((1, 1, 2, 2)))) * 2.0 - 1.0  # exactly 0
    _, absolute = compute_loss(prediction(logits, zero), gt, 1.0)
    _, signed = compute_loss(prediction(logits, zero, "signed"), gt, 1.0)
    assert absolute["mse"] == signed["mse"] == 0.5
    hit = Tensor(np.array([[[[-1.0, 1.0], [0.0, 0.0]]]]))
    _, absolute = compute_loss(prediction(logits, hit), gt, 1.0)
    _, signed = compute_loss(prediction(logits, hit, "signed"), gt, 1.0)
    assert absolute["mse"] == 1.0 and signed["mse"] == 0.0


def test_loss_shape_mismatch():
    logits = Tensor(np.zeros((1, 2, 4, 4)))
    o_err = Tensor(np.full((1, 1, 4, 4), 0.5))
    with pytest.raises(ShapeMismatchError):
        compute_loss(prediction(logits, o_err), np.zeros((1, 1, 2, 2)), 1.0)


def test_gamma_zero_matches_mask_only_gradients(desk_model, rng):
    from test_backbone import make_triplet
    trip = make_triplet(rng, size=32)
    gt = (rng.random((1, 1, 32, 32)) > 0.5).astype(np.float64)

    desk_model.zero_grad()
    pred = desk_model(trip)
    total, _ = compute_loss(pred, gt, 0.0)
    T.backward(total)
    with_branch = {n: (p.grad.copy() if p.grad is not None else None)
                   for n, p in desk_model.named_parameters()}

    desk_model.zero_grad()
    pred = desk_model(trip)
    diff = T.narrow(pred.supervision_logits, 1, 1, 1) - \
        T.narrow(pred.supervision_logits, 1, 0, 1)
    T.backward(T.bce_with_logits(diff, gt))
    for name, p in desk_model.named_parameters():
        a, b = with_branch[name], p.grad
        if a is None or b is None:
            assert (a is None or not np.abs(a).any()) and \
                (b is None or not np.abs(b).any()), name
        else:
            np.testing.assert_array_equal(a, b, err_msg=name)
    desk_model.zero_grad()


# ---------------------------------------------------------------------------
# samplers


def _video_record(n=6, size=32):
    """Frame t is filled with t and its mask with t + 0.5, so a sample shows its frames."""
    return SequenceRecord(name="seq", frames=[np.full((3, size, size), float(t)) for t in range(n)],
                          masks=[np.full((1, size, size), t + 0.5) for t in range(n)])


def _sampled(trip):
    """The frames a sample of value-filled frames holds as C, P and R, each with its own mask."""
    c, p, r = (int(a[0, 0, 0, 0]) for a in (trip.c_img, trip.p_in, trip.r_in))
    assert (trip.gt[0, 0, 0, 0], trip.p_in[0, 3, 0, 0], trip.r_in[0, 3, 0, 0]) == (
        c + 0.5, p + 0.5, r + 0.5)
    return c, p, r


def test_video_sampler_index_laws():
    seq = _video_record(n=8)
    gen = np.random.default_rng(0)
    seen_c = set()
    for _ in range(10_000):
        c, p, r = _sampled(sample_training_triplet(seq, gen))
        assert p == c - 1 and 0 <= r < c
        seen_c.add(c)
    assert seen_c == set(range(1, 8))


def test_video_sampler_two_frame_sequence():
    seq = _video_record(n=2)
    gen = np.random.default_rng(0)
    for _ in range(20):
        assert _sampled(sample_training_triplet(seq, gen)) == (1, 0, 0)


def test_video_sampler_single_frame_fallback():
    gen = np.random.default_rng(0)
    state = gen.bit_generator.state
    assert _sampled(sample_training_triplet(_video_record(n=1), gen)) == (0, 0, 0)
    assert gen.bit_generator.state == state


def _static_pool(spec):
    """Image i's pixels are all i, and its mask is foreground iff i is odd."""
    return [StaticRecord(name=f"{i:05d}", category=cat,
                         image_pixels=np.full((32, 32, 3), i, np.uint8),
                         mask_pixels=np.full((32, 32), 255 * (i % 2), np.uint8))
            for i, cat in enumerate(spec)]


def _static_sampled(trip):
    """The images a static sample holds as C, P and R, each with its own mask."""
    c, p, r = (round(255 * a[0, 0, 0, 0]) for a in (trip.c_img, trip.p_in, trip.r_in))
    assert (trip.gt[0, 0, 0, 0], trip.p_in[0, 3, 0, 0], trip.r_in[0, 3, 0, 0]) == (
        c % 2, p % 2, r % 2)
    return c, p, r


def test_static_sampler_category_law():
    pool = _static_pool(["a", "a", "b", "b", "b", "c"])
    sample, gen = static_sampler(pool), np.random.default_rng(0)
    r_cats = set()
    for _ in range(2000):
        c, p, r = _static_sampled(sample(gen))
        assert pool[p].category == pool[c].category
        assert (p == c) == (pool[c].category == "c")  # only a singleton category falls back
        r_cats.add(pool[r].category)
    assert r_cats == {"a", "b", "c"}  # reference draws from the whole pool


def test_static_sampler_draws_as_a_scan_of_the_whole_pool_would():
    """Indexed once, the sampler makes the same draws and picks as the law
    stated over the whole pool: P uniform over C's other category members."""
    pool = _static_pool(["a", "b", "a", "c", "b", "a", "b"])
    sample, gen, oracle = static_sampler(pool), np.random.default_rng(3), np.random.default_rng(3)
    for _ in range(300):
        c = int(oracle.integers(0, len(pool)))
        same = [i for i, rec in enumerate(pool) if rec.category == pool[c].category and i != c]
        p = int(oracle.choice(same)) if same else c
        expected = (c, p, int(oracle.integers(0, len(pool))))
        assert _static_sampled(sample(gen)) == expected
        assert gen.bit_generator.state == oracle.bit_generator.state


def test_a_static_sample_decodes_only_its_own_three_records(monkeypatch):
    """Indexing the pool decodes nothing, and a sample decodes its C, P and R."""
    import srrnet.data
    decoded = []
    for name in ("decode_frame", "decode_mask"):  # wrapped where StaticRecord looks them up
        decode = getattr(srrnet.data, name)
        monkeypatch.setattr(srrnet.data, name, lambda pixels, name=name, decode=decode:
                            decoded.append(name) or decode(pixels))
    pool = _static_pool(["a", "b", "a", "c", "b", "a", "b"] * 20)
    sample, gen = static_sampler(pool), np.random.default_rng(5)
    assert decoded == []
    for _ in range(10):
        _static_sampled(sample(gen))
        assert sorted(decoded) == ["decode_frame"] * 3 + ["decode_mask"] * 3
        decoded.clear()


def test_static_sampler_empty_pool():
    with pytest.raises(ConfigurationError):
        static_sampler([])


def test_triplet_to_input_builds_valid_network_input():
    trip = sample_training_triplet(_video_record(n=4), np.random.default_rng(0))
    triplet, gt = triplet_to_input(trip)
    assert triplet.c_img.shape == (1, 3, 32, 32)
    assert triplet.p_in.shape == (1, 4, 32, 32)
    assert triplet.r_in.shape == (1, 4, 32, 32)
    assert gt.shape == (1, 1, 32, 32)
    np.testing.assert_array_equal(triplet.p_in.data, trip.p_in)


# ---------------------------------------------------------------------------
# augmentation


def _position_coded(size=64):
    """A sample whose every channel is a distinct multiple of one position-coded plane."""
    plane = np.arange(1.0, size * size + 1).reshape(1, 1, size, size)
    return TrainTriplet(*(plane * np.arange(first, first + n)[:, None, None]
                          for first, n in ((2, 3), (5, 4), (9, 4), (1, 1))))


def _assert_aligned(trip):
    for a, first in ((trip.c_img, 2), (trip.p_in, 5), (trip.r_in, 9)):
        scale = np.arange(first, first + a.shape[1])[:, None, None]
        np.testing.assert_array_equal(a, trip.gt * scale)


def test_flip_and_crop_keep_every_array_aligned():
    gen = np.random.default_rng(0)
    corners = set()
    for _ in range(20):
        out = _augment(_position_coded(), gen, TrainSchedule(flip=True, crop=32))
        assert out.gt.shape == (1, 1, 32, 32)
        _assert_aligned(out)
        corners.add((out.gt[0, 0, 0, 0], bool(out.gt[0, 0, 0, 1] < out.gt[0, 0, 0, 0])))
    assert {flipped for _, flipped in corners} == {False, True} and len(corners) > 2


def test_mask_dropout_zeroes_only_the_mask_channel_of_p_or_r():
    trip = _position_coded()
    gen = np.random.default_rng(0)
    seen = set()
    for _ in range(40):
        out = _augment(trip, gen, TrainSchedule(flip=False, mask_dropout=0.5))
        seen.add(tuple(not a[:, 3].any() for a in (out.p_in, out.r_in)))
        for a, b in ((out.p_in, trip.p_in), (out.r_in, trip.r_in)):
            assert np.array_equal(a[:, 3], b[:, 3]) or not a[:, 3].any()
            a[:, 3] = b[:, 3]
        _assert_aligned(out)  # every other channel is the input's
    assert seen == {(False, False), (True, False), (False, True), (True, True)}
    _assert_aligned(trip)  # the input sample is left as it was


@pytest.mark.parametrize("crop", [None, 64])
def test_augment_without_augmentation_draws_nothing(crop):
    gen = np.random.default_rng(0)
    state = gen.bit_generator.state
    out = _augment(_position_coded(), gen, TrainSchedule(flip=False, crop=crop))
    assert gen.bit_generator.state == state
    _assert_aligned(out)
    assert out.gt.shape == (1, 1, 64, 64)


# ---------------------------------------------------------------------------
# reference memory protocol


def prefix_argmin(scores):
    """Brute-force oracle: earliest index attaining the running minimum."""
    trace = []
    for t in range(len(scores)):
        prefix = scores[:t + 1]
        m = min(prefix)
        trace.append(prefix.index(m))
    return trace


# ---------------------------------------------------------------------------
# sessions with a stub model (fast, protocol-focused)


class StubModel:
    """Duck-typed model capturing inputs and emitting scripted error maps.

    ``scores[t]`` is frame t's error map, or anything that broadcasts to it.
    """

    def __init__(self, scores=None):
        self.scores = scores
        self.calls = 0
        self.triplets = []

    def __call__(self, triplet):
        self.triplets.append(triplet)
        h, w = triplet.height, triplet.width
        value = self.scores[self.calls] if self.scores is not None else 0.5
        self.calls += 1
        o_err = Tensor(np.broadcast_to(value, (1, 1, h // 4, w // 4)).copy())
        logits = Tensor(np.zeros((1, 2, h // 4, w // 4)))
        full = Tensor(np.zeros((1, 2, h, w)))
        return PredictionPair(mask_logits=logits, supervision_logits=full,
                              o_msk=np.zeros((1, 1, h, w)), o_err=o_err,
                              score=mae_score(o_err), error_target="absolute")


def _frames(n, size=32, seed=0):
    gen = np.random.default_rng(seed)
    return [gen.random((3, size, size)) for _ in range(n)]


def test_session_replaces_the_reference_only_on_a_strictly_smaller_score():
    frames = _frames(4)
    session = InferenceSession(StubModel(scores=[1.0, 0.5, 0.5, 0.4999])).start(frames[0])
    assert (session.best_score, session.ref_frame_index) == (1.0, 0)
    results = [session.step(frame) for frame in frames]
    assert [r.updated for r in results] == [False, True, False, True]  # a tie keeps the older
    assert [r.ref_frame_index for r in results] == [0, 1, 1, 3]
    assert session.best_score == results[3].score == pytest.approx(0.4999)
    np.testing.assert_array_equal(session.r_in[0, :3], frames[3])


def test_session_reference_matches_prefix_argmin_oracle():
    gen = np.random.default_rng(42)
    for _ in range(300):
        n = int(gen.integers(1, 60))
        # quantized scores in [0, 1] force ties to exercise the earliest-minimum
        # rule; the session seeds at score 1.0 on frame 0, beaten only by strict <
        scores = [float(s) for s in np.round(gen.random(n), 1)]
        results = infer_sequence(StubModel(scores=scores), [np.zeros((3, 32, 32))] * n,
                                 reference_mode="scored")
        trace = [r.ref_frame_index for r in results]
        assert trace == prefix_argmin(scores)
        assert [r.updated for r in results] == [
            s < min([1.0] + scores[:t]) for t, s in enumerate(scores)]


def test_session_scores_drive_reference_memory():
    scores = [0.5, 0.7, 0.3, 0.3, 0.2, 0.9]
    model = StubModel(scores=scores)
    results = infer_sequence(model, _frames(6), reference_mode="scored")
    assert [r.score for r in results] == pytest.approx(scores)
    assert [r.updated for r in results] == [True, False, True, False, True, False]
    assert [r.ref_frame_index for r in results] == [0, 0, 2, 2, 4, 4]


def test_session_adopts_the_frame_with_the_lower_absolute_error():
    # Signed error maps, 8 x 8 at a 32 x 32 frame. Frames 0 and 1 have the
    # same signed mean (0.2); frame 1's |e| is lower. Frame 2 has the lowest
    # signed mean (-0.35) but a higher |e| (0.55) than frame 1 (0.2).
    halves = np.where(np.arange(8) < 4, 1.0, 0.0)[None, :]
    maps = [0.8 * halves - 0.4 * (1 - halves), np.full((8, 8), 0.2),
            0.2 * halves - 0.9 * (1 - halves)]
    results = infer_sequence(StubModel(scores=maps), _frames(3), reference_mode="scored")
    assert [r.score for r in results] == pytest.approx([0.6, 0.2, 0.55])
    assert [r.ref_frame_index for r in results] == [0, 1, 1]


def test_session_reference_mode_off_duplicates_previous():
    model = StubModel(scores=[0.5, 0.4, 0.3, 0.2])
    frames = _frames(4)
    infer_sequence(model, frames, reference_mode="off")
    for t, trip in enumerate(model.triplets):
        np.testing.assert_array_equal(trip.r_in.data, trip.p_in.data)
        np.testing.assert_array_equal(trip.c_img.data[0], frames[t])


def test_session_reuses_its_inputs_without_rebuilding_them():
    """Each input is built once: an unchanged reference, and off mode's R, are P's buffer."""
    model = StubModel(scores=[1.0] * 5)  # never below the initial score: R stays frame 0
    infer_sequence(model, _frames(5), reference_mode="scored")
    first = model.triplets[0].r_in.data
    assert all(np.shares_memory(trip.r_in.data, first) for trip in model.triplets)
    model = StubModel(scores=[0.5, 0.4, 0.3, 0.2])
    infer_sequence(model, _frames(4), reference_mode="off")
    assert all(np.shares_memory(trip.r_in.data, trip.p_in.data) for trip in model.triplets)


def test_session_scored_mode_feeds_best_frame():
    model = StubModel(scores=[0.5, 0.2, 0.8, 0.9])
    frames = _frames(4)
    infer_sequence(model, frames, reference_mode="scored")
    # step 2 and 3 should carry frame 1 (score 0.2) as the reference image
    np.testing.assert_array_equal(model.triplets[2].r_in.data[0, :3], frames[1])
    np.testing.assert_array_equal(model.triplets[3].r_in.data[0, :3], frames[1])
    # and frame 0 before any update had the degenerate self-reference
    np.testing.assert_array_equal(model.triplets[0].r_in.data[0, :3], frames[0])
    np.testing.assert_array_equal(model.triplets[0].r_in.data[0, 3], 0.0)


def test_session_random_mode_draws_from_history():
    model = StubModel()
    frames = _frames(10)
    infer_sequence(model, frames, reference_mode="random", seed=5)
    stacked = np.stack(frames)
    for t, trip in enumerate(model.triplets[1:], start=1):
        r_img = trip.r_in.data[0, :3]
        matches = [k for k in range(t) if np.array_equal(stacked[k], r_img)]
        assert matches, f"step {t} reference is not a previously seen frame"


@pytest.mark.parametrize("mode", ["scored", "off"])
def test_session_keeps_no_history_outside_random_mode(mode):
    session = InferenceSession(StubModel(), reference_mode=mode).start(_frames(1)[0])
    for frame in _frames(5, seed=1):
        session.step(frame)
    assert session._history == []


def test_session_errors():
    model = StubModel()
    with pytest.raises(ConfigurationError):
        InferenceSession(model, reference_mode="bogus")
    with pytest.raises(ConfigurationError):
        infer_sequence(model, [])
    session = InferenceSession(model).start(_frames(1)[0])
    with pytest.raises(RuntimeError):
        InferenceSession(model).step(_frames(1)[0])
    session.step(_frames(1)[0])
    with pytest.raises(ConfigurationError):
        session.step(np.zeros((3, 64, 64)))


# ---------------------------------------------------------------------------
# reference slot: the session's cached reference encoding


class RecordingModel:
    """Passes triplets through to a real model, keeping their input arrays.

    The t-th prediction reports ``scores[t]`` as its score, so the session's
    reference changes on scripted frames; the model's own score is kept in
    ``model_scores``.
    """

    def __init__(self, model, scores):
        self.model = model
        self.scores = scores
        self.inputs = []
        self.model_scores = []

    def __call__(self, triplet):
        self.inputs.append((triplet.c_img.data, triplet.p_in.data, triplet.r_in.data))
        pred = self.model(triplet)
        self.model_scores.append(pred.score_value)
        scripted = Tensor(np.array(self.scores[len(self.model_scores) - 1]))
        return dataclasses.replace(pred, score=scripted)


# with a reference change on frames 3 and 5 in scored mode
SLOT_SCORES = [1.0, 1.0, 0.5, 0.6, 0.4, 0.45]


def _synth_frames(n=len(SLOT_SCORES), size=64):
    from srrnet.synth import SynthParams, generate_arrays
    frames, _ = generate_arrays(SynthParams(seed=4, frames=n, size=size,
                                            motion_amplitude=1.5))
    return frames


@pytest.fixture(scope="module")
def slot_frames():
    return _synth_frames()


@pytest.mark.parametrize("attention_mode", ["rma", "self_only", "motion_only", "full"])
@pytest.mark.parametrize("reference_mode", ["scored", "random", "off"])
def test_cached_session_matches_uncached_model(slot_frames, reference_mode, attention_mode):
    model = build_model("desk", attention_mode=attention_mode, seed=0)
    recorder = RecordingModel(model, SLOT_SCORES)
    results = infer_sequence(recorder, slot_frames, reference_mode=reference_mode, seed=3)
    assert len(results) == len(recorder.inputs) == len(slot_frames)
    previous_r = None
    for res, score, (c, p, r) in zip(results, recorder.model_scores, recorder.inputs):
        with T.no_grad():
            slot = ReferenceSlot()
            # a fresh slot: C, P and R run jointly and fill it
            joint = model(FrameTriplet(Tensor(c), Tensor(p), Tensor(r), reference=slot))
            # the filled slot: C and P run against R's stage references
            reused = model(FrameTriplet(Tensor(c), Tensor(p), Tensor(r), reference=slot))
        # the session reuses its slot exactly when R's input is unchanged (never in full mode)
        hit = (attention_mode != "full" and previous_r is not None
               and np.array_equal(r, previous_r))
        pred = reused if hit else joint
        np.testing.assert_array_equal(res.o_msk, pred.o_msk[0])
        np.testing.assert_array_equal(res.o_err, pred.o_err.data[0])
        assert score == pred.score_value
        # P runs stacked with R on the joint route and alone on the other, so the
        # two routes differ only where a GEMM shape changes BLAS rounding
        np.testing.assert_allclose(reused.o_err.data, joint.o_err.data, rtol=0, atol=1e-12)
        previous_r = r


def test_bool_masks_build_the_inputs_and_loss_float_masks_build(slot_frames, desk_model, rng):
    """A step's bool mask enters the next P and R inputs and the error target as
    exactly 0.0 and 1.0, so they are bitwise what a float64 mask builds."""
    recorder = RecordingModel(build_model("desk", seed=0), SLOT_SCORES)
    results = infer_sequence(recorder, slot_frames, reference_mode="random", seed=3)
    h, w = slot_frames[0].shape[1:]
    built = [np.concatenate([slot_frames[0], np.zeros((1, h, w))])[None].tobytes()]
    for t, (res, (_, p_in, r_in)) in enumerate(zip(results, recorder.inputs)):
        assert res.o_msk.dtype == np.bool_ and res.o_msk.shape == (1, h, w)
        assert p_in.dtype == r_in.dtype == np.float64
        assert p_in.tobytes() == built[-1]
        assert r_in.tobytes() in built
        built.append(np.concatenate([slot_frames[t], res.o_msk.astype(np.float64)])[None]
                     .tobytes())

    from test_backbone import make_triplet
    pred = desk_model(make_triplet(rng, size=32))
    as_float = dataclasses.replace(pred, o_msk=pred.o_msk.astype(np.float64))
    gt = (rng.random((1, 1, 32, 32)) > 0.5).astype(np.float64)
    for error_target in ERROR_TARGETS:
        total, parts = compute_loss(dataclasses.replace(pred, error_target=error_target),
                                    gt, 1.0)
        total_float, parts_float = compute_loss(
            dataclasses.replace(as_float, error_target=error_target), gt, 1.0)
        assert parts == parts_float and total.data.tobytes() == total_float.data.tobytes()


def _count_refills(monkeypatch):
    """The ``r_in`` of every model call that refills its triplet's reference slot."""
    refills = []
    real = SRRNet.__call__

    def counting(self, triplet):
        slot = triplet.reference
        before = None if slot is None else slot.reference
        pred = real(self, triplet)
        if slot is not None and slot.reference is not None and slot.reference is not before:
            refills.append(slot.r_in.copy())
        return pred

    monkeypatch.setattr(SRRNet, "__call__", counting)
    return refills


@pytest.mark.parametrize("reference_mode", ["scored", "off"])
def test_reference_encoded_once_per_reference_change(monkeypatch, slot_frames, reference_mode):
    calls = _count_refills(monkeypatch)
    recorder = RecordingModel(build_model("desk", seed=0), SLOT_SCORES)
    results = infer_sequence(recorder, slot_frames, reference_mode=reference_mode)
    r_ins = [r for _, _, r in recorder.inputs]
    changes = sum(not np.array_equal(a, b) for a, b in zip(r_ins, r_ins[1:]))
    assert len(calls) == 1 + changes
    for encoded in calls:
        assert any(np.array_equal(encoded, r) for r in r_ins)
    if reference_mode == "scored":
        updates = [r.updated for r in results]
        assert updates == [False, False, True, False, True, False]
        assert len(calls) == 1 + sum(updates) == 3
    else:  # off: R is the previous frame, which differs on every frame after the first
        assert len(calls) >= len(slot_frames) - 1


def test_full_attention_never_caches_the_reference(monkeypatch, slot_frames):
    calls = _count_refills(monkeypatch)
    session = InferenceSession(build_model("desk", attention_mode="full", seed=0))
    session.start(slot_frames[0])
    for frame in slot_frames[:3]:
        session.step(frame)
    assert calls == []
    assert session.reference_slot.reference is None


def test_session_start_empties_the_reference_slot(slot_frames):
    session = InferenceSession(build_model("desk", seed=0)).start(slot_frames[0])
    assert session.reference_slot.reference is None
    session.step(slot_frames[0])
    assert session.reference_slot.reference is not None
    session.start(slot_frames[1])
    assert session.reference_slot.reference is None
    assert session.reference_slot.r_in is None


def test_reference_slot_is_refilled_for_another_model(slot_frames):
    c = slot_frames[1][None]
    pr = np.concatenate([slot_frames[0], np.zeros((1, 64, 64))], axis=0)[None]
    slot = ReferenceSlot()
    with T.no_grad():
        for seed in (0, 1):
            model = build_model("desk", seed=seed)
            cached = model(FrameTriplet(Tensor(c), Tensor(pr), Tensor(pr), reference=slot))
            plain = model(FrameTriplet(Tensor(c), Tensor(pr), Tensor(pr),
                                       reference=ReferenceSlot()))
            assert slot.key == weights_key(model)
            np.testing.assert_array_equal(cached.o_err.data, plain.o_err.data)


def test_filled_slot_is_ignored_with_grad_on(slot_frames):
    model = build_model("desk", seed=0)
    c = slot_frames[2][None]
    p = np.concatenate([slot_frames[1], np.ones((1, 64, 64))], axis=0)[None]
    r = np.concatenate([slot_frames[0], np.zeros((1, 64, 64))], axis=0)[None]
    slot = ReferenceSlot()
    with T.no_grad():
        model(FrameTriplet(Tensor(c), Tensor(p), Tensor(r), reference=slot))
    assert slot.reference is not None

    grads = []
    for reference in (slot, None):
        for prm in model.parameters():
            prm.grad = None
        pred = model(FrameTriplet(Tensor(c), Tensor(p), Tensor(r), reference=reference))
        T.backward(T.mean(pred.supervision_logits * pred.supervision_logits)
                   + T.mean(pred.o_err))
        grads.append({name: prm.grad for name, prm in model.named_parameters()})
    with_slot, without = grads
    for name, grad in without.items():
        assert with_slot[name] is not None, name
        np.testing.assert_array_equal(with_slot[name], grad, err_msg=name)
    ref_names = [n for n in with_slot if n.startswith("backbone.") and ".ref." in n]
    assert ref_names and all(np.any(with_slot[n] != 0) for n in ref_names)


def _load_other_weights(model, frames, tmp_path):
    save_checkpoint(tmp_path / "other.npz", build_model("desk", seed=1))
    load_checkpoint(tmp_path / "other.npz", model)


def _train_one_step(model, frames, tmp_path):
    sequence = SequenceRecord(name="two", frames=frames[:2], masks=[np.zeros((1, 64, 64))] * 2)
    train(model, TrainSchedule(video_iterations=1, video_lr=1e-2), tmp_path,
          video_sequences=[sequence])


WEIGHT_CHANGES = {"load_checkpoint": _load_other_weights, "adamw_step": _train_one_step}


@pytest.mark.parametrize("change", sorted(WEIGHT_CHANGES))
def test_slot_filled_before_a_weight_change_is_rebuilt(change, slot_frames, tmp_path):
    """A session whose weights change in place reads exactly like one with a fresh slot."""
    model = build_model("desk", seed=0)
    sessions = [InferenceSession(model).start(slot_frames[0]) for _ in range(2)]
    for session in sessions:
        session.step(slot_frames[0])
    WEIGHT_CHANGES[change](model, slot_frames, tmp_path)
    sessions[1].reference_slot = ReferenceSlot()
    kept, fresh = (session.step(slot_frames[1]) for session in sessions)
    assert kept.score == fresh.score
    np.testing.assert_array_equal(kept.o_msk, fresh.o_msk)
    np.testing.assert_array_equal(kept.o_err, fresh.o_err)
    assert sessions[0].reference_slot.key == weights_key(model)


# a non-square extent catches a transposed tap or a padding offset that square inputs hide
@pytest.mark.parametrize("attention_mode", ATTENTION_MODES)
@pytest.mark.parametrize("error_target", ERROR_TARGETS)
@pytest.mark.parametrize("extent", [(64, 64), (128, 128), (64, 96)], ids=["64", "128", "64x96"])
def test_slotted_forward_matches_the_factored_decoder(extent, error_target, attention_mode):
    """A slotted session frame agrees with the decoder's factored chain."""
    height, width = extent
    frames = [f[:, :height, :width] for f in _synth_frames(n=3, size=max(extent))]
    model = build_model("desk", attention_mode=attention_mode, seed=2,
                        error_target=error_target)
    rng = np.random.default_rng(7)
    for name, prm in model.named_parameters():
        if name.endswith(".bias"):  # biases start at zero; the collapse must carry them
            prm.data = rng.normal(0.0, 0.05, size=prm.data.shape)
    c = frames[2][None]
    p = np.concatenate([frames[1], np.ones((1, height, width))], axis=0)[None]
    r = np.concatenate([frames[0], np.zeros((1, height, width))], axis=0)[None]
    slot = ReferenceSlot()
    with T.no_grad():
        plain = factored_decoder(model.decoder,
                                 model.backbone(FrameTriplet(Tensor(c), Tensor(p), Tensor(r))),
                                 height, width)
        collapsed = model(FrameTriplet(Tensor(c), Tensor(p), Tensor(r), reference=slot))
    assert slot.key == weights_key(model) and slot.collapse is not None
    for name in ("mask_logits", "supervision_logits", "o_err"):
        got, expected = getattr(collapsed, name).data, getattr(plain, name).data
        assert got.shape == expected.shape, name
        assert max_rel_diff(got, expected) <= FOLD_RTOL, name
    assert abs(collapsed.score_value - plain.score_value) <= FOLD_RTOL * abs(plain.score_value)
    np.testing.assert_array_equal(collapsed.o_msk, plain.o_msk)


def test_fold_is_built_once_per_session(monkeypatch, slot_frames, tmp_path):
    """The collapse is built on a session's first frame, and again only when stale."""
    builds = []
    real = DualPurposeDecoder.collapse

    def counting(self):
        builds.append(self)
        return real(self)

    monkeypatch.setattr(DualPurposeDecoder, "collapse", counting)
    model = build_model("desk", seed=0)
    session = InferenceSession(model, reference_mode="off").start(slot_frames[0])
    for frame in slot_frames:
        session.step(frame)
    assert builds == [model.decoder]
    collapse = session.reference_slot.collapse

    session.start(slot_frames[0])  # a new session starts from an empty slot
    assert session.reference_slot.collapse is None
    session.step(slot_frames[0])
    session.step(slot_frames[1])
    assert builds == [model.decoder] * 2

    _load_other_weights(model, slot_frames, tmp_path)  # a new weights generation, the same decoder
    session.step(slot_frames[2])
    session.step(slot_frames[3])
    assert builds == [model.decoder] * 3
    after_load = session.reference_slot.collapse
    assert not np.array_equal(after_load.stage_maps[0].data, collapse.stage_maps[0].data)

    other = build_model("desk", seed=2)  # the same slot, another model
    pr = np.concatenate([slot_frames[0], np.zeros((1, 64, 64))], axis=0)[None]
    with T.no_grad():
        other(FrameTriplet(Tensor(slot_frames[1][None]), Tensor(pr), Tensor(pr),
                           reference=session.reference_slot))
    assert builds == [model.decoder] * 3 + [other.decoder]
    assert session.reference_slot.key == weights_key(other)


DECODER_SPANS = {"fuse_stage": 4, "fuse_all": 1, "predict_mask": 1, "predict_error": 1}


def test_slotted_step_runs_every_decoder_span(monkeypatch, slot_frames):
    """The benchmark tracer times these methods by name: a session frame must call each."""
    calls = []
    for name in DECODER_SPANS:
        real = getattr(DualPurposeDecoder, name)

        def counting(self, *args, _name=name, _real=real, **kwargs):
            calls.append(_name)
            return _real(self, *args, **kwargs)

        monkeypatch.setattr(DualPurposeDecoder, name, counting)
    session = InferenceSession(build_model("desk", seed=0)).start(slot_frames[0])
    for frame in slot_frames[:2]:
        calls.clear()
        session.step(frame)
        assert session.reference_slot.collapse is not None
        assert {name: calls.count(name) for name in DECODER_SPANS} == DECODER_SPANS
        assert len(calls) == sum(DECODER_SPANS.values())


class CausalFrames:
    """Frame source that fails on any out-of-order or repeated-future access."""

    def __init__(self, frames):
        self._frames = frames
        self.max_allowed = 0
        self.accesses = []

    def __len__(self):
        return len(self._frames)

    def __getitem__(self, index):
        assert index <= self.max_allowed, \
            f"future frame {index} requested at step {self.max_allowed}"
        self.accesses.append(index)
        self.max_allowed = max(self.max_allowed, index + 1)
        return self._frames[index]


def test_single_pass_causality_with_stub():
    source = CausalFrames(_frames(12))
    results = infer_sequence(StubModel(), source)
    assert len(results) == 12
    assert source.accesses == list(range(12))


def test_write_score_trace_csv(tmp_path):
    model = StubModel(scores=[0.5, 0.25])
    frames = _frames(2)
    gts = [np.zeros((1, 32, 32)), np.ones((1, 32, 32))]
    results = infer_sequence(model, frames)
    path = tmp_path / "scores.csv"
    write_score_trace(path, results, gts)
    with open(path) as f:
        rows = list(csv.reader(f))
    assert rows[0] == ["frame_index", "score", "true_mae", "updated", "ref_frame_index"]
    assert rows[1][0] == "0" and float(rows[1][1]) == 0.5
    assert float(rows[1][2]) == 0.0 and float(rows[2][2]) == 1.0
    assert rows[1][3] == "1" and rows[2][4] == "1"


# ---------------------------------------------------------------------------
# training


def _tiny_sequence(seed=0, n=4, size=32):
    from srrnet.synth import SynthParams, generate_arrays
    frames, masks = generate_arrays(SynthParams(seed=seed, frames=n, size=size,
                                                motion_amplitude=1.5))
    return SequenceRecord(name="tiny", frames=frames, masks=masks)


def test_train_is_deterministic(tmp_path):
    losses = []
    for run in range(2):
        model = build_model("desk", seed=1)
        schedule = TrainSchedule(video_iterations=3, video_lr=1e-4, seed=9)
        result = train(model, schedule, tmp_path / f"run{run}",
                       video_sequences=[_tiny_sequence()])
        losses.append([row[4] for row in result.loss_trace])
    assert losses[0] == losses[1]
    assert (tmp_path / "run0" / "loss.csv").read_bytes() == (tmp_path / "run1" / "loss.csv").read_bytes()


def _desk64_training_record(attention_mode: str, steps: int = 3) -> list:
    """Per desk@64 training step, as ``_train_stage`` runs it: the loss's bytes,
    then each parameter's gradient as its bytes and strides."""
    from srrnet.nn import AdamW
    from srrnet.synth import SynthParams, generate_arrays
    frames, masks = generate_arrays(SynthParams(seed=5, frames=6, size=64, occlusion_prob=0.5))
    sequence = SequenceRecord(name="pin", frames=frames, masks=masks)
    model = build_model("desk", attention_mode=attention_mode, seed=2)
    schedule = TrainSchedule(video_iterations=steps, video_lr=1e-3, mask_dropout=0.3, seed=7)
    opt = AdamW(model.parameters(), lr=schedule.video_lr)
    rng = np.random.default_rng(schedule.seed)
    record = []
    for _ in range(steps):
        triplet, gt = triplet_to_input(_augment(sample_training_triplet(sequence, rng), rng,
                                                schedule))
        model.zero_grad()
        loss, _ = compute_loss(model(triplet), gt, schedule.gamma)
        T.backward(loss)
        record.append([loss.data.tobytes()] + [
            None if p.grad is None else (p.grad.tobytes(), p.grad.strides)
            for p in model.parameters()])
        opt.step()
    return record


@pytest.mark.parametrize("attention_mode", ATTENTION_MODES)
def test_training_gradients_equal_the_zero_filled_accumulator_bit_for_bit(attention_mode):
    """Three desk@64 training steps leave every loss and parameter gradient
    byte-equal, and laid out alike, to those of a tape that zero-fills each
    node's first gradient and adds into it."""
    got = _desk64_training_record(attention_mode)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(T, "_accumulate", zero_filled_accumulate)
        expected = _desk64_training_record(attention_mode)
    assert got == expected


def test_train_two_stages_and_artifacts(tmp_path):
    from srrnet.data import load_static_pool
    from srrnet.synth import generate_static_pool
    pool_dir = generate_static_pool(3, 4, 32, tmp_path / "pool")
    pool = load_static_pool(pool_dir)
    model = build_model("desk", seed=1)
    schedule = TrainSchedule(static_iterations=2, video_iterations=2,
                             static_lr=1e-4, video_lr=1e-4, seed=0)
    result = train(model, schedule, video_sequences=[_tiny_sequence()],
                   static_pool=pool, out_dir=tmp_path / "run")
    stages = [row[1] for row in result.loss_trace]
    assert stages == ["static", "static", "video", "video"]
    assert result.checkpoint_path.exists()
    with open(result.csv_path) as f:
        rows = list(csv.reader(f))
    assert rows[0] == ["iteration", "stage", "bce", "mse", "total"]
    assert len(rows) == 5

    from srrnet.nn import load_checkpoint
    fresh = build_model("desk", seed=99)
    load_checkpoint(result.checkpoint_path, fresh)
    for (_, a), (_, b) in zip(model.named_parameters(), fresh.named_parameters()):
        np.testing.assert_array_equal(a.data, b.data)


TRAIN_PEAK_PROBE = """
import sys
from srrnet.data import load_sequence
from srrnet.model import build_model
from srrnet.nn import count_parameters
from srrnet.pipeline import TrainSchedule, train

sequence = load_sequence(sys.argv[1])
model = build_model("desk", seed=0)
before = resident_bytes()
train(model, TrainSchedule(video_iterations=3, seed=0), sys.argv[2],
      video_sequences=[sequence])
print(count_parameters(model) * 8, peak_bytes() - before)
"""


@needs_proc
def test_training_peak_is_bounded_by_the_live_tape(tmp_path):
    """Three desk training steps on a 64x64 sequence peak within 24 MiB
    above the gradients and both AdamW moments (the weights are already
    resident).

    Keeping every node's gradient, parent links and closure until backward
    ended, and the last step's gradients through the next forward, peaked
    at 37 MiB above them; freeing each node once its closure has run peaks
    at 16 MiB.
    """
    from srrnet.synth import SynthParams, generate_sequence
    seq = generate_sequence(SynthParams(seed=3, frames=6, size=64), tmp_path / "seq")
    parameter_bytes, rise = map(int, run_peak_probe(TRAIN_PEAK_PROBE, seq,
                                                    tmp_path / "run").split())
    assert rise < 3 * parameter_bytes + 24 * 2**20, (rise, parameter_bytes)


def test_a_desk_training_tape_keeps_only_what_its_backward_reads():
    """A desk forward plus its loss at 128 px leaves under 24 MiB on the tape.

    Keeping every Linear's pre-bias product as a node, conv2d's patch
    matrices and layer_norm's x̂ held 30.7 MiB (tracemalloc, this helper's
    inputs); adding each bias inside its GEMM and rebuilding the patches and
    x̂ in the backward held 18.1 MiB; one attention node per call, which
    rebuilds q / sqrt(d) in its backward, holds 17.4 MiB.
    """
    held = desk_tape_bytes(128)
    assert held < 24 * 2**20, held / 2**20


@pytest.mark.parametrize("field, value", [("static_iterations", -1), ("video_iterations", -2),
                                          ("static_lr", -1e-4), ("video_lr", -1.0),
                                          ("gamma", -1.0), ("crop", 48), ("crop", 0),
                                          ("mask_dropout", 1.5), ("mask_dropout", -0.1),
                                          ("static_lr", float("nan")), ("video_lr", float("inf")),
                                          ("gamma", float("nan")), ("gamma", float("-inf"))])
def test_train_schedule_rejects_out_of_range_fields(field, value):
    with pytest.raises(ConfigurationError, match=field):
        TrainSchedule(**{field: value})


def test_train_schedule_accepts_range_ends():
    TrainSchedule(crop=64, mask_dropout=0.0, gamma=0.0)
    TrainSchedule(mask_dropout=1.0)


@pytest.mark.parametrize("h, w", [(32, 64), (64, 32)])
def test_train_refuses_a_crop_larger_than_either_extent(tmp_path, h, w):
    """A 64 crop of a 32 x 64 frame would draw its offset from an empty range."""
    frames = [np.zeros((3, h, w))] * 2
    sequence = SequenceRecord(name="wide", frames=frames, masks=[np.zeros((1, h, w))] * 2)
    model = build_model("desk", seed=1)
    before = [p.data.copy() for p in model.parameters()]
    with pytest.raises(ConfigurationError, match=f"crop 64 exceeds the {h}x{w} frame extent"):
        train(model, TrainSchedule(video_iterations=1, crop=64), tmp_path / "run",
              video_sequences=[sequence])
    for p, b in zip(model.parameters(), before):  # refused before any step
        np.testing.assert_array_equal(p.data, b)


def test_train_checks_the_crop_of_loaded_data_without_decoding_it(tmp_path, monkeypatch):
    """The crop check reads the extents the loaders stored. Decoding every
    image to float64 only to read its extent took 3.95 ms per 352x352 image,
    about 24 s for a 6,000-image pool."""
    import srrnet.data
    from srrnet.data import load_static_pool, load_video_dataset
    from srrnet.synth import SynthParams, generate_sequence, generate_static_pool
    decodes = []
    decode = srrnet.data.decode_frame  # wrapped where the loaders look it up
    monkeypatch.setattr(srrnet.data, "decode_frame",
                        lambda image: decodes.append(image.shape) or decode(image))
    pool = load_static_pool(generate_static_pool(3, 4, 32, tmp_path / "pool"))
    video = load_video_dataset(generate_sequence(SynthParams(seed=1, frames=3, size=32),
                                                 tmp_path / "video" / "seq"))
    model = build_model("desk", seed=1)
    for data in ({"static_pool": pool}, {"video_sequences": video}):
        with pytest.raises(ConfigurationError, match="crop 64 exceeds the 32x32 frame extent"):
            train(model, TrainSchedule(crop=64), tmp_path / "refused", **data)
        train(model, TrainSchedule(crop=32), tmp_path / "run", **data)
    assert decodes == []
    assert pool[0].image.shape == (3, 32, 32) and len(decodes) == 1  # the wrapper counts


def test_train_stage_requirements(tmp_path):
    model = build_model("desk", seed=1)
    with pytest.raises(ConfigurationError):
        train(model, TrainSchedule(static_iterations=1), tmp_path / "run")
    with pytest.raises(ConfigurationError):
        train(model, TrainSchedule(video_iterations=1), tmp_path / "run")
    assert not (tmp_path / "run").exists()


def test_train_raises_on_non_finite_loss(monkeypatch, tmp_path):
    import srrnet.pipeline as pipeline
    real = pipeline.compute_loss
    calls = []

    def nan_on_second(*args, **kwargs):
        loss, parts = real(*args, **kwargs)
        calls.append(1)
        return (Tensor(math.nan) if len(calls) == 2 else loss), parts

    monkeypatch.setattr(pipeline, "compute_loss", nan_on_second)
    model = build_model("desk", seed=1)
    schedule = TrainSchedule(video_iterations=3, video_lr=1e-4, seed=9)
    with pytest.raises(RuntimeError, match="non-finite loss nan at video iteration 2"):
        train(model, schedule, tmp_path / "run", video_sequences=[_tiny_sequence()])
    assert len(calls) == 2
    assert not (tmp_path / "run").exists()
    assert all(np.isfinite(p.data).all() for p in model.parameters())


@pytest.mark.parametrize("error_target", ["absolute", "signed"])
def test_train_supervises_the_error_target_the_model_was_built_for(monkeypatch, tmp_path,
                                                                  error_target):
    import srrnet.pipeline as pipeline
    real = pipeline.compute_loss
    targets = []

    def recording(pred, gt, gamma):
        targets.append(pred.error_target)
        return real(pred, gt, gamma)

    monkeypatch.setattr(pipeline, "compute_loss", recording)
    model = build_model("desk", seed=1, error_target=error_target)
    train(model, TrainSchedule(video_iterations=2, video_lr=1e-4, seed=9), tmp_path,
          video_sequences=[_tiny_sequence()])
    assert targets == [error_target, error_target]
