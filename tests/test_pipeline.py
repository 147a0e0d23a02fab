"""Losses, samplers, reference memory protocol, sessions, and training."""

import csv
import math

import numpy as np
import pytest

from srrnet import tensor as T
from srrnet.data import SequenceRecord, StaticRecord
from srrnet.decoder import PredictionPair
from srrnet.model import build_model
from srrnet.pipeline import (
    InferenceSession,
    LossConfig,
    MemoryState,
    TrainSchedule,
    compute_loss,
    infer_sequence,
    init_session,
    sample_static_triplet,
    sample_training_triplet,
    train,
    triplet_to_input,
    write_score_trace,
)
from srrnet.tensor import ConfigurationError, ShapeMismatchError, Tensor


# ---------------------------------------------------------------------------
# loss


def test_loss_hand_computed_case():
    # Zero logits everywhere: BCE = ln 2; the tie convention gives an all-zero
    # mask, so the error target equals the ground truth; constant 0.5 error map
    # with a single foreground pixel out of four gives MSE = 0.25.
    logits = Tensor(np.zeros((1, 2, 2, 2)))
    o_err = T.sigmoid(Tensor(np.zeros((1, 1, 2, 2))))  # exactly 0.5
    gt = np.zeros((1, 1, 2, 2))
    gt[0, 0, 0, 0] = 1.0
    total, parts = compute_loss(logits, o_err, gt, LossConfig(gamma=1.0))
    assert abs(parts["bce"] - math.log(2.0)) < 1e-12
    assert abs(parts["mse"] - 0.25) < 1e-12
    assert abs(float(total.data) - (math.log(2.0) + 0.25)) < 1e-12


def test_loss_total_is_exact_weighted_sum(desk_model, rng):
    from test_backbone import make_triplet
    pred = desk_model(make_triplet(rng, size=32))
    gt = (rng.random((1, 1, 32, 32)) > 0.5).astype(np.float64)
    for gamma in (0.0, 0.5, 2.0):
        total, parts = compute_loss(pred.supervision_logits, pred.o_err, gt,
                                    LossConfig(gamma=gamma))
        assert parts["bce"] >= 0 and parts["mse"] >= 0
        assert float(total.data) == parts["bce"] + gamma * parts["mse"]


def test_loss_resizes_error_target_to_error_grid(desk_model, rng):
    from test_backbone import make_triplet
    pred = desk_model(make_triplet(rng, size=32))
    gt = (rng.random((1, 1, 32, 32)) > 0.5).astype(np.float64)
    total, parts = compute_loss(pred.supervision_logits, pred.o_err, gt, LossConfig())
    assert np.isfinite(parts["mse"])


def test_signed_error_target_changes_loss():
    logits = Tensor(np.zeros((1, 2, 2, 2)))
    o_err = T.sigmoid(Tensor(np.zeros((1, 1, 2, 2)))) * 2.0 - 1.0  # exactly 0
    gt = np.zeros((1, 1, 2, 2))
    gt[0, 0, 0, 0] = 1.0
    _, absolute = compute_loss(logits, o_err, gt, LossConfig(error_target="absolute"))
    _, signed = compute_loss(logits, o_err, gt, LossConfig(error_target="signed"))
    # target is gt either way here (mask is empty), but e.g. with a false
    # positive they differ; check the config plumbing accepts both
    assert abs(absolute["mse"] - signed["mse"]) < 1e-12
    with pytest.raises(ConfigurationError):
        LossConfig(error_target="other")
    with pytest.raises(ConfigurationError):
        LossConfig(gamma=-1.0)


def test_loss_shape_mismatch():
    logits = Tensor(np.zeros((1, 2, 4, 4)))
    o_err = Tensor(np.full((1, 1, 4, 4), 0.5))
    with pytest.raises(ShapeMismatchError):
        compute_loss(logits, o_err, np.zeros((1, 1, 2, 2)), LossConfig())


def test_gamma_zero_matches_mask_only_gradients(desk_model, rng):
    from test_backbone import make_triplet
    trip = make_triplet(rng, size=32)
    gt = (rng.random((1, 1, 32, 32)) > 0.5).astype(np.float64)

    desk_model.zero_grad()
    pred = desk_model(trip)
    total, _ = compute_loss(pred.supervision_logits, pred.o_err, gt,
                            LossConfig(gamma=0.0))
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


def _video_record(rng, n=6, size=32):
    return SequenceRecord(
        name="seq",
        frames=[rng.random((3, size, size)) for _ in range(n)],
        masks=[(rng.random((1, size, size)) > 0.5).astype(np.float64) for _ in range(n)],
    )


def test_video_sampler_index_laws(rng):
    seq = _video_record(rng, n=8)
    gen = np.random.default_rng(0)
    seen_c = set()
    for _ in range(10_000):
        trip = sample_training_triplet(seq, gen)
        assert trip.p_index == trip.c_index - 1
        assert 0 <= trip.r_index < trip.c_index
        seen_c.add(trip.c_index)
    assert seen_c == set(range(1, 8))


def test_video_sampler_two_frame_sequence(rng):
    seq = _video_record(rng, n=2)
    gen = np.random.default_rng(0)
    for _ in range(20):
        trip = sample_training_triplet(seq, gen)
        assert (trip.c_index, trip.p_index, trip.r_index) == (1, 0, 0)


def test_video_sampler_single_frame_fallback(rng):
    seq = _video_record(rng, n=1)
    trip = sample_training_triplet(seq, np.random.default_rng(0))
    assert (trip.c_index, trip.p_index, trip.r_index) == (0, 0, 0)
    np.testing.assert_array_equal(trip.c_img, trip.p_img)


def _static_pool(rng, spec):
    pool = []
    for i, cat in enumerate(spec):
        pool.append(StaticRecord(name=f"{i:05d}", category=cat,
                                 image=rng.random((3, 32, 32)),
                                 mask=(rng.random((1, 32, 32)) > 0.5).astype(np.float64)))
    return pool


def test_static_sampler_category_law(rng):
    pool = _static_pool(rng, ["a", "a", "b", "b", "b", "c"])
    gen = np.random.default_rng(0)
    r_cats = set()
    for _ in range(2000):
        trip = sample_static_triplet(pool, gen)
        assert pool[trip.p_index].category == pool[trip.c_index].category
        if pool[trip.c_index].category == "c":
            assert trip.p_index == trip.c_index  # singleton category falls back
        else:
            assert trip.p_index != trip.c_index
        r_cats.add(pool[trip.r_index].category)
    assert r_cats == {"a", "b", "c"}  # reference draws from the whole pool


def test_static_sampler_empty_pool():
    with pytest.raises(ConfigurationError):
        sample_static_triplet([], np.random.default_rng(0))


def test_triplet_to_input_builds_valid_network_input(rng):
    seq = _video_record(rng, n=4)
    trip = sample_training_triplet(seq, np.random.default_rng(0))
    triplet, gt = triplet_to_input(trip)
    assert triplet.c_img.shape == (1, 3, 32, 32)
    assert triplet.p_in.shape == (1, 4, 32, 32)
    assert triplet.r_in.shape == (1, 4, 32, 32)
    assert gt.shape == (1, 1, 32, 32)
    np.testing.assert_array_equal(triplet.p_in.data[0, 3], trip.p_seg[0])


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


def test_memory_state_strictly_smaller_update():
    mem = MemoryState(r_img=np.zeros(1), r_msk=np.zeros(1))
    assert mem.score == 1.0
    assert mem.update(1, np.ones(1), np.ones(1), 0.5)
    assert not mem.update(2, np.zeros(1), np.zeros(1), 0.5)  # tie keeps older
    assert mem.ref_frame_index == 1
    assert mem.update(3, np.zeros(1), np.zeros(1), 0.4999)
    assert mem.ref_frame_index == 3


def test_memory_state_matches_prefix_argmin_oracle():
    gen = np.random.default_rng(42)
    for _ in range(300):
        n = int(gen.integers(1, 60))
        # quantized scores force ties to exercise the earliest-minimum rule
        scores = list(np.round(gen.random(n), 1))
        mem = MemoryState(r_img=np.zeros(1), r_msk=np.zeros(1))
        trace = []
        for t, s in enumerate(scores):
            mem.update(t, np.zeros(1), np.zeros(1), float(s))
            trace.append(mem.ref_frame_index)
        # the memory seeds at score 1.0 on frame 0, beaten only by strict <
        expected = []
        best, best_i = 1.0, 0
        for t, s in enumerate(scores):
            if s < best:
                best, best_i = s, t
            expected.append(best_i)
        assert trace == expected


# ---------------------------------------------------------------------------
# sessions with a stub model (fast, protocol-focused)


class StubModel:
    """Duck-typed model capturing inputs and emitting scripted error maps."""

    def __init__(self, scores=None):
        self.scores = scores
        self.calls = 0
        self.triplets = []

    def __call__(self, triplet):
        self.triplets.append(triplet)
        h, w = triplet.height, triplet.width
        value = self.scores[self.calls] if self.scores is not None else 0.5
        self.calls += 1
        o_err = Tensor(np.full((1, 1, h // 4, w // 4), value))
        logits = Tensor(np.zeros((1, 2, h // 4, w // 4)))
        full = Tensor(np.zeros((1, 2, h, w)))
        return PredictionPair(mask_logits=logits, mask_logits_full=full,
                              o_msk=np.zeros((1, 1, h, w)), o_err=o_err,
                              score=T.mean(o_err))


def _frames(n, size=32, seed=0):
    gen = np.random.default_rng(seed)
    return [gen.random((3, size, size)) for _ in range(n)]


def test_session_scores_drive_reference_memory():
    scores = [0.5, 0.7, 0.3, 0.3, 0.2, 0.9]
    model = StubModel(scores=scores)
    results = infer_sequence(model, _frames(6), reference_mode="scored")
    assert [r.score for r in results] == pytest.approx(scores)
    assert [r.updated for r in results] == [True, False, True, False, True, False]
    assert [r.ref_frame_index for r in results] == [0, 0, 2, 2, 4, 4]


def test_session_score_override_hook():
    model = StubModel()  # constant model score 0.5
    injected = [0.9, 0.2, 0.4, 0.1]
    results = infer_sequence(model, _frames(4), score_override=lambda i: injected[i])
    assert [r.ref_frame_index for r in results] == [0, 1, 1, 3]
    # the reported score stays the model's own prediction
    assert [r.score for r in results] == pytest.approx([0.5] * 4)


def test_session_reference_mode_off_duplicates_previous():
    model = StubModel(scores=[0.5, 0.4, 0.3, 0.2])
    frames = _frames(4)
    infer_sequence(model, frames, reference_mode="off")
    for t, trip in enumerate(model.triplets):
        np.testing.assert_array_equal(trip.r_in.data, trip.p_in.data)
        np.testing.assert_array_equal(trip.c_img.data[0], frames[t])


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
    session = init_session(model, _frames(1)[0])
    with pytest.raises(RuntimeError):
        InferenceSession(model).step(_frames(1)[0])
    session.step(_frames(1)[0])
    with pytest.raises(ConfigurationError):
        session.step(np.zeros((3, 64, 64)))


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
        result = train(model, schedule, video_sequences=[_tiny_sequence()])
        losses.append([row[4] for row in result.loss_trace])
    assert losses[0] == losses[1]


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


def test_train_stage_requirements():
    model = build_model("desk", seed=1)
    with pytest.raises(ConfigurationError):
        train(model, TrainSchedule(static_iterations=1))
    with pytest.raises(ConfigurationError):
        train(model, TrainSchedule(video_iterations=1))


def test_train_raises_on_non_finite_loss(monkeypatch):
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
        train(model, schedule, video_sequences=[_tiny_sequence()])
    assert len(calls) == 2
    assert all(np.isfinite(p.data).all() for p in model.parameters())
