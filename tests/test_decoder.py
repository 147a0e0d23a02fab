"""Dual-purpose decoder: fusion, mask head, error head, stop-gradient contract."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from srrnet import tensor as T
from srrnet.backbone import PyramidFeatures
from srrnet.decoder import (
    ERROR_TARGETS,
    DecoderConfig,
    DualPurposeDecoder,
    binary_mask_from_logits,
    channel_linear,
    mae_score,
)
from srrnet.gradcheck import gradcheck_model
from srrnet.model import ReferenceSlot, build_model
from srrnet.pipeline import compute_loss
from srrnet.tensor import ConfigurationError, ShapeMismatchError, Tensor

from factored_decoder import (
    FOLD_RTOL,
    assert_grads_match,
    factored_decoder,
    max_rel_diff,
    per_pixel,
)
from test_backbone import make_triplet


def test_binary_mask_ties_classify_as_background():
    logits = np.zeros((1, 2, 2, 2))
    logits[0, 1, 0, 0] = 1.0   # clear foreground
    logits[0, 0, 0, 1] = 1.0   # clear background
    # remaining two positions are exact ties
    mask = binary_mask_from_logits(Tensor(logits))
    np.testing.assert_array_equal(mask[0, 0], [[1.0, 0.0], [0.0, 0.0]])


def test_binary_mask_accepts_tensor_and_is_detached(rng):
    logits = Tensor(rng.normal(size=(1, 2, 3, 3)), requires_grad=True)
    mask = binary_mask_from_logits(logits)
    assert isinstance(mask, np.ndarray)
    assert mask.dtype == np.bool_ and mask.shape == (1, 1, 3, 3)


def test_channel_linear_matches_einsum(rng):
    weight = rng.normal(size=(5, 3))
    x = rng.normal(size=(2, 5, 4, 4))
    got = channel_linear(Tensor(x), Tensor(weight)).data
    expected = np.einsum("bchw,co->bohw", x, weight)
    np.testing.assert_allclose(got, expected, atol=1e-12)


@pytest.mark.parametrize("out_features", [1, 2, 64])
@pytest.mark.parametrize("batch", [1, 2])
@pytest.mark.parametrize("channels_last", [False, True])
def test_channel_linear_is_bitwise_the_per_pixel_formula(rng, out_features, batch,
                                                         channels_last):
    weight = rng.normal(size=(96, out_features))
    x = rng.normal(size=(batch, 96, 16, 16))
    if channels_last:
        x = np.ascontiguousarray(x.transpose(0, 2, 3, 1)).transpose(0, 3, 1, 2)
    wt = Tensor(rng.normal(size=(batch, out_features, 16, 16)))
    results = []
    for fn in (channel_linear, per_pixel):
        wm = Tensor(weight, requires_grad=True)
        xt = Tensor(x, requires_grad=True)
        y = fn(xt, wm)
        T.backward(T.tensor_sum(y * wt))
        results.append((y.data, wm.grad, xt.grad))
    (y, gw, gx), (y_ref, gw_ref, gx_ref) = results
    np.testing.assert_array_equal(y, y_ref)
    np.testing.assert_allclose(gw, gw_ref, rtol=1e-10)
    np.testing.assert_allclose(gx, gx_ref, rtol=1e-10)


def test_decoder_projections_get_at_most_3d_operands(desk_model, rng, monkeypatch):
    """A 4-d operand makes numpy run one GEMM per image row instead of per image.

    The per-frame matmuls are the stage projections by each ``V_i`` and the
    ``m E_m`` term, with the tape on (no slot) and off (slotted) alike.
    """
    dec = desk_model.decoder
    collapses, calls = [], []
    real_collapse, real_matmul = DualPurposeDecoder.collapse, T.matmul

    def keeping_collapse(self):
        collapses.append(real_collapse(self))
        return collapses[-1]

    def recording_matmul(a, b):
        calls.append((a.ndim, b))  # b is kept alive, so no later tensor reuses its id
        return real_matmul(a, b)

    monkeypatch.setattr(DualPurposeDecoder, "collapse", keeping_collapse)
    monkeypatch.setattr(T, "matmul", recording_matmul)
    triplet = make_triplet(rng, size=64)
    desk_model(triplet)
    with T.no_grad():
        triplet.reference = ReferenceSlot()
        desk_model(triplet)
    assert len(collapses) == 2
    for collapse in collapses:
        by_stage_map = [ndim for ndim, b in calls
                        if any(b is v for v in collapse.stage_maps)]
        assert len(by_stage_map) == 4 and max(by_stage_map) <= 3
    by_err_mask = [ndim for ndim, b in calls
                   if np.shares_memory(b.data, dec.err_head.weight.data)]
    assert len(by_err_mask) == 2 and max(by_err_mask) <= 3


def test_decoder_config_validation():
    with pytest.raises(ConfigurationError):
        DecoderConfig(ch_prime=0, ch_double_prime=8)
    with pytest.raises(ConfigurationError):
        DecoderConfig(ch_prime=8, ch_double_prime=8, error_target="relu")


def test_prediction_shapes_and_score(desk_model, rng):
    pred = desk_model(make_triplet(rng, size=64))
    assert pred.mask_logits.shape == (1, 2, 16, 16)
    assert pred.supervision_logits.shape == (1, 2, 64, 64)
    assert pred.o_msk.shape == (1, 1, 64, 64)
    assert pred.o_err.shape == (1, 1, 16, 16)
    assert pred.o_msk.dtype == np.bool_
    assert ((pred.o_err.data > 0) & (pred.o_err.data < 1)).all()
    assert abs(pred.score_value - pred.o_err.data.mean()) < 1e-15
    assert abs(float(mae_score(pred.o_err).data) - pred.o_err.data.mean()) < 1e-15


def test_signed_error_activation_range(rng):
    model = build_model("desk", seed=0, error_target="signed")
    pred = model(make_triplet(rng, size=32))
    assert ((pred.o_err.data > -1) & (pred.o_err.data < 1)).all()


def test_signed_score_is_the_mean_absolute_predicted_error(rng):
    model = build_model("desk", seed=0, error_target="signed")
    with T.no_grad():
        pred = model(make_triplet(rng, size=32))
    o_err = pred.o_err.data
    assert (o_err < 0).any() and (o_err > 0).any()  # a signed mean would differ
    assert pred.score_value == np.abs(o_err).mean()
    assert pred.score_value >= 0
    assert float(mae_score(pred.o_err).data) == np.abs(o_err).mean()


def test_gradcheck_covers_the_signed_error_head():
    # the check runs the training loss with the model's own error target, so
    # this sweeps the 2σ(x) − 1 head against the signed target gt − mask
    report = gradcheck_model(build_model("desk", seed=0, error_target="signed"),
                             samples_per_param=1)
    assert report.passed, report.worst()


def test_fuse_stage_resizes_to_common_grid(desk_model, rng):
    features = desk_model.backbone(make_triplet(rng, size=64))
    dec = desk_model.decoder
    collapse = dec.collapse()
    for i in range(4):
        fused = dec.fuse_stage(features.c[i], features.p[i], features.r[i], 16, 16, i,
                               collapse)
        assert fused.shape == (1, 27, 16, 16)


def test_fuse_stage_shape_errors(desk_model, rng):
    dec = desk_model.decoder
    collapse = dec.collapse()
    a = Tensor(rng.normal(size=(1, 8, 4, 4)))
    b = Tensor(rng.normal(size=(1, 8, 8, 8)))
    with pytest.raises(ShapeMismatchError):
        dec.fuse_stage(a, a, b, 4, 4, 0, collapse)
    with pytest.raises(ShapeMismatchError):
        dec.fuse_all([Tensor(rng.normal(size=(1, 27, 4, 4))),
                      Tensor(rng.normal(size=(1, 27, 8, 8)))], collapse)


def test_error_loss_leaves_mask_head_untouched(desk_model, rng):
    """The mask logits cross a stop-gradient boundary into the error head."""
    desk_model.zero_grad()
    pred = desk_model(make_triplet(rng, size=32))
    target = rng.random((1, 1, 8, 8))
    T.backward(T.mse(pred.o_err, target))
    assert not np.any(desk_model.decoder.mask_head.weight.grad)
    assert not np.any(desk_model.decoder.mask_head.bias.grad)
    # while the error head and shared trunk do learn from it
    assert desk_model.decoder.err_head.weight.grad is not None
    assert desk_model.decoder.fuse_conv.weight.grad is not None
    desk_model.zero_grad()


def test_total_loss_reaches_both_heads(desk_model, rng):
    desk_model.zero_grad()
    trip = make_triplet(rng, size=32)
    pred = desk_model(trip)
    gt = (rng.random((1, 1, 32, 32)) > 0.5).astype(np.float64)
    loss, _ = compute_loss(pred, gt, 1.0)
    T.backward(loss)
    assert desk_model.decoder.mask_head.weight.grad is not None
    assert desk_model.decoder.err_head.weight.grad is not None
    assert np.abs(desk_model.decoder.mask_head.weight.grad).max() > 0
    desk_model.zero_grad()


def test_decoder_construction_matches_stage_channels(rng):
    gen = np.random.default_rng(0)
    dec = DualPurposeDecoder([8, 16, 24, 32],
                             DecoderConfig(ch_prime=64, ch_double_prime=32), gen)
    assert [lin.weight.shape for lin in dec.fuse_linears] == \
        [(24, 64), (48, 64), (72, 64), (96, 64)]
    assert dec.fuse_all_linear.weight.shape == (256, 64)
    assert dec.mask_head.weight.shape == (32, 2)
    assert dec.err_head.weight.shape == (34, 1)


@settings(max_examples=100)
@given(widths=st.lists(st.integers(1, 12), min_size=4, max_size=4),
       ch_prime=st.integers(1, 24), ch_double_prime=st.integers(1, 24),
       extent=st.tuples(st.sampled_from([32, 64, 96]), st.sampled_from([32, 64, 96])),
       error_target=st.sampled_from(ERROR_TARGETS), seed=st.integers(0, 2 ** 16))
def test_collapsed_decoder_matches_the_factored_chain(widths, ch_prime, ch_double_prime,
                                                      extent, error_target, seed):
    rng = np.random.default_rng(seed)
    cfg = DecoderConfig(ch_prime=ch_prime, ch_double_prime=ch_double_prime,
                        error_target=error_target)
    dec = DualPurposeDecoder(widths, cfg, rng)
    for prm in dec.parameters():  # every bias non-zero, weights of unit-order outputs
        prm.data = rng.normal(0.0, 1.0 / np.sqrt(prm.data.shape[0]), size=prm.data.shape)
    height, width = extent
    features = PyramidFeatures()
    for i, ch in enumerate(widths):
        shape = (1, ch, height >> (i + 2), width >> (i + 2))
        for branch in (features.c, features.p, features.r):
            branch.append(Tensor(rng.normal(size=shape), requires_grad=True))
    with T.no_grad():
        plain = factored_decoder(dec, features, height, width)
        collapsed = dec(features, height, width, dec.collapse())
    for name in ("mask_logits", "supervision_logits", "o_err"):
        got, expected = getattr(collapsed, name).data, getattr(plain, name).data
        assert got.shape == expected.shape, name
        assert max_rel_diff(got, expected) <= FOLD_RTOL, name
    # a signed score can sit near zero, so its bound is relative to the error map
    score_bound = FOLD_RTOL * np.abs(plain.o_err.data).max()
    assert abs(collapsed.score_value - plain.score_value) <= score_bound

    # with the tape on, both give every parameter and every feature the same gradient
    logit_weights = Tensor(rng.normal(size=plain.supervision_logits.shape))
    err_weights = Tensor(rng.normal(size=plain.o_err.shape))
    leaves = [(f"decoder.{name}", prm) for name, prm in dec.named_parameters()] + [
        (f"{branch}{i}", x) for branch in "cpr"
        for i, x in enumerate(getattr(features, branch))]

    def gradients(decode):
        for _, leaf in leaves:
            leaf.grad = None
        pred = decode(features, height, width)
        T.backward(T.mean(pred.supervision_logits * logit_weights)
                   + T.mean(pred.o_err * err_weights))
        return {name: leaf.grad for name, leaf in leaves}

    assert_grads_match(gradients(dec), gradients(lambda *a: factored_decoder(dec, *a)))


@pytest.mark.parametrize("error_target", ERROR_TARGETS)
@pytest.mark.parametrize("loss", ["compute_loss", "error_mse"])
def test_gradients_match_the_factored_oracle(loss, error_target):
    """Every parameter's gradient matches a model decoding through the factored chain.

    This pins where the stop-gradient sits: on ``m`` as the error head reads
    it, and nowhere else.
    """
    model = build_model("desk", seed=0, error_target=error_target)
    rng = np.random.default_rng(11)
    for name, prm in model.named_parameters():
        if name.endswith(".bias"):  # biases start at zero; every path must carry them
            prm.data = rng.normal(0.0, 0.05, size=prm.data.shape)
    triplet = make_triplet(rng, size=64)
    gt = (rng.random((1, 1, 64, 64)) > 0.5).astype(np.float64)
    err_target = rng.uniform(-1.0, 1.0, size=(1, 1, 16, 16))

    def gradients(decode):
        model.zero_grad()
        pred = decode(model.backbone(triplet), 64, 64)
        if loss == "compute_loss":
            value = compute_loss(pred, gt, 1.0)[0]
        else:
            value = T.mse(pred.o_err, err_target)
        T.backward(value)
        return {name: prm.grad for name, prm in model.named_parameters()}

    collapsed = gradients(model.decoder)
    oracle = gradients(lambda *a: factored_decoder(model.decoder, *a))
    model.zero_grad()
    assert_grads_match(collapsed, oracle)
    assert np.any(collapsed["decoder.err_head.weight"])
    assert np.any(collapsed["decoder.mask_head.weight"]) == (loss == "compute_loss")
