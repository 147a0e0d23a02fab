"""Autodiff engine: forward value oracles and finite-difference gradients."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, strategies as st
from hypothesis.extra import numpy as hnp
from scipy import special

from srrnet import tensor as T
from srrnet.nn import Linear
from srrnet.tensor import ConfigurationError, ShapeMismatchError, Tensor

from conftest import assert_grad_matches, fd_grad
from keep_every_tile import keep_every_tile_softmax
from keep_on_tape import (backward_from, conv2d_keeping_patches, layer_norm_keeping_xhat,
                          linear_two_nodes)
from keep_zero_filled import zero_filled_accumulate


def leaf(rng, *shape):
    return Tensor(rng.uniform(-1.0, 1.0, size=shape), requires_grad=True)


# ---------------------------------------------------------------------------
# forward values against independent constructions


def test_matmul_matches_numpy(rng):
    a, b = rng.normal(size=(2, 3, 4)), rng.normal(size=(4, 5))
    np.testing.assert_array_equal(T.matmul(Tensor(a), Tensor(b)).data, a @ b)
    # a 2-d left operand, contiguous or a transposed view, is numpy's own GEMM
    for left in (rng.normal(size=(3, 4)), rng.normal(size=(4, 3)).T):
        np.testing.assert_array_equal(T.matmul(Tensor(left), Tensor(b)).data, left @ b)


def _slabs(x):
    """A matrix as the one (batch, head) slab of a 1 x n x m operand with one head."""
    return Tensor(np.asarray(x, dtype=np.float64)[None])


def _queries(x):
    """A matrix of scores' queries: ``T.softmax`` multiplies q by 1/sqrt(m), so times
    sqrt(m) it scores the rows of ``x`` as they are (to rounding)."""
    x = np.asarray(x, dtype=np.float64)
    return _slabs(x * math.sqrt(x.shape[-1]))


def test_softmax_rows_sum_to_one(rng):
    # with identity keys the scores are q itself, and against identity values
    # softmax(q k^T) v is the probabilities themselves
    y = T.softmax(_queries(rng.normal(size=(3, 7))), _slabs(np.eye(7)), _slabs(np.eye(7)), 1).data
    np.testing.assert_allclose(y.sum(axis=-1), 1.0, atol=1e-14)
    assert (y > 0).all()


def test_softmax_shift_invariance(rng):
    x = rng.normal(size=(2, 5))
    k, v = _slabs(np.eye(5)), _slabs(rng.normal(size=(5, 3)))
    a = T.softmax(_queries(x), k, v, 1).data
    for shift in (1000.0, -1000.0):  # far below, an unshifted exp underflows to 0 / 0
        b = T.softmax(_queries(x + shift), k, v, 1).data
        np.testing.assert_allclose(a, b, atol=1e-12)


def test_softmax_rejects_disagreeing_extents():
    q = Tensor(np.zeros((1, 3, 8)))
    with pytest.raises(ShapeMismatchError):  # k's channels differ from q's
        T.softmax(q, Tensor(np.zeros((1, 5, 6))), Tensor(np.zeros((1, 5, 8))), 2)
    with pytest.raises(ShapeMismatchError):  # v's key count differs from k's
        T.softmax(q, Tensor(np.zeros((1, 5, 8))), Tensor(np.zeros((1, 6, 8))), 2)
    with pytest.raises(ShapeMismatchError):  # q's channels do not split into the heads
        T.softmax(q, Tensor(np.zeros((1, 5, 8))), Tensor(np.zeros((1, 5, 8))), 3)
    with pytest.raises(ShapeMismatchError):
        T.softmax(Tensor(np.zeros((2, 3))), Tensor(np.zeros((5, 3))), Tensor(np.zeros((5, 3))), 1)
    with pytest.raises(ValueError, match="at least one key"):
        T.softmax(q, Tensor(np.zeros((1, 0, 8))), Tensor(np.zeros((1, 0, 8))), 2)


def test_sigmoid_matches_expit(rng):
    x = rng.normal(size=(4, 4)) * 10
    np.testing.assert_allclose(T.sigmoid(Tensor(x)).data, special.expit(x), atol=1e-15)


def test_gelu_matches_erf_form(rng):
    x = np.concatenate([rng.normal(size=100_000) * 3, np.linspace(-40.0, 40.0, 2001)])
    expected = x * 0.5 * (1.0 + special.erf(x / np.sqrt(2.0)))
    np.testing.assert_allclose(T.gelu(Tensor(x)).data, expected, atol=1e-14)


def test_layer_norm_statistics(rng):
    x = rng.normal(size=(2, 3, 8)) * 5 + 2
    gamma, beta = Tensor(np.ones(8)), Tensor(np.zeros(8))
    y = T.layer_norm(Tensor(x), gamma, beta).data
    np.testing.assert_allclose(y.mean(axis=-1), 0.0, atol=1e-12)
    np.testing.assert_allclose(y.var(axis=-1), 1.0, atol=1e-5)


def test_layer_norm_value_oracle(rng):
    x = rng.normal(size=(2, 6))
    gamma = rng.normal(size=6)
    beta = rng.normal(size=6)
    mu = x.mean(axis=-1, keepdims=True)
    var = x.var(axis=-1, keepdims=True)
    expected = (x - mu) / np.sqrt(var + 1e-6) * gamma + beta
    y = T.layer_norm(Tensor(x), Tensor(gamma), Tensor(beta)).data
    np.testing.assert_allclose(y, expected, atol=1e-14)


def _conv2d_loop_oracle(x, w, b, stride, padding):
    batch, in_ch, h, wd = x.shape
    out_ch, _, kh, kw = w.shape
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    oh = (h + 2 * padding - kh) // stride + 1
    ow = (wd + 2 * padding - kw) // stride + 1
    out = np.zeros((batch, out_ch, oh, ow))
    for n in range(batch):
        for o in range(out_ch):
            for i in range(oh):
                for j in range(ow):
                    patch = xp[n, :, i * stride:i * stride + kh, j * stride:j * stride + kw]
                    out[n, o, i, j] = (patch * w[o]).sum() + b[o]
    return out


@pytest.mark.parametrize("stride,padding", [(1, 0), (1, 1), (2, 1), (4, 3)])
def test_conv2d_matches_loop_oracle(rng, stride, padding):
    x = rng.normal(size=(2, 3, 9, 9))
    w = rng.normal(size=(4, 3, 3, 3))
    b = rng.normal(size=4)
    got = T.conv2d(Tensor(x), Tensor(w), Tensor(b), stride=stride, padding=padding).data
    np.testing.assert_allclose(got, _conv2d_loop_oracle(x, w, b, stride, padding),
                               atol=1e-12)


@given(batch=st.integers(1, 2), in_ch=st.integers(1, 3), out_ch=st.integers(1, 3),
       height=st.integers(1, 7), width=st.integers(1, 7), kernel=st.integers(1, 4),
       stride=st.integers(1, 3), padding=st.sampled_from([0, 1, 3]),
       channels_last=st.booleans(), seed=st.integers(0, 2**16))
def test_conv2d_matches_loop_oracle_on_any_layout(batch, in_ch, out_ch, height, width,
                                                  kernel, stride, padding,
                                                  channels_last, seed):
    assume(height + 2 * padding >= kernel and width + 2 * padding >= kernel)
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(batch, in_ch, height, width))
    if channels_last:
        x = np.ascontiguousarray(x.transpose(0, 2, 3, 1)).transpose(0, 3, 1, 2)
    w = rng.normal(size=(out_ch, in_ch, kernel, kernel))
    b = rng.normal(size=out_ch)
    x_before = x.copy()
    got = T.conv2d(Tensor(x), Tensor(w), Tensor(b), stride=stride, padding=padding).data
    np.testing.assert_allclose(got, _conv2d_loop_oracle(x, w, b, stride, padding),
                               atol=1e-12)
    np.testing.assert_array_equal(x, x_before)


def _bilinear_loop_oracle(x, out_h, out_w):
    _, _, h, w = x.shape
    out = np.zeros(x.shape[:2] + (out_h, out_w))
    for oi in range(out_h):
        for oj in range(out_w):
            sy = min(max((oi + 0.5) * h / out_h - 0.5, 0.0), h - 1.0)
            sx = min(max((oj + 0.5) * w / out_w - 0.5, 0.0), w - 1.0)
            y0, x0 = int(np.floor(sy)), int(np.floor(sx))
            y1, x1 = min(y0 + 1, h - 1), min(x0 + 1, w - 1)
            fy, fx = sy - y0, sx - x0
            out[:, :, oi, oj] = ((1 - fy) * (1 - fx) * x[:, :, y0, x0]
                                 + (1 - fy) * fx * x[:, :, y0, x1]
                                 + fy * (1 - fx) * x[:, :, y1, x0]
                                 + fy * fx * x[:, :, y1, x1])
    return out


@pytest.mark.parametrize("out_h,out_w", [(8, 8), (3, 5), (16, 12)])
def test_bilinear_resize_matches_loop_oracle(rng, out_h, out_w):
    x = rng.normal(size=(2, 3, 6, 7))
    got = T.bilinear_resize(Tensor(x), out_h, out_w).data
    np.testing.assert_allclose(got, _bilinear_loop_oracle(x, out_h, out_w), atol=1e-12)


def test_bilinear_resize_identity(rng):
    x = rng.normal(size=(1, 2, 5, 5))
    np.testing.assert_array_equal(T.bilinear_resize(Tensor(x), 5, 5).data, x)


def test_bilinear_upsample_preserves_constant(rng):
    x = np.full((1, 1, 4, 4), 3.25)
    y = T.bilinear_resize(Tensor(x), 16, 16).data
    np.testing.assert_allclose(y, 3.25, atol=1e-12)


def test_bce_with_logits_value_oracle(rng):
    x = rng.normal(size=(3, 4)) * 5
    t = (rng.random((3, 4)) > 0.5).astype(np.float64)
    p = special.expit(x)
    expected = -(t * np.log(p) + (1 - t) * np.log(1 - p)).mean()
    got = float(T.bce_with_logits(Tensor(x), t).data)
    assert abs(got - expected) < 1e-12


def test_bce_with_logits_overflow_safe():
    loss = float(T.bce_with_logits(Tensor([[1000.0, -1000.0]]), [[1.0, 0.0]]).data)
    assert np.isfinite(loss) and loss < 1e-12


def test_mse_value(rng):
    a, b = rng.normal(size=(4, 4)), rng.normal(size=(4, 4))
    assert abs(float(T.mse(Tensor(a), b).data) - ((a - b) ** 2).mean()) < 1e-14


# ---------------------------------------------------------------------------
# gradients against the independent finite-difference oracle


def test_add_broadcast_grads(rng):
    a = leaf(rng, 3, 4)
    b = leaf(rng, 4)
    w = rng.normal(size=(3, 4))
    loss = lambda: T.tensor_sum((a + b) * Tensor(w))
    assert_grad_matches(loss, a)
    assert_grad_matches(loss, b)


def test_mul_broadcast_grads(rng):
    a = leaf(rng, 2, 3, 4)
    b = leaf(rng, 1, 3, 1)
    w = rng.normal(size=(2, 3, 4))
    loss = lambda: T.tensor_sum((a * b) * Tensor(w))
    assert_grad_matches(loss, a)
    assert_grad_matches(loss, b)


def test_sub_neg_power_grads(rng):
    a = leaf(rng, 3, 3)
    b = leaf(rng, 3, 3)
    w = rng.normal(size=(3, 3))
    loss = lambda: T.tensor_sum(T.power(a - b, 2.0) * Tensor(w))
    assert_grad_matches(loss, a)
    assert_grad_matches(loss, b)


def test_reshape_transpose_concat_narrow_grads(rng):
    a = leaf(rng, 2, 6)
    b = leaf(rng, 2, 6)
    w = rng.normal(size=(2, 2, 3))

    def loss():
        joined = T.concat([a, b], axis=0)          # 4 x 6
        cut = T.narrow(joined, 0, 1, 2)            # 2 x 6
        shaped = T.transpose(T.reshape(cut, (2, 3, 2)), (0, 2, 1))
        return T.tensor_sum(shaped * Tensor(w))

    assert_grad_matches(loss, a)
    assert_grad_matches(loss, b)


@pytest.mark.parametrize("axis", [0, 1])
def test_narrow_grads_are_the_slice_grads_in_place(rng, axis):
    """Slices that tile a tensor hand it their gradients bitwise, concatenated."""
    a = leaf(rng, 4, 6)
    bounds = [0, 1, 3, a.shape[axis]]
    spans = list(zip(bounds, bounds[1:]))
    weights = [Tensor(rng.normal(size=T.narrow(a, axis, lo, hi - lo).shape)) for lo, hi in spans]

    def loss(parts):
        return sum((T.mean(x * w) for x, w in zip(parts, weights)), Tensor(0.0))

    T.backward(loss([T.narrow(a, axis, lo, hi - lo) for lo, hi in spans]))
    slices = [Tensor(T.narrow(a, axis, lo, hi - lo).data, requires_grad=True) for lo, hi in spans]
    T.backward(loss(slices))
    np.testing.assert_array_equal(a.grad, np.concatenate([s.grad for s in slices], axis=axis))


def test_narrow_leaves_a_parent_without_grad_at_none(rng):
    a = Tensor(rng.normal(size=(2, 6)))
    b = leaf(rng, 2, 6)
    T.backward(T.mean(T.narrow(T.concat([a, b], axis=0), 0, 1, 2)))  # a's last row, b's first
    assert a.grad is None
    np.testing.assert_array_equal(b.grad, np.r_[np.full((1, 6), 1 / 12), np.zeros((1, 6))])


def test_narrow_backward_allocates_no_parent_sized_buffer_per_slice():
    """Eight slices add into the parent's gradient; none builds a parent-sized buffer.

    The backward holds the parent's gradient and the slices' gradients
    (2 x the parent's bytes); one parent-sized buffer more would read 3 x.
    """
    a = Tensor(np.zeros((64, 1024)), requires_grad=True)
    loss = sum((T.mean(T.narrow(a, 0, 8 * i, 8)) for i in range(8)), Tensor(0.0))
    tracemalloc.start()
    try:
        T.backward(loss)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.5 * a.data.nbytes


def test_mean_sum_grads(rng):
    a = leaf(rng, 2, 3, 4)
    wm, ws = rng.normal(), rng.normal()
    assert T.mean(a).shape == T.tensor_sum(a).shape == ()
    assert_grad_matches(lambda: T.mean(a) * Tensor(wm), a)
    assert_grad_matches(lambda: T.tensor_sum(a) * Tensor(ws), a)


def test_matmul_grads(rng):
    for leading in ((2, 3), ()):  # a 3-d and a 2-d left operand
        a = leaf(rng, *leading, 3, 4)
        b = leaf(rng, 4, 5)
        w = rng.normal(size=leading + (3, 5))
        loss = lambda: T.tensor_sum(T.matmul(a, b) * Tensor(w))
        assert_grad_matches(loss, a)
        assert_grad_matches(loss, b)


def test_softmax_sigmoid_gelu_grads(rng):
    a = leaf(rng, 2, 5)
    w = rng.normal(size=(2, 5))
    q, k, v = leaf(rng, 2, 4, 6), leaf(rng, 2, 5, 6), leaf(rng, 2, 5, 9)  # 3 heads
    wv = rng.normal(size=(2, 4, 9))
    loss = lambda: T.tensor_sum(T.softmax(q, k, v, 3) * Tensor(wv))
    for x in (q, k, v):
        assert_grad_matches(loss, x)
    assert_grad_matches(lambda: T.tensor_sum(T.sigmoid(a) * Tensor(w)), a)
    assert_grad_matches(lambda: T.tensor_sum(T.gelu(a) * Tensor(w)), a)


@pytest.mark.parametrize("n_k, offset", [(5, 0.0), (5, 70.0), (1, 0.0)],
                         ids=["tiles", "shifted-tiles", "one-key"])
def test_softmax_grads_across_tiles_match_finite_differences(monkeypatch, rng, n_k, offset):
    monkeypatch.setattr(T, "SCORE_TILE", 2 * 3 * n_k * 2)  # two query rows a tile: 7 rows, 4 tiles
    q, k, v = leaf(rng, 2, 7, 9), leaf(rng, 2, n_k, 9), leaf(rng, 2, n_k, 6)  # 3 heads, d = 3
    # each head's last channel is constant: every score gains ``offset`` (q's
    # channel times 1/sqrt(3)), so ``offset`` moves every row maximum above
    # EXP_SHIFT_FREE without saturating the softmax
    q.data[..., 2::3] += offset * math.sqrt(3)
    k.data[..., 2::3] = 1.0
    wv = rng.normal(size=(2, 7, 6))
    loss = lambda: T.tensor_sum(T.softmax(q, k, v, 3) * Tensor(wv))
    scores = _scores(*_scaled_heads(q.data, k.data, 3))
    assert (scores.max(axis=-1) > T.EXP_SHIFT_FREE).all() == bool(offset)
    for x in (q, k, v):
        assert_grad_matches(loss, x)
    if n_k == 1:  # over one key the softmax is the constant 1
        assert not q.grad.any() and not k.grad.any()


def _merge(x):
    """B x H x n x w head slabs as the B x n x (H w) channels ``T.softmax`` takes."""
    batch, heads, n, width = x.shape
    return np.ascontiguousarray(x.transpose(0, 2, 1, 3)).reshape(batch, n, heads * width)


def _split(x, heads):
    """B x n x (H w) channels as B x H x n x w head slabs, a view, as ``T.softmax`` splits them."""
    batch, n, channels = x.shape
    return x.reshape(batch, n, heads, channels // heads).transpose(0, 2, 1, 3)


def _scaled_heads(q, k, heads):
    """The head slabs ``T.softmax(q, k, v, heads)`` scores: q times 1/sqrt(d), and k."""
    d = q.shape[-1] // heads
    return _split(q * (1.0 / math.sqrt(d)), heads), _split(k, heads)


def _merged_operands(q, k, v):
    """Head-slab q, k, v as ``T.softmax``'s operands: q times sqrt(d), so the scores
    it forms are those of ``q`` (to rounding), and the number of heads."""
    return _merge(q) * math.sqrt(q.shape[-1]), _merge(k), _merge(v), q.shape[1]


def _softmax_oracle(q, k, v, w, heads):
    """The unfused chain: ``softmax(q k^T / sqrt(d)) v`` from the probabilities per
    head, and the gradients of ``sum(out * w)`` with respect to q, k and v."""
    scale = 1.0 / math.sqrt(q.shape[-1] // heads)
    q, k, v, w = (_split(x, heads) for x in (q, k, v, w))
    a = (q @ np.swapaxes(k, -1, -2)) * scale
    p = np.exp(a - a.max(axis=-1, keepdims=True))
    p /= p.sum(axis=-1, keepdims=True)
    dp = w @ np.swapaxes(v, -1, -2)
    da = p * (dp - (p * dp).sum(axis=-1, keepdims=True)) * scale
    return tuple(_merge(x) for x in (p @ v, da @ k, np.swapaxes(da, -1, -2) @ q,
                                      np.swapaxes(p, -1, -2) @ w))


def _softmax_value_and_grads(q, k, v, w, heads):
    q.grad = k.grad = v.grad = None
    y = T.softmax(q, k, v, heads)
    T.backward(T.tensor_sum(y * Tensor(w)))
    return y.data, q.grad, k.grad, v.grad


def _assert_softmax_matches_the_oracle(q, k, v, w, heads):
    got = _softmax_value_and_grads(q, k, v, w, heads)
    expected = _softmax_oracle(q.data, k.data, v.data, w, heads)
    for mine, ref, rtol in zip(got, expected, (1e-13, 1e-12, 1e-12, 1e-12)):
        assert mine.shape == ref.shape
        assert np.abs(mine - ref).max() <= rtol * np.abs(ref).max()


def _scores(q, k):
    return np.matmul(q, np.ascontiguousarray(np.swapaxes(k, -1, -2)))


@given(batch=st.integers(1, 2), heads=st.integers(1, 3), n_q=st.integers(1, 9),
       n_k=st.integers(1, 9), d=st.integers(1, 4), d_v=st.integers(1, 3),
       scale=st.floats(0.01, 3.0), offset=st.sampled_from([0.0, 70.0, -70.0]),
       tile=st.integers(1, 200), seed=st.integers(0, 2 ** 16))
@example(batch=1, heads=1, n_q=5, n_k=3, d=2, d_v=2, scale=3.0, offset=70.0, tile=6, seed=0)
def test_softmax_matches_the_unfused_oracle(batch, heads, n_q, n_k, d, d_v, scale, offset,
                                            tile, seed):
    gen = np.random.default_rng(seed)
    # q's last column is ``offset`` and k's is 1, so every score gains the
    # offset: 0 keeps the scores within the norm bound, +-70 puts every row
    # maximum beyond EXP_SHIFT_FREE, on either side, so each tile shifts
    qd = gen.uniform(-1.0, 1.0, size=(batch, heads, n_q, d + 1)) * scale
    kd = gen.uniform(-1.0, 1.0, size=(batch, heads, n_k, d + 1))
    qd[..., -1], kd[..., -1] = offset, 1.0
    qm, km, vm, _ = _merged_operands(qd, kd, gen.normal(size=(batch, heads, n_k, d_v)))
    q, k, v = (Tensor(x, requires_grad=True) for x in (qm, km, vm))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(T, "SCORE_TILE", tile)
        _assert_softmax_matches_the_oracle(q, k, v, _merge(gen.normal(size=(batch, heads, n_q, d_v))),
                                           heads)
    if T.scores_shift_free(qd, kd):
        assert np.abs(_scores(qd, kd)).max() <= T.EXP_SHIFT_FREE


@given(batch=st.integers(1, 2), heads=st.integers(1, 3), n_q=st.integers(1, 24),
       n_k=st.integers(1, 24), d=st.integers(1, 8), scale=st.floats(0.1, 40.0),
       tile=st.integers(1, 400), seed=st.integers(0, 2 ** 16))
def test_the_norm_bound_changes_no_shift_decision(batch, heads, n_q, n_k, d, scale, tile, seed):
    gen = np.random.default_rng(seed)
    qd = gen.normal(size=(batch, heads, n_q, d)) * scale
    kd = gen.normal(size=(batch, heads, n_k, d))
    q, k, v, _ = map(Tensor, _merged_operands(qd, kd, gen.normal(size=(batch, heads, n_k, 2))))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(T, "SCORE_TILE", tile)
        skipping = T.softmax(q, k, v, heads).data
        patch.setattr(T, "scores_shift_free", lambda q, k: False)  # every tile takes its maxima
        np.testing.assert_array_equal(skipping, T.softmax(q, k, v, heads).data)
    if T.scores_shift_free(qd, kd):
        assert np.abs(_scores(qd, kd)).max() <= T.EXP_SHIFT_FREE


@pytest.mark.parametrize("length, holds", [(8.0 * (1.0 - 2.0 ** -20), True), (8.0, False)])
def test_the_norm_bound_at_its_edge(length, holds):
    # parallel rows: every score is the product of the norms; the bound holds
    # a hair below EXP_SHIFT_FREE and leaves a score of exactly 64 to the
    # per-tile rule, which its margin for rounding makes it refuse
    q, k = np.zeros((1, 1, 2, 3)), np.zeros((1, 1, 3, 3))
    q[..., 0], k[..., 0] = length, length
    assert T.scores_shift_free(q, k) == holds
    assert np.abs(_scores(q, k)).max() <= T.EXP_SHIFT_FREE


@pytest.mark.parametrize("peak", [-T.EXP_SHIFT_FREE, T.EXP_SHIFT_FREE,
                                  np.nextafter(T.EXP_SHIFT_FREE, np.inf), -1000.0])
def test_softmax_matches_the_oracle_at_the_shift_free_bound(rng, peak):
    scores = rng.uniform(-40.0, 0.0, size=(2, 3, 600))
    scores[..., 0] = 0.0
    # 600 unit keys in d = 1024 make the scores q's first 600 channels times
    # 1/32, and a power of two scales exactly: every row maximum is ``peak``
    qd = np.zeros((1, 2, 3, 1024))
    qd[..., :600] = (scores + peak) * 32.0
    kd = np.broadcast_to(np.eye(600, 1024), (1, 2, 600, 1024))
    q, k = Tensor(_merge(qd), requires_grad=True), Tensor(_merge(kd), requires_grad=True)
    v = Tensor(rng.normal(size=(1, 600, 8)), requires_grad=True)
    assert (_scores(*_scaled_heads(q.data, k.data, 2)).max(axis=-1) == peak).all()
    _assert_softmax_matches_the_oracle(q, k, v, rng.normal(size=(1, 3, 8)), 2)


def test_softmax_never_writes_its_input(monkeypatch, rng):
    monkeypatch.setattr(T, "SCORE_TILE", 12)  # several tiles, each through one reused buffer
    for offset in (0.0, 70.0):  # at 70 every row maximum leaves the bound: every tile shifts
        q, k, v = leaf(rng, 1, 4, 6), leaf(rng, 1, 6, 6), leaf(rng, 1, 6, 4)  # 2 heads, d = 3
        q.data[..., 2::3], k.data[..., 2::3] = offset * math.sqrt(3), 1.0
        assert _tile_shifts(*_scaled_heads(q.data, k.data, 2)) == [bool(offset)] * 4
        before = [x.data.copy() for x in (q, k, v)]
        with T.no_grad():
            T.softmax(q, k, v, 2)
        y = T.softmax(q, k, v, 2)
        out = y.data.copy()
        T.backward(T.tensor_sum(y * Tensor(rng.normal(size=(1, 4, 4)))))  # recomputes each tile
        for x, data in zip((q, k, v, y), before + [out]):
            np.testing.assert_array_equal(x.data, data)


def _tile_shifts(q, k) -> list:
    """Per tile of ``row_tiles``, whether ``softmax`` shifts its scores by their row maxima."""
    batch, heads, n_q, _ = q.shape
    bounds = T.row_tiles(batch, heads, n_q, k.shape[2])
    if T.scores_shift_free(q, k):
        return [False] * (len(bounds) - 1)
    peaks = _scores(q, k).max(axis=-1)
    return [bool(np.abs(peaks[:, :, a:b]).max() > T.EXP_SHIFT_FREE)
            for a, b in zip(bounds, bounds[1:])]


def _assert_bitwise(got, expected):
    assert got.shape == expected.shape and got.dtype == expected.dtype
    assert got.tobytes() == expected.tobytes()


def _assert_backward_matches_keep_every_tile(q, k, v, g, grads):
    """softmax's output and the gradients its backward leaves on the tape's
    leaves equal the keep-every-tile oracle's, bit for bit; only the leaves in
    ``grads`` (a subset of ``"qkv"``) require grad, and only they get one.

    ``q``, ``k``, ``v`` and ``g`` are head slabs; the oracle runs on the very
    views ``T.softmax`` splits its operands into, q scaled as it scales it."""
    *operands, heads = _merged_operands(q, k, v)
    leaves = [Tensor(x, requires_grad=name in grads) for name, x in zip("qkv", operands)]
    gm = _merge(g)
    y = T.softmax(*leaves, heads)
    T.backward(T.tensor_sum(y * Tensor(gm)))
    qm, km, vm = operands
    scale = 1.0 / math.sqrt(q.shape[-1])
    out, gq, gk, gv = keep_every_tile_softmax(*_scaled_heads(qm, km, heads), _split(vm, heads),
                                              _split(gm, heads))
    _assert_bitwise(y.data, _merge(out))
    for name, t, ref in zip("qkv", leaves, (_merge(gq) * scale, _merge(gk), _merge(gv))):
        if name in grads:
            _assert_bitwise(t.grad, np.zeros_like(ref) + ref)  # as _accumulate adds it
        else:
            assert t.grad is None


def _attention_operands(gen, batch, heads, n_q, n_k, d, d_v, shifted_rows):
    """q, k, v whose scores gain 70 on the first ``shifted_rows`` query rows,
    so exactly the tiles holding one of those rows shift."""
    q = gen.uniform(-1.0, 1.0, size=(batch, heads, n_q, d + 1))
    k = gen.uniform(-1.0, 1.0, size=(batch, heads, n_k, d + 1))
    q[..., -1], k[..., -1] = 0.0, 1.0
    q[:, :, :shifted_rows, -1] = 70.0
    return q, k, gen.normal(size=(batch, heads, n_k, d_v))


GRAD_SUBSETS = ["q", "k", "v", "qk", "qv", "kv", "qkv"]


@pytest.mark.parametrize("grads", GRAD_SUBSETS)
@pytest.mark.parametrize("shifted_rows, shifts", [(0, [False] * 4), (7, [True] * 4),
                                                  (3, [True, True, False, False])],
                         ids=["shift-free", "every-tile-shifts", "some-tiles-shift"])
@pytest.mark.parametrize("batch, heads, n_k", [(1, 1, 5), (2, 3, 5), (2, 2, 1)],
                         ids=["one-slab", "batch-and-heads", "one-key"])
def test_softmax_backward_equals_the_keep_every_tile_oracle(monkeypatch, batch, heads, n_k,
                                                            shifted_rows, shifts, grads):
    # two query rows a tile over 7 rows: tiles of 1, 2, 2 and 2 rows
    monkeypatch.setattr(T, "SCORE_TILE", 2 * batch * heads * n_k)
    gen = np.random.default_rng(batch * 100 + n_k * 10 + shifted_rows)
    q, k, v = _attention_operands(gen, batch, heads, 7, n_k, 3, 2, shifted_rows)
    assert T.row_tiles(batch, heads, 7, n_k) == [0, 1, 3, 5, 7]
    qm, km, _, _ = _merged_operands(q, k, v)
    assert _tile_shifts(*_scaled_heads(qm, km, heads)) == shifts
    _assert_backward_matches_keep_every_tile(q, k, v, gen.normal(size=(batch, heads, 7, 2)),
                                             grads)


@given(batch=st.integers(1, 2), heads=st.integers(1, 3), n_q=st.integers(1, 9),
       n_k=st.integers(1, 9), d=st.integers(1, 4), d_v=st.integers(1, 3),
       shifted_rows=st.integers(0, 9), tile=st.integers(1, 200),
       grads=st.sampled_from(GRAD_SUBSETS), seed=st.integers(0, 2 ** 16))
def test_softmax_backward_equals_the_keep_every_tile_oracle_over_shapes(
        batch, heads, n_q, n_k, d, d_v, shifted_rows, tile, grads, seed):
    gen = np.random.default_rng(seed)
    q, k, v = _attention_operands(gen, batch, heads, n_q, n_k, d, d_v, shifted_rows)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(T, "SCORE_TILE", tile)
        _assert_backward_matches_keep_every_tile(q, k, v, gen.normal(size=(batch, heads, n_q, d_v)),
                                                 grads)


def test_the_attention_backward_reuses_one_score_gradient_buffer_across_tiles(rng):
    """A 4-tile softmax backward peaks below two and a half score tiles.

    The backward holds two score-sized buffers, the recomputed exponentials
    and the score gradient, each reused by every tile. Everything else it
    holds is q-, k-, v- or output-sized, under a quarter tile together at
    these shapes, even counted twice (the closure's own q, k and v
    gradients and the leaves' copies of them). A fresh score gradient per
    tile held three tiles at once: the last tile's and the new one beside
    the exponentials.
    """
    q, k, v = leaf(rng, 1, 512, 2), leaf(rng, 1, 512, 2), leaf(rng, 1, 512, 2)
    assert T.row_tiles(1, 1, 512, 512) == [0, 128, 256, 384, 512]
    y = T.softmax(q, k, v, 1)
    loss = T.tensor_sum(y * Tensor(rng.normal(size=y.shape)))
    tile = 8 * T.SCORE_TILE
    assert 2 * (q.data.nbytes + k.data.nbytes + v.data.nbytes + y.data.nbytes) < tile // 4
    tracemalloc.start()
    try:
        T.backward(loss)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * tile + tile // 2, peak / tile


def test_scaled_dot_attention_same_with_and_without_tape(monkeypatch, rng):
    from srrnet.attention import scaled_dot_attention
    q, k, v = leaf(rng, 1, 5, 8), leaf(rng, 1, 7, 8), leaf(rng, 1, 7, 8)
    monkeypatch.setattr(T, "SCORE_TILE", 2 * 7 * 2)  # two query rows a tile
    taped = scaled_dot_attention(q, k, v, heads=2)
    assert taped.requires_grad
    with T.no_grad():
        untaped = scaled_dot_attention(q, k, v, heads=2)
    np.testing.assert_array_equal(taped.data, untaped.data)


_SPECIAL_VALUES = [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324,
                   2.2250738585072009e-308, -1e-310, 1.0, -1.0, 1e308, -1e308]


def _assert_mean_identity(x):
    channels = x.shape[-1]
    with np.errstate(all="ignore"):  # rows of +-1e308 overflow, and inf - inf is NaN
        reduced = np.add.reduce(x, axis=-1, keepdims=True) / channels
        expected = x.mean(axis=-1, keepdims=True)
    _assert_bitwise(reduced, expected)


@given(rows=st.integers(1, 3), channels=st.integers(1, 600), transposed=st.booleans(),
       data=st.data())
def test_add_reduce_over_the_count_is_numpys_mean_bit_for_bit(rows, channels, transposed, data):
    """``layer_norm`` takes its row means as ``np.add.reduce(...) / channels``, which
    is what ``ndarray.mean`` computes; a numpy whose mean stops being that sum
    and division fails here rather than moving the outputs."""
    elements = st.one_of(st.sampled_from(_SPECIAL_VALUES),
                         st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
                         st.floats(-1e3, 1e3))
    x = data.draw(hnp.arrays(np.float64, (channels, rows) if transposed else (rows, channels),
                             elements=elements))
    _assert_mean_identity(x.T if transposed else x)


def test_add_reduce_over_the_count_is_numpys_mean_on_constant_rows():
    for value in _SPECIAL_VALUES:
        for channels in (1, 7, 600):
            _assert_mean_identity(np.full((2, channels), value))


def test_layer_norm_grads(rng):
    a = leaf(rng, 2, 3, 6)
    gamma = Tensor(rng.normal(size=6), requires_grad=True)
    beta = Tensor(rng.normal(size=6), requires_grad=True)
    w = rng.normal(size=(2, 3, 6))
    loss = lambda: T.tensor_sum(T.layer_norm(a, gamma, beta) * Tensor(w))
    assert_grad_matches(loss, a, rtol=1e-4, atol=1e-6)
    assert_grad_matches(loss, gamma)
    assert_grad_matches(loss, beta)


@pytest.mark.parametrize("stride,padding", [(1, 1), (2, 1)])
def test_conv2d_grads(rng, stride, padding):
    x = leaf(rng, 1, 2, 6, 6)
    w = Tensor(rng.normal(size=(3, 2, 3, 3)) * 0.5, requires_grad=True)
    b = Tensor(rng.normal(size=3), requires_grad=True)
    out_shape = T.conv2d(x, w, b, stride=stride, padding=padding).shape
    wt = rng.normal(size=out_shape)
    loss = lambda: T.tensor_sum(T.conv2d(x, w, b, stride=stride, padding=padding) * Tensor(wt))
    assert_grad_matches(loss, x)
    assert_grad_matches(loss, w)
    assert_grad_matches(loss, b)


def _closure_shapes(node) -> set:
    """The shape of every array a node's backward closure keeps, and of every array they view."""
    shapes = set()
    for cell in node._backward_fn.__closure__:
        value = cell.cell_contents
        while isinstance(value, np.ndarray):
            shapes.add(value.shape)
            value = value.base
    return shapes


def test_a_taped_padded_conv2d_keeps_no_padded_copy(rng):
    """The backward closure keeps neither the padded input nor the patch matrix."""
    x = leaf(rng, 1, 2, 6, 6)
    w = Tensor(rng.normal(size=(3, 2, 3, 3)), requires_grad=True)
    out = T.conv2d(x, w, Tensor(rng.normal(size=3), requires_grad=True), padding=1)
    held = _closure_shapes(out)
    assert (1, 2, 8, 8) not in held, held
    assert (2 * 3 * 3, 6 * 6) not in held and (2, 3, 3, 1, 6, 6) not in held, held  # the patches


@pytest.mark.parametrize("needs_weight_grad, rebuilds", [(True, 1), (False, 0)])
def test_conv2d_backward_rebuilds_the_patches_only_for_a_weight_gradient(
        rng, monkeypatch, needs_weight_grad, rebuilds):
    """A constant kernel (such as the decoder's shift-add one) never rebuilds its patches."""
    x = leaf(rng, 2, 3, 5, 5)
    w = Tensor(rng.normal(size=(4, 3, 3, 3)), requires_grad=needs_weight_grad)
    out = T.conv2d(x, w, Tensor(np.zeros(4)), padding=1)
    calls = []
    real = T._patches
    monkeypatch.setattr(T, "_patches", lambda *args: calls.append(args[1:]) or real(*args))
    T.backward(T.tensor_sum(out * out))
    assert len(calls) == rebuilds
    assert x.grad is not None and (w.grad is not None) == needs_weight_grad


def test_layer_norm_keeps_row_statistics_not_xhat(rng):
    a = leaf(rng, 2, 5, 6)
    y = T.layer_norm(a, Tensor(np.ones(6), requires_grad=True), Tensor(np.zeros(6)))
    assert _closure_shapes(y) == {(2, 5, 1)}  # each row's mean and inverse deviation


def test_linear_is_one_node_holding_no_pre_bias_product(rng):
    lin = Linear(4, 3, rng)
    x = leaf(rng, 2, 5, 4)
    y = lin(x)
    assert y._parents == (x, lin.weight, lin.bias)
    assert _closure_shapes(y) <= {x.shape, (10, 4), lin.weight.shape}


def test_matmul_bias_must_match_the_output_extent(rng):
    a, b = Tensor(np.ones((2, 4))), Tensor(np.ones((4, 3)))
    for bad in (np.ones(4), np.ones((1, 3)), np.ones((2, 3))):
        with pytest.raises(ShapeMismatchError):
            T.matmul(a, b, Tensor(bad))


# ---------------------------------------------------------------------------
# the recomputing backwards against the keep-on-the-tape oracles, bit for bit


def _taped(fn, arrays, names, grads, g):
    """``fn``'s output and the gradient of each of ``arrays`` for the upstream ``g``;
    only the operands named in ``grads`` require grad."""
    leaves = [Tensor(x, requires_grad=name in grads) for name, x in zip(names, arrays)]
    out = fn(*leaves)
    backward_from(out, g)
    return [out.data] + [t.grad for t in leaves]


def _assert_same_tape(fn, oracle, arrays, names, grads, g):
    got, want = _taped(fn, arrays, names, grads, g), _taped(oracle, arrays, names, grads, g)
    _assert_bitwise(got[0], want[0])
    for name, x, y in zip(names, got[1:], want[1:]):
        if name in grads:
            _assert_bitwise(x, y)
        else:
            assert x is None and y is None


def _upstream(gen, shape, transposed):
    """A normal draw of ``shape``: C-contiguous, or a view of its reversed-axes transpose."""
    if not transposed:
        return gen.normal(size=shape)
    return gen.normal(size=shape[::-1]).transpose(tuple(range(len(shape)))[::-1])


def _check_linear(gen, lead, k, m, grads, transposed):
    arrays = gen.normal(size=lead + (k,)), gen.normal(size=(k, m)), gen.normal(size=m)
    _assert_same_tape(T.matmul, linear_two_nodes, arrays, "xwb", grads,
                      _upstream(gen, lead + (m,), transposed))


def _check_conv2d(gen, batch, in_ch, out_ch, extent, kernel, stride, padding, grads,
                  transposed, weight=None):
    x = gen.normal(size=(batch, in_ch, extent, extent))
    w = gen.normal(size=(out_ch, in_ch, kernel, kernel)) if weight is None else weight
    arrays = x, w, gen.normal(size=out_ch)
    oh = (extent + 2 * padding - kernel) // stride + 1
    _assert_same_tape(lambda *t: T.conv2d(*t, stride=stride, padding=padding),
                      lambda *t: conv2d_keeping_patches(*t, stride=stride, padding=padding),
                      arrays, "xwb", grads, _upstream(gen, (batch, out_ch, oh, oh), transposed))


def _check_layer_norm(gen, lead, channels, grads, transposed):
    arrays = (gen.normal(size=lead + (channels,)) * 3 + 1, gen.normal(size=channels),
              gen.normal(size=channels))
    _assert_same_tape(T.layer_norm, layer_norm_keeping_xhat, arrays, "agb", grads,
                      _upstream(gen, lead + (channels,), transposed))


SUBSETS_XWB = ["x", "w", "b", "xw", "xb", "wb", "xwb"]
SUBSETS_AGB = ["a", "g", "b", "ag", "ab", "gb", "agb"]


@pytest.mark.parametrize("transposed", [False, True], ids=["c-order", "transposed"])
@pytest.mark.parametrize("grads", SUBSETS_XWB)
@pytest.mark.parametrize("lead", [(5,), (2, 3)], ids=["2d", "3d"])
def test_linear_equals_the_two_node_oracle(lead, grads, transposed):
    # at 9 -> 33 OpenBLAS rounds a GEMM against a transposed 2-d upstream
    # gradient differently from one against its C-ordered copy
    _check_linear(np.random.default_rng(len(lead)), lead, 9, 33, grads, transposed)


@pytest.mark.parametrize("transposed", [False, True], ids=["c-order", "transposed"])
@pytest.mark.parametrize("grads", SUBSETS_XWB)
@pytest.mark.parametrize("batch, kernel, stride, padding", [(1, 3, 1, 1), (2, 3, 2, 1),
                                                            (2, 1, 1, 0), (3, 4, 4, 0)])
def test_conv2d_equals_the_keep_patches_oracle(batch, kernel, stride, padding, grads,
                                               transposed):
    gen = np.random.default_rng(batch * 100 + kernel * 10 + stride)
    _check_conv2d(gen, batch, 3, 4, 8, kernel, stride, padding, grads, transposed)


@pytest.mark.parametrize("grads", ["x", "xb", "b"])
def test_shift_add_conv2d_equals_the_keep_patches_oracle(grads):
    """The decoder's constant 0/1 kernel: no weight gradient, so no patches are rebuilt."""
    from srrnet.decoder import SHIFT_ADD
    gen = np.random.default_rng(7)
    _check_conv2d(gen, 2, SHIFT_ADD.shape[1], SHIFT_ADD.shape[0], 6, 3, 1, 1, grads,
                  False, weight=SHIFT_ADD.data)


@pytest.mark.parametrize("transposed", [False, True], ids=["c-order", "transposed"])
@pytest.mark.parametrize("grads", SUBSETS_AGB)
@pytest.mark.parametrize("lead, channels", [((5,), 6), ((2, 3), 8), ((4,), 1)],
                         ids=["2d", "3d", "one-channel"])
def test_layer_norm_equals_the_keep_xhat_oracle(lead, channels, grads, transposed):
    _check_layer_norm(np.random.default_rng(channels), lead, channels, grads, transposed)


@given(lead=st.lists(st.integers(1, 6), min_size=1, max_size=2).map(tuple),
       k=st.integers(1, 9), m=st.integers(1, 9), grads=st.sampled_from(SUBSETS_XWB),
       transposed=st.booleans(), seed=st.integers(0, 2 ** 16))
def test_linear_equals_the_two_node_oracle_over_shapes(lead, k, m, grads, transposed, seed):
    _check_linear(np.random.default_rng(seed), lead, k, m, grads, transposed)


@given(batch=st.integers(1, 3), in_ch=st.integers(1, 3), out_ch=st.integers(1, 3),
       extent=st.integers(1, 7), kernel=st.integers(1, 4), stride=st.integers(1, 3),
       padding=st.sampled_from([0, 1, 3]), grads=st.sampled_from(SUBSETS_XWB),
       transposed=st.booleans(), seed=st.integers(0, 2 ** 16))
def test_conv2d_equals_the_keep_patches_oracle_over_shapes(batch, in_ch, out_ch, extent, kernel,
                                                           stride, padding, grads, transposed,
                                                           seed):
    assume(extent + 2 * padding >= kernel)
    _check_conv2d(np.random.default_rng(seed), batch, in_ch, out_ch, extent, kernel, stride,
                  padding, grads, transposed)


@given(lead=st.lists(st.integers(1, 6), min_size=1, max_size=2).map(tuple),
       channels=st.integers(1, 9), grads=st.sampled_from(SUBSETS_AGB),
       transposed=st.booleans(), seed=st.integers(0, 2 ** 16))
def test_layer_norm_equals_the_keep_xhat_oracle_over_shapes(lead, channels, grads, transposed,
                                                            seed):
    _check_layer_norm(np.random.default_rng(seed), lead, channels, grads, transposed)


@pytest.mark.parametrize("stride,padding", [(1, 0), (2, 1)])
def test_conv2d_batch_runs_as_the_per_item_convolutions(rng, stride, padding):
    x = rng.normal(size=(2, 3, 8, 8))
    w, b = rng.normal(size=(4, 3, 3, 3)), rng.normal(size=4)
    weight = rng.normal(size=(2, 4) + T.conv2d(Tensor(x[:1]), Tensor(w), Tensor(b),
                                                stride=stride, padding=padding).shape[2:])

    def run(xs, weights):
        xt, wt, bt = Tensor(xs, requires_grad=True), Tensor(w, requires_grad=True), \
            Tensor(b, requires_grad=True)
        out = T.conv2d(xt, wt, bt, stride=stride, padding=padding)
        T.backward(T.tensor_sum(out * Tensor(weights)))
        return out.data, xt.grad, wt.grad, bt.grad

    out, gx, gw, gb = run(x, weight)
    items = [run(x[i:i + 1], weight[i:i + 1]) for i in range(2)]
    # one GEMM over both items' columns: a BLAS kernel may round a column
    # differently when its neighbours change (OpenBLAS does at this shape)
    per_item = np.concatenate([item[0] for item in items])
    np.testing.assert_allclose(out, per_item, rtol=0, atol=1e-13 * np.abs(per_item).max())
    np.testing.assert_allclose(gx, np.concatenate([item[1] for item in items]),
                               rtol=0, atol=1e-12 * np.abs(gx).max())
    for got, want in ((gw, items[0][2] + items[1][2]), (gb, items[0][3] + items[1][3])):
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12 * np.abs(want).max())


def test_matmul_with_a_2d_operand_runs_one_gemm_over_every_leading_index(rng, monkeypatch):
    a, b = rng.normal(size=(2, 3, 16, 32)), rng.normal(size=(32, 24))
    gemms = []
    real = np.matmul
    monkeypatch.setattr(np, "matmul", lambda x, y: gemms.append((x.shape, y.shape)) or real(x, y))
    at, bt = Tensor(a, requires_grad=True), Tensor(b, requires_grad=True)
    out = T.matmul(at, bt)
    T.backward(T.tensor_sum(out * out))
    monkeypatch.undo()
    assert gemms == [((96, 32), (32, 24)), ((96, 24), (24, 32)), ((32, 96), (96, 24))]
    np.testing.assert_allclose(out.data, a @ b, rtol=0, atol=1e-13 * np.abs(a @ b).max())
    np.testing.assert_allclose(at.grad, 2 * (a @ b) @ b.T, rtol=1e-12)
    np.testing.assert_allclose(bt.grad, 2 * np.einsum("ijnk,ijno->ko", a, a @ b), rtol=1e-12)


@pytest.mark.parametrize("stride,padding", [(1, 0), (2, 3)])
def test_conv2d_grads_on_a_channels_last_view(rng, stride, padding):
    """conv2d reads a non-contiguous input in place and never writes it."""
    x = leaf(rng, 2, 5, 6, 2)  # B x H x W x C storage
    w = Tensor(rng.normal(size=(3, 2, 3, 3)) * 0.5, requires_grad=True)
    b = Tensor(rng.normal(size=3), requires_grad=True)
    assert not T.transpose(x, (0, 3, 1, 2)).data.flags.c_contiguous
    conv = lambda: T.conv2d(T.transpose(x, (0, 3, 1, 2)), w, b, stride=stride,
                            padding=padding)
    wt = Tensor(rng.normal(size=conv().shape))
    loss = lambda: T.tensor_sum(conv() * wt)
    x_before = x.data.copy()
    assert_grad_matches(loss, x)
    assert_grad_matches(loss, w)
    assert_grad_matches(loss, b)
    np.testing.assert_array_equal(x.data, x_before)


def test_bilinear_resize_grads(rng):
    x = leaf(rng, 1, 2, 4, 5)
    wt = rng.normal(size=(1, 2, 7, 3))
    loss = lambda: T.tensor_sum(T.bilinear_resize(x, 7, 3) * Tensor(wt))
    assert_grad_matches(loss, x)


@pytest.mark.parametrize("n_out, n_in", [(8, 8), (16, 4), (3, 5)])
def test_interp_matrices_are_cached_read_only_and_equal_a_fresh_build(n_out, n_in):
    cached = T._interp_matrix(n_out, n_in)
    assert T._interp_matrix(n_out, n_in) is cached
    assert not cached.flags.writeable
    with pytest.raises(ValueError):
        cached[0, 0] = 2.0
    _assert_bitwise(cached, T._interp_matrix.__wrapped__(n_out, n_in))


def test_loss_grads(rng):
    logits = leaf(rng, 3, 4)
    targets = (rng.random((3, 4)) > 0.5).astype(np.float64)
    assert_grad_matches(lambda: T.bce_with_logits(logits, targets), logits)
    a = leaf(rng, 3, 4)
    b = rng.normal(size=(3, 4))
    assert_grad_matches(lambda: T.mse(a, b), a)


# ---------------------------------------------------------------------------
# graph mechanics


def test_shared_node_accumulates_both_paths(rng):
    a = leaf(rng, 3)
    loss = T.tensor_sum(a * a + a)
    T.backward(loss)
    np.testing.assert_allclose(a.grad, 2.0 * a.data + 1.0, atol=1e-12)


def test_the_first_gradient_of_a_conv2d_output_takes_its_data_layout(rng):
    """``conv2d`` returns a transposed view; the first gradient handed to it
    in C order is stored laid out like that view, as ``zeros_like`` laid it."""
    y = T.conv2d(leaf(rng, 2, 3, 5, 5), leaf(rng, 4, 3, 3, 3), leaf(rng, 4), padding=1)
    assert not y.data.flags.c_contiguous
    g = rng.normal(size=y.shape)
    T._accumulate(y, g)
    assert y.grad.strides == y.data.strides
    _assert_bitwise(y.grad, g)


def test_an_add_of_equal_shapes_gives_each_operand_a_gradient_of_its_own(rng):
    a, b = leaf(rng, 3, 4), leaf(rng, 3, 4)
    T.backward(T.tensor_sum(T.add(a, b) * Tensor(rng.normal(size=(3, 4)))))
    assert not np.shares_memory(a.grad, b.grad)
    _assert_bitwise(a.grad, b.grad)


@given(shape=hnp.array_shapes(min_dims=1, max_dims=3, max_side=5), transposed=st.booleans(),
       data=st.data())
def test_accumulate_equals_the_zero_filled_accumulator_bit_for_bit(shape, transposed, data):
    """A first gradient (then a second one added into it) equals the zero-filled
    accumulator's, -0.0, inf and NaN included, on a C-order or transposed ``data``."""
    elements = st.one_of(st.sampled_from(_SPECIAL_VALUES), st.floats(allow_nan=True))
    data_array = np.zeros(shape[::-1]).T if transposed else np.zeros(shape)
    got, expected = (Tensor(data_array, requires_grad=True) for _ in range(2))
    for _ in range(2):
        g = data.draw(hnp.arrays(np.float64, shape, elements=elements))
        with np.errstate(all="ignore"):  # inf + -inf is NaN, as in the accumulator
            T._accumulate(got, g)
            zero_filled_accumulate(expected, g)
        assert got.grad.strides == expected.grad.strides
        _assert_bitwise(got.grad, expected.grad)


def test_detach_blocks_gradient(rng):
    a = leaf(rng, 3)
    loss = T.tensor_sum(a.detach() * a.detach())
    assert not loss.requires_grad
    T.backward(loss)
    assert a.grad is None


def test_no_grad_builds_no_graph(rng):
    a = leaf(rng, 3)
    with T.no_grad():
        out = a * a
    assert not out.requires_grad and out._backward_fn is None


def test_backward_requires_scalar(rng):
    a = leaf(rng, 3)
    with pytest.raises(ValueError):
        T.backward(a * a)


def test_backward_consumes_the_tape_and_leaves_keep_their_gradients(rng):
    x = leaf(rng, 4, 3)
    lin = Linear(3, 2, rng)

    def forward():
        hidden = T.gelu(lin(x))
        return hidden, T.mean(hidden * hidden)

    hidden, loss = forward()
    T.backward(loss)
    for node in (hidden, loss):
        assert node.grad is None and node._parents == () and node._backward_fn is None
    for t in (x, lin.weight, lin.bias):  # a requires_grad input and the model's Parameters
        np.testing.assert_allclose(t.grad, fd_grad(lambda: forward()[1], t),
                                   rtol=1e-5, atol=1e-7)
    kept = [t.grad.copy() for t in (x, lin.weight, lin.bias)]
    T.backward(loss)  # the consumed tape propagates nothing
    for t, grad in zip((x, lin.weight, lin.bias), kept):
        np.testing.assert_array_equal(t.grad, grad)


def test_deep_chain_backward_is_iterative():
    # A graph deep enough to overflow a recursive traversal.
    a = Tensor(np.ones(1), requires_grad=True)
    x = a
    for _ in range(5000):
        x = x + 1.0
    T.backward(T.tensor_sum(x))
    np.testing.assert_array_equal(a.grad, np.ones(1))


# ---------------------------------------------------------------------------
# errors


def test_matmul_shape_errors(rng):
    with pytest.raises(ShapeMismatchError):
        T.matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((4, 2))))
    with pytest.raises(ShapeMismatchError):
        T.matmul(Tensor(np.ones(3)), Tensor(np.ones((3, 2))))
    # the right operand is a weight matrix: a batch of them is refused, naming both shapes
    with pytest.raises(ShapeMismatchError,
                       match=r"a 2-d operand, got \(2, 3, 4, 5\) x \(2, 3, 5, 6\)"):
        T.matmul(Tensor(np.ones((2, 3, 4, 5))), Tensor(np.ones((2, 3, 5, 6))))


def test_tensor_division_by_tensor_rejected():
    with pytest.raises(TypeError):
        Tensor(np.ones(2)) / Tensor(np.ones(2))


def test_layer_norm_affine_shape_error(rng):
    with pytest.raises(ShapeMismatchError):
        T.layer_norm(Tensor(np.ones((2, 4))), Tensor(np.ones(3)), Tensor(np.zeros(3)))


def test_conv2d_errors(rng):
    with pytest.raises(ShapeMismatchError):
        T.conv2d(Tensor(np.ones((1, 2, 4, 4))), Tensor(np.ones((3, 3, 3, 3))), Tensor(np.zeros(3)))
    with pytest.raises(ConfigurationError):
        T.conv2d(Tensor(np.ones((1, 1, 2, 2))), Tensor(np.ones((1, 1, 5, 5))), Tensor(np.zeros(1)))


def test_resize_errors(rng):
    with pytest.raises(ShapeMismatchError):
        T.bilinear_resize(Tensor(np.ones((4, 4))), 2, 2)
    with pytest.raises(ConfigurationError):
        T.bilinear_resize(Tensor(np.ones((1, 1, 4, 4))), 0, 2)


def test_loss_shape_errors(rng):
    with pytest.raises(ShapeMismatchError):
        T.bce_with_logits(Tensor(np.ones((2, 2))), np.ones((2, 3)))
    with pytest.raises(ShapeMismatchError):
        T.mse(Tensor(np.ones((2, 2))), np.ones((2, 3)))
