"""Autodiff engine: forward value oracles and finite-difference gradients."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, strategies as st
from scipy import special

from srrnet import tensor as T
from srrnet.tensor import ConfigurationError, ShapeMismatchError, Tensor

from conftest import assert_grad_matches


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
    """A matrix as the one (batch, head) slab of a 1 x 1 x n x m array."""
    return Tensor(np.asarray(x, dtype=np.float64)[None, None])


def test_softmax_rows_sum_to_one(rng):
    # with identity keys the scores are q itself, and against identity values
    # softmax(q k^T) v is the probabilities themselves
    y = T.softmax(_slabs(rng.normal(size=(3, 7))), _slabs(np.eye(7)), _slabs(np.eye(7))).data
    np.testing.assert_allclose(y.sum(axis=-1), 1.0, atol=1e-14)
    assert (y > 0).all()


def test_softmax_shift_invariance(rng):
    x = rng.normal(size=(2, 5))
    k, v = _slabs(np.eye(5)), _slabs(rng.normal(size=(5, 3)))
    a = T.softmax(_slabs(x), k, v).data
    for shift in (1000.0, -1000.0):  # far below, an unshifted exp underflows to 0 / 0
        b = T.softmax(_slabs(x + shift), k, v).data
        np.testing.assert_allclose(a, b, atol=1e-12)


def test_softmax_rejects_disagreeing_extents():
    q = Tensor(np.zeros((1, 2, 3, 4)))
    with pytest.raises(ShapeMismatchError):  # k's d differs from q's
        T.softmax(q, Tensor(np.zeros((1, 2, 5, 3))), Tensor(np.zeros((1, 2, 5, 4))))
    with pytest.raises(ShapeMismatchError):  # v's key count differs from k's
        T.softmax(q, Tensor(np.zeros((1, 2, 5, 4))), Tensor(np.zeros((1, 2, 6, 4))))
    with pytest.raises(ShapeMismatchError):  # k's heads differ from q's
        T.softmax(q, Tensor(np.zeros((1, 1, 5, 4))), Tensor(np.zeros((1, 1, 5, 4))))
    with pytest.raises(ShapeMismatchError):
        T.softmax(Tensor(np.zeros((2, 3))), Tensor(np.zeros((5, 3))), Tensor(np.zeros((5, 3))))
    with pytest.raises(ValueError, match="at least one key"):
        T.softmax(q, Tensor(np.zeros((1, 2, 0, 4))), Tensor(np.zeros((1, 2, 0, 4))))


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
    q, k, v = leaf(rng, 2, 3, 4, 2), leaf(rng, 2, 3, 5, 2), leaf(rng, 2, 3, 5, 3)
    wv = rng.normal(size=(2, 3, 4, 3))
    loss = lambda: T.tensor_sum(T.softmax(q, k, v) * Tensor(wv))
    for x in (q, k, v):
        assert_grad_matches(loss, x)
    assert_grad_matches(lambda: T.tensor_sum(T.sigmoid(a) * Tensor(w)), a)
    assert_grad_matches(lambda: T.tensor_sum(T.gelu(a) * Tensor(w)), a)


@pytest.mark.parametrize("n_k, offset", [(5, 0.0), (5, 70.0), (1, 0.0)],
                         ids=["tiles", "shifted-tiles", "one-key"])
def test_softmax_grads_across_tiles_match_finite_differences(monkeypatch, rng, n_k, offset):
    monkeypatch.setattr(T, "SCORE_TILE", 2 * 3 * n_k * 2)  # two query rows a tile: 7 rows, 4 tiles
    q, k, v = leaf(rng, 2, 3, 7, 3), leaf(rng, 2, 3, n_k, 3), leaf(rng, 2, 3, n_k, 2)
    # a constant column: every score gains q's last entry, so ``offset`` moves
    # every row maximum above EXP_SHIFT_FREE without saturating the softmax
    q.data[..., -1] += offset
    k.data[..., -1] = 1.0
    wv = rng.normal(size=(2, 3, 7, 2))
    loss = lambda: T.tensor_sum(T.softmax(q, k, v) * Tensor(wv))
    scores = q.data @ np.swapaxes(k.data, -1, -2)
    assert (scores.max(axis=-1) > T.EXP_SHIFT_FREE).all() == bool(offset)
    for x in (q, k, v):
        assert_grad_matches(loss, x)
    if n_k == 1:  # over one key the softmax is the constant 1
        assert not q.grad.any() and not k.grad.any()


def _softmax_oracle(q, k, v, w):
    """The unfused chain: ``softmax(q k^T) v`` from the probabilities, and the
    gradients of ``sum(out * w)`` with respect to q, k and v."""
    a = q @ np.swapaxes(k, -1, -2)
    p = np.exp(a - a.max(axis=-1, keepdims=True))
    p /= p.sum(axis=-1, keepdims=True)
    dp = w @ np.swapaxes(v, -1, -2)
    da = p * (dp - (p * dp).sum(axis=-1, keepdims=True))
    return p @ v, da @ k, np.swapaxes(da, -1, -2) @ q, np.swapaxes(p, -1, -2) @ w


def _softmax_value_and_grads(q, k, v, w):
    q.grad = k.grad = v.grad = None
    y = T.softmax(q, k, v)
    T.backward(T.tensor_sum(y * Tensor(w)))
    return y.data, q.grad, k.grad, v.grad


def _assert_softmax_matches_the_oracle(q, k, v, w):
    got = _softmax_value_and_grads(q, k, v, w)
    expected = _softmax_oracle(q.data, k.data, v.data, w)
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
    q, k = Tensor(qd, requires_grad=True), Tensor(kd, requires_grad=True)
    v = Tensor(gen.normal(size=(batch, heads, n_k, d_v)), requires_grad=True)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(T, "SCORE_TILE", tile)
        _assert_softmax_matches_the_oracle(q, k, v, gen.normal(size=(batch, heads, n_q, d_v)))
    if T.scores_shift_free(qd, kd):
        assert np.abs(_scores(qd, kd)).max() <= T.EXP_SHIFT_FREE


@given(batch=st.integers(1, 2), heads=st.integers(1, 3), n_q=st.integers(1, 24),
       n_k=st.integers(1, 24), d=st.integers(1, 8), scale=st.floats(0.1, 40.0),
       tile=st.integers(1, 400), seed=st.integers(0, 2 ** 16))
def test_the_norm_bound_changes_no_shift_decision(batch, heads, n_q, n_k, d, scale, tile, seed):
    gen = np.random.default_rng(seed)
    q = Tensor(gen.normal(size=(batch, heads, n_q, d)) * scale)
    k = Tensor(gen.normal(size=(batch, heads, n_k, d)))
    v = Tensor(gen.normal(size=(batch, heads, n_k, 2)))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(T, "SCORE_TILE", tile)
        skipping = T.softmax(q, k, v).data
        patch.setattr(T, "scores_shift_free", lambda q, k: False)  # every tile takes its maxima
        np.testing.assert_array_equal(skipping, T.softmax(q, k, v).data)
    if T.scores_shift_free(q.data, k.data):
        assert np.abs(_scores(q.data, k.data)).max() <= T.EXP_SHIFT_FREE


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
    # identity keys make the scores q itself: every row maximum is ``peak``
    q = Tensor((scores + peak)[None], requires_grad=True)
    k = Tensor(np.broadcast_to(np.eye(600), (1, 2, 600, 600)).copy(), requires_grad=True)
    v = Tensor(rng.normal(size=(1, 2, 600, 4)), requires_grad=True)
    _assert_softmax_matches_the_oracle(q, k, v, rng.normal(size=(1, 2, 3, 4)))


def test_softmax_never_writes_its_input(monkeypatch, rng):
    monkeypatch.setattr(T, "SCORE_TILE", 12)  # several tiles: one reused buffer off the tape
    q, k, v = leaf(rng, 1, 2, 4, 3), leaf(rng, 1, 2, 6, 3), leaf(rng, 1, 2, 6, 2)
    before = [x.data.copy() for x in (q, k, v)]
    with T.no_grad():
        T.softmax(q, k, v)
    _softmax_value_and_grads(q, k, v, rng.normal(size=(1, 2, 4, 2)))
    for x, data in zip((q, k, v), before):
        np.testing.assert_array_equal(x.data, data)


def test_scaled_dot_attention_same_with_and_without_tape(monkeypatch, rng):
    from srrnet.attention import scaled_dot_attention
    q, k, v = leaf(rng, 1, 5, 8), leaf(rng, 1, 7, 8), leaf(rng, 1, 7, 8)
    monkeypatch.setattr(T, "SCORE_TILE", 2 * 7 * 2)  # two query rows a tile
    taped = scaled_dot_attention(q, k, v, heads=2)
    assert taped.requires_grad
    with T.no_grad():
        untaped = scaled_dot_attention(q, k, v, heads=2)
    np.testing.assert_array_equal(taped.data, untaped.data)


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
