"""Autodiff engine: forward value oracles and finite-difference gradients."""

import numpy as np
import pytest
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
    np.testing.assert_array_equal((Tensor(a) @ Tensor(b)).data, a @ b)


def test_softmax_rows_sum_to_one(rng):
    y = T.softmax(Tensor(rng.normal(size=(3, 7))), axis=-1).data
    np.testing.assert_allclose(y.sum(axis=-1), 1.0, atol=1e-14)
    assert (y > 0).all()


def test_softmax_shift_invariance(rng):
    x = rng.normal(size=(2, 5))
    a = T.softmax(Tensor(x)).data
    b = T.softmax(Tensor(x + 1000.0)).data
    np.testing.assert_allclose(a, b, atol=1e-12)


def test_sigmoid_matches_expit(rng):
    x = rng.normal(size=(4, 4)) * 10
    np.testing.assert_allclose(T.sigmoid(Tensor(x)).data, special.expit(x), atol=1e-15)


def test_gelu_matches_erf_form(rng):
    x = rng.normal(size=(5,)) * 3
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
                    out[n, o, i, j] = (patch * w[o]).sum() + (b[o] if b is not None else 0.0)
    return out


@pytest.mark.parametrize("stride,padding", [(1, 0), (1, 1), (2, 1), (4, 3)])
def test_conv2d_matches_loop_oracle(rng, stride, padding):
    x = rng.normal(size=(2, 3, 9, 9))
    w = rng.normal(size=(4, 3, 3, 3))
    b = rng.normal(size=4)
    got = T.conv2d(Tensor(x), Tensor(w), Tensor(b), stride=stride, padding=padding).data
    np.testing.assert_allclose(got, _conv2d_loop_oracle(x, w, b, stride, padding),
                               atol=1e-12)


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


def test_resize_array_matches_tensor_resize(rng):
    x = rng.normal(size=(1, 1, 6, 6))
    np.testing.assert_array_equal(T.resize_array(x, 9, 9),
                                  T.bilinear_resize(Tensor(x), 9, 9).data)


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
    loss = lambda: T.tensor_sum(((a - b) ** 2.0) * Tensor(w))
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


@pytest.mark.parametrize("axis,keepdims", [(None, False), (0, False), (1, True), ((0, 2), False)])
def test_mean_sum_grads(rng, axis, keepdims):
    a = leaf(rng, 2, 3, 4)
    wm = rng.normal(size=np.mean(a.data, axis=axis, keepdims=keepdims).shape)
    ws = rng.normal(size=np.sum(a.data, axis=axis, keepdims=keepdims).shape)
    assert_grad_matches(lambda: T.tensor_sum(T.mean(a, axis=axis, keepdims=keepdims) * Tensor(wm)), a)
    assert_grad_matches(lambda: T.tensor_sum(T.tensor_sum(a, axis=axis, keepdims=keepdims) * Tensor(ws)), a)


def test_matmul_grads(rng):
    a = leaf(rng, 2, 3, 4)
    b = leaf(rng, 4, 5)
    w = rng.normal(size=(2, 3, 5))
    loss = lambda: T.tensor_sum((a @ b) * Tensor(w))
    assert_grad_matches(loss, a)
    assert_grad_matches(loss, b)


def test_softmax_sigmoid_gelu_grads(rng):
    a = leaf(rng, 2, 5)
    w = rng.normal(size=(2, 5))
    assert_grad_matches(lambda: T.tensor_sum(T.softmax(a) * Tensor(w)), a)
    assert_grad_matches(lambda: T.tensor_sum(T.softmax(a, scale=0.37) * Tensor(w)), a)
    assert_grad_matches(lambda: T.tensor_sum(T.sigmoid(a) * Tensor(w)), a)
    assert_grad_matches(lambda: T.tensor_sum(T.gelu(a) * Tensor(w)), a)


def _softmax_value_and_grad(a, w, fn):
    a.zero_grad()
    y = fn(a)
    T.backward(T.tensor_sum(y * Tensor(w)))
    return y.data, a.grad


def test_softmax_scale_is_bitwise_prescaling(rng):
    a = leaf(rng, 2, 3, 9)
    w = rng.normal(size=a.shape)
    scale = 1.0 / np.sqrt(8)
    fused = _softmax_value_and_grad(a, w, lambda x: T.softmax(x, axis=-1, scale=scale))
    prescaled = _softmax_value_and_grad(a, w, lambda x: T.softmax(x * scale, axis=-1))
    np.testing.assert_array_equal(fused[0], prescaled[0])
    np.testing.assert_array_equal(fused[1], prescaled[1])


def test_softmax_never_writes_its_input(rng):
    a = leaf(rng, 4, 6)
    before = a.data.copy()
    with T.no_grad():
        T.softmax(a, axis=0, scale=2.5)
    np.testing.assert_array_equal(a.data, before)
    _softmax_value_and_grad(a, rng.normal(size=a.shape),
                            lambda x: T.softmax(x, axis=0, scale=2.5))
    np.testing.assert_array_equal(a.data, before)


def test_scaled_dot_attention_same_with_and_without_tape(rng):
    from srrnet.attention import scaled_dot_attention
    q, k, v = leaf(rng, 1, 5, 8), leaf(rng, 1, 7, 8), leaf(rng, 1, 7, 8)
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


def test_frozen_tensor_keeps_zero_grad(rng):
    a = leaf(rng, 3)
    a.frozen = True
    T.backward(T.tensor_sum(a * a))
    np.testing.assert_array_equal(a.grad, np.zeros(3))


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
        Tensor(np.ones((2, 3))) @ Tensor(np.ones((4, 2)))
    with pytest.raises(ShapeMismatchError):
        Tensor(np.ones(3)) @ Tensor(np.ones((3, 2)))


def test_tensor_division_by_tensor_rejected():
    with pytest.raises(TypeError):
        Tensor(np.ones(2)) / Tensor(np.ones(2))


def test_layer_norm_affine_shape_error(rng):
    with pytest.raises(ShapeMismatchError):
        T.layer_norm(Tensor(np.ones((2, 4))), Tensor(np.ones(3)), Tensor(np.zeros(3)))


def test_conv2d_errors(rng):
    with pytest.raises(ShapeMismatchError):
        T.conv2d(Tensor(np.ones((1, 2, 4, 4))), Tensor(np.ones((3, 3, 3, 3))))
    with pytest.raises(ConfigurationError):
        T.conv2d(Tensor(np.ones((1, 1, 2, 2))), Tensor(np.ones((1, 1, 5, 5))))


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
