"""Dense float64 tensors with reverse-mode automatic differentiation.

Every operation used by the network (matmul, conv2d, softmax, layer norm,
bilinear resize, the fused losses) is implemented here as a differentiable
primitive. Values are always float64: gradient checks against central finite
differences need the precision.

Buffer rule: a primitive returns a buffer it allocated itself and may fill
that buffer in place (softmax does), but it never writes into an input's
``data``; backward closures read inputs and outputs after the forward pass.
"""

from __future__ import annotations

import contextlib
import math
from typing import Callable, Optional, Sequence

import numpy as np
from numpy.lib.stride_tricks import as_strided
from scipy import special


class ShapeMismatchError(ValueError):
    """Raised when operand shapes are incompatible."""


class ConfigurationError(ValueError):
    """Raised when a configuration value is invalid or produces an empty output."""


_grad_enabled = True


@contextlib.contextmanager
def no_grad():
    """Disable graph construction inside the block (inference fast path)."""
    global _grad_enabled
    prev = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = prev


def _as_array(x) -> np.ndarray:
    return np.asarray(x, dtype=np.float64)


class Tensor:
    """A dense float64 array, optionally participating in the gradient tape."""

    frozen = False  # overridden per-instance on frozen Parameters

    def __init__(self, data, requires_grad: bool = False):
        self.data = _as_array(data)
        self.requires_grad = bool(requires_grad)
        self.grad: Optional[np.ndarray] = None
        self._parents: tuple = ()
        self._backward_fn: Optional[Callable[[np.ndarray], None]] = None

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def size(self):
        return self.data.size

    def item(self) -> float:
        return float(self.data.reshape(-1)[0]) if self.data.size == 1 else float(self.data)

    def detach(self) -> "Tensor":
        """Stop-gradient copy: same values, no tape participation."""
        return Tensor(self.data)

    def zero_grad(self):
        self.grad = None

    def __repr__(self):
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"

    # operator sugar -------------------------------------------------------
    def __add__(self, other):
        return add(self, _ensure_tensor(other))

    def __radd__(self, other):
        return add(_ensure_tensor(other), self)

    def __sub__(self, other):
        return add(self, neg(_ensure_tensor(other)))

    def __rsub__(self, other):
        return add(_ensure_tensor(other), neg(self))

    def __mul__(self, other):
        return mul(self, _ensure_tensor(other))

    def __rmul__(self, other):
        return mul(_ensure_tensor(other), self)

    def __neg__(self):
        return neg(self)

    def __truediv__(self, other):
        if isinstance(other, Tensor):
            raise TypeError("tensor/tensor division is not supported; multiply by a reciprocal")
        return mul(self, _ensure_tensor(1.0 / other))

    def __pow__(self, exponent):
        return power(self, float(exponent))

    def __matmul__(self, other):
        return matmul(self, other)

    def reshape(self, *shape):
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        return reshape(self, shape)

    def transpose(self, axes):
        return transpose(self, axes)


def _ensure_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _make(data: np.ndarray, parents: Sequence[Tensor], backward_fn) -> Tensor:
    out = Tensor(data)
    if _grad_enabled and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = tuple(parents)
        out._backward_fn = backward_fn
    return out


def _accumulate(t: Tensor, g: np.ndarray):
    if not t.requires_grad:
        return
    if t.grad is None:
        t.grad = np.zeros_like(t.data)
    if t.frozen:
        return  # frozen parameters keep a zero gradient by contract
    t.grad += g


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Reduce a broadcast gradient back to the operand's original shape."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for axis, extent in enumerate(shape):
        if extent == 1 and g.shape[axis] != 1:
            g = g.sum(axis=axis, keepdims=True)
    return g


def backward(loss: Tensor):
    """Run reverse-mode accumulation from a scalar loss over the whole graph."""
    if loss.data.size != 1:
        raise ValueError(f"backward requires a scalar loss, got shape {loss.shape}")
    topo: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(loss, False)]
    while stack:
        node, processed = stack.pop()
        if processed:
            topo.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for parent in node._parents:
            if id(parent) not in seen:
                stack.append((parent, False))
    loss.grad = np.ones_like(loss.data)
    for node in reversed(topo):
        if node._backward_fn is not None and node.grad is not None:
            node._backward_fn(node.grad)


# ---------------------------------------------------------------------------
# elementwise / structural primitives


def add(a: Tensor, b: Tensor) -> Tensor:
    data = a.data + b.data

    def bwd(g):
        _accumulate(a, _unbroadcast(g, a.shape))
        _accumulate(b, _unbroadcast(g, b.shape))

    return _make(data, (a, b), bwd)


def mul(a: Tensor, b: Tensor) -> Tensor:
    data = a.data * b.data

    def bwd(g):
        _accumulate(a, _unbroadcast(g * b.data, a.shape))
        _accumulate(b, _unbroadcast(g * a.data, b.shape))

    return _make(data, (a, b), bwd)


def neg(a: Tensor) -> Tensor:
    def bwd(g):
        _accumulate(a, -g)

    return _make(-a.data, (a,), bwd)


def power(a: Tensor, exponent: float) -> Tensor:
    data = a.data ** exponent

    def bwd(g):
        _accumulate(a, g * exponent * a.data ** (exponent - 1.0))

    return _make(data, (a,), bwd)


def reshape(a: Tensor, shape: tuple) -> Tensor:
    data = a.data.reshape(shape)

    def bwd(g):
        _accumulate(a, g.reshape(a.shape))

    return _make(data, (a,), bwd)


def transpose(a: Tensor, axes: Sequence[int]) -> Tensor:
    axes = tuple(axes)
    data = a.data.transpose(axes)
    inverse = tuple(np.argsort(axes))

    def bwd(g):
        _accumulate(a, g.transpose(inverse))

    return _make(data, (a,), bwd)


def concat(tensors: Sequence[Tensor], axis: int) -> Tensor:
    tensors = list(tensors)
    data = np.concatenate([t.data for t in tensors], axis=axis)
    extents = [t.shape[axis] for t in tensors]

    def bwd(g):
        offset = 0
        for t, extent in zip(tensors, extents):
            idx = [slice(None)] * g.ndim
            idx[axis] = slice(offset, offset + extent)
            _accumulate(t, g[tuple(idx)])
            offset += extent

    return _make(data, tensors, bwd)


def narrow(a: Tensor, axis: int, start: int, length: int) -> Tensor:
    idx = [slice(None)] * a.ndim
    idx[axis] = slice(start, start + length)
    idx = tuple(idx)
    data = a.data[idx]

    def bwd(g):
        full = np.zeros_like(a.data)
        full[idx] = g
        _accumulate(a, full)

    return _make(data, (a,), bwd)


def mean(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    data = a.data.mean(axis=axis, keepdims=keepdims)
    if axis is None:
        count = a.data.size
        reduced_axes = tuple(range(a.ndim))
    else:
        reduced_axes = (axis,) if isinstance(axis, int) else tuple(axis)
        reduced_axes = tuple(ax % a.ndim for ax in reduced_axes)
        count = int(np.prod([a.shape[ax] for ax in reduced_axes]))

    def bwd(g):
        if not keepdims:
            g = np.expand_dims(g, reduced_axes)
        _accumulate(a, np.broadcast_to(g, a.shape) / count)

    return _make(data, (a,), bwd)


def tensor_sum(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    data = a.data.sum(axis=axis, keepdims=keepdims)
    if axis is None:
        reduced_axes = tuple(range(a.ndim))
    else:
        reduced_axes = (axis,) if isinstance(axis, int) else tuple(axis)
        reduced_axes = tuple(ax % a.ndim for ax in reduced_axes)

    def bwd(g):
        if not keepdims:
            g = np.expand_dims(g, reduced_axes)
        _accumulate(a, np.broadcast_to(g, a.shape).copy())

    return _make(data, (a,), bwd)


# ---------------------------------------------------------------------------
# linear algebra


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.ndim < 2 or b.ndim < 2:
        raise ShapeMismatchError(f"matmul needs >=2-d operands, got {a.shape} x {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise ShapeMismatchError(f"matmul inner extents disagree: {a.shape} x {b.shape}")
    data = np.matmul(a.data, b.data)

    def bwd(g):
        ga = np.matmul(g, np.swapaxes(b.data, -1, -2))
        gb = np.matmul(np.swapaxes(a.data, -1, -2), g)
        _accumulate(a, _unbroadcast(ga, a.shape))
        _accumulate(b, _unbroadcast(gb, b.shape))

    return _make(data, (a, b), bwd)


# ---------------------------------------------------------------------------
# nonlinearities


def softmax(a: Tensor, axis: int = -1, scale: float = 1.0) -> Tensor:
    """softmax(a * scale) along ``axis``, computed in place in one fresh buffer."""
    y = a.data * scale
    y -= y.max(axis=axis, keepdims=True)
    np.exp(y, out=y)
    y /= y.sum(axis=axis, keepdims=True)

    def bwd(g):
        inner = (g * y).sum(axis=axis, keepdims=True)
        _accumulate(a, y * (g - inner) * scale)

    return _make(y, (a,), bwd)


def sigmoid(a: Tensor) -> Tensor:
    y = special.expit(a.data)

    def bwd(g):
        _accumulate(a, g * y * (1.0 - y))

    return _make(y, (a,), bwd)


_INV_SQRT2 = 1.0 / math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)


def gelu(a: Tensor) -> Tensor:
    x = a.data
    cdf = 0.5 * (1.0 + special.erf(x * _INV_SQRT2))
    y = x * cdf

    def bwd(g):
        pdf = np.exp(-0.5 * x * x) * _INV_SQRT_2PI
        _accumulate(a, g * (cdf + x * pdf))

    return _make(y, (a,), bwd)


def layer_norm(a: Tensor, gamma: Tensor, beta: Tensor, eps: float = 1e-6) -> Tensor:
    """Normalize over the last axis, then apply an affine map."""
    if gamma.shape != (a.shape[-1],) or beta.shape != (a.shape[-1],):
        raise ShapeMismatchError(
            f"layer_norm affine shapes {gamma.shape}/{beta.shape} do not match channel extent {a.shape[-1]}"
        )
    mu = a.data.mean(axis=-1, keepdims=True)
    centered = a.data - mu
    var = (centered ** 2).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = centered * inv
    y = xhat * gamma.data + beta.data

    def bwd(g):
        channels = a.shape[-1]
        dxhat = g * gamma.data
        m1 = dxhat.mean(axis=-1, keepdims=True)
        m2 = (dxhat * xhat).mean(axis=-1, keepdims=True)
        _accumulate(a, inv * (dxhat - m1 - xhat * m2))
        _accumulate(gamma, (g * xhat).reshape(-1, channels).sum(axis=0))
        _accumulate(beta, g.reshape(-1, channels).sum(axis=0))

    return _make(y, (a, gamma, beta), bwd)


# ---------------------------------------------------------------------------
# convolution


def _conv_output_extent(extent: int, kernel: int, stride: int, padding: int) -> int:
    return (extent + 2 * padding - kernel) // stride + 1


def conv2d(x: Tensor, w: Tensor, b: Optional[Tensor] = None,
           stride: int = 1, padding: int = 0) -> Tensor:
    """2-d convolution over B x C x H x W inputs with an O x C x kh x kw kernel."""
    if x.ndim != 4 or w.ndim != 4:
        raise ShapeMismatchError(f"conv2d expects 4-d operands, got {x.shape} and {w.shape}")
    if x.shape[1] != w.shape[1]:
        raise ShapeMismatchError(f"conv2d channel mismatch: input {x.shape} vs kernel {w.shape}")
    batch, _, height, width = x.shape
    out_ch, in_ch, kh, kw = w.shape
    oh = _conv_output_extent(height, kh, stride, padding)
    ow = _conv_output_extent(width, kw, stride, padding)
    if oh <= 0 or ow <= 0:
        raise ConfigurationError(
            f"conv2d output extent {oh}x{ow} is not positive "
            f"(input {height}x{width}, kernel {kh}x{kw}, stride {stride}, padding {padding})"
        )
    xp = np.pad(x.data, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    sb, sc, sh, sw = xp.strides
    cols = as_strided(xp, (batch, in_ch, kh, kw, oh, ow),
                      (sb, sc, sh, sw, sh * stride, sw * stride))
    cols = np.ascontiguousarray(cols).reshape(batch, in_ch * kh * kw, oh * ow)
    wmat = w.data.reshape(out_ch, in_ch * kh * kw)
    out = np.matmul(wmat, cols).reshape(batch, out_ch, oh, ow)
    if b is not None:
        out = out + b.data.reshape(1, out_ch, 1, 1)

    def bwd(g):
        g2 = g.reshape(batch, out_ch, oh * ow)
        if w.requires_grad:
            gw = np.einsum("bol,bkl->ok", g2, cols).reshape(w.shape)
            _accumulate(w, gw)
        if x.requires_grad:
            gcols = np.matmul(wmat.T, g2).reshape(batch, in_ch, kh, kw, oh, ow)
            gxp = np.zeros_like(xp)
            for i in range(kh):
                for j in range(kw):
                    gxp[:, :, i:i + stride * oh:stride, j:j + stride * ow:stride] += gcols[:, :, i, j]
            if padding:
                gxp = gxp[:, :, padding:padding + height, padding:padding + width]
            _accumulate(x, gxp)
        if b is not None and b.requires_grad:
            _accumulate(b, g.sum(axis=(0, 2, 3)))

    parents = (x, w) if b is None else (x, w, b)
    return _make(out, parents, bwd)


# ---------------------------------------------------------------------------
# bilinear resize


def _interp_matrix(n_out: int, n_in: int) -> np.ndarray:
    """Row-stochastic 1-d interpolation matrix, half-pixel centers, clamped edges."""
    if n_out == n_in:
        return np.eye(n_in)
    m = np.zeros((n_out, n_in))
    src = (np.arange(n_out) + 0.5) * (n_in / n_out) - 0.5
    src = np.clip(src, 0.0, n_in - 1.0)
    i0 = np.floor(src).astype(int)
    i1 = np.minimum(i0 + 1, n_in - 1)
    frac = src - i0
    rows = np.arange(n_out)
    np.add.at(m, (rows, i0), 1.0 - frac)
    np.add.at(m, (rows, i1), frac)
    return m


def bilinear_resize(x: Tensor, out_h: int, out_w: int) -> Tensor:
    """Resize the trailing two axes of a B x C x H x W tensor."""
    if x.ndim != 4:
        raise ShapeMismatchError(f"bilinear_resize expects a 4-d tensor, got {x.shape}")
    _, _, height, width = x.shape
    if out_h <= 0 or out_w <= 0:
        raise ConfigurationError(f"bilinear_resize target {out_h}x{out_w} is not positive")
    rows = _interp_matrix(out_h, height)
    cols = _interp_matrix(out_w, width)
    data = np.matmul(np.matmul(rows, x.data), cols.T)

    def bwd(g):
        _accumulate(x, np.matmul(np.matmul(rows.T, g), cols))

    return _make(data, (x,), bwd)


def resize_array(x: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    """Non-differentiable resize for plain arrays, same sampling convention."""
    rows = _interp_matrix(out_h, x.shape[-2])
    cols = _interp_matrix(out_w, x.shape[-1])
    return np.matmul(np.matmul(rows, np.asarray(x, dtype=np.float64)), cols.T)


# ---------------------------------------------------------------------------
# losses


def bce_with_logits(logits: Tensor, targets) -> Tensor:
    """Mean binary cross-entropy with a fused, overflow-safe sigmoid."""
    t = np.asarray(targets.data if isinstance(targets, Tensor) else targets, dtype=np.float64)
    if logits.shape != t.shape:
        raise ShapeMismatchError(f"bce_with_logits shapes disagree: {logits.shape} vs {t.shape}")
    x = logits.data
    loss = np.maximum(x, 0.0) - x * t + np.log1p(np.exp(-np.abs(x)))
    data = loss.mean()

    def bwd(g):
        _accumulate(logits, g * (special.expit(x) - t) / x.size)

    return _make(np.asarray(data), (logits,), bwd)


def mse(a: Tensor, b) -> Tensor:
    """Mean squared error; the second operand may be a constant array."""
    bt = _ensure_tensor(b)
    if a.shape != bt.shape:
        raise ShapeMismatchError(f"mse shapes disagree: {a.shape} vs {bt.shape}")
    diff = a.data - bt.data
    data = np.asarray((diff ** 2).mean())

    def bwd(g):
        scale = g * 2.0 / diff.size
        _accumulate(a, scale * diff)
        _accumulate(bt, -scale * diff)

    return _make(data, (a, bt), bwd)
