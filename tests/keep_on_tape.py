"""The keep-on-the-tape forms of Linear, conv2d and layer_norm: the references for the recomputing ones.

``srrnet.tensor.matmul`` adds a Linear's bias into its own GEMM output, so no
pre-bias array is a node; ``conv2d`` rebuilds its patch matrix in the
backward instead of keeping it; ``layer_norm`` keeps each row's mean and
inverse deviation and rebuilds x̂ from them. This module keeps the forms
those replaced: a Linear as ``add(matmul(x, W), b)``, a ``conv2d`` whose
closure holds the patch matrix, and a ``layer_norm`` whose closure holds
x̂, so the two can be compared bit for bit.
"""

import numpy as np
from numpy.lib.stride_tricks import as_strided

from srrnet import tensor as T


def linear_two_nodes(x: T.Tensor, w: T.Tensor, b: T.Tensor) -> T.Tensor:
    """``x W + b`` as a GEMM node and a separate ``add`` node."""
    return T.add(T.matmul(x, w), b)


def conv2d_keeping_patches(x: T.Tensor, w: T.Tensor, b: T.Tensor,
                           stride: int = 1, padding: int = 0) -> T.Tensor:
    """``tensor.conv2d`` with the patch matrix kept for the backward."""
    batch, _, height, width = x.shape
    out_ch, in_ch, kh, kw = w.shape
    oh = (height + 2 * padding - kh) // stride + 1
    ow = (width + 2 * padding - kw) // stride + 1
    xp = x.data
    if padding:
        xp = np.zeros((batch, in_ch, height + 2 * padding, width + 2 * padding))
        xp[:, :, padding:padding + height, padding:padding + width] = x.data
    sb, sc, sh, sw = xp.strides
    cols = as_strided(xp, (in_ch, kh, kw, batch, oh, ow),
                      (sc, sh, sw, sb, sh * stride, sw * stride))
    cols = np.ascontiguousarray(cols).reshape(in_ch * kh * kw, batch * oh * ow)
    wmat = w.data.reshape(out_ch, in_ch * kh * kw)
    out = np.matmul(wmat, cols).reshape(out_ch, batch, oh, ow).transpose(1, 0, 2, 3)
    out += b.data.reshape(1, out_ch, 1, 1)
    padded_extent = xp.shape[2:]

    def bwd(g):
        g2 = g.transpose(1, 0, 2, 3).reshape(out_ch, batch * oh * ow)
        if w.requires_grad:
            T._accumulate(w, np.matmul(g2, cols.T).reshape(w.shape))
        if x.requires_grad:
            gcols = np.matmul(wmat.T, g2).reshape(in_ch, kh, kw, batch, oh, ow)
            gxp = np.zeros((in_ch, batch) + padded_extent)
            for i in range(kh):
                for j in range(kw):
                    gxp[:, :, i:i + stride * oh:stride, j:j + stride * ow:stride] += gcols[:, i, j]
            gxp = gxp.transpose(1, 0, 2, 3)
            if padding:
                gxp = gxp[:, :, padding:padding + height, padding:padding + width]
            T._accumulate(x, gxp)
        if b.requires_grad:
            T._accumulate(b, g.sum(axis=(0, 2, 3)))

    return T._make(out, (x, w, b), bwd)


def layer_norm_keeping_xhat(a: T.Tensor, gamma: T.Tensor, beta: T.Tensor) -> T.Tensor:
    """``tensor.layer_norm`` with x̂ kept for the backward."""
    mu = a.data.mean(axis=-1, keepdims=True)
    xhat = a.data - mu
    var = (xhat ** 2).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + T.LAYER_NORM_EPS)
    xhat *= inv
    y = xhat * gamma.data
    y += beta.data

    def bwd(g):
        channels = a.shape[-1]
        dxhat = g * gamma.data
        m1 = dxhat.mean(axis=-1, keepdims=True)
        m2 = (dxhat * xhat).mean(axis=-1, keepdims=True)
        T._accumulate(a, inv * (dxhat - m1 - xhat * m2))
        T._accumulate(gamma, (g * xhat).reshape(-1, channels).sum(axis=0))
        T._accumulate(beta, g.reshape(-1, channels).sum(axis=0))

    return T._make(y, (a, gamma, beta), bwd)


def backward_from(out: T.Tensor, g: np.ndarray):
    """``tensor.backward`` from ``out`` with the upstream gradient ``g``, handed to
    ``out``'s closure as given (a transposed view stays one)."""
    seed = T._make(np.zeros(()), (out,), lambda _: setattr(out, "grad", g))
    T.backward(seed)
