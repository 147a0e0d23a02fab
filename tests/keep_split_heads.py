"""Multi-head attention as the chain of nodes it was: the reference the one-node form is tested against.

``srrnet.tensor.softmax(q, k, v, heads)`` splits the heads of its
B x n x C operands as views, scales q by 1/sqrt(d) in a buffer of its own and
returns the merged heads: one node on the tape. This module keeps what that
replaced: q scaled by ``mul``, each operand split by ``reshape`` and
``transpose``, the attention core as a primitive over B x H x n x d head
slabs, and the heads merged by ``transpose`` and ``reshape``, so the two can
be compared bit for bit.
"""

import math

import numpy as np

from srrnet import tensor as T


def split_heads_softmax(q: T.Tensor, k: T.Tensor, v: T.Tensor) -> T.Tensor:
    """softmax(q k^T) v over the (batch, head) slabs of B x H x n x d operands, as one node."""
    batch, heads, n_q, _ = q.shape
    n_k, d_v = k.shape[2], v.shape[3]
    kt = np.ascontiguousarray(np.swapaxes(k.data, -1, -2))
    shift_free = T.scores_shift_free(q.data, k.data)
    bounds = T.row_tiles(batch, heads, n_q, n_k)
    tiles = list(zip(bounds, bounds[1:]))
    largest = bounds[-1] - bounds[-2]
    buf = np.empty(batch * heads * largest * n_k)
    out = np.empty((batch, n_q, heads, d_v))
    outh = out.transpose(0, 2, 1, 3)
    kept = []
    for start, stop in tiles:
        shape = (batch, heads, stop - start, n_k)
        e = buf[:math.prod(shape)].reshape(shape)
        np.matmul(q.data[:, :, start:stop], kt, out=e)
        shift = None
        if not shift_free:
            peak = e.max(axis=-1, keepdims=True)
            if np.abs(peak).max() > T.EXP_SHIFT_FREE:
                e -= peak
                shift = peak
        np.exp(e, out=e)
        s = e.sum(axis=-1, keepdims=True)
        o = outh[:, :, start:stop]
        np.matmul(e, v.data, out=o)
        o /= s
        kept.append((s, shift))

    def bwd(g):
        gq, gk, gv = np.zeros(q.shape), np.zeros(k.shape), np.zeros(v.shape)
        vt = np.swapaxes(v.data, -1, -2)
        tile = np.empty(batch * heads * largest * n_k)
        for (start, stop), (s, shift) in zip(tiles, kept):
            shape = (batch, heads, stop - start, n_k)
            e = tile[:math.prod(shape)].reshape(shape)
            np.matmul(q.data[:, :, start:stop], kt, out=e)
            if shift is not None:
                e -= shift
            np.exp(e, out=e)
            gt = g[:, :, start:stop]
            gs = gt / s
            gv += np.matmul(np.swapaxes(e, -1, -2), gs)
            if n_k == 1:
                continue
            ga = np.matmul(gs, vt)
            ga -= (gt * outh[:, :, start:stop]).sum(axis=-1, keepdims=True) / s
            ga *= e
            gq[:, :, start:stop] = np.matmul(ga, k.data)
            gk += np.matmul(np.swapaxes(ga, -1, -2), q.data[:, :, start:stop])
        T._accumulate(q, gq)
        T._accumulate(k, gk)
        T._accumulate(v, gv)

    return T._make(outh, (q, k, v), bwd)


def split_heads_attention(q: T.Tensor, k: T.Tensor, v: T.Tensor, heads: int) -> T.Tensor:
    """Multi-head softmax((Q / sqrt(d)) K^T) V by scale, split, ``split_heads_softmax`` and merge nodes."""
    batch, n_q, channels = q.shape
    n_k = k.shape[1]
    head_dim = channels // heads

    def split(x, n):
        return T.transpose(T.reshape(x, (batch, n, heads, x.shape[-1] // heads)), (0, 2, 1, 3))

    out = split_heads_softmax(split(q * (1.0 / math.sqrt(head_dim)), n_q), split(k, n_k),
                              split(v, n_k))
    return T.reshape(T.transpose(out, (0, 2, 1, 3)), (batch, n_q, v.shape[-1]))
