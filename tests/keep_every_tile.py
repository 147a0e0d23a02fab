"""The attention core's keep-every-tile references: what its recomputing backward
and its one-node multi-head form are tested against.

``srrnet.tensor.softmax`` keeps only q, k, v, the output and each tile's row
sums (and row maxima where the tile shifted) for its backward, and
recomputes every tile's exponentials there. ``keep_every_tile_softmax`` runs
the same forward with each tile's exponentials kept in a buffer of its own,
and the backward over those kept tiles, on the head slabs ``softmax`` splits
its operands into (q already scaled by 1/sqrt(d)), so the two can be compared
bit for bit.

``softmax(q, k, v, heads)`` is also one node on the tape: it splits the heads
of its B x n x C operands as views, scales q in a buffer of its own and
returns the merged heads. ``split_heads_attention`` builds the same product as
a chain of nodes: q scaled by ``mul``, each operand split by ``reshape`` and
``transpose``, ``keep_every_tile_softmax`` as one node over the head slabs,
and the heads merged by ``transpose`` and ``reshape``.
"""

import math

import numpy as np

from srrnet import tensor as T


def keep_every_tile_softmax(q: np.ndarray, k: np.ndarray, v: np.ndarray):
    """``softmax(q k^T) v`` over (batch, head) slabs, and its backward.

    Returns ``(out, backward)``, where ``backward(g)`` returns the gradients
    ``(gq, gk, gv)`` for an upstream ``g``. The tiles and the shift rule are
    ``srrnet.tensor``'s own (``row_tiles``, ``scores_shift_free``,
    ``EXP_SHIFT_FREE``), read when called, so a patched ``SCORE_TILE``
    applies here too.
    """
    batch, heads, n_q, _ = q.shape
    n_k, d_v = k.shape[2], v.shape[3]
    kt = np.ascontiguousarray(np.swapaxes(k, -1, -2))
    shift_free = T.scores_shift_free(q, k)
    bounds = T.row_tiles(batch, heads, n_q, n_k)
    out = np.empty((batch, n_q, heads, d_v))
    outh = out.transpose(0, 2, 1, 3)
    kept = []
    for start, stop in zip(bounds, bounds[1:]):
        e = np.empty((batch, heads, stop - start, n_k))
        np.matmul(q[:, :, start:stop], kt, out=e)
        if not shift_free:
            peak = e.max(axis=-1, keepdims=True)
            if np.abs(peak).max() > T.EXP_SHIFT_FREE:
                e -= peak
        np.exp(e, out=e)
        s = e.sum(axis=-1, keepdims=True)
        o = outh[:, :, start:stop]
        np.matmul(e, v, out=o)
        o /= s
        kept.append((start, stop, e, s))

    def backward(g):
        gq, gk, gv = np.zeros(q.shape), np.zeros(k.shape), np.zeros(v.shape)
        vt = np.swapaxes(v, -1, -2)
        for start, stop, e, s in kept:
            gt = g[:, :, start:stop]
            gs = gt / s
            gv += np.matmul(np.swapaxes(e, -1, -2), gs)
            if n_k == 1:
                continue
            ga = np.matmul(gs, vt)
            ga -= (gt * outh[:, :, start:stop]).sum(axis=-1, keepdims=True) / s
            ga *= e
            gq[:, :, start:stop] = np.matmul(ga, k)
            gk += np.matmul(np.swapaxes(ga, -1, -2), q[:, :, start:stop])
        return gq, gk, gv

    return outh, backward


def split_heads_attention(q: T.Tensor, k: T.Tensor, v: T.Tensor, heads: int) -> T.Tensor:
    """Multi-head softmax((Q / sqrt(d)) K^T) V by scale, split, ``keep_every_tile_softmax``
    and merge nodes."""
    batch, n_q, channels = q.shape
    n_k = k.shape[1]

    def split(x, n):
        return T.transpose(T.reshape(x, (batch, n, heads, x.shape[-1] // heads)), (0, 2, 1, 3))

    slabs = (split(q * (1.0 / math.sqrt(channels // heads)), n_q), split(k, n_k), split(v, n_k))
    out, backward = keep_every_tile_softmax(*(x.data for x in slabs))

    def bwd(g):
        for slab, grad in zip(slabs, backward(g)):
            T._accumulate(slab, grad)

    core = T._make(out, slabs, bwd)
    return T.reshape(T.transpose(core, (0, 2, 1, 3)), (batch, n_q, v.shape[-1]))
