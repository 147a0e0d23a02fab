"""Dense float64 tensors with reverse-mode automatic differentiation.

Every operation used by the network (matmul, conv2d, the attention core
softmax(q k^T) v, layer norm, bilinear resize, the fused losses) is
implemented here as a differentiable primitive. Values are always float64:
gradient checks against central finite differences need the precision.

Buffer rule: a primitive returns a buffer it allocated itself, or a view of
one, and may fill that buffer, or a scratch buffer it allocated, in place
(matmul adds its bias into its own GEMM output; softmax scales q into a
buffer of its own, writes each tile's scores into one buffer of its own and
exponentiates them there, and returns its merged heads as a view of its
output buffer; its backward does the same again in buffers of the
backward's own, writes every tile's score gradient into one more buffer
that the tiles share, and scales the q gradient in place; layer_norm
normalizes its own centered copy), but it never writes into an input's
``data``; backward closures read inputs and outputs after the forward pass,
and softmax, conv2d and layer_norm rebuild from their inputs what their
backward needs (the scaled q, the patches, x̂) instead of keeping it on the
tape. A node's gradient is a buffer of its own, never the array a closure
passed: ``_accumulate`` writes a first gradient into a new buffer laid out
like the node's ``data`` (a C-order copy would make later reductions round
differently; see there), so ``add``'s two operands never share one.
"""

from __future__ import annotations

import contextlib
import functools
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


def grad_enabled() -> bool:
    """Whether operations are currently recorded on the gradient tape."""
    return _grad_enabled


_FLOAT64 = np.dtype(np.float64)


def _as_array(x) -> np.ndarray:
    """``x`` as a float64 array; a float64 ndarray is returned as it is, as
    ``np.asarray`` would return it, without the call (one per tape node)."""
    if type(x) is np.ndarray and x.dtype is _FLOAT64:
        return x
    return np.asarray(x, dtype=np.float64)


class Tensor:
    """A dense float64 array, optionally participating in the gradient tape."""

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

    def detach(self) -> "Tensor":
        """Stop-gradient copy: same values, no tape participation."""
        return Tensor(self.data)

    def __repr__(self):
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"

    # operator sugar -------------------------------------------------------
    def __add__(self, other):
        return add(self, _ensure_tensor(other))

    def __sub__(self, other):
        return add(self, neg(_ensure_tensor(other)))

    def __mul__(self, other):
        return mul(self, _ensure_tensor(other))

    def __rmul__(self, other):
        return mul(_ensure_tensor(other), self)


def _ensure_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _make(data: np.ndarray, parents: Sequence[Tensor], backward_fn) -> Tensor:
    out = Tensor(data)
    if _grad_enabled:
        for p in parents:  # a loop rather than any() over a generator: this runs once per node
            if p.requires_grad:
                out.requires_grad, out._parents, out._backward_fn = True, tuple(parents), backward_fn
                break
    return out


def _accumulate(t: Tensor, g: np.ndarray, index=...):
    """Add ``g`` into ``t.grad[index]``, allocating ``t.grad`` on first use.

    A first gradient of ``t``'s whole shape is written into an uninitialized
    buffer as ``g + 0.0``, not added into a zero-filled one: that skips the
    fill pass, and ``0.0 + g`` and ``g + 0.0`` are the same IEEE sum, so the
    result is bit for bit the zero-filled one's, -0.0 turned into +0.0
    included. The buffer is ``np.empty_like(t.data)``, so it takes
    ``t.data``'s layout as ``zeros_like`` did. That matters: many nodes'
    data are transposed views (``transpose``, ``conv2d`` over a batch), and
    a C-order first gradient moved 169 of desk's 224 parameter gradients in
    the last bit after one training step. The values reaching each closure
    were equal, but laid out differently, and a reduction such as
    ``_unbroadcast``'s sum over the spatial axes rounds by the order in
    which it walks memory. A first gradient into part of ``t`` (``narrow``)
    still zero-fills the rest.
    """
    if not t.requires_grad:
        return
    if t.grad is None and index is ...:
        t.grad = np.add(g, 0.0, out=np.empty_like(t.data))
        return
    if t.grad is None:
        t.grad = np.zeros_like(t.data)
    view = t.grad[index]  # basic indexing: writes through to t.grad
    view += g


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Reduce a broadcast gradient back to the operand's original shape."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for axis, extent in enumerate(shape):
        if extent == 1 and g.shape[axis] != 1:
            g = g.sum(axis=axis, keepdims=True)
    return g


def backward(loss: Tensor):
    """Run reverse-mode accumulation from a scalar loss over the whole graph.

    The pass consumes the tape: once a node's closure has run, the node drops
    its gradient, its parent links and its closure, so memory falls as the
    walk goes and a second ``backward`` over the same graph propagates
    nothing. Leaves (tensors without a closure, such as parameters and
    ``requires_grad`` inputs) keep their accumulated gradients.
    """
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
    while topo:
        node = topo.pop()
        if node._backward_fn is None:
            continue
        if node.grad is not None:
            node._backward_fn(node.grad)
        node.grad, node._parents, node._backward_fn = None, (), None


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
        if a.requires_grad:
            _accumulate(a, _unbroadcast(g * b.data, a.shape))
        if b.requires_grad:
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
        _accumulate(a, g, idx)

    return _make(data, (a,), bwd)


def mean(a: Tensor) -> Tensor:
    """Mean over every entry, as a 0-d tensor."""
    data = a.data.mean()

    def bwd(g):
        _accumulate(a, np.broadcast_to(g, a.shape) / a.data.size)

    return _make(data, (a,), bwd)


def tensor_sum(a: Tensor) -> Tensor:
    """Sum over every entry, as a 0-d tensor."""
    data = a.data.sum()

    def bwd(g):
        _accumulate(a, np.broadcast_to(g, a.shape).copy())

    return _make(data, (a,), bwd)


# ---------------------------------------------------------------------------
# linear algebra


def matmul(a: Tensor, b: Tensor, bias: Optional[Tensor] = None) -> Tensor:
    """Product of ``a``'s last axis with a 2-d ``b``, for every leading index of ``a``, plus ``bias``.

    The rows of every leading index of ``a`` go through one GEMM, forward and
    backward: numpy would call one GEMM per leading index, streaming ``b``
    once for each. With one leading index (a 2-d ``a``) this is numpy's own
    GEMM; with more, a row may round differently in the last bit, since BLAS
    picks its kernels by the shape of the whole product.

    A ``bias`` of ``b``'s column extent is added into the GEMM's output in
    place, so a Linear layer is one node and its pre-bias product is never
    kept; the sums are those of ``add(matmul(a, b), bias)``, bit for bit, and
    ``bias`` gets the same gradient. The backward keeps only ``a`` and ``b``
    (which it reads anyway): at 192 x 192 the pre-bias products of a desk
    forward were 10.4 of the 68.6 MiB its tape held.
    """
    if a.ndim < 2 or b.ndim != 2:
        raise ShapeMismatchError(f"matmul needs a >=2-d and a 2-d operand, got {a.shape} x {b.shape}")
    if a.shape[-1] != b.shape[0]:
        raise ShapeMismatchError(f"matmul inner extents disagree: {a.shape} x {b.shape}")
    if bias is not None and bias.shape != b.shape[-1:]:
        raise ShapeMismatchError(f"matmul bias {bias.shape} does not match output extent {b.shape[-1]}")
    rows = a.data.reshape(-1, a.shape[-1])
    data = np.matmul(rows, b.data).reshape(a.shape[:-1] + b.shape[-1:])
    if bias is not None:
        data += bias.data

    def bwd(g):
        # C order, as the tape builds every node's gradient: BLAS may round a
        # transposed (F-ordered) operand differently in the last bit
        g2 = np.ascontiguousarray(g).reshape(-1, b.shape[-1])
        _accumulate(a, np.matmul(g2, b.data.T).reshape(a.shape))
        _accumulate(b, np.matmul(rows.T, g2))
        if bias is not None:
            _accumulate(bias, _unbroadcast(g, bias.shape))

    return _make(data, (a, b) if bias is None else (a, b, bias), bwd)


# ---------------------------------------------------------------------------
# attention


# Row maxima within this bound keep exp's largest entry of every row between
# e^-64 and e^64 (1.6e-28 to 6.2e27): no row sum can overflow or vanish.
EXP_SHIFT_FREE = 64.0
# Score entries per query-row tile. 2**16 float64 entries are 512 KB, one
# doubling below a 2 MB per-core L2, so a tile's scores stay in cache from the
# GEMM that writes them through the exp, the row sums and the P.V product.
SCORE_TILE = 2 ** 16
# A computed score, a computed norm and their product each carry a relative
# rounding error of at most about d * 2**-53, far inside this margin for any
# head dimension d below 2**30.
_NORM_BOUND_MARGIN = 1.0 + 2.0 ** -20


def scores_shift_free(q: np.ndarray, k: np.ndarray) -> bool:
    """Whether max |q_i| * max |k_j| proves every score q_i . k_j within +-EXP_SHIFT_FREE.

    By Cauchy-Schwarz |q_i . k_j| <= |q_i| |k_j|. ``q`` and ``k`` are
    ... x n x d; the maxima run over every row of each.
    """
    q_sq = np.einsum("...i,...i->...", q, q).max()
    k_sq = np.einsum("...i,...i->...", k, k).max()
    return bool(math.sqrt(q_sq * k_sq) * _NORM_BOUND_MARGIN <= EXP_SHIFT_FREE)


def row_tiles(batch: int, heads: int, n_q: int, n_k: int) -> list:
    """Query-row bounds ``[0, ..., n_q]`` of ``softmax``'s tiles.

    Each tile's scores hold at most ``SCORE_TILE`` entries, or one query row
    where one row alone holds more; the rows are spread evenly over the
    fewest tiles that allows, so tile sizes differ by at most one row.
    """
    tiles = -(-n_q // max(1, SCORE_TILE // (batch * heads * n_k)))
    return [i * n_q // tiles for i in range(tiles + 1)]


def softmax(q: Tensor, k: Tensor, v: Tensor, heads: int) -> Tensor:
    """Multi-head softmax(q k^T / sqrt(d)) v: the attention core as one primitive.

    ``q`` is B x n_q x C, ``k`` B x n_k x C and ``v`` B x n_k x C_v, with C
    and C_v multiples of ``heads``; each head reads d = C / heads channels of
    q and k and C_v / heads of v. The result is B x n_q x C_v, the heads
    merged back into channels. The heads are split as views, so the call is
    one node on the tape where scaling, splitting and merging were nine
    more: a traced ``train_desk64`` iteration ran 534 tensor ops, 180 of
    them around its 20 attention calls, and runs 354 now. q is scaled by
    1/sqrt(d) into a buffer of the call's own, which the backward rebuilds
    by the same product instead of keeping it. The output is a view of a
    B x n_q x H x d_v buffer, and the backward writes the q, k and v
    gradients into B x n x H x d buffers of its own, so they reach q, k and
    v without a copy.

    The query rows run in the tiles of ``row_tiles``; rows are independent,
    so tiling changes only GEMM row counts. k^T is made contiguous once per
    call, so every tile's scores GEMM runs NN rather than against a strided
    k^T view (31 against 49 us for a 21 x 3072 tile at d = 8, 2-core x86,
    bitwise equal; at d = 64 the two may differ in the last bit). Each
    tile's scores are written into one buffer, exponentiated in place,
    multiplied into the output and normalized there, as FlashAttention does
    (Dao et al., arXiv 2205.14135): the n_q x d_v output is divided by the
    row sums, so the n_q x n_k probabilities are never formed. Every tile
    reuses that one buffer, on the tape or off it.

    On the tape the backward keeps q, k, v, k^T, the output, each tile's
    row sums and, for a tile that shifted, its row maxima: nothing of size
    n_q x n_k. It recomputes each tile's exponentials into one buffer of its
    own by the forward's ops on the same views (GEMM into the buffer, the
    shift, exp), so they equal the forward's bit for bit, and then uses
    FlashAttention's row term D = rowsum(g * out) (recomputation: Dao et
    al., section 3.1). Each tile's score gradient g v^T is written by its
    GEMM into a second buffer of the backward's own, also reused by every
    tile, and finished there in place: a fresh score-sized array per tile
    cost a desk@64 training step ~700 minor page faults, and the step is
    ~6% faster without them, bit for bit.

    On a tape where a Linear was a GEMM node plus a bias add, and
    ``conv2d`` and ``layer_norm`` kept their patches and x̂, a desk training
    step at 192 x 192 peaked at 137 MiB this way, against 548 MiB with
    every tile's exponentials kept, and one at 256 x 256 at 198 against
    1,500 MiB. On today's tape, where a Linear adds its bias inside
    its GEMM and those two rebuild what their backward reads, the same
    steps peak at 110.0 and 149.0 MiB (VmHWM of a fresh process, 2-core
    x86). The backward pays one more GEMM and exp per tile for it.

    The shift by the row maxima only guards ``exp`` against overflow and
    cancels in the division, so it is skipped while every row maximum lies
    in [-EXP_SHIFT_FREE, EXP_SHIFT_FREE]. When the norm bound
    (``scores_shift_free``) proves every score within it, the whole call
    skips the row-max pass, which costs 0.20 ns a score entry against the
    exp's 1.14 at desk@128; that took a desk@128 frame 6% faster (median
    paired ratio 0.934-0.950 over 3 x 118 frames, 2-core x86, bitwise
    equal). Otherwise each tile takes its maxima and shifts only if one lies
    outside the bound. Either way a tile shifts exactly when its maxima
    leave the bound.
    """
    if q.ndim != 3 or k.ndim != 3 or v.ndim != 3:
        raise ShapeMismatchError(f"softmax needs 3-d operands, got {q.shape}, {k.shape}, {v.shape}")
    batch, n_q, channels = q.shape
    n_k = k.shape[1]
    if k.shape != (batch, n_k, channels) or v.shape[:2] != k.shape[:2]:
        raise ShapeMismatchError(f"softmax operand shapes disagree: {q.shape}, {k.shape}, {v.shape}")
    if heads < 1 or channels % heads or v.shape[2] % heads:
        raise ShapeMismatchError(f"channels {channels}/{v.shape[2]} do not split into {heads} heads")
    if n_k == 0:
        raise ValueError("attention requires at least one key/value row")
    d, d_v = channels // heads, v.shape[2] // heads
    scale = 1.0 / math.sqrt(d)

    def split(x: np.ndarray, n: int, width: int) -> np.ndarray:
        """B x n x (H * width) as B x H x n x width; a view of a contiguous ``x``."""
        return x.reshape(batch, n, heads, width).transpose(0, 2, 1, 3)

    kh, vh = split(k.data, n_k, d), split(v.data, n_k, d_v)
    kt = np.ascontiguousarray(np.swapaxes(kh, -1, -2))
    qh = split(q.data * scale, n_q, d)
    shift_free = scores_shift_free(qh, kh)
    bounds = row_tiles(batch, heads, n_q, n_k)
    tiles = list(zip(bounds, bounds[1:]))
    largest = bounds[-1] - bounds[-2]  # rows of the last tile, the largest
    buf = np.empty(batch * heads * largest * n_k)
    out = np.empty((batch, n_q, heads, d_v))
    outh = out.transpose(0, 2, 1, 3)
    kept = []  # per tile, the row sums and the row maxima it was shifted by, if any
    for start, stop in tiles:
        shape = (batch, heads, stop - start, n_k)
        e = buf[:math.prod(shape)].reshape(shape)
        np.matmul(qh[:, :, start:stop], kt, out=e)
        shift = None
        if not shift_free:
            peak = e.max(axis=-1, keepdims=True)
            if np.abs(peak).max() > EXP_SHIFT_FREE:
                e -= peak
                shift = peak
        np.exp(e, out=e)
        s = e.sum(axis=-1, keepdims=True)
        o = outh[:, :, start:stop]
        np.matmul(e, vh, out=o)
        o /= s
        kept.append((s, shift))

    def bwd(g):
        gh = split(g, n_q, d_v)
        qs = split(q.data * scale, n_q, d)  # the forward's scaled q, by the same product
        gq, gk = np.zeros((batch, n_q, heads, d)), np.zeros((batch, n_k, heads, d))
        gv = np.zeros((batch, n_k, heads, d_v))
        gqh, gkh, gvh = (x.transpose(0, 2, 1, 3) for x in (gq, gk, gv))
        vt = np.swapaxes(vh, -1, -2)
        tile = np.empty(batch * heads * largest * n_k)
        ga_buf = np.empty(batch * heads * largest * n_k)
        for (start, stop), (s, shift) in zip(tiles, kept):
            # the forward's exponentials, recomputed by the same ops on the same views
            shape = (batch, heads, stop - start, n_k)
            e = tile[:math.prod(shape)].reshape(shape)
            np.matmul(qs[:, :, start:stop], kt, out=e)
            if shift is not None:
                e -= shift
            np.exp(e, out=e)
            gt = gh[:, :, start:stop]
            gs = gt / s
            gvh += np.matmul(np.swapaxes(e, -1, -2), gs)
            if n_k == 1:
                # over one key the softmax is the constant 1, so q and k get
                # exactly 0, where gs . v^T - D would leave the two sides' rounding
                continue
            ga = ga_buf[:e.size].reshape(shape)
            np.matmul(gs, vt, out=ga)
            ga -= (gt * outh[:, :, start:stop]).sum(axis=-1, keepdims=True) / s
            ga *= e
            gqh[:, :, start:stop] = np.matmul(ga, kh)
            gkh += np.matmul(np.swapaxes(ga, -1, -2), qs[:, :, start:stop])
        gq *= scale
        _accumulate(q, gq.reshape(q.shape))
        _accumulate(k, gk.reshape(k.shape))
        _accumulate(v, gv.reshape(v.shape))

    return _make(out.reshape(batch, n_q, heads * d_v), (q, k, v), bwd)


# ---------------------------------------------------------------------------
# nonlinearities


def sigmoid(a: Tensor) -> Tensor:
    y = special.expit(a.data)

    def bwd(g):
        _accumulate(a, g * y * (1.0 - y))

    return _make(y, (a,), bwd)


_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)


def gelu(a: Tensor) -> Tensor:
    x = a.data
    cdf = special.ndtr(x)
    y = x * cdf

    def bwd(g):
        pdf = np.exp(-0.5 * x * x) * _INV_SQRT_2PI
        _accumulate(a, g * (cdf + x * pdf))

    return _make(y, (a,), bwd)


LAYER_NORM_EPS = 1e-6


def layer_norm(a: Tensor, gamma: Tensor, beta: Tensor) -> Tensor:
    """Normalize over the last axis, then apply an affine map.

    The backward keeps each row's mean and inverse deviation (n x 1), not
    the normalized x̂ (n x c): it rebuilds x̂ from ``a`` by the forward's own
    two passes (subtract the mean, scale in place), so x̂ equals the
    forward's bit for bit.

    Each row mean is ``np.add.reduce(...) / channels``, which is what
    ``ndarray.mean`` computes, bit for bit, without its per-call dispatch.
    """
    if gamma.shape != (a.shape[-1],) or beta.shape != (a.shape[-1],):
        raise ShapeMismatchError(
            f"layer_norm affine shapes {gamma.shape}/{beta.shape} do not match channel extent {a.shape[-1]}"
        )
    channels = a.shape[-1]
    mu = np.add.reduce(a.data, axis=-1, keepdims=True) / channels
    xhat = a.data - mu  # centered, then normalized in place
    var = np.add.reduce(xhat ** 2, axis=-1, keepdims=True) / channels
    inv = 1.0 / np.sqrt(var + LAYER_NORM_EPS)
    xhat *= inv
    y = xhat * gamma.data
    y += beta.data

    def bwd(g):
        xhat = a.data - mu
        xhat *= inv
        dxhat = g * gamma.data
        m1 = np.add.reduce(dxhat, axis=-1, keepdims=True) / channels
        m2 = np.add.reduce(dxhat * xhat, axis=-1, keepdims=True) / channels
        _accumulate(a, inv * (dxhat - m1 - xhat * m2))
        _accumulate(gamma, (g * xhat).reshape(-1, channels).sum(axis=0))
        _accumulate(beta, g.reshape(-1, channels).sum(axis=0))

    return _make(y, (a, gamma, beta), bwd)


# ---------------------------------------------------------------------------
# convolution


def _conv_output_extent(extent: int, kernel: int, stride: int, padding: int) -> int:
    return (extent + 2 * padding - kernel) // stride + 1


def _patches(x: np.ndarray, kh: int, kw: int, stride: int, padding: int,
             oh: int, ow: int) -> np.ndarray:
    """The (C*kh*kw) x (B*oh*ow) im2col matrix of a B x C x H x W array."""
    batch, in_ch, height, width = x.shape
    if padding:
        xp = np.zeros((batch, in_ch, height + 2 * padding, width + 2 * padding))
        xp[:, :, padding:padding + height, padding:padding + width] = x
        x = xp
    sb, sc, sh, sw = x.strides
    cols = as_strided(x, (in_ch, kh, kw, batch, oh, ow),
                      (sc, sh, sw, sb, sh * stride, sw * stride))
    return np.ascontiguousarray(cols).reshape(in_ch * kh * kw, batch * oh * ow)


def conv2d(x: Tensor, w: Tensor, b: Tensor, stride: int = 1, padding: int = 0) -> Tensor:
    """2-d convolution over B x C x H x W inputs with an O x C x kh x kw kernel, plus bias.

    The patches of the whole batch form one (C*kh*kw) x (B*oh*ow) matrix, so
    the kernel is read by one GEMM forward and one per gradient, whatever
    the batch. The output is a B x O x oh x ow view of an O x B x oh x ow
    buffer (contiguous at batch 1).

    The backward keeps neither the patch matrix nor the padded copy of
    ``x``: when ``w`` needs a gradient it rebuilds the patches from ``x`` by
    the forward's own ops, so they equal the forward's bit for bit, and a
    kernel without one (such as a constant shift kernel) never rebuilds
    them. At 192 x 192 the patch matrices were 15.5 of the 68.6 MiB a desk
    forward's tape held.
    """
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
    wmat = w.data.reshape(out_ch, in_ch * kh * kw)
    cols = _patches(x.data, kh, kw, stride, padding, oh, ow)
    out = np.matmul(wmat, cols).reshape(out_ch, batch, oh, ow).transpose(1, 0, 2, 3)
    out += b.data.reshape(1, out_ch, 1, 1)

    def bwd(g):
        g2 = g.transpose(1, 0, 2, 3).reshape(out_ch, batch * oh * ow)
        if w.requires_grad:
            cols = _patches(x.data, kh, kw, stride, padding, oh, ow)
            _accumulate(w, np.matmul(g2, cols.T).reshape(w.shape))
        if x.requires_grad:
            gcols = np.matmul(wmat.T, g2).reshape(in_ch, kh, kw, batch, oh, ow)
            gxp = np.zeros((in_ch, batch, height + 2 * padding, width + 2 * padding))
            for i in range(kh):
                for j in range(kw):
                    gxp[:, :, i:i + stride * oh:stride, j:j + stride * ow:stride] += gcols[:, i, j]
            gxp = gxp.transpose(1, 0, 2, 3)
            if padding:
                gxp = gxp[:, :, padding:padding + height, padding:padding + width]
            _accumulate(x, gxp)
        if b.requires_grad:
            _accumulate(b, g.sum(axis=(0, 2, 3)))

    return _make(out, (x, w, b), bwd)


# ---------------------------------------------------------------------------
# bilinear resize


@functools.lru_cache
def _interp_matrix(n_out: int, n_in: int) -> np.ndarray:
    """Row-stochastic 1-d interpolation matrix, half-pixel centers, clamped edges.

    At an equal extent every source position lands on a pixel, so this is
    exactly the identity. The matrices are cached per extent pair (the
    last 128 pairs) and read-only, since every caller shares one: a
    ``stream_desk128`` frame built 8 and a training step 10 with
    ``np.add.at``.
    """
    m = np.zeros((n_out, n_in))
    src = (np.arange(n_out) + 0.5) * (n_in / n_out) - 0.5
    src = np.clip(src, 0.0, n_in - 1.0)
    i0 = np.floor(src).astype(int)
    i1 = np.minimum(i0 + 1, n_in - 1)
    frac = src - i0
    rows = np.arange(n_out)
    np.add.at(m, (rows, i0), 1.0 - frac)
    np.add.at(m, (rows, i1), frac)
    m.flags.writeable = False
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


# ---------------------------------------------------------------------------
# losses


def bce_with_logits(logits: Tensor, targets: np.ndarray) -> Tensor:
    """Mean binary cross-entropy with a fused, overflow-safe sigmoid; constant targets."""
    t = np.asarray(targets, dtype=np.float64)
    if logits.shape != t.shape:
        raise ShapeMismatchError(f"bce_with_logits shapes disagree: {logits.shape} vs {t.shape}")
    x = logits.data
    loss = np.maximum(x, 0.0) - x * t + np.log1p(np.exp(-np.abs(x)))
    data = loss.mean()

    def bwd(g):
        _accumulate(logits, g * (special.expit(x) - t) / x.size)

    return _make(np.asarray(data), (logits,), bwd)


def mse(a: Tensor, target: np.ndarray) -> Tensor:
    """Mean squared error against a constant target array."""
    t = np.asarray(target, dtype=np.float64)
    if a.shape != t.shape:
        raise ShapeMismatchError(f"mse shapes disagree: {a.shape} vs {t.shape}")
    diff = a.data - t
    data = np.asarray((diff ** 2).mean())

    def bwd(g):
        scale = g * 2.0 / diff.size
        _accumulate(a, scale * diff)

    return _make(data, (a,), bwd)
