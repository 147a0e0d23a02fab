"""The decoder's factored chain, layer by layer: the reference its collapse is tested against.

``srrnet.decoder`` computes every call collapsed to one 27-channel map per
stage; this module runs the chain its parameters define, one layer at a
time, through the same stop-gradient on the mask logits.
"""

import numpy as np

from srrnet import tensor as T
from srrnet.decoder import PredictionPair, binary_mask_from_logits, mae_score

FOLD_RTOL = 1e-12  # max |collapsed - factored| over max |factored|, per output
GRAD_RTOL = 1e-10  # the same measure for a gradient, per tensor


def max_rel_diff(got: np.ndarray, expected: np.ndarray) -> float:
    return float(np.abs(got - expected).max() / np.abs(expected).max())


def assert_grads_match(got: dict, expected: dict):
    """Per tensor, max |got - expected| <= GRAD_RTOL max |expected|; ``None`` reads as zero."""
    assert got.keys() == expected.keys()
    for name, grad in expected.items():
        ref = np.zeros_like(got[name]) if grad is None else grad
        mine = np.zeros_like(ref) if got[name] is None else got[name]
        assert np.abs(mine - ref).max() <= GRAD_RTOL * np.abs(ref).max(), name


def per_pixel(x_map, weight):
    """Multiply the channel axis of a B x C x H x W map by a weight on a channels-last view."""
    return T.transpose(T.matmul(T.transpose(x_map, (0, 2, 3, 1)), weight), (0, 3, 1, 2))


def _linear(x_map, lin):
    return per_pixel(x_map, lin.weight) + T.reshape(lin.bias, (1, -1, 1, 1))


def factored_decoder(dec, features, full_h: int, full_w: int) -> PredictionPair:
    """``dec``'s outputs computed by its factored chain."""
    target_h, target_w = features.c[0].shape[2:]
    fused = []
    for i, lin in enumerate(dec.fuse_linears):
        x = _linear(T.concat([features.c[i], features.p[i], features.r[i]], axis=1), lin)
        if x.shape[2:] != (target_h, target_w):
            x = T.bilinear_resize(x, target_h, target_w)
        fused.append(x)
    f = dec.fuse_conv(_linear(T.concat(fused, axis=1), dec.fuse_all_linear))
    m = _linear(f, dec.mask_head)
    logits_full = T.bilinear_resize(m, full_h, full_w)
    raw = _linear(T.concat([f, m.detach()], axis=1), dec.err_head)
    o_err = T.sigmoid(raw)
    if dec.cfg.error_target == "signed":
        o_err = o_err * 2.0 - 1.0
    return PredictionPair(mask_logits=m, supervision_logits=logits_full,
                          o_msk=binary_mask_from_logits(logits_full), o_err=o_err,
                          score=mae_score(o_err), error_target=dec.cfg.error_target)
