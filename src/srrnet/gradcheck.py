"""Central finite-difference verification of backward-pass gradients."""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from . import tensor as T
from .backbone import FrameTriplet, check_extent
from .model import SRRNet
from .pipeline import compute_loss
from .tensor import ConfigurationError, Tensor

FD_STEP = 1e-4
DEFAULT_TOL = 1e-3
GAMMA = 1.0  # the loss weighs the error-map MSE and the mask BCE equally
# Guard against division by vanishing gradients: below this scale the check is
# effectively absolute.
REL_ERR_FLOOR = 1e-6


def relative_error(a: float, b: float) -> float:
    return abs(a - b) / max(abs(a), abs(b), REL_ERR_FLOOR)


def fd_gradient(loss_fn: Callable[[], Tensor], storage: np.ndarray,
                flat_index: int) -> float:
    """Central finite difference of a scalar loss w.r.t. one stored entry."""
    flat = storage.reshape(-1)
    original = flat[flat_index]
    with T.no_grad():
        flat[flat_index] = original + FD_STEP
        f_plus = float(loss_fn().data)
        flat[flat_index] = original - FD_STEP
        f_minus = float(loss_fn().data)
    flat[flat_index] = original
    return (f_plus - f_minus) / (2.0 * FD_STEP)


@dataclass
class ParamCheck:
    name: str
    max_rel_err: float


@dataclass
class GradCheckReport:
    tol: float
    checks: list[ParamCheck] = field(default_factory=list)

    @property
    def max_rel_err(self) -> float:
        return max((c.max_rel_err for c in self.checks), default=0.0)

    @property
    def passed(self) -> bool:
        return self.max_rel_err < self.tol

    def worst(self) -> ParamCheck | None:
        return max(self.checks, key=lambda c: c.max_rel_err, default=None)


def gradcheck_model(model: SRRNet, size: int = 32, samples_per_param: int = 4,
                    tol: float = DEFAULT_TOL, seed: int = 0) -> GradCheckReport:
    """Check the training loss's gradient for every parameter tensor on a random triplet.

    Entries are sampled per tensor (deterministically from the seed). Inputs
    are drawn in [-1, 1] at a reduced spatial extent to keep the full sweep
    fast; the graph is identical in structure at any valid extent.
    """
    check_extent("size", size)
    if samples_per_param < 1:
        raise ConfigurationError(f"samples_per_param must be at least 1, got {samples_per_param}")
    if not (math.isfinite(tol) and tol > 0):  # no error reaches an infinite tolerance
        raise ConfigurationError(f"tol must be finite and positive, got {tol}")
    rng = np.random.default_rng(seed)
    triplet = FrameTriplet(
        Tensor(rng.uniform(-1.0, 1.0, size=(1, 3, size, size))),
        Tensor(rng.uniform(-1.0, 1.0, size=(1, 4, size, size))),
        Tensor(rng.uniform(-1.0, 1.0, size=(1, 4, size, size))),
    )
    gt = (rng.random((1, 1, size, size)) > 0.5).astype(np.float64)

    # Two stop-gradient boundaries make the raw training loss unsuitable for
    # naive finite differencing: the error target comes from the argmax mask
    # (piecewise constant), and the error branch reads the mask logits through
    # a detach. Freeze both at their unperturbed values; the derivative being
    # checked is exactly the one backward computes. The loss replaces only the
    # two outputs it differentiates in ``pred0``, so both stay frozen there.
    with T.no_grad():
        pred0 = model(triplet)

    def loss_fn() -> Tensor:
        dec = model.decoder
        f = dec.fuse(model.backbone(triplet), dec.collapse())
        _, logits_full, _ = dec.predict_mask(f, size, size)
        pred = replace(pred0, supervision_logits=logits_full,
                       o_err=dec.predict_error(f, pred0.mask_logits))
        return compute_loss(pred, gt, GAMMA)[0]

    report = GradCheckReport(tol=tol)
    params = list(model.named_parameters())
    model.zero_grad()
    T.backward(loss_fn())
    analytic = {name: (p.grad.reshape(-1).copy() if p.grad is not None
                       else np.zeros(p.size))
                for name, p in params}
    for name, p in params:
        n = min(samples_per_param, p.size)
        indices = sorted(rng.choice(p.size, size=n, replace=False).tolist())
        worst = 0.0
        for i in indices:
            fd = fd_gradient(loss_fn, p.data, i)
            worst = max(worst, relative_error(fd, analytic[name][i]))
        report.checks.append(ParamCheck(name=name, max_rel_err=worst))
    model.zero_grad()
    return report
