"""Shared fixtures and independent finite-difference oracles."""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
import textwrap
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

import srrnet
from srrnet import tensor as T

# Property tests draw the same examples on every run, so tier-1 stays
# deterministic and its runtime bounded; no per-example deadline, because a
# shared host's timing would make them flaky.
settings.register_profile("tier1", derandomize=True, deadline=None)
settings.load_profile("tier1")


def fd_grad(loss_fn, tensor, step: float = 1e-6) -> np.ndarray:
    """Independent central-difference gradient oracle over every entry.

    Deliberately separate from the package's own gradcheck module so that the
    two implementations cross-check each other.
    """
    flat = tensor.data.reshape(-1)
    grad = np.zeros_like(flat)
    for i in range(flat.size):
        original = flat[i]
        with T.no_grad():
            flat[i] = original + step
            f_plus = float(loss_fn().data)
            flat[i] = original - step
            f_minus = float(loss_fn().data)
        flat[i] = original
        grad[i] = (f_plus - f_minus) / (2.0 * step)
    return grad.reshape(tensor.data.shape)


def analytic_grad(loss_fn, tensor) -> np.ndarray:
    tensor.grad = None
    loss = loss_fn()
    T.backward(loss)
    assert tensor.grad is not None, "no gradient reached the probed tensor"
    return tensor.grad.copy()


def assert_grad_matches(loss_fn, tensor, step: float = 1e-6,
                        rtol: float = 1e-5, atol: float = 1e-7):
    a = analytic_grad(loss_fn, tensor)
    f = fd_grad(loss_fn, tensor, step=step)
    np.testing.assert_allclose(a, f, rtol=rtol, atol=atol)


def parameter_digest(model) -> str:
    """sha256 over every named parameter: its name, a NUL, then its bytes in C order.

    The scheme of the benchmark's training digest, without the loss trace.
    """
    digest = hashlib.sha256()
    for name, p in model.named_parameters():
        digest.update(name.encode() + b"\0" + np.ascontiguousarray(p.data).tobytes())
    return digest.hexdigest()


acceptance_lines: list[str] = []
"""Verdict lines recorded by tests/test_acceptance.py, echoed after the run."""


def pytest_terminal_summary(terminalreporter):
    if acceptance_lines:
        terminalreporter.section("acceptance criteria")
        for line in acceptance_lines:
            terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def desk_model():
    from srrnet.model import build_model
    return build_model("desk", seed=0)


def desk_tape_bytes(size: int = 128) -> int:
    """tracemalloc bytes still held after a desk forward plus ``compute_loss`` at ``size`` px.

    The model and the inputs are built before tracing starts, so the count is
    the tape the backward would walk: every node's data and what its closure
    keeps. Counted with tracemalloc in this process, so it repeats exactly.
    """
    from srrnet.backbone import FrameTriplet
    from srrnet.model import build_model
    from srrnet.pipeline import compute_loss
    model = build_model("desk", seed=0)
    rng = np.random.default_rng(0)
    triplet = FrameTriplet(T.Tensor(rng.uniform(size=(1, 3, size, size))),
                           T.Tensor(rng.uniform(size=(1, 4, size, size))),
                           T.Tensor(rng.uniform(size=(1, 4, size, size))))
    gt = (rng.uniform(size=(1, 1, size, size)) > 0.5).astype(np.float64)
    tracemalloc.start()
    try:
        loss, _ = compute_loss(model(triplet), gt, 1.0, model.config.decoder.error_target)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert loss.requires_grad
    return held


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


PEAK_BYTES = """
def _status_bytes(key):
    with open("/proc/self/status") as f:
        line = next(line for line in f if line.startswith(key))
    return int(line.split()[1]) * 1024

def peak_bytes():
    # VmHWM is this address space's own high-water mark; ru_maxrss would
    # start at the forking parent's peak
    return _status_bytes("VmHWM:")

def resident_bytes():
    # VmRSS now; a rise of peak_bytes() over it is not hidden by an earlier,
    # already freed peak (such as the imports')
    return _status_bytes("VmRSS:")
"""

needs_proc = pytest.mark.skipif(not Path("/proc/self/status").exists(),
                                reason="needs Linux /proc")


def run_peak_probe(script: str, *argv) -> str:
    """Run ``script`` in a fresh interpreter and return its stdout.

    The child imports this tree's ``srrnet`` and has ``peak_bytes()``, its
    own peak resident size, and ``resident_bytes()``, its resident size now,
    defined before ``script`` runs.
    """
    src = str(Path(srrnet.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run([sys.executable, "-c", PEAK_BYTES + textwrap.dedent(script),
                           *map(str, argv)], env=env, capture_output=True, text=True,
                          timeout=300)
    assert done.returncode == 0, done.stderr
    return done.stdout
