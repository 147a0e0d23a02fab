"""Layers, parameter registration, the optimizer, and checkpoint round-trips."""

import dataclasses
import os
import re
import subprocess
import sys
import textwrap
import zipfile
from pathlib import Path

import numpy as np
import pytest

import srrnet
from srrnet import tensor as T
from srrnet.attention import ATTENTION_MODES
from srrnet.decoder import ERROR_TARGETS
from srrnet.model import SRRNet, build_model, load_model, preset_config
from srrnet.nn import (
    AdamW,
    Conv2d,
    LayerNorm,
    Linear,
    Mlp,
    Module,
    Parameter,
    count_parameters,
    load_checkpoint,
    save_checkpoint,
)
from srrnet.tensor import ConfigurationError, Tensor

from conftest import assert_grad_matches
from test_backbone import make_triplet


class TinyNet(Module):
    def __init__(self, rng):
        self.fc = Linear(4, 3, rng)
        self.norm = LayerNorm(3)
        self.blocks = [Mlp(3, 6, rng), Mlp(3, 6, rng)]

    def __call__(self, x):
        y = self.norm(self.fc(x))
        for b in self.blocks:
            y = y + b(y)
        return y


def test_named_parameters_are_deterministic_and_hierarchical(rng):
    net = TinyNet(rng)
    names = [n for n, _ in net.named_parameters()]
    assert names == [
        "fc.weight", "fc.bias",
        "norm.gamma", "norm.beta",
        "blocks.0.fc1.weight", "blocks.0.fc1.bias",
        "blocks.0.fc2.weight", "blocks.0.fc2.bias",
        "blocks.1.fc1.weight", "blocks.1.fc1.bias",
        "blocks.1.fc2.weight", "blocks.1.fc2.bias",
    ]
    # fc 15, norm 6, each mlp (3*6+6) + (6*3+3) = 45
    assert count_parameters(net) == 15 + 6 + 2 * 45


def test_linear_matches_manual(rng):
    lin = Linear(4, 3, rng)
    x = rng.normal(size=(2, 4))
    np.testing.assert_allclose(lin(Tensor(x)).data,
                               x @ lin.weight.data + lin.bias.data, atol=1e-14)


def test_linear_runs_a_batch_in_one_gemm(rng, monkeypatch):
    lin = Linear(32, 48, rng)
    x = rng.normal(size=(2, 64, 32))
    calls = []
    real = srrnet.nn.matmul
    monkeypatch.setattr(srrnet.nn, "matmul", lambda a, b: calls.append(a.shape) or real(a, b))
    stacked = lin(Tensor(x)).data
    assert calls == [(2, 64, 32)]
    items = np.concatenate([lin(Tensor(x[i:i + 1])).data for i in range(2)])
    np.testing.assert_array_equal(stacked, items)


def test_trunc_normal_init_is_clipped(rng):
    lin = Linear(64, 64, rng)
    assert np.abs(lin.weight.data).max() <= 0.04 + 1e-12
    assert np.all(lin.bias.data == 0.0)


def test_module_grads_match_fd(rng):
    net = TinyNet(rng)
    x = Tensor(rng.normal(size=(2, 4)))
    w = rng.normal(size=(2, 3))
    loss = lambda: T.tensor_sum(net(x) * Tensor(w))
    for _, p in net.named_parameters():
        assert_grad_matches(loss, p, rtol=1e-4, atol=1e-6)


def test_conv2d_module_matches_primitive(rng):
    conv = Conv2d(2, 3, 3, rng, stride=2, padding=1)
    x = rng.normal(size=(1, 2, 8, 8))
    expected = T.conv2d(Tensor(x), conv.weight, conv.bias, stride=2, padding=1).data
    np.testing.assert_array_equal(conv(Tensor(x)).data, expected)


def test_zero_grad_clears_everything(rng):
    net = TinyNet(rng)
    T.backward(T.tensor_sum(net(Tensor(rng.normal(size=(1, 4))))))
    assert any(p.grad is not None for p in net.parameters())
    net.zero_grad()
    assert all(p.grad is None for p in net.parameters())


# ---------------------------------------------------------------------------
# optimizer


def test_adamw_first_step_matches_hand_computation():
    p = Parameter(np.array([1.0, -2.0]))
    p.grad = np.array([0.5, -0.25])
    opt = AdamW([p], lr=0.1)
    opt.step()
    # With bias correction the first step moves by lr * (g / (|g| + eps) + 0.01 * p).
    w0, g = np.array([1.0, -2.0]), np.array([0.5, -0.25])
    expected = w0 - 0.1 * (g / (np.abs(g) + 1e-8) + 0.01 * w0)
    np.testing.assert_allclose(p.data, expected, atol=1e-12)


def test_adamw_weight_decay_is_decoupled():
    p = Parameter(np.array([2.0]))
    p.grad = np.array([0.0])
    opt = AdamW([p], lr=0.1)
    opt.step()
    # Zero gradient: only the decay term moves the weight.
    np.testing.assert_allclose(p.data, 2.0 - 0.1 * 0.01 * 2.0, atol=1e-12)


def test_adamw_reduces_quadratic_loss(rng):
    p = Parameter(rng.normal(size=5))
    opt = AdamW([p], lr=0.05)
    first = float((p.data ** 2).sum())
    for _ in range(200):
        loss = T.tensor_sum(p * p)
        p.grad = None
        T.backward(loss)
        opt.step()
    assert float((p.data ** 2).sum()) < first * 1e-2


def test_adamw_rejects_negative_lr():
    for lr in (-1.0, float("nan"), float("inf"), float("-inf")):
        with pytest.raises(ConfigurationError, match="lr must be finite and non-negative"):
            AdamW([Parameter(np.zeros(1))], lr=lr)


# ---------------------------------------------------------------------------
# checkpoints


def test_checkpoint_round_trip(tmp_path, rng):
    net = TinyNet(rng)
    path = tmp_path / "ckpt.npz"
    save_checkpoint(path, net)
    other = TinyNet(np.random.default_rng(999))
    assert not np.array_equal(other.fc.weight.data, net.fc.weight.data)
    load_checkpoint(path, other)
    for (_, a), (_, b) in zip(net.named_parameters(), other.named_parameters()):
        np.testing.assert_array_equal(a.data, b.data)
        # the optimizer and gradcheck write parameters in place
        assert b.data.dtype == np.float64 and b.data.flags.writeable


@pytest.mark.parametrize("value", [np.nan, -np.inf])
def test_checkpoint_refuses_non_finite_parameters_naming_the_first(tmp_path, rng, value):
    net = TinyNet(rng)
    params = list(net.named_parameters())
    for _, p in params[2:]:
        p.data.flat[-1] = value
    with pytest.raises(ValueError, match=rf"parameter {re.escape(params[2][0])} is not finite"):
        save_checkpoint(tmp_path / "ckpt.npz", net)
    assert not (tmp_path / "ckpt.npz").exists()


def test_checkpoint_rejects_mismatched_model(tmp_path, rng):
    net = TinyNet(rng)
    path = tmp_path / "ckpt.npz"
    save_checkpoint(path, net)
    with pytest.raises(ValueError, match="mismatch"):
        load_checkpoint(path, Linear(4, 3, rng))


def test_checkpoint_rejects_unknown_version(tmp_path, rng):
    net = TinyNet(rng)
    arrays = {"__format_version__": np.asarray([99], dtype="<i8")}
    for name, p in net.named_parameters():
        arrays[name] = p.data
    path = tmp_path / "bad.npz"
    np.savez(path, **arrays)
    with pytest.raises(ValueError, match="version"):
        load_checkpoint(path, net)


def test_checkpoint_stores_little_endian_float64(tmp_path, rng):
    net = TinyNet(rng)
    path = tmp_path / "ckpt.npz"
    save_checkpoint(path, net)
    with np.load(path) as blob:
        assert int(blob["__format_version__"][0]) == 2
        assert blob["fc.weight"].dtype == np.dtype("<f8")


class Arrays(Module):
    """A bare module of parameters with the given shapes."""

    def __init__(self, shapes, fill: float = 0.0):
        for i, shape in enumerate(shapes):
            setattr(self, f"w{i}", Parameter(np.full(shape, fill + i)))


@pytest.mark.parametrize("shapes", [
    [(2, 3), (4,), (5, 4)],          # the last parameter has another shape
    [(2, 3), (4,), (5, 5), (1,)],    # one parameter more than the file holds
    [(2, 3), (4,)],                  # one parameter fewer
])
def test_failed_load_leaves_the_model_unchanged(tmp_path, shapes):
    path = tmp_path / "ckpt.npz"
    save_checkpoint(path, Arrays([(2, 3), (4,), (5, 5)], fill=7.0))
    target = Arrays(shapes)
    before = {name: (p.data, p.data.copy()) for name, p in target.named_parameters()}
    with pytest.raises(ValueError, match="mismatch"):
        load_checkpoint(path, target)
    for name, p in target.named_parameters():
        array, values = before[name]
        assert p.data is array, name
        np.testing.assert_array_equal(p.data, values, err_msg=name)


def _write_npz(path, arrays: dict, config="null"):
    """A checkpoint written by plain ``np.savez``, as another writer might."""
    np.savez(path, __format_version__=np.asarray([2], dtype="<i8"),
             __config__=np.asarray(config), **arrays)


def test_load_reads_fortran_ordered_and_float32_arrays(tmp_path):
    w0 = np.asfortranarray(np.arange(6.0).reshape(2, 3))
    w1 = np.arange(4, dtype=np.float32)
    path = tmp_path / "foreign.npz"
    _write_npz(path, {"w0": w0, "w1": w1})
    target = Arrays([(2, 3), (4,)])
    load_checkpoint(path, target)
    np.testing.assert_array_equal(target.w0.data, w0)
    np.testing.assert_array_equal(target.w1.data, w1)
    assert target.w1.data.dtype == np.float64


def test_load_refuses_truncated_array_data(tmp_path):
    path = tmp_path / "short.npz"
    _write_npz(path, {"w0": np.zeros(6)})
    with zipfile.ZipFile(path) as src, zipfile.ZipFile(tmp_path / "cut.npz", "w") as dst:
        for item in src.infolist():
            data = src.read(item)
            if item.filename == "w0.npy":
                data = data[:-8]  # the header still promises six values
            dst.writestr(item, data)
    with pytest.raises(ValueError, match="truncated"):
        load_checkpoint(tmp_path / "cut.npz", Arrays([(6,)]))


def test_config_mismatch_leaves_the_model_unchanged(tmp_path):
    path = tmp_path / "model.npz"
    save_checkpoint(path, build_model("desk", seed=1))
    target = build_model("desk", seed=2, error_target="signed")
    before = [p.data.copy() for p in target.parameters()]
    with pytest.raises(ValueError, match="decoder.error_target"):
        load_checkpoint(path, target)
    for p, values in zip(target.parameters(), before):
        np.testing.assert_array_equal(p.data, values)


LOAD_PROBE = """
import sys
import numpy as np
from srrnet.nn import Module, Parameter, load_checkpoint

def peak_bytes():
    # VmHWM is this address space's own high-water mark; ru_maxrss would
    # start at the forking parent's peak
    with open("/proc/self/status") as f:
        line = next(line for line in f if line.startswith("VmHWM:"))
    return int(line.split()[1]) * 1024

class Arrays(Module):
    def __init__(self, n, size):
        for i in range(n):
            setattr(self, f"w{i}", Parameter(np.full(size, -1.0 - i)))

model = Arrays(int(sys.argv[2]), int(sys.argv[3]))
before = peak_bytes()
load_checkpoint(sys.argv[1], model)
rise = peak_bytes() - before
assert all((p.data == i).all() for i, p in enumerate(model.parameters()))
print(rise)
"""


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="needs Linux /proc")
def test_load_reads_one_parameter_at_a_time(tmp_path):
    """Loading raises the peak resident size by about one parameter, not the file.

    The child process builds a model of four 16 MB parameters and loads a
    checkpoint of the same shapes into it. Reading every array before
    assigning any would raise the peak by the whole 64 MB checkpoint.
    """
    n, size = 4, 2 * 1024 * 1024
    path = tmp_path / "big.npz"
    save_checkpoint(path, Arrays([(size,)] * n))
    checkpoint_bytes = n * size * 8
    src = str(Path(srrnet.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run([sys.executable, "-c", textwrap.dedent(LOAD_PROBE), str(path),
                           str(n), str(size)], env=env, capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == 0, done.stderr
    rise = int(done.stdout.split()[-1])
    assert rise < 0.5 * checkpoint_bytes, (rise, checkpoint_bytes)


# ---------------------------------------------------------------------------
# model checkpoints carry the model's config


@pytest.mark.parametrize("error_target", ERROR_TARGETS)
@pytest.mark.parametrize("attention_mode", ATTENTION_MODES)
def test_load_model_rebuilds_the_saved_model(tmp_path, attention_mode, error_target):
    net = build_model("desk", attention_mode=attention_mode, seed=3,
                      error_target=error_target)
    path = tmp_path / "model.npz"
    save_checkpoint(path, net)
    loaded = load_model(path)
    assert dataclasses.asdict(loaded.config) == dataclasses.asdict(net.config)
    for (name, a), (other, b) in zip(net.named_parameters(), loaded.named_parameters()):
        assert name == other
        np.testing.assert_array_equal(a.data, b.data)
    triplet = make_triplet(np.random.default_rng(5), size=32)
    with T.no_grad():
        expected, got = net(triplet), loaded(triplet)
    np.testing.assert_array_equal(got.o_err.data, expected.o_err.data)
    np.testing.assert_array_equal(got.supervision_logits.data,
                                  expected.supervision_logits.data)


def test_load_model_draws_no_weights_it_overwrites(tmp_path, monkeypatch):
    net = build_model("desk", seed=3)
    path = tmp_path / "model.npz"
    save_checkpoint(path, net)

    def no_generator(*args, **kwargs):
        raise AssertionError("a random generator was created")

    # Generator.normal cannot be patched (numpy's Generator is an immutable
    # type), so refuse to create any generator at all.
    monkeypatch.setattr(np.random, "default_rng", no_generator)
    blank = SRRNet(preset_config("desk"))
    assert all(not p.data.any() for name, p in blank.named_parameters()
               if not name.endswith(".gamma"))  # LayerNorm scales start at one
    loaded = load_model(path)
    for (name, a), (other, b) in zip(net.named_parameters(), loaded.named_parameters()):
        assert name == other
        np.testing.assert_array_equal(a.data, b.data)


@pytest.mark.parametrize("field, saved, built", [
    ("attention_mode", "rma", "full"),
    ("decoder.error_target", "absolute", "signed"),
    ("decoder.ch_double_prime", 32, 16),
    ("stages.0.depth", 1, 2),
    ("stages.2.attention.sr_ratio", 1, 2),
])
def test_checkpoint_refuses_a_model_with_another_config(tmp_path, field, saved, built):
    path = tmp_path / "model.npz"
    save_checkpoint(path, SRRNet(preset_config("desk")))
    cfg = preset_config("desk")
    *owners, leaf = field.split(".")
    owner = cfg
    for key in owners:
        owner = owner[int(key)] if key.isdigit() else getattr(owner, key)
    setattr(owner, leaf, built)
    with pytest.raises(ValueError) as exc:
        load_checkpoint(path, SRRNet(cfg))
    message = str(exc.value)
    assert f"holds a model with {field}={saved!r}" in message
    assert f"the model to load has {field}={built!r}" in message


def test_checkpoint_refuses_format_1(tmp_path):
    net = build_model("desk", seed=0)
    arrays = {"__format_version__": np.asarray([1], dtype="<i8")}
    arrays.update((name, p.data) for name, p in net.named_parameters())
    path = tmp_path / "old.npz"
    np.savez(path, **arrays)
    for load in (lambda: load_checkpoint(path, net), lambda: load_model(path)):
        with pytest.raises(ValueError, match="format 1, which predates the stored model config"):
            load()
