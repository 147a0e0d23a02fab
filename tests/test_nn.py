"""Layers, parameter registration, the optimizer, and checkpoint round-trips."""

import dataclasses
import json
import re
import tempfile
import zipfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

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

from conftest import assert_grad_matches, needs_proc, parameter_digest, run_peak_probe
from keep_per_parameter import PerParameterAdamW
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
    monkeypatch.setattr(srrnet.nn, "matmul", lambda a, b, bias=None: calls.append(a.shape) or real(a, b, bias))
    stacked = lin(Tensor(x)).data
    assert calls == [(2, 64, 32)]
    items = np.concatenate([lin(Tensor(x[i:i + 1])).data for i in range(2)])
    np.testing.assert_array_equal(stacked, items)


def test_trunc_normal_init_is_clipped():
    lin = Linear(64, 64, np.random.default_rng(12345))
    assert np.abs(lin.weight.data).max() <= 0.04 + 1e-12
    assert np.all(lin.bias.data == 0.0)
    # the in-place clip keeps the draws and their order: bitwise the plain formula
    expected = np.clip(np.random.default_rng(12345).normal(0.0, 0.02, (64, 64)), -0.04, 0.04)
    np.testing.assert_array_equal(lin.weight.data, expected)
    assert (np.abs(expected) == 0.04).any()  # some draws were clipped


# sha256 of each build's parameters (conftest.parameter_digest); a change to the
# draws, their order or their arithmetic changes every output after it
BUILD_DIGESTS = {
    ("desk", 0): "e56e1641fcd76dbd4b8df6e45813c7d84c879b2685729a3b2163c1ad95ee5d39",
    ("desk", 17): "b9861a5050b0eac5d889572e5f73fb9d17f29ac00e37bbcee0c7f25c8afdb0db",
    ("full", 0): "804a70f2a34f3f09ddfe3d16c72675ed9b68497fcec7f053ab1ed2fd1a3e8e16",
}


@pytest.mark.parametrize("preset, seed", list(BUILD_DIGESTS))
def test_build_model_draws_are_pinned(preset, seed):
    assert parameter_digest(build_model(preset, seed=seed)) == BUILD_DIGESTS[preset, seed]


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


def test_adamw_updates_its_moments_in_place(rng):
    params = [Parameter(rng.normal(size=(3, 4))), Parameter(rng.normal(size=5))]
    opt = AdamW(params, lr=0.1)
    m, v = opt._m, opt._v
    assert m.shape == v.shape == (17,)  # one flat moment each, in parameter order
    m_ref, v_ref = np.zeros(17), np.zeros(17)
    for _ in range(3):
        for p in params:
            p.grad = rng.normal(size=p.data.shape)
        opt.step()
        # the same operations, in the same order, as freshly allocated arrays
        g = np.concatenate([p.grad.reshape(-1) for p in params])
        m_ref = 0.9 * m_ref + (1.0 - 0.9) * g
        v_ref = 0.999 * v_ref + (1.0 - 0.999) * g * g
    assert opt._m is m and opt._v is v
    np.testing.assert_array_equal(m, m_ref)
    np.testing.assert_array_equal(v, v_ref)


def _bitwise(a: np.ndarray, b: np.ndarray) -> bool:
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


@given(shapes=st.lists(st.tuples(st.integers(1, 4), st.integers(0, 9)), min_size=1, max_size=6),
       chunk=st.integers(1, 40), steps=st.integers(1, 4), lr=st.sampled_from([0.0, 1e-3, 0.1]),
       seed=st.integers(0, 2 ** 16), data=st.data())
@settings(max_examples=60, deadline=None)
def test_flat_adamw_equals_the_per_parameter_oracle(shapes, chunk, steps, lr, seed, data):
    """Parameters and both moments equal the per-parameter loop's, byte for byte,
    with chunks that straddle parameters, gradients missing at random, and
    gradients assigned directly, transposed views among them."""
    gen = np.random.default_rng(seed)
    values = [gen.normal(size=shape) for shape in shapes]
    params = [Parameter(x.copy()) for x in values]
    oracle = PerParameterAdamW([Parameter(x.copy()) for x in values], lr)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(srrnet.nn, "ADAMW_CHUNK", chunk)
        opt = AdamW(params, lr)
        ends = np.cumsum([x.size for x in values]).tolist()
        for _ in range(steps):
            present = data.draw(st.lists(st.booleans(), min_size=len(shapes), max_size=len(shapes)))
            before = [(p.data.copy(), opt._m[a:b].copy(), opt._v[a:b].copy())
                      for p, a, b in zip(params, [0] + ends, ends)]
            for p, q, shape, has in zip(params, oracle.params, shapes, present):
                if not has:
                    p.grad = q.grad = None
                elif data.draw(st.booleans()):  # a transposed view, not C-contiguous
                    p.grad = gen.normal(size=shape[::-1]).T
                    q.grad = p.grad.copy()
                else:
                    p.grad = gen.normal(size=shape)
                    q.grad = p.grad.copy()
            opt.step()
            oracle.step()
            for i, (p, a, b) in enumerate(zip(params, [0] + ends, ends)):
                assert _bitwise(p.data, oracle.params[i].data), i
                assert _bitwise(opt._m[a:b], oracle._m[i].reshape(-1)), i
                assert _bitwise(opt._v[a:b], oracle._v[i].reshape(-1)), i
                if not present[i]:  # no gradient: the value and both moments stay
                    for now, was in zip((p.data, opt._m[a:b], opt._v[a:b]), before[i]):
                        assert _bitwise(now, was), i


def test_adamw_packs_its_parameters_into_one_buffer(rng):
    params = [Parameter(rng.normal(size=(2, 3))), Parameter(rng.normal(size=4))]
    values = [p.data.copy() for p in params]
    opt = AdamW(params, lr=0.1)
    np.testing.assert_array_equal(opt._flat, np.concatenate([x.reshape(-1) for x in values]))
    for p, x in zip(params, values):
        assert p.data.base is opt._flat and p.data.flags.c_contiguous
        np.testing.assert_array_equal(p.data, x)
    second = AdamW(params[::-1], lr=0.1)  # a later optimizer packs the list anew
    np.testing.assert_array_equal(second._flat, np.concatenate([x.reshape(-1) for x in values[::-1]]))
    for p, x in zip(params, values):
        assert p.data.base is second._flat
        np.testing.assert_array_equal(p.data, x)


def test_adamw_refuses_a_parameter_listed_twice(rng):
    a, b = Parameter(rng.normal(size=(2, 3))), Parameter(rng.normal(size=4))
    array = a.data
    with pytest.raises(ConfigurationError,
                       match=r"parameter 2 \(shape \(2, 3\)\) is parameter 0 listed again"):
        AdamW([a, b, a], lr=0.1)
    assert a.data is array  # refused before anything is packed


def test_load_checkpoint_reads_into_the_packed_arrays(tmp_path, rng):
    net = TinyNet(rng)
    opt = AdamW(net.parameters(), lr=0.1)
    arrays = [p.data for p in net.parameters()]
    donor = TinyNet(np.random.default_rng(999))
    save_checkpoint(tmp_path / "ckpt.npz", donor)
    load_checkpoint(tmp_path / "ckpt.npz", net)
    for p, array, want in zip(net.parameters(), arrays, donor.parameters()):
        assert p.data is array and p.data.base is opt._flat
        np.testing.assert_array_equal(p.data, want.data)


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
    arrays = [p.data for p in other.parameters()]
    load_checkpoint(path, other)
    for (_, a), (_, b), array in zip(net.named_parameters(), other.named_parameters(), arrays):
        np.testing.assert_array_equal(a.data, b.data)
        assert b.data is array  # read into the array the module was built with
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
    assert not list(tmp_path.iterdir())  # neither the checkpoint nor a temporary file


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
        assert sorted(blob.files) == ["__config__", "__format_version__", "__index__",
                                      "__params__"]
        assert int(blob["__format_version__"][0]) == 3
        index = json.loads(str(blob["__index__"]))
        params = blob["__params__"]
    named = list(net.named_parameters())
    assert index == [[name, list(p.data.shape)] for name, p in named]
    assert params.dtype == np.dtype("<f8") and params.ndim == 1
    np.testing.assert_array_equal(params, np.concatenate([p.data.ravel() for _, p in named]))


def test_save_stores_members_uncompressed(tmp_path, rng):
    """As ``np.savez`` does, so a load reads the parameters' bytes as they are."""
    path = tmp_path / "ckpt.npz"
    save_checkpoint(path, TinyNet(rng))
    with zipfile.ZipFile(path) as archive:
        assert {info.compress_type for info in archive.infolist()} == {zipfile.ZIP_STORED}


def test_save_writes_exactly_the_given_path(tmp_path, rng):
    net = TinyNet(rng)
    path = tmp_path / "run" / "ckpt"  # no .npz suffix is added
    path.parent.mkdir()
    save_checkpoint(path, net)
    assert [p.name for p in path.parent.iterdir()] == ["ckpt"]
    other = TinyNet(np.random.default_rng(7))
    load_checkpoint(path, other)
    assert parameter_digest(other) == parameter_digest(net)


def test_an_interrupted_save_leaves_the_old_checkpoint_whole(tmp_path, rng, monkeypatch):
    path = tmp_path / "ckpt.npz"
    save_checkpoint(path, TinyNet(rng))
    old = path.read_bytes()

    def fail(*args):  # after the small members, before the parameters' bytes
        raise OSError("no space left on device")

    monkeypatch.setattr(np.lib.format, "write_array_header_1_0", fail)
    with pytest.raises(OSError, match="no space left"):
        save_checkpoint(path, TinyNet(np.random.default_rng(7)))
    assert path.read_bytes() == old
    assert [p.name for p in tmp_path.iterdir()] == ["ckpt.npz"]


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


def _write_npz(path, arrays: dict, dtype="<f8", config="null"):
    """A format-3 checkpoint of ``arrays`` written by plain ``np.savez``, as another writer might."""
    index = [[name, list(np.shape(a))] for name, a in arrays.items()]
    flat = np.concatenate([np.ravel(a) for a in arrays.values()] + [np.zeros(0)])
    np.savez(path, __format_version__=np.asarray([3], dtype="<i8"),
             __config__=np.asarray(config), __index__=np.asarray(json.dumps(index)),
             __params__=flat.astype(dtype))


@pytest.mark.parametrize("dtype", [">f8", "<f4"])
def test_load_reads_a_byte_swapped_or_float32_member(tmp_path, dtype):
    w0 = np.arange(6.0).reshape(2, 3) + 0.1  # float32 -> float64 is exact after the cast
    w1 = np.arange(4.0) - 0.5
    path = tmp_path / "foreign.npz"
    _write_npz(path, {"w0": w0, "w1": w1}, dtype=dtype)
    target = Arrays([(2, 3), (4,)])
    arrays = [p.data for p in target.parameters()]
    load_checkpoint(path, target)
    np.testing.assert_array_equal(target.w0.data, w0.astype(dtype))
    np.testing.assert_array_equal(target.w1.data, w1.astype(dtype))
    for p, array in zip(target.parameters(), arrays):
        assert p.data is array and p.data.dtype == np.float64


def _rewrite_member(path, out, name: str, edit):
    """Copy the checkpoint at ``path`` to ``out`` with member ``name``'s bytes edited."""
    with zipfile.ZipFile(path) as src, zipfile.ZipFile(out, "w") as dst:
        for item in src.infolist():
            data = src.read(item)
            dst.writestr(item, edit(data) if item.filename == name else data)


def _assert_load_refused(path, shapes, match: str):
    """Loading ``path`` into fresh ``Arrays(shapes)`` raises and changes no parameter."""
    target = Arrays(shapes)
    before = [(p.data, p.data.copy()) for p in target.parameters()]
    with pytest.raises(ValueError, match=match):
        load_checkpoint(path, target)
    for p, (array, values) in zip(target.parameters(), before):
        assert p.data is array
        np.testing.assert_array_equal(p.data, values)


def test_load_refuses_truncated_array_data(tmp_path):
    path = tmp_path / "short.npz"
    # w0's bytes come first, so a refusal found only while reading w1 would leave w0 written
    _write_npz(path, {"w0": np.full(3, 7.0), "w1": np.zeros(6)})
    _rewrite_member(path, tmp_path / "cut.npz", "__params__.npy",
                    lambda data: data[:-8])  # the header still promises nine values
    _assert_load_refused(tmp_path / "cut.npz", [(3,), (6,)],
                         "__params__ is truncated or corrupt: it holds 64 data bytes")


@pytest.mark.parametrize("case", ["padded", "complex", "count"])
def test_load_refuses_an_array_it_cannot_read_exactly_naming_it(tmp_path, case):
    bad = tmp_path / "bad.npz"
    if case == "padded":  # data bytes beyond what the header promises
        _write_npz(tmp_path / "ckpt.npz", {"w0": np.full(3, 7.0), "w1": np.zeros(6)})
        _rewrite_member(tmp_path / "ckpt.npz", bad, "__params__.npy",
                        lambda data: data + bytes(8))
        match = "__params__ is truncated or corrupt: it holds 80 data bytes"
    elif case == "complex":  # a dtype that does not cast to the parameters'
        _write_npz(bad, {"w0": np.full(3, 7.0), "w1": np.zeros(6)}, dtype=complex)
        match = "__params__ holds complex128, which does not cast to the model's float64"
    else:  # a whole member with one value more than the index lists
        _write_npz(tmp_path / "ckpt.npz", {"w0": np.full(3, 7.0), "w1": np.zeros(7)})
        with np.load(tmp_path / "ckpt.npz") as blob:
            members = {name: blob[name] for name in blob.files}
        members["__index__"] = np.asarray(json.dumps([["w0", [3]], ["w1", [6]]]))
        np.savez(bad, **members)
        match = r"__params__ has shape \(10,\), but its index lists 9 values"
    _assert_load_refused(bad, [(3,), (6,)], match)


def test_load_reads_in_stored_order_whatever_the_attribute_order(tmp_path):
    shapes = [(2, 3), (4,), (5,)]
    path = tmp_path / "ckpt.npz"
    save_checkpoint(path, Arrays(shapes, fill=7.0))
    reordered = Module()
    for i in (2, 1, 0):
        setattr(reordered, f"w{i}", Parameter(np.zeros(shapes[i])))
    load_checkpoint(path, reordered)
    for i, shape in enumerate(shapes):
        np.testing.assert_array_equal(getattr(reordered, f"w{i}").data, np.full(shape, 7.0 + i))


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


@needs_proc
def test_load_reads_one_parameter_at_a_time(tmp_path):
    """Loading raises the peak resident size by well under one parameter.

    The child process builds a model of four 16 MB parameters and loads a
    checkpoint of the same shapes into it. Each array is read into the
    parameter's own bytes, so the load allocates no parameter-sized array;
    a new array per parameter would raise the peak by one parameter, and
    reading every array before assigning any by the whole 64 MB checkpoint.
    """
    n, size = 4, 2 * 1024 * 1024
    path = tmp_path / "big.npz"
    save_checkpoint(path, Arrays([(size,)] * n))
    parameter_bytes = size * 8
    rise = int(run_peak_probe(LOAD_PROBE, path, n, size).split()[-1])
    assert rise < 0.1 * parameter_bytes, (rise, parameter_bytes)


SAVE_PROBE = """
import sys
import numpy as np
from srrnet.nn import Module, Parameter, save_checkpoint

class Arrays(Module):
    def __init__(self, n, size):
        for i in range(n):
            setattr(self, f"w{i}", Parameter(np.full(size, 1.0 + i)))

model = Arrays(int(sys.argv[2]), int(sys.argv[3]))
before = peak_bytes()
save_checkpoint(sys.argv[1], model)
print(peak_bytes() - before)
"""


@needs_proc
def test_save_writes_one_parameter_at_a_time(tmp_path):
    """Saving raises the peak resident size by well under one parameter.

    The child process saves a model of four 16 MB parameters. Each
    parameter's bytes are written straight from its array, so the save
    allocates no parameter-sized array; the finiteness check's boolean mask
    is an eighth of one. ``np.savez`` copied each array in 16 MiB chunks, a
    whole parameter here, and one flat concatenated copy would be all four.
    """
    n, size = 4, 2 * 1024 * 1024
    rise = int(run_peak_probe(SAVE_PROBE, tmp_path / "big.npz", n, size).split()[-1])
    parameter_bytes = size * 8
    assert rise < 0.25 * parameter_bytes, (rise, parameter_bytes)
    with np.load(tmp_path / "big.npz") as blob:
        assert blob["__params__"].size == n * size


SETUP_PROBE = """
import sys
import numpy as np
from srrnet.nn import Conv2d, LayerNorm, Linear, Module, count_parameters, load_checkpoint
from srrnet.nn import save_checkpoint

class Mixed(Module):
    def __init__(self, rng):
        self.layers = []
        for c in (64, 128, 320, 512):
            self.layers += [LayerNorm(c), Linear(c, c, rng), Linear(c, 4 * c, rng),
                            Linear(4 * c, c, rng), Conv2d(c, c, 3, rng)]
        self.layers += [Linear(768, 3072, rng), Linear(3072, 768, rng)]

if sys.argv[2] == "save":
    save_checkpoint(sys.argv[1], Mixed(np.random.default_rng(99)))
    sys.exit()
before = peak_bytes()
for seed in range(3):  # as the benchmark's repeated set-ups do
    model = Mixed(np.random.default_rng(seed))
    load_checkpoint(sys.argv[1], model)
    parameter_bytes = count_parameters(model) * 8
    del model
print(parameter_bytes, peak_bytes() - before)
"""


@needs_proc
def test_repeated_build_and_load_peaks_at_one_model(tmp_path):
    """Three build+load set-ups in one process peak at one model's parameters.

    The child builds a module of mixed-size Linear/Conv2d/LayerNorm
    parameters (89 MiB), loads a checkpoint into it and drops it, three
    times. A second array per clipped draw or per loaded parameter raised
    the peak by 39% of the parameter bytes; drawn, clipped and loaded in
    one buffer each, the rise stays within 2%.
    """
    path = tmp_path / "mixed.npz"
    run_peak_probe(SETUP_PROBE, path, "save")
    parameter_bytes, rise = map(int, run_peak_probe(SETUP_PROBE, path, "load").split())
    assert rise < 1.02 * parameter_bytes, (rise, parameter_bytes)


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


def test_load_model_opens_its_checkpoint_once(tmp_path, monkeypatch):
    """One open archive serves the config and the parameters, and a refusal
    found in either still names the file."""
    net = build_model("desk", seed=3)
    good = tmp_path / "model.npz"
    save_checkpoint(good, net)
    with np.load(good) as blob:
        members = {name: blob[name] for name in blob.files}
    refusals = {"bare": "holds no model config",
                "unbuildable": "holds a model config that does not build a model",
                "index": "has a malformed parameter index",
                "dtype": "__params__ holds complex128, which does not cast"}
    save_checkpoint(tmp_path / "bare.npz", Arrays([(3,)]))
    np.savez(tmp_path / "unbuildable.npz", **{**members, "__config__": np.asarray('{"stages": []}')})
    np.savez(tmp_path / "index.npz", **{**members, "__index__": np.asarray("not json")})
    np.savez(tmp_path / "dtype.npz", **{**members,
                                        "__params__": members["__params__"].astype(complex)})
    opens = []
    real = np.load
    monkeypatch.setattr(np, "load", lambda path, *a, **k: opens.append(path) or real(path, *a, **k))
    load_model(good)
    assert opens == [good]
    for name, message in refusals.items():
        path = tmp_path / f"{name}.npz"
        opens.clear()
        with pytest.raises(ValueError, match=re.escape(f"checkpoint {path} {message}")):
            load_model(path)
        assert opens == [path]


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


def test_checkpoint_refuses_format_2(tmp_path):
    """Format 2 stored one ``.npy`` member per parameter beside the config."""
    net = build_model("desk", seed=0)
    arrays = {"__format_version__": np.asarray([2], dtype="<i8"),
              "__config__": np.asarray(json.dumps(dataclasses.asdict(net.config),
                                                  sort_keys=True))}
    arrays.update((name, p.data) for name, p in net.named_parameters())
    path = tmp_path / "old.npz"
    np.savez(path, **arrays)
    for load in (lambda: load_checkpoint(path, net), lambda: load_model(path)):
        with pytest.raises(ValueError, match=f"checkpoint {re.escape(str(path))} is format 2, "
                                             "which stores one member per parameter; retrain "
                                             "to write format 3"):
            load()


def test_a_load_opens_the_same_members_whatever_the_parameter_count(tmp_path, monkeypatch):
    opened = []
    real = zipfile.ZipFile.open
    monkeypatch.setattr(zipfile.ZipFile, "open",
                        lambda self, name, *a, **k: opened.append(name) or real(self, name, *a, **k))
    counts = []
    for n in (2, 50):
        path = tmp_path / f"{n}.npz"
        save_checkpoint(path, Arrays([(3,)] * n, fill=1.0))
        opened.clear()
        load_checkpoint(path, Arrays([(3,)] * n))
        counts.append(sorted(opened))
    members = ["__config__.npy", "__format_version__.npy", "__index__.npy", "__params__.npy"]
    assert counts == [members, members]


@settings(max_examples=30)
@given(shapes=st.lists(st.lists(st.integers(0, 3), max_size=3).map(tuple),
                       min_size=1, max_size=5),
       dtype=st.sampled_from(["<f8", ">f8", "<f4"]), seed=st.integers(0, 2 ** 32 - 1))
def test_checkpoint_round_trips_any_parameter_shapes(shapes, dtype, seed):
    """Size-0 and 0-d parameters included; ``<f8`` is ``save_checkpoint``'s own file."""
    rng = np.random.default_rng(seed)
    values = [rng.normal(size=shape).astype(dtype).astype(np.float64) for shape in shapes]
    source = Arrays(shapes)
    for p, value in zip(source.parameters(), values):
        p.data[...] = value
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "ckpt.npz"
        if dtype == "<f8":
            save_checkpoint(path, source)
        else:
            _write_npz(path, dict((name, p.data) for name, p in source.named_parameters()),
                       dtype=dtype)
        target = Arrays(shapes, fill=-1.0)
        arrays = [p.data for p in target.parameters()]
        load_checkpoint(path, target)
    for p, array, value in zip(target.parameters(), arrays, values):
        assert p.data is array and p.data.dtype == np.float64
        np.testing.assert_array_equal(p.data, value)
