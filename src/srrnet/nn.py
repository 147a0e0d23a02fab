"""Parameter containers, layer modules, the AdamW optimizer, and checkpoints.

A checkpoint (format 2) stores the model's config as JSON beside its float64
parameters: loading refuses a model with another config, ``model.load_model``
rebuilds the model from the file alone, and format-1 files are refused.

Each parameter's array is allocated once, when its module is built: the
initial draw is clipped in place, and a load reads into that same array, so a
load holds no array beyond the model for a ``<f8`` C-order file (what
``save_checkpoint`` writes) and one scratch array for any other layout.
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import math
import zipfile
from typing import Iterator

import numpy as np

from .tensor import (
    ConfigurationError,
    Tensor,
    add,
    conv2d,
    gelu,
    layer_norm,
    matmul,
)

CHECKPOINT_FORMAT_VERSION = 2
READ_CHUNK_BYTES = 1 << 18  # bytes per read while loading a checkpoint parameter
INIT_STD = 0.02  # Linear weights: normal, clipped to two standard deviations
ADAMW_BETAS = (0.9, 0.999)
ADAMW_EPS = 1e-8
WEIGHT_DECAY = 0.01


_weights_generation = 0  # moved on by load_checkpoint and AdamW.step; see weights_key


def weights_key(module: Module) -> tuple:
    """The key a cache built from ``module``'s weights is valid for.

    It is the module and the weights generation, which ``load_checkpoint``
    and ``AdamW.step`` move on before they write parameters in place.
    """
    return module, _weights_generation


def _next_weights_generation():
    global _weights_generation
    _weights_generation += 1


class Parameter(Tensor):
    """A trainable tensor; its name is its attribute path in the owning module."""

    def __init__(self, data):
        super().__init__(data, requires_grad=True)


class Module:
    """Base class with attribute-order parameter registration.

    Child modules and parameters are discovered by walking ``__dict__`` in
    insertion order, so naming is stable and deterministic. Lists of modules
    are supported for block stacks.
    """

    def named_parameters(self, prefix: str = "") -> Iterator[tuple[str, Parameter]]:
        for attr, value in self.__dict__.items():
            name = f"{prefix}{attr}"
            if isinstance(value, Parameter):
                yield name, value
            elif isinstance(value, Module):
                yield from value.named_parameters(f"{name}.")
            elif isinstance(value, (list, tuple)):
                for i, item in enumerate(value):
                    if isinstance(item, Module):
                        yield from item.named_parameters(f"{name}.{i}.")

    def parameters(self) -> list[Parameter]:
        return [p for _, p in self.named_parameters()]

    def zero_grad(self):
        for p in self.parameters():
            p.grad = None


def count_parameters(model: Module) -> int:
    """Total number of scalar parameters in a model."""
    return sum(p.data.size for p in model.parameters())


def _trunc_normal(rng: np.random.Generator, shape) -> np.ndarray:
    x = rng.normal(0.0, INIT_STD, size=shape)
    return np.clip(x, -2.0 * INIT_STD, 2.0 * INIT_STD, out=x)


class Linear(Module):
    def __init__(self, in_features: int, out_features: int, rng: np.random.Generator):
        self.weight = Parameter(_trunc_normal(rng, (in_features, out_features)))
        self.bias = Parameter(np.zeros(out_features))

    def __call__(self, x: Tensor) -> Tensor:
        return add(matmul(x, self.weight), self.bias)


class Conv2d(Module):
    def __init__(self, in_channels: int, out_channels: int, kernel_size: int,
                 rng: np.random.Generator, stride: int = 1, padding: int = 0):
        fan_in = in_channels * kernel_size * kernel_size
        std = math.sqrt(2.0 / fan_in)
        self.weight = Parameter(
            rng.normal(0.0, std, size=(out_channels, in_channels, kernel_size, kernel_size)))
        self.bias = Parameter(np.zeros(out_channels))
        self.stride = stride
        self.padding = padding

    def __call__(self, x: Tensor) -> Tensor:
        return conv2d(x, self.weight, self.bias, stride=self.stride, padding=self.padding)


class LayerNorm(Module):
    def __init__(self, channels: int):
        self.gamma = Parameter(np.ones(channels))
        self.beta = Parameter(np.zeros(channels))

    def __call__(self, x: Tensor) -> Tensor:
        return layer_norm(x, self.gamma, self.beta)


class Mlp(Module):
    """Two-layer feed-forward sublayer with GELU."""

    def __init__(self, channels: int, hidden: int, rng: np.random.Generator):
        self.fc1 = Linear(channels, hidden, rng)
        self.fc2 = Linear(hidden, channels, rng)

    def __call__(self, x: Tensor) -> Tensor:
        return self.fc2(gelu(self.fc1(x)))


class AdamW:
    """Adaptive moments with decoupled weight decay (``ADAMW_*``, ``WEIGHT_DECAY``)."""

    def __init__(self, params: list[Parameter], lr: float):
        if not (math.isfinite(lr) and lr >= 0):
            raise ConfigurationError(f"lr must be finite and non-negative, got {lr}")
        self.params = list(params)
        self.lr = lr
        self.t = 0
        self._m = [np.zeros_like(p.data) for p in self.params]
        self._v = [np.zeros_like(p.data) for p in self.params]

    def step(self):
        _next_weights_generation()
        self.t += 1
        b1, b2 = ADAMW_BETAS
        for i, p in enumerate(self.params):
            if p.grad is None:
                continue
            g, m, v = p.grad, self._m[i], self._v[i]
            m *= b1
            m += (1.0 - b1) * g
            v *= b2
            v += (1.0 - b2) * g * g
            mhat = m / (1.0 - b1 ** self.t)
            vhat = v / (1.0 - b2 ** self.t)
            p.data -= self.lr * (mhat / (np.sqrt(vhat) + ADAMW_EPS) + WEIGHT_DECAY * p.data)


def _config_json(model: Module) -> str:
    config = getattr(model, "config", None)  # a model's config dataclass; bare modules have none
    return json.dumps(None if config is None else dataclasses.asdict(config), sort_keys=True)


def _flatten(value, prefix: str = "") -> dict:
    """A JSON value as {dotted field name: leaf value}."""
    if isinstance(value, (dict, list)) and value:
        items = value.items() if isinstance(value, dict) else enumerate(value)
        return {f: v for key, item in items for f, v in _flatten(item, f"{prefix}{key}.").items()}
    return {prefix[:-1] or "config": value}


def save_checkpoint(path, model: Module):
    """Write the model's config and all named parameters (little-endian float64).

    A non-finite parameter is refused, naming it, and nothing is written.
    """
    arrays = {"__format_version__": np.asarray([CHECKPOINT_FORMAT_VERSION], dtype="<i8"),
              "__config__": np.asarray(_config_json(model))}
    for name, p in model.named_parameters():
        if name in arrays:
            raise ValueError(f"duplicate parameter name: {name}")
        if not np.isfinite(p.data).all():
            raise ValueError(f"parameter {name} is not finite; no checkpoint written")
        arrays[name] = np.ascontiguousarray(p.data, dtype="<f8")
    np.savez(path, **arrays)


def _open_checkpoint(path):
    """The npz archive at ``path``, open; a file that is not a whole one is refused, naming it."""
    try:
        blob = np.load(path)
    except (zipfile.BadZipFile, EOFError) as exc:  # a copy cut short, or an empty file
        raise ValueError(f"checkpoint {path} is not a complete npz archive: {exc}") from None
    if not isinstance(blob, np.lib.npyio.NpzFile):
        raise ValueError(f"checkpoint {path} is a single array, not an npz archive")
    return blob


def _stored_config(blob, path):
    """The config in an open checkpoint; refuses every format but the current one."""
    version = int(blob["__format_version__"][0])
    if version == 1:
        raise ValueError(f"checkpoint {path} is format 1, which predates the stored model "
                         f"config; retrain to write format {CHECKPOINT_FORMAT_VERSION}")
    if version != CHECKPOINT_FORMAT_VERSION:
        raise ValueError(f"unsupported checkpoint format version {version}")
    return json.loads(str(blob["__config__"]))


def read_checkpoint_config(path):
    """The config a checkpoint was saved with, as JSON values (None for a bare module)."""
    with _open_checkpoint(path) as blob:
        return _stored_config(blob, path)


def _open_array(blob, stack: contextlib.ExitStack, name: str):
    """Open a checkpoint array and read its ``.npy`` header: ``(file, shape, fortran, dtype)``.

    The file is left at the start of the data and closes with ``stack``. An
    array whose data bytes differ from what its header promises is refused,
    naming it, so a truncated file fails before any parameter is written.
    """
    f = stack.enter_context(blob.zip.open(f"{name}.npy"))
    version = np.lib.format.read_magic(f)
    read_header = (np.lib.format.read_array_header_1_0 if version == (1, 0)
                   else np.lib.format.read_array_header_2_0)
    shape, fortran, dtype = read_header(f)
    if dtype.hasobject:
        raise ValueError(f"checkpoint array {name} holds Python objects")
    stored = blob.zip.getinfo(f"{name}.npy").file_size - f.tell()
    promised = math.prod(shape) * dtype.itemsize
    if stored != promised:
        raise ValueError(f"checkpoint array {name} is truncated or corrupt: it holds "
                         f"{stored} data bytes, but its header promises {promised}")
    return f, shape, fortran, dtype


def _read_into(out: np.ndarray, f, shape, fortran: bool, dtype):
    """Fill ``out`` with the array data after an already-read header, chunk by chunk.

    Data in ``out``'s own dtype and C order (what ``save_checkpoint`` writes)
    is read straight into ``out``'s bytes; any other layout is read into one
    scratch array and cast into ``out``.
    """
    direct = not fortran and dtype == out.dtype and out.flags.c_contiguous
    target = out if direct else np.empty(shape[::-1] if fortran else shape, dtype=dtype)
    view = memoryview(target).cast("B")
    for start in range(0, len(view), READ_CHUNK_BYTES):
        chunk = view[start:start + READ_CHUNK_BYTES]
        if f.readinto(chunk) != len(chunk):
            raise ValueError("checkpoint array data is truncated")
    if not direct:
        np.copyto(out, target.T if fortran else target)


def load_checkpoint(path, model: Module):
    """Load parameters by name into a model built with the checkpoint's config.

    A differing config, parameter name, shape, a dtype that does not cast to
    the parameter's, or array data shorter or longer than its header raises
    ``ValueError`` before any parameter changes; a config difference names
    the field and both values. The checks read only the ``.npy`` headers and
    member sizes, and each parameter is then read into its own array from the
    same open files (each header is parsed once), so every ``p.data`` stays
    the array it was, and a load holds no array beyond the model for a
    ``<f8`` C-order file and one scratch array for any other layout.
    """
    built = _flatten(json.loads(_config_json(model)))
    model_params = dict(model.named_parameters())
    with _open_checkpoint(path) as blob, contextlib.ExitStack() as stack:
        saved = _flatten(_stored_config(blob, path))
        for field in sorted(saved.keys() | built.keys()):
            was, now = saved.get(field, "<absent>"), built.get(field, "<absent>")
            if was != now:
                raise ValueError(f"checkpoint {path} holds a model with {field}={was!r}, "
                                 f"but the model to load has {field}={now!r}")
        stored = {k for k in blob.files if not k.startswith("__")}
        missing = sorted(set(model_params) - stored)
        extra = sorted(stored - set(model_params))
        if missing or extra:
            raise ValueError(f"checkpoint/model mismatch; missing={missing[:5]} extra={extra[:5]}")
        opened = {}
        for name, p in model_params.items():
            f, shape, fortran, dtype = opened[name] = _open_array(blob, stack, name)
            if shape != p.data.shape:
                raise ValueError(
                    f"shape mismatch for {name}: checkpoint {shape} vs model {p.data.shape}")
            if not np.can_cast(dtype, p.data.dtype, casting="same_kind"):
                raise ValueError(f"checkpoint array {name} holds {dtype}, which does not "
                                 f"cast to the model's {p.data.dtype}")
        _next_weights_generation()
        for name, p in model_params.items():
            _read_into(p.data, *opened[name])
