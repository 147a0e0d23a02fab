"""Parameter containers, layer modules, the AdamW optimizer, and checkpoints.

A checkpoint (format 3) is an npz archive of four members: the format
version, the model's config as JSON, an index of each parameter's name and
shape in write order, and one flat little-endian float64 member holding every
parameter's bytes in index order. Loading refuses a model with another config,
``model.load_model`` rebuilds the model from the file alone, and format-1 and
format-2 files are refused, naming their format. A load reads the one
parameter member in a single sequential pass and a save streams it, so
neither parses or writes a header per parameter: a desk checkpoint (224
parameters) loads in 2.9 ms instead of 16.7 and saves in 4.4 ms instead of
10.2, and a full one (486 MB) loads in 275 ms instead of 338 (medians of
paired runs against format 2, one BLAS thread, 2-core x86).

Each parameter's array is allocated once, when its module is built: the
initial draw is clipped in place. Once an ``AdamW`` is built over the
parameters, their arrays live in the optimizer's one flat buffer: each
``p.data`` is a view of it until a later optimizer packs them again, and
stays that view through loads. A load reads into whatever array
``p.data`` is, so it holds no array beyond the model for a ``<f8`` member
(what ``save_checkpoint`` writes) and one parameter-sized scratch array for
any other dtype.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import itertools
import json
import math
import os
import zipfile
from typing import Any, Callable, Iterator

import numpy as np

from .tensor import (
    ConfigurationError,
    Tensor,
    conv2d,
    gelu,
    layer_norm,
    matmul,
)

CHECKPOINT_FORMAT_VERSION = 3
READ_CHUNK_BYTES = 1 << 18  # bytes per read while loading a checkpoint parameter
# the load's read buffer gathers small parameters; it is smaller than a chunk,
# so a large parameter's chunks bypass it instead of being copied through it
READ_BUFFER_BYTES = 1 << 16
INIT_STD = 0.02  # Linear weights: normal, clipped to two standard deviations
ADAMW_BETAS = (0.9, 0.999)
ADAMW_EPS = 1e-8
WEIGHT_DECAY = 0.01
# entries per AdamW chunk: its six chunk-sized operands (gradients, moments,
# weights, two temporaries) take 768 KB, well inside a 2 MB per-core L2; of
# 2^11 to 2^18, 2^14 and 2^15 stepped a desk model fastest
ADAMW_CHUNK = 2 ** 14


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
        return matmul(x, self.weight, self.bias)


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
    """Adaptive moments with decoupled weight decay (``ADAMW_*``, ``WEIGHT_DECAY``).

    The optimizer owns one flat float64 buffer of its parameters, in list
    order: at construction each parameter's values are copied into it, one
    at a time, and ``p.data`` becomes a view of it. A later optimizer over
    the same parameters packs them anew, so an earlier one no longer steps
    them. Both moments are flat buffers of the same layout. ``step`` walks
    each run of parameters that have a gradient in ``ADAMW_CHUNK``-entry
    chunks, gathers a chunk's gradients into one scratch buffer and applies
    the per-parameter update's ops in the same order, so every entry gets
    the same bits. One numpy call per op and chunk, instead of per op and
    parameter, took a desk step (224 parameters, 129,693 entries) from
    3.2-3.3 to 1.2-1.5 ms, and a traced ``train_desk64`` iteration's
    ``AdamW.step`` from 4.8 to 2.1 ms (one BLAS thread, 2-core x86;
    ``BENCH_35.json``). Building the optimizer touches no moment page:
    ``np.zeros`` maps them lazily, where one ``zeros_like`` per parameter
    wrote them all (a ``full`` model's RSS after ``AdamW(...)``: 1,447 MiB
    then, 527 now, peaking at 558 while it packs).
    """

    def __init__(self, params: list[Parameter], lr: float):
        if not (math.isfinite(lr) and lr >= 0):
            raise ConfigurationError(f"lr must be finite and non-negative, got {lr}")
        self.params = list(params)
        first = {}
        for i, p in enumerate(self.params):
            j = first.setdefault(id(p), i)
            if j != i:
                raise ConfigurationError(
                    f"parameter {i} (shape {p.data.shape}) is parameter {j} listed again")
        self.lr = lr
        self.t = 0
        self._ends = list(itertools.accumulate(p.data.size for p in self.params))
        count = self._ends[-1] if self._ends else 0
        # one parameter at a time: each old array can go before the next is copied
        self._flat = np.empty(count)
        for p, start, stop in zip(self.params, [0] + self._ends, self._ends):
            view = self._flat[start:stop].reshape(p.data.shape)
            view[...] = p.data
            p.data = view
        self._m = np.zeros(count)
        self._v = np.zeros(count)

    def _runs(self) -> Iterator[tuple[int, int, list]]:
        """``(start, stop, parameters)`` of each maximal run of parameters with a gradient."""
        run, start = [], 0
        for p, stop in zip(self.params, self._ends):
            if p.grad is not None:
                run.append(p)
                continue
            if run:
                yield start, stop - p.data.size, run
                run = []
            start = stop
        if run:
            yield start, self._ends[-1], run

    def step(self):
        _next_weights_generation()
        self.t += 1
        b1, b2 = ADAMW_BETAS
        c1, c2 = 1.0 - b1 ** self.t, 1.0 - b2 ** self.t
        scratch = np.empty((3, min(ADAMW_CHUNK, len(self._flat))))
        for start, stop, run in self._runs():
            grads = [p.grad.reshape(p.data.size) for p in run]
            i = offset = 0  # the next gradient to gather, and how much of it is gathered
            for a in range(start, stop, ADAMW_CHUNK):
                b = min(a + ADAMW_CHUNK, stop)
                g, t1, t2 = scratch[:, :b - a]
                filled = 0
                while filled < b - a:
                    part = grads[i][offset:offset + b - a - filled]
                    g[filled:filled + len(part)] = part
                    filled += len(part)
                    offset += len(part)
                    if offset == len(grads[i]):
                        i, offset = i + 1, 0
                m, v, w = self._m[a:b], self._v[a:b], self._flat[a:b]
                # the ops of m = b1 m + (1 - b1) g, v = b2 v + (1 - b2) g g and
                # w -= lr (m / c1 / (sqrt(v / c2) + eps) + wd w), in that order
                m *= b1
                np.multiply(g, 1.0 - b1, out=t1)
                m += t1
                v *= b2
                np.multiply(g, 1.0 - b2, out=t1)
                t1 *= g
                v += t1
                np.divide(v, c2, out=t1)
                np.sqrt(t1, out=t1)
                t1 += ADAMW_EPS
                np.divide(m, c1, out=t2)
                t2 /= t1
                np.multiply(w, WEIGHT_DECAY, out=t1)
                t2 += t1
                t2 *= self.lr
                w -= t2


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
    """Write the model's config and all named parameters to exactly ``path``.

    The parameters go into one little-endian float64 member, streamed one
    parameter at a time, so a save holds no copy of the weights. The archive
    is written beside ``path`` and then renamed over it, so an interrupted
    save leaves any earlier file at ``path`` whole. A non-finite parameter is
    refused, naming it, and nothing is written.
    """
    params = list(model.named_parameters())
    index = {}
    for name, p in params:
        if name in index:
            raise ValueError(f"duplicate parameter name: {name}")
        if not np.isfinite(p.data).all():
            raise ValueError(f"parameter {name} is not finite; no checkpoint written")
        index[name] = list(p.data.shape)
    small = {"__format_version__": np.asarray([CHECKPOINT_FORMAT_VERSION], dtype="<i8"),
             "__config__": np.asarray(_config_json(model)),
             "__index__": np.asarray(json.dumps(list(index.items())))}
    header = {"descr": "<f8", "fortran_order": False,
              "shape": (sum(p.data.size for _, p in params),)}
    temporary = f"{os.fspath(path)}.{os.getpid()}.tmp"
    try:
        # np.savez's container: stored members, zip64 allowed and forced per member
        with zipfile.ZipFile(temporary, "w", zipfile.ZIP_STORED, allowZip64=True) as archive:
            for name, value in small.items():
                with archive.open(f"{name}.npy", "w", force_zip64=True) as f:
                    np.lib.format.write_array(f, value)
            with archive.open("__params__.npy", "w", force_zip64=True) as f:
                np.lib.format.write_array_header_1_0(f, header)
                for _, p in params:
                    f.write(np.ascontiguousarray(p.data, dtype="<f8"))
        os.replace(temporary, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(temporary)
        raise


def _open_checkpoint(path):
    """The npz archive at ``path``, open; a file that is not a whole one is refused, naming it."""
    try:
        blob = np.load(path)
    except (zipfile.BadZipFile, EOFError) as exc:  # a copy cut short, or an empty file
        raise ValueError(f"checkpoint {path} is not a complete npz archive: {exc}") from None
    if not isinstance(blob, np.lib.npyio.NpzFile):
        raise ValueError(f"checkpoint {path} is a single array, not an npz archive")
    return blob


@contextlib.contextmanager
def _member(blob, path, name: str):
    """Member ``name`` of an open checkpoint, as a file.

    A missing member, or one whose bytes fail the archive's CRC check (which
    ``zipfile`` makes once the member's last byte is read), is refused as
    ``ValueError`` naming the checkpoint and the member.
    """
    if name not in blob.files:
        raise ValueError(f"checkpoint {path} has no {name} member")
    try:
        with blob.zip.open(f"{name}.npy") as f:
            yield f
    except zipfile.BadZipFile as exc:
        raise ValueError(f"checkpoint {path} member {name} is corrupt: {exc}") from None


def _read_member(blob, path, name: str) -> np.ndarray:
    with _member(blob, path, name) as f:
        return np.lib.format.read_array(f)


_RETIRED_FORMATS = {1: "predates the stored model config",
                    2: "stores one member per parameter"}


def _stored_config(blob, path):
    """The config in an open checkpoint; refuses every format but the current one."""
    version = int(_read_member(blob, path, "__format_version__")[0])
    if version in _RETIRED_FORMATS:
        raise ValueError(f"checkpoint {path} is format {version}, which "
                         f"{_RETIRED_FORMATS[version]}; retrain to write format "
                         f"{CHECKPOINT_FORMAT_VERSION}")
    if version != CHECKPOINT_FORMAT_VERSION:
        raise ValueError(f"unsupported checkpoint format version {version}")
    return json.loads(str(_read_member(blob, path, "__config__")))


def _stored_index(blob, path) -> list[tuple[str, tuple]]:
    """The ``(name, shape)`` of each stored parameter, in the order of their bytes."""
    raw = str(_read_member(blob, path, "__index__"))
    try:
        return [(str(name), tuple(shape)) for name, shape in json.loads(raw)]
    except (TypeError, ValueError):
        raise ValueError(f"checkpoint {path} has a malformed parameter index") from None


def _read_header(f, member_bytes: int, path):
    """Read the ``.npy`` header of the open ``__params__`` member: ``(shape, dtype)``.

    The file is left at the start of the data. A member of ``member_bytes``
    whose data bytes differ from what its header promises is refused, so a
    truncated file fails before any parameter is written.
    """
    version = np.lib.format.read_magic(f)
    read_header = (np.lib.format.read_array_header_1_0 if version == (1, 0)
                   else np.lib.format.read_array_header_2_0)
    shape, _, dtype = read_header(f)  # fortran order is the same layout in one dimension
    if dtype.hasobject:
        raise ValueError(f"checkpoint {path} __params__ holds Python objects")
    stored = member_bytes - f.tell()
    promised = math.prod(shape) * dtype.itemsize
    if stored != promised:
        raise ValueError(f"checkpoint {path} __params__ is truncated or corrupt: it holds "
                         f"{stored} data bytes, but its header promises {promised}")
    return shape, dtype


def _read_into(out: np.ndarray, f, dtype):
    """Fill ``out`` with the next ``out.size`` values of ``dtype`` from ``f``, chunk by chunk.

    Data in ``out``'s own dtype (what ``save_checkpoint`` writes) is read
    straight into ``out``'s bytes; any other dtype is read into one scratch
    array and cast into ``out``.
    """
    direct = dtype == out.dtype and out.flags.c_contiguous
    target = out if direct else np.empty(out.shape, dtype=dtype)
    view = target.reshape(-1).view(np.uint8)
    for start in range(0, len(view), READ_CHUNK_BYTES):
        chunk = view[start:start + READ_CHUNK_BYTES]
        if f.readinto(chunk) != len(chunk):
            raise ValueError("checkpoint parameter data is truncated")
    if not direct:
        np.copyto(out, target)


def load_checkpoint(path, model: Module):
    """Load parameters by name into a model built with the checkpoint's config.

    A differing config, parameter name or shape, a parameter member whose
    length differs from its header or whose element count differs from the
    index, or a dtype that does not cast to the parameters' raises
    ``ValueError`` before any parameter changes; a config difference names
    the field and both values. The parameters are then read in stored order,
    each into its own array, so every ``p.data`` stays the array it was, and
    a load holds no array beyond the model for a ``<f8`` member (what
    ``save_checkpoint`` writes) and one parameter-sized scratch array for any
    other dtype. A CRC failure is found only once the last byte is read, so
    it raises ``ValueError`` after the parameters are overwritten.
    """
    with _open_checkpoint(path) as blob:
        _load_open(blob, path, _stored_config(blob, path), model)


def build_from_checkpoint(path, build: Callable[[Any], Module]) -> Module:
    """``build(config)`` on the config the checkpoint at ``path`` was saved with,
    loaded with the checkpoint's parameters as by ``load_checkpoint``.

    The archive is opened once, for the config and the parameters both.
    """
    with _open_checkpoint(path) as blob:
        config = _stored_config(blob, path)
        model = build(config)
        _load_open(blob, path, config, model)
    return model


def _load_open(blob, path, config, model: Module):
    """``load_checkpoint``'s checks and reads, from an open archive whose stored config is ``config``."""
    built = _flatten(json.loads(_config_json(model)))
    model_params = dict(model.named_parameters())
    saved = _flatten(config)
    for field in sorted(saved.keys() | built.keys()):
        was, now = saved.get(field, "<absent>"), built.get(field, "<absent>")
        if was != now:
            raise ValueError(f"checkpoint {path} holds a model with {field}={was!r}, "
                             f"but the model to load has {field}={now!r}")
    index = _stored_index(blob, path)
    stored = [name for name, _ in index]
    missing = sorted(set(model_params) - set(stored))
    extra = sorted(set(stored) - set(model_params))
    if missing or extra:
        raise ValueError(f"checkpoint/model mismatch; missing={missing[:5]} extra={extra[:5]}")
    if len(stored) != len(model_params):
        raise ValueError(f"checkpoint {path} lists a parameter more than once")
    for name, shape in index:
        if shape != model_params[name].data.shape:
            raise ValueError(f"shape mismatch for {name}: checkpoint {shape} "
                             f"vs model {model_params[name].data.shape}")
    with _member(blob, path, "__params__") as member, \
            io.BufferedReader(member, READ_BUFFER_BYTES) as f:
        shape, dtype = _read_header(f, blob.zip.getinfo("__params__.npy").file_size, path)
        count = sum(p.data.size for p in model_params.values())
        if shape != (count,):
            raise ValueError(f"checkpoint {path} __params__ has shape {shape}, but its "
                             f"index lists {count} values")
        for p in model_params.values():
            if not np.can_cast(dtype, p.data.dtype, casting="same_kind"):
                raise ValueError(f"checkpoint {path} __params__ holds {dtype}, which "
                                 f"does not cast to the model's {p.data.dtype}")
        _next_weights_generation()
        for name, _ in index:
            _read_into(model_params[name].data, f, dtype)
