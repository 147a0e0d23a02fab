"""Outside-in span recorder for the srrnet package.

Spans are recorded by rebinding the package's public callables inside the
benchmark process: module-level functions are replaced in every ``srrnet``
module that binds them (``nn`` imports ``matmul``/``conv2d``/``layer_norm``/
``gelu``/``add`` by name, so both bindings need the wrapper), and classes get
wrapped ``__call__`` and public methods. Nothing in the package changes.

Each span is ``(name_id, start_ns, end_ns, parent_index)``, kept in memory and
written out when the run ends. A span's self time is its duration minus the
part of its interval that its child spans cover. Kernel work for ``matmul``,
``conv2d`` and ``softmax`` is computed from operand shapes (not measured), so
those counts repeat exactly from run to run. Per-primitive backward time lives
in closures the package builds at run time and is not split out here: the
whole of ``tensor.backward`` is one span.
"""

from __future__ import annotations

import csv
import functools
import importlib
import sys
import time
from collections import defaultdict
from typing import Callable, Iterable, Optional, Sequence, Union

TENSOR_OPS = {
    "matmul": "tensor.matmul",
    "conv2d": "tensor.conv2d",
    "softmax": "tensor.softmax",
    "layer_norm": "tensor.layer_norm",
    "gelu": "tensor.gelu",
    "bilinear_resize": "tensor.bilinear_resize",
    "reshape": "tensor.layout",
    "transpose": "tensor.layout",
    "concat": "tensor.layout",
    "narrow": "tensor.layout",
    "add": "tensor.other",
    "mul": "tensor.other",
    "neg": "tensor.other",
    "power": "tensor.other",
    "mean": "tensor.other",
    "tensor_sum": "tensor.other",
    "sigmoid": "tensor.other",
    "bce_with_logits": "tensor.other",
    "mse": "tensor.other",
}
FORWARD_OP_SPANS = sorted(set(TENSOR_OPS.values()))

# (module, function, span name)
FUNCTIONS = [
    ("srrnet.tensor", "backward", "tensor.backward"),
    ("srrnet.nn", "load_checkpoint", "nn.load_checkpoint"),
    ("srrnet.model", "build_model", "model.build_model"),
    ("srrnet.attention", "scaled_dot_attention", "attention.sdpa"),
    ("srrnet.pipeline", "compute_loss", "pipeline.compute_loss"),
    ("srrnet.pipeline", "sample_training_triplet", "pipeline.sample"),
    ("srrnet.pipeline", "_augment", "pipeline.sample"),
    ("srrnet.pipeline", "triplet_to_input", "pipeline.sample"),
    ("srrnet.pipeline", "write_score_trace", "pipeline.write_score_trace"),
    ("srrnet.data", "load_sequence", "data.load_sequence"),
    ("srrnet.pnm", "write_mask", "pnm.write"),
    ("srrnet.pnm", "write_error_map", "pnm.write"),
    ("srrnet.metrics", "evaluate_dataset", "metrics.evaluate_dataset"),
] + [("srrnet.tensor", fn, span) for fn, span in TENSOR_OPS.items()]

# (module, class, method, span name); None names backbone stages by position.
METHODS = [
    ("srrnet.nn", "Linear", "__call__", "nn.Linear"),
    ("srrnet.nn", "Conv2d", "__call__", "nn.Conv2d"),
    ("srrnet.nn", "LayerNorm", "__call__", "nn.LayerNorm"),
    ("srrnet.nn", "Mlp", "__call__", "nn.Mlp"),
    ("srrnet.nn", "AdamW", "step", "nn.AdamW.step"),
    ("srrnet.model", "SRRNet", "__call__", "model.forward"),
    ("srrnet.attention", "RMABlock", "__call__", "attention.block"),
    ("srrnet.attention", "RMABlock", "attend_cross", "attention.cross"),
    ("srrnet.backbone", "PatchEmbed", "__call__", "backbone.patch_embed"),
    ("srrnet.backbone", "BackboneStage", "__call__", None),
    ("srrnet.decoder", "DualPurposeDecoder", "fuse_stage", "decoder.fuse_stage"),
    ("srrnet.decoder", "DualPurposeDecoder", "fuse_all", "decoder.fuse_all"),
    ("srrnet.decoder", "DualPurposeDecoder", "predict_mask", "decoder.predict_mask"),
    ("srrnet.decoder", "DualPurposeDecoder", "predict_error", "decoder.predict_error"),
    ("srrnet.pipeline", "InferenceSession", "step", "pipeline.step"),
]


# ---------------------------------------------------------------------------
# computed kernel counts (from operand shapes)


def matmul_counts(args, kwargs, out) -> dict:
    a, b = args[0], args[1]
    return {"gflop": 2.0 * out.data.size * a.shape[-1] / 1e9,
            "mbytes": (a.data.nbytes + b.data.nbytes + out.data.nbytes) / 1e6}


def conv2d_counts(args, kwargs, out) -> dict:
    x, w = args[0], args[1]
    bias = args[2] if len(args) > 2 else kwargs.get("b")
    window = w.shape[1] * w.shape[2] * w.shape[3]
    flops = 2.0 * out.data.size * window + (out.data.size if bias is not None else 0)
    nbytes = x.data.nbytes + w.data.nbytes + out.data.nbytes
    if bias is not None:
        nbytes += bias.data.nbytes
    return {"gflop": flops / 1e9, "mbytes": nbytes / 1e6}


def softmax_counts(args, kwargs, out) -> dict:
    a = args[0]
    return {"melems": a.data.size / 1e6,
            "mbytes": (a.data.nbytes + out.data.nbytes) / 1e6}


COUNTERS = {"tensor.matmul": matmul_counts, "tensor.conv2d": conv2d_counts,
            "tensor.softmax": softmax_counts}


# ---------------------------------------------------------------------------
# recording


class SpanRecorder:
    """In-memory spans with parent links, plus computed per-span-name counts."""

    def __init__(self, clock: Callable[[], int] = time.perf_counter_ns):
        self.clock = clock
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.spans: list = []
        self._stack: list[int] = []
        self.counts: dict[tuple[str, str], float] = defaultdict(float)

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def wrap(self, fn: Callable, name: Union[str, Callable[[tuple], str]],
             counter: Optional[Callable] = None) -> Callable:
        """Return ``fn`` wrapped so each call records one span.

        ``name`` is a span name or a function of the call's positional
        arguments that returns one.
        """
        spans, stack, clock = self.spans, self._stack, self.clock
        fixed = self.name_id(name) if isinstance(name, str) else None

        def wrapper(*args, **kwargs):
            nid = fixed if fixed is not None else self.name_id(name(args))
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (nid, start, end, parent)
            if counter is not None:
                span_name = self.names[nid]
                for key, value in counter(args, kwargs, out).items():
                    self.counts[(span_name, key)] += value
            return out

        return functools.update_wrapper(wrapper, fn)

    def write_csv(self, path):
        with open(path, "w", newline="") as f:
            writer = csv.writer(f)
            writer.writerow(["name", "start_ns", "end_ns", "parent"])
            for nid, start, end, parent in self.spans:
                writer.writerow([self.names[nid], start, end, parent])


def self_times(spans: Sequence[tuple]) -> list[int]:
    """Per span: duration minus the union of its children's intervals within it."""
    children: dict[int, list[tuple[int, int]]] = defaultdict(list)
    for _, start, end, parent in spans:
        if parent >= 0:
            children[parent].append((start, end))
    result = []
    for idx, (_, start, end, _) in enumerate(spans):
        covered = 0
        run_start = run_end = None
        for c_start, c_end in sorted(children.get(idx, ())):
            c_start, c_end = max(c_start, start), min(c_end, end)
            if c_end <= c_start:
                continue
            if run_end is None or c_start > run_end:
                if run_end is not None:
                    covered += run_end - run_start
                run_start, run_end = c_start, c_end
            else:
                run_end = max(run_end, c_end)
        if run_end is not None:
            covered += run_end - run_start
        result.append((end - start) - covered)
    return result


def summarize(recorder: SpanRecorder) -> dict[str, dict]:
    """Per span name: calls, inclusive ns (sum of durations), self ns."""
    selfs = self_times(recorder.spans)
    out: dict[str, dict] = {}
    for (nid, start, end, _), own in zip(recorder.spans, selfs):
        entry = out.setdefault(recorder.names[nid], {"calls": 0, "total_ns": 0, "self_ns": 0})
        entry["calls"] += 1
        entry["total_ns"] += end - start
        entry["self_ns"] += own
    for (name, key), value in recorder.counts.items():
        out.setdefault(name, {"calls": 0, "total_ns": 0, "self_ns": 0})[key] = value
    return out


# ---------------------------------------------------------------------------
# rebinding


def _package_modules() -> list:
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "srrnet" or name.startswith("srrnet."))]


class Instrumentation:
    """Wrappers for every traced callable, switched on and off by rebinding."""

    def __init__(self, recorder: SpanRecorder):
        self.recorder = recorder
        self.stage_names: dict[int, str] = {}
        for name, *_ in METHODS + FUNCTIONS:
            importlib.import_module(name)
        self._bindings: list[tuple[object, str, object, object]] = []
        modules = _package_modules()
        for module_name, attr, span in FUNCTIONS:
            original = getattr(sys.modules[module_name], attr)
            wrapped = recorder.wrap(original, span, COUNTERS.get(span))
            for module in modules:
                for key, value in vars(module).items():
                    if value is original:
                        self._bindings.append((module, key, original, wrapped))
        for module_name, cls_name, attr, span in METHODS:
            cls = getattr(sys.modules[module_name], cls_name)
            original = cls.__dict__[attr]
            wrapped = recorder.wrap(original, span if span else self._stage_name)
            self._bindings.append((cls, attr, original, wrapped))
        self.enabled = False

    def _stage_name(self, args) -> str:
        return self.stage_names.get(id(args[0]), "backbone.stage")

    def label_stages(self, model):
        """Name the model's backbone stages backbone.stage1 .. backbone.stageN."""
        self.stage_names = {id(stage): f"backbone.stage{i}"
                            for i, stage in enumerate(model.backbone.stages, start=1)}

    def set(self, enabled: bool):
        if enabled == self.enabled:
            return
        for owner, attr, original, wrapped in self._bindings:
            setattr(owner, attr, wrapped if enabled else original)
        self.enabled = enabled


# ---------------------------------------------------------------------------
# per-layer metrics


def _span(summary, name):
    return summary.get(name, {"calls": 0, "total_ns": 0, "self_ns": 0})


def layer_metrics(summary: dict, units: int, frames: int, extra: dict) -> dict:
    """Per-layer metric values, keyed as in BENCHMARK.json.

    ``units`` is the number of traced frames or iterations (time and counts
    are per traced unit), ``frames`` the number of frames in the stream pass
    (writes are per frame; 0 for training), and ``extra`` holds values the
    workload measures itself (reference counts, tracing overhead).
    """
    per_unit = 1.0 / units if units else 0.0
    per_frame = 1.0 / frames if frames else 0.0
    values = {}
    for metric, _unit, _better, (span, stat, per) in PER_LAYER:
        if stat == "extra":
            values[metric] = float(extra.get(metric, 0.0))
            continue
        if stat == "ops":
            calls = sum(_span(summary, s)["calls"] for s in FORWARD_OP_SPANS)
            values[metric] = calls * per_unit
            continue
        entry = _span(summary, span)
        if stat == "self":
            raw = entry["self_ns"] / 1e6
        elif stat == "incl":
            raw = entry["total_ns"] / 1e6
        elif stat == "calls":
            raw = entry["calls"]
        else:
            raw = entry.get(stat, 0.0)
        if per == "unit":
            values[metric] = raw * per_unit
        elif per == "frame":
            values[metric] = raw * per_frame
        else:  # seconds per call
            values[metric] = raw / 1e3 / entry["calls"] if entry["calls"] else 0.0
    return values


def _layer(prefix: str, with_calls: bool = True, self_time: bool = True):
    stat = "self" if self_time else "incl"
    suffix = "self_ms" if self_time else "ms"
    rows = [(f"{prefix}.{suffix}", "ms", "lower", (prefix, stat, "unit"))]
    if with_calls:
        rows.append((f"{prefix}.calls", "count", "lower", (prefix, "calls", "unit")))
    return rows


def _kernel(prefix: str, keys: Iterable[tuple[str, str]]):
    return [(f"{prefix}.{key}", unit, "lower", (prefix, key, "unit")) for key, unit in keys]


# (metric, unit, better, (span, statistic, normaliser))
PER_LAYER = (
    _layer("tensor.softmax") + _kernel("tensor.softmax", [("melems", "Melem"), ("mbytes", "MB")])
    + _layer("tensor.matmul") + _kernel("tensor.matmul", [("gflop", "GFLOP"), ("mbytes", "MB")])
    + _layer("tensor.conv2d") + _kernel("tensor.conv2d", [("gflop", "GFLOP"), ("mbytes", "MB")])
    + _layer("tensor.layer_norm") + _layer("tensor.gelu") + _layer("tensor.bilinear_resize")
    + _layer("tensor.layout") + _layer("tensor.other") + _layer("tensor.backward")
    + [("tensor.ops_per_unit", "count", "lower", (None, "ops", "unit"))]
    + _layer("nn.Linear", self_time=False) + _layer("nn.Conv2d", self_time=False)
    + _layer("nn.LayerNorm", self_time=False) + _layer("nn.Mlp", self_time=False)
    + _layer("nn.AdamW.step")
    + [("nn.load_checkpoint.s", "s", "lower", ("nn.load_checkpoint", "incl", "call")),
       ("model.build_model.s", "s", "lower", ("model.build_model", "incl", "call"))]
    + _layer("model.forward", with_calls=False, self_time=False)
    + _layer("attention.sdpa") + _layer("attention.cross") + _layer("attention.block")
    + [(f"backbone.stage{i}.ms", "ms", "lower", (f"backbone.stage{i}", "incl", "unit"))
       for i in range(1, 5)]
    + _layer("backbone.patch_embed")
    + [(f"decoder.{part}.ms", "ms", "lower", (f"decoder.{part}", "incl", "unit"))
       for part in ("fuse_stage", "fuse_all", "predict_mask", "predict_error")]
    + _layer("pipeline.step", with_calls=False)
    + [("pipeline.frames", "count", "higher", (None, "extra", None)),
       ("pipeline.ref_updates", "count", "lower", (None, "extra", None)),
       ("pipeline.ref_update_frac", "ratio", "lower", (None, "extra", None)),
       ("pipeline.ref_reuses", "count", "higher", (None, "extra", None)),
       ("pipeline.ref_reuse_frac", "ratio", "higher", (None, "extra", None))]
    + _layer("pipeline.compute_loss", with_calls=False)
    + _layer("pipeline.sample", with_calls=False)
    + [("pipeline.write_score_trace.ms", "ms", "lower",
        ("pipeline.write_score_trace", "incl", "frame")),
       ("pnm.write.ms", "ms", "lower", ("pnm.write", "incl", "frame")),
       ("metrics.evaluate_dataset.s", "s", "lower", ("metrics.evaluate_dataset", "incl", "call")),
       ("data.load_sequence.s", "s", "lower", ("data.load_sequence", "incl", "call")),
       ("trace.overhead_ratio", "ratio", "lower", (None, "extra", None)),
       ("trace.units", "count", "higher", (None, "extra", None))]
)
