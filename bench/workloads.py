"""Workload process: set-up, the timed pass, output checks, metrics.

Drives the same public functions the ``srrnet infer``, ``eval`` and
``train`` commands call, on inputs the fixture step generated beforehand.
Every call into the package goes through its module attribute
(``srrnet.pipeline.train``, not a local name) so the traced run's rebinding
reaches it. Usage (normally started by ``bench/run.py``):

    python3 bench/workloads.py --workload NAME --seed N --seconds S --trace 0|1 \
        --fixtures DIR --out DIR --result FILE
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import json
import math
import os
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import numpy as np
import scipy

import srrnet
import srrnet.data
import srrnet.metrics
import srrnet.model
import srrnet.nn
import srrnet.pipeline
import srrnet.pnm

from checks import check_stream_results, check_written, digest_dir, tail_percentile
from spec import (
    FINAL_LOSS_WINDOW,
    SETUP_MAX_REPEATS,
    SETUP_MIN_REPEATS,
    SETUP_MIN_SECONDS,
    THREAD_ENV_VARS,
    TRAIN_LR,
    TRAIN_MASK_DROPOUT,
    WORKLOADS,
)
from tracing import Instrumentation, SpanRecorder, layer_metrics, summarize

MAX_LISTED_FAILURES = 10


def _repeat_setup(build) -> tuple[object, list[float]]:
    """Run ``build`` repeatedly (see spec), dropping each result before the next."""
    times, result = [], None
    while len(times) < SETUP_MIN_REPEATS or (
            sum(times) < SETUP_MIN_SECONDS and len(times) < SETUP_MAX_REPEATS):
        result = None
        gc.collect()
        start = time.perf_counter()
        result = build()
        times.append(time.perf_counter() - start)
    return result, times


class ReferenceProbe:
    """Counts frames whose reference input equals the previous frame's.

    Wraps ``SRRNet.__call__`` for the whole traced run (below the span
    wrappers), so every frame is compared whether or not it is traced.
    """

    def __init__(self):
        self.cls = srrnet.model.SRRNet
        self.original = self.cls.__dict__["__call__"]
        self.previous = None
        self.calls = 0
        self.reuses = 0

    def __enter__(self):
        original, probe = self.original, self

        def observed(model, triplet):
            r_in = triplet.r_in.data
            if probe.previous is not None and np.array_equal(r_in, probe.previous):
                probe.reuses += 1
            probe.previous = r_in.copy()
            probe.calls += 1
            return original(model, triplet)

        self.cls.__call__ = observed
        return self

    def __exit__(self, *exc):
        self.cls.__call__ = self.original
        return False


def run_stream(wl, args, fixtures: Path, out: Path, tracer, probe=None) -> dict:
    def setup():
        model = srrnet.model.build_model(wl.preset, seed=0)
        srrnet.nn.load_checkpoint(fixtures / "model.npz", model)
        record = srrnet.data.load_sequence(fixtures / "seq", require_masks=False)
        return model, record

    (model, record), setup_times = _repeat_setup(setup)
    if tracer is not None:
        tracer.label_stages(model)
    frames = record.frames
    gts = record.masks if len(record.masks) == len(frames) else None
    pred_dir = out / "pred"
    pred_dir.mkdir(parents=True)

    latencies, traced, results, errors = [], [], [], []
    pass_error = None
    pass_start = time.perf_counter()
    session = srrnet.pipeline.InferenceSession(model, reference_mode=wl.reference_mode,
                                               seed=args.seed)
    session.start(frames[0])
    for index, frame in enumerate(frames):
        is_traced = tracer is not None and index % 2 == 1
        if tracer is not None:
            tracer.set(is_traced)
        start = time.perf_counter()
        try:
            res = session.step(frame)
        except Exception:  # a failing frame is counted, not fatal
            res = None
            errors.append(f"frame {index}: {traceback.format_exc(limit=3)}")
        latencies.append(time.perf_counter() - start)
        traced.append(is_traced)
        results.append(res)
    if tracer is not None:
        tracer.set(True)
    done = [r for r in results if r is not None]
    report = None
    try:
        for res in done:
            srrnet.pnm.write_mask(pred_dir / f"{res.frame_index:05d}.pgm", res.o_msk)
            srrnet.pnm.write_error_map(pred_dir / f"{res.frame_index:05d}_err.pgm", res.o_err)
        srrnet.pipeline.write_score_trace(pred_dir / "scores.csv", done, gts)
        report = srrnet.metrics.evaluate_dataset(pred_dir, fixtures / "seq")
    except Exception:  # writes or evaluation failed: the whole pass fails
        pass_error = traceback.format_exc(limit=3)
    pass_s = time.perf_counter() - pass_start
    if tracer is not None:
        tracer.set(False)

    problems = check_stream_results(results, frames[0].shape[1:])
    if pass_error is None:
        for index, found in check_written(pred_dir, results, gts).items():
            problems.setdefault(index, []).extend(found)
    failed = len(frames) if pass_error is not None else len(problems)
    listed = [f"frame {i}: {'; '.join(p)}" for i, p in sorted(problems.items())]
    updates = sum(1 for r in done if r.updated)
    out_record = {
        "units": len(frames),
        "failed": failed,
        "failures": (([pass_error] if pass_error else []) + errors + listed)[:MAX_LISTED_FAILURES],
        "outputs_sha256": digest_dir(pred_dir),
        "ref_updates": updates,
        "eval": None if report is None else {
            "s_alpha": report.s_alpha, "f_w_beta": report.f_w_beta, "mae": report.mae,
            "mdice": report.mdice, "miou": report.miou},
    }
    extra = {}
    if probe is not None:
        n = len(frames)
        extra = {"pipeline.frames": n, "pipeline.ref_updates": updates,
                 "pipeline.ref_update_frac": updates / n,
                 "pipeline.ref_reuses": probe.reuses,
                 "pipeline.ref_reuse_frac": probe.reuses / max(1, probe.calls - 1)}
    return _finish(out_record, setup_times, latencies, traced, len(frames) / pass_s,
                   tracer, frames=len(frames), extra=extra)


def run_train(wl, args, fixtures: Path, out: Path, tracer) -> dict:
    def setup():
        model = srrnet.model.build_model(wl.preset, seed=args.seed)
        video = srrnet.data.load_video_dataset(fixtures / "video")
        return model, video

    (model, video), setup_times = _repeat_setup(setup)
    if tracer is not None:
        tracer.label_stages(model)
    iterations = wl.units(args.seconds)
    schedule = srrnet.pipeline.TrainSchedule(
        video_iterations=iterations, video_lr=TRAIN_LR, mask_dropout=TRAIN_MASK_DROPOUT,
        flip=True, seed=args.seed, log_every=1)
    stamps = []

    def progress(iteration, parts):
        stamps.append(time.perf_counter())
        if tracer is not None:  # trace every second iteration
            tracer.set((iteration + 1) % 2 == 0)

    error = None
    result = None
    if tracer is not None:
        tracer.set(False)
    start = time.perf_counter()
    try:
        result = srrnet.pipeline.train(model, schedule, video_sequences=video,
                                       out_dir=out / "train", progress=progress)
    except Exception:  # iterations after the failure count as failed
        error = traceback.format_exc(limit=3)
    wall = time.perf_counter() - start
    if tracer is not None:
        tracer.set(False)

    latencies = list(np.diff([start] + stamps))
    traced = [tracer is not None and k % 2 == 0 for k in range(1, len(latencies) + 1)]
    totals = [row[4] for row in result.loss_trace] if result is not None else []
    non_finite = [i for i, v in enumerate(totals) if not math.isfinite(v)]
    failed = (iterations - len(stamps)) + len(non_finite)
    digest = hashlib.sha256()
    if result is not None:
        digest.update(Path(result.csv_path).read_bytes())
        for name, p in model.named_parameters():
            digest.update(name.encode() + b"\0" + np.ascontiguousarray(p.data).tobytes())
    window = totals[-FINAL_LOSS_WINDOW:]
    out_record = {
        "units": iterations,
        "failed": failed,
        "failures": (([error] if error else [])
                     + [f"iteration {i + 1}: non-finite loss {totals[i]}"
                        for i in non_finite])[:MAX_LISTED_FAILURES],
        "outputs_sha256": digest.hexdigest(),
        "final_loss": float(np.mean(window)) if window else None,
    }
    return _finish(out_record, setup_times, latencies, traced,
                   len(stamps) / wall, tracer, frames=0, extra={})


def _finish(record: dict, setup_times, latencies, traced, units_per_s, tracer,
            frames: int, extra: dict) -> dict:
    untraced_ms = [1e3 * t for t, tr in zip(latencies, traced) if not tr]
    p90, beyond, tail_ok = tail_percentile(untraced_ms, 90.0)
    record.update({
        "setup_s_samples": setup_times,
        "latency_samples": len(untraced_ms),
        "p90_beyond": beyond,
        "p90_has_10_beyond": tail_ok,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    })
    if tracer is None:
        record["metrics"] = {
            "setup_s": statistics.median(setup_times),
            "unit_ms_p50": statistics.median(untraced_ms),
            "unit_ms_p90": p90,
            "units_per_s": units_per_s,
            "peak_rss_mb": record["peak_rss_mb"],
        }
        return record
    traced_ms = [1e3 * t for t, tr in zip(latencies, traced) if tr]
    extra = dict(extra)
    extra["trace.units"] = len(traced_ms)
    extra["trace.overhead_ratio"] = statistics.median(traced_ms) / statistics.median(untraced_ms)
    summary = summarize(tracer.recorder)
    record["metrics"] = layer_metrics(summary, len(traced_ms), frames, extra)
    record["traced_unit_ms_p50"] = statistics.median(traced_ms)
    record["untraced_unit_ms_p50"] = statistics.median(untraced_ms)
    return record


def environment() -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "thread_env": {k: os.environ.get(k) for k in THREAD_ENV_VARS},
        "srrnet_path": str(Path(srrnet.__file__).parent),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="run one benchmark workload in this process")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--fixtures", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--result", required=True)
    args = parser.parse_args(argv)
    wl = WORKLOADS[args.workload]
    fixtures, out = Path(args.fixtures), Path(args.out)
    with contextlib.ExitStack() as stack:
        # The probe goes in first so the span wrappers wrap it, not the reverse.
        probe = (stack.enter_context(ReferenceProbe())
                 if args.trace and wl.kind == "stream" else None)
        tracer = Instrumentation(SpanRecorder()) if args.trace else None
        if tracer is not None:
            tracer.set(True)  # set-up is traced whole
        if wl.kind == "stream":
            record = run_stream(wl, args, fixtures, out, tracer, probe)
        else:
            record = run_train(wl, args, fixtures, out, tracer)
    record["environment"] = environment()
    if tracer is not None:
        tracer.recorder.write_csv(out / "spans.csv")
        record["spans"] = len(tracer.recorder.spans)
    Path(args.result).write_text(json.dumps(record, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
