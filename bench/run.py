"""srrnet benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a source checkout. The run has two steps, each in its
own process: the fixture step generates the workload's inputs from the seed,
then the workload process sets up, runs the timed pass with BLAS threads
pinned in its environment, and checks its outputs. This process prints every
metric by name with its unit, then a run record, and as the last line one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``. With
``--trace 0`` the metrics are the end-to-end ones, with ``--trace 1`` the
per-layer ones from a traced run.

Exit codes: 0 when a result was printed (``correct`` says whether the outputs
passed their checks), 1 when a step failed or timed out, 2 when the source
tree is missing.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

from spec import (  # noqa: E402
    BLAS_THREADS, DEFAULT_SEED, END_TO_END, THREAD_ENV_VARS, WORKLOADS)
from tracing import PER_LAYER  # noqa: E402

WORK_DIR = ROOT / ".bench"
TOTAL_TIMEOUT_S = 170.0
FIXTURE_TIMEOUT_S = 120.0


def _read_loadavg():
    try:
        return Path("/proc/loadavg").read_text().split()[:3]
    except OSError:
        return None


def _git_sha():
    """HEAD of the checkout, or None when the root is not itself a git work tree.

    The ceiling keeps git from searching the directories above the checkout.
    """
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return head.stdout.strip() if head.returncode == 0 else None


def _source_sha256():
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "srrnet").rglob("*.py")):
        h.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def _child_env():
    env = dict(os.environ)
    for var in THREAD_ENV_VARS:
        env[var] = str(BLAS_THREADS)
    paths = [str(ROOT / "src"), str(BENCH_DIR)]
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return env


def _run_step(cmd, timeout):
    """Run one step to completion; the child is killed and reaped on timeout."""
    proc = subprocess.Popen(cmd, cwd=ROOT, env=_child_env(),
                            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    try:
        output, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        output, _ = proc.communicate()
        return None, output + f"\n[step timed out after {timeout:.0f} s]"
    return proc.returncode, output


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="srrnet benchmark (one run)")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    if not (ROOT / "src" / "srrnet" / "__init__.py").is_file():
        print(f"error: no srrnet source tree at {ROOT / 'src' / 'srrnet'}", file=sys.stderr)
        return 2

    began = time.monotonic()
    wl = WORKLOADS[args.workload]
    run_dir = WORK_DIR / f"{wl.name}-seed{args.seed}-trace{args.trace}"
    fixtures, out = run_dir / "fixtures", run_dir / "out"
    shutil.rmtree(run_dir, ignore_errors=True)
    out.mkdir(parents=True)
    result_path = run_dir / "result.json"
    loadavg_start = _read_loadavg()
    try:
        common = ["--workload", wl.name, "--seed", str(args.seed), "--seconds", str(args.seconds)]
        code, log = _run_step([sys.executable, str(BENCH_DIR / "fixtures.py"), *common,
                               "--out", str(fixtures)], FIXTURE_TIMEOUT_S)
        if code != 0:
            print(log, file=sys.stderr)
            print("error: fixture step failed", file=sys.stderr)
            return 1
        remaining = TOTAL_TIMEOUT_S - (time.monotonic() - began)
        code, log = _run_step([sys.executable, str(BENCH_DIR / "workloads.py"), *common,
                               "--trace", str(args.trace), "--fixtures", str(fixtures),
                               "--out", str(out), "--result", str(result_path)], remaining)
        if code != 0 or not result_path.is_file():
            print(log, file=sys.stderr)
            print("error: workload step failed", file=sys.stderr)
            return 1
        if log.strip():
            print(log.rstrip(), file=sys.stderr)
        child = json.loads(result_path.read_text())
    finally:
        shutil.rmtree(fixtures, ignore_errors=True)
        shutil.rmtree(out / "pred", ignore_errors=True)
        shutil.rmtree(out / "train", ignore_errors=True)
        if out.is_dir() and not any(out.iterdir()):
            out.rmdir()

    attempted, failed = child["units"], child["failed"]
    units = {name: unit for name, unit, *_ in END_TO_END + PER_LAYER}
    metrics = {name: {"value": value, "unit": units[name]}
               for name, value in child["metrics"].items()}
    record = {
        "workload": wl.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": _git_sha(),
        "source_sha256": _source_sha256(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "loadavg_start": loadavg_start,
        "loadavg_end": _read_loadavg(),
        "fail_rate": failed / attempted,
        **{k: v for k, v in child.items() if k != "metrics"},
    }
    (run_dir / "record.json").write_text(json.dumps(record, indent=1))
    for name, entry in metrics.items():
        print(f"{name:32s} {entry['value']:14.6g} {entry['unit']}")
    print(f"fail_rate {failed}/{attempted}  outputs_sha256 {child['outputs_sha256']}")
    print("record " + json.dumps(record, sort_keys=True))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
