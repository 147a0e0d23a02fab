"""Self-tests of the benchmark: arithmetic, checks, and a smoke run per workload.

    python3 -m pytest bench/tests -q
"""

from __future__ import annotations

import argparse
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
for path in (str(ROOT / "src"), str(BENCH)):
    if path not in sys.path:
        sys.path.insert(0, path)

import srrnet.decoder  # noqa: E402
import srrnet.pipeline  # noqa: E402
from srrnet.tensor import Tensor  # noqa: E402
from checks import (  # noqa: E402
    check_stream_results,
    expected_references,
    percentile,
    tail_percentile,
)
from fixtures import make_fixtures  # noqa: E402
from spec import END_TO_END, WORKLOADS  # noqa: E402
from tracing import PER_LAYER, SpanRecorder, self_times, summarize  # noqa: E402
import workloads  # noqa: E402


# ---------------------------------------------------------------------------
# self time


def test_self_time_subtracts_union_of_children():
    spans = [
        ("a", 0, 100, -1),
        ("b", 10, 40, 0),
        ("c", 30, 60, 0),   # overlaps b: the union 10..60 is covered once
        ("d", 15, 20, 1),   # grandchild: counts against b only
        ("e", 95, 120, 0),  # clipped to the parent's interval
    ]
    assert self_times(spans) == [100 - 50 - 5, 30 - 5, 30, 5, 25]


def test_recorder_nests_spans_and_sums_self_time():
    ticks = iter(range(0, 1000, 10))
    rec = SpanRecorder(clock=lambda: next(ticks))

    leaf = rec.wrap(lambda: None, "leaf")

    def middle():
        leaf()
        leaf()

    outer = rec.wrap(rec.wrap(middle, "middle"), "outer")
    outer()
    by_name = summarize(rec)
    # outer 0..70, middle 10..60, leaves 20..30 and 40..50
    assert by_name["outer"] == {"calls": 1, "total_ns": 70, "self_ns": 20}
    assert by_name["middle"] == {"calls": 1, "total_ns": 50, "self_ns": 30}
    assert by_name["leaf"] == {"calls": 2, "total_ns": 20, "self_ns": 20}
    parents = [rec.names[s[0]] if s[3] < 0 else rec.names[rec.spans[s[3]][0]]
               for s in rec.spans]
    assert parents == ["outer", "outer", "middle", "middle"]


# ---------------------------------------------------------------------------
# order statistics


def test_percentile_matches_numpy_linear():
    values = list(np.random.default_rng(0).random(37))
    for q in (0, 12.5, 50, 90, 100):
        assert percentile(values, q) == pytest.approx(np.percentile(values, q))


@pytest.mark.parametrize("n, ok", [(90, False), (99, True), (100, True), (150, True)])
def test_p90_needs_ten_samples_beyond(n, ok):
    value, beyond, has_tail = tail_percentile([float(i) for i in range(n)], 90.0)
    assert beyond == sum(1 for i in range(n) if i > value)
    assert has_tail is ok and (beyond >= 10) is ok


# ---------------------------------------------------------------------------
# output checks


def _results(scores):
    refs = expected_references(scores)
    return [srrnet.pipeline.StepResult(
        frame_index=i, o_msk=np.zeros((1, 4, 4)), o_err=np.full((1, 1, 1), 0.5),
        score=s, updated=u, ref_frame_index=r)
        for i, (s, (r, u)) in enumerate(zip(scores, refs))]


def test_prefix_argmin_is_earliest_minimum():
    assert expected_references([0.5, 0.4, 0.4, 0.6, 0.3]) == [
        (0, True), (1, True), (1, False), (1, False), (4, True)]
    assert expected_references([1.0, 2.0]) == [(0, False), (0, False)]


def test_checker_rejects_injected_reference_violation():
    results = _results([0.5, 0.4, 0.45, 0.3, 0.35])
    assert check_stream_results(results, (4, 4)) == {}
    results[2].ref_frame_index = 2  # not the prefix argmin
    results[4].updated = True        # 0.35 does not beat 0.3
    assert sorted(check_stream_results(results, (4, 4))) == [2, 4]


def test_checker_rejects_non_binary_mask():
    results = _results([0.5, 0.4])
    results[1].o_msk = np.full((1, 4, 4), 0.5)
    assert list(check_stream_results(results, (4, 4))) == [1]


def _args(name, seconds):
    return argparse.Namespace(workload=name, seed=3, seconds=seconds, trace=0)


def test_injected_nan_score_counts_as_failed_frame(tmp_path, monkeypatch):
    wl = WORKLOADS["stream_desk128"]
    make_fixtures(wl.name, 3, 1.0, tmp_path / "fx")
    mae_score = srrnet.decoder.mae_score
    calls = []

    def nan_on_third(o_err):
        calls.append(1)
        return Tensor(math.nan) if len(calls) == 3 else mae_score(o_err)

    monkeypatch.setattr(srrnet.decoder, "mae_score", nan_on_third)
    record = workloads.run_stream(wl, _args(wl.name, 1.0), tmp_path / "fx", tmp_path / "out", None)
    assert record["units"] == wl.units(1.0)
    assert record["failed"] == 1
    assert "frame 2: non-finite score nan" in record["failures"][0]


def test_injected_nan_loss_counts_as_failed_iteration(tmp_path, monkeypatch):
    wl = WORKLOADS["train_desk64"]
    make_fixtures(wl.name, 3, 0.5, tmp_path / "fx")
    compute_loss = srrnet.pipeline.compute_loss
    calls = []

    def nan_on_second(*args, **kwargs):
        loss, parts = compute_loss(*args, **kwargs)
        calls.append(1)
        if len(calls) == 2:
            parts = dict(parts, total=math.nan)
        return loss, parts

    monkeypatch.setattr(srrnet.pipeline, "compute_loss", nan_on_second)
    record = workloads.run_train(wl, _args(wl.name, 0.5), tmp_path / "fx", tmp_path / "out", None)
    assert record["units"] == wl.units(0.5)
    assert record["failed"] == 1
    assert record["failures"] == ["iteration 2: non-finite loss nan"]


# ---------------------------------------------------------------------------
# the benchmark definition and smoke runs


def _benchmark_json():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_benchmark_json_matches_emitted_metrics():
    spec = _benchmark_json()
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"], m["better"], m["bound"]) for m in spec["end_to_end"]] == \
        [tuple(row) for row in END_TO_END]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == \
        [tuple(row[:3]) for row in PER_LAYER]


def _run(cwd: Path, *args) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=180)


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_smoke_run_prints_every_end_to_end_metric(name):
    proc = _run(ROOT, "--workload", name, "--seed", "1", "--seconds", "0.5", "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] == WORKLOADS[name].units(0.5)
    expected = {m["name"]: m["unit"] for m in _benchmark_json()["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_smoke_traced_run_prints_every_per_layer_metric():
    proc = _run(ROOT, "--workload", "stream_desk128", "--seed", "1", "--seconds", "0.5",
                "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    expected = {m["name"]: m["unit"] for m in _benchmark_json()["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert result["metrics"]["tensor.softmax.calls"]["value"] > 0
    assert result["metrics"]["backbone.stage1.ms"]["value"] > 0


def test_refuses_to_run_without_the_source_tree(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "--workload", "stream_desk128", "--seconds", "0.5")
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
