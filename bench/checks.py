"""Output checks and order statistics for the benchmark.

The checks are written from the documented contracts (the prefix-argmin
reference rule, binary masks, the PGM and ``scores.csv`` formats), not from
the package's code, so they catch a change that breaks a contract while
keeping the code self-consistent.
"""

from __future__ import annotations

import csv
import hashlib
import math
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

SCORE_DECIMALS = 9


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolation percentile (numpy's default method), q in [0, 100]."""
    if not values:
        raise ValueError("percentile of no values")
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def tail_percentile(values: Sequence[float], q: float = 90.0, min_beyond: int = 10):
    """The q-th percentile with the count of samples strictly beyond it.

    ``ok`` says whether at least ``min_beyond`` samples lie beyond it, the
    rule a reported tail percentile must meet.
    """
    value = percentile(values, q)
    beyond = sum(1 for v in values if v > value)
    return value, beyond, beyond >= min_beyond


def expected_references(scores: Sequence[float], initial_score: float = 1.0):
    """Replay of the reference rule: the reference is the running argmin of the
    score stream (earliest minimum), starting from frame 0 at ``initial_score``.

    Returns one ``(ref_frame_index, updated)`` pair per frame.
    """
    best, ref = initial_score, 0
    out = []
    for index, score in enumerate(scores):
        updated = score < best
        if updated:
            best, ref = score, index
        out.append((ref, updated))
    return out


def check_stream_results(results: Sequence, frame_shape: tuple) -> dict[int, list[str]]:
    """Per-frame problems of a session's StepResults (missing ones are exceptions)."""
    problems: dict[int, list[str]] = {}
    scores = [r.score if r is not None else math.inf for r in results]
    expected = expected_references(scores)
    for index, res in enumerate(results):
        found = []
        if res is None:
            found.append("step raised")
        else:
            if res.frame_index != index:
                found.append(f"frame_index {res.frame_index} != {index}")
            if not math.isfinite(res.score):
                found.append(f"non-finite score {res.score}")
            mask = np.asarray(res.o_msk)
            if mask.shape != (1,) + tuple(frame_shape):
                found.append(f"mask shape {mask.shape}")
            elif not np.isin(mask, (0.0, 1.0)).all():
                found.append("mask is not binary")
            if not np.isfinite(np.asarray(res.o_err)).all():
                found.append("non-finite error map")
            ref, updated = expected[index]
            if res.ref_frame_index != ref:
                found.append(f"ref_frame_index {res.ref_frame_index} != prefix argmin {ref}")
            if bool(res.updated) != updated:
                found.append(f"updated {res.updated} != {updated}")
        if found:
            problems[index] = found
    return problems


def read_pgm_bytes(path) -> np.ndarray:
    """Pixels of a binary 8-bit PGM written as ``P5\\n<w> <h>\\n255\\n<bytes>``."""
    data = Path(path).read_bytes()
    parts = data.split(b"\n", 3)
    if len(parts) != 4 or parts[0] != b"P5" or parts[2] != b"255":
        raise ValueError(f"{path}: unexpected PGM header")
    width, height = (int(v) for v in parts[1].split())
    pixels = np.frombuffer(parts[3], dtype=np.uint8)
    if pixels.size != width * height:
        raise ValueError(f"{path}: {pixels.size} pixels for {width}x{height}")
    return pixels.reshape(height, width)


def check_written(out_dir: Path, results: Sequence,
                  gts: Optional[Sequence[np.ndarray]]) -> dict[int, list[str]]:
    """Per-frame disagreements between written files and in-memory StepResults."""
    problems: dict[int, list[str]] = {}
    rows = {}
    try:
        with open(out_dir / "scores.csv", newline="") as f:
            reader = csv.reader(f)
            header = next(reader)
            if header != ["frame_index", "score", "true_mae", "updated", "ref_frame_index"]:
                raise ValueError(f"scores.csv header {header}")
            for row in reader:
                rows[int(row[0])] = row
    except (OSError, ValueError, StopIteration, IndexError) as exc:
        rows = None
        trace_error = f"scores.csv unreadable: {exc}"
    tolerance = 0.5 * 10.0 ** -SCORE_DECIMALS + 1e-15
    for index, res in enumerate(results):
        if res is None:
            continue
        found = []
        try:
            mask = read_pgm_bytes(out_dir / f"{index:05d}.pgm")
            want = (np.asarray(res.o_msk)[0] >= 0.5).astype(np.uint8) * 255
            if not np.array_equal(mask, want):
                found.append("mask file disagrees")
            err = read_pgm_bytes(out_dir / f"{index:05d}_err.pgm")
            e = np.asarray(res.o_err, dtype=np.float64).reshape(err.shape)
            want = np.floor(np.clip(e, 0.0, 1.0) * 255.0 + 0.5).astype(np.uint8)
            if not np.array_equal(err, want):
                found.append("error map file disagrees")
        except (OSError, ValueError) as exc:
            found.append(f"output file unreadable: {exc}")
        if rows is None:
            found.append(trace_error)
        elif index not in rows:
            found.append("missing from scores.csv")
        else:
            _, score, true_mae, updated, ref = rows[index]
            if abs(float(score) - res.score) > tolerance:
                found.append(f"scores.csv score {score} != {res.score}")
            if int(updated) != int(res.updated) or int(ref) != res.ref_frame_index:
                found.append("scores.csv update/reference disagrees")
            if gts is not None:
                mae = float(np.abs(np.asarray(res.o_msk) - gts[index]).mean())
                if true_mae == "" or abs(float(true_mae) - mae) > tolerance:
                    found.append(f"scores.csv true_mae {true_mae!r} != {mae}")
        if found:
            problems[index] = found
    return problems


def digest_dir(directory: Path) -> str:
    """sha256 over every file below ``directory``: relative name, then bytes."""
    h = hashlib.sha256()
    for path in sorted(p for p in Path(directory).rglob("*") if p.is_file()):
        h.update(str(path.relative_to(directory)).encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()
