"""Workload definitions shared by the fixture step, the workload process and run.py.

Each workload does a fixed amount of work per run, sized from ``--seconds``
at a nominal rate measured on a 2-core x86 host with one BLAS thread, so a run
of ``--seconds N`` measures about N seconds there. Fixed work makes every
output (written files, loss trace) a pure function of the seed, which is what
lets a later change claim bit-identical outputs.
"""

from __future__ import annotations

from dataclasses import dataclass

# Set-up (build model + load checkpoint + load data) is repeated and the
# median reported, because a single set-up is too noisy: at least
# SETUP_MIN_REPEATS times, then until SETUP_MIN_SECONDS have been spent (the
# desk set-ups take milliseconds), at most SETUP_MAX_REPEATS times.
SETUP_MIN_REPEATS = 3
SETUP_MIN_SECONDS = 1.0
SETUP_MAX_REPEATS = 25

# Pinned in the workload process's environment before numpy is imported.
BLAS_THREADS = 1
THREAD_ENV_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# (metric, unit, better, bound): what a user of the system waits on.
END_TO_END = [
    ("setup_s", "s", "lower", 0.25),
    ("unit_ms_p50", "ms", "lower", 0.25),
    ("unit_ms_p90", "ms", "lower", 0.25),
    ("units_per_s", "1/s", "higher", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
]

DEFAULT_SEED = 0  # confirm a claim on the held-out seed 17 as well


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str               # "stream" or "train"
    preset: str
    size: int
    units_per_second: float  # nominal frames or iterations per measured second
    reference_mode: str = "scored"
    why: str = ""

    def units(self, seconds: float) -> int:
        return max(2, int(round(seconds * self.units_per_second)))


WORKLOADS = {
    w.name: w for w in (
        Workload(
            name="stream_desk128", kind="stream", preset="desk", size=128,
            units_per_second=6.0, reference_mode="scored",
            why="desk model at 128x128, scored reference: softmax-bound, the "
                "reference changes on ~1-5% of frames, so attention and "
                "reference-reuse gains show here"),
        Workload(
            name="stream_full64_random", kind="stream", preset="full", size=64,
            units_per_second=4.0, reference_mode="random",
            why="60.75M-param model at 64x64, random reference: dense "
                "matmul/conv-bound, reference input changes almost every "
                "frame, so reuse and softmax gains should not move it"),
        Workload(
            name="train_desk64", kind="train", preset="desk", size=64,
            units_per_second=12.0,
            why="desk training on a 16-frame occluded 64x64 sequence: the "
                "same tensor/nn layers with the gradient tape on; backward "
                "and AdamW only run here"),
    )
}

# Training recipe of the overfit acceptance criterion, driven through
# pipeline.train.
TRAIN_FRAMES = 16
TRAIN_LR = 1e-3
TRAIN_MASK_DROPOUT = 0.3
TRAIN_OCCLUSION = 0.5
SYNTH_CONTRAST = 0.35
FINAL_LOSS_WINDOW = 50  # final_loss is the mean total loss of this many last iterations
