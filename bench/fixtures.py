"""Fixture step: generate a workload's inputs from the benchmark seed.

Runs in its own process before the workload process starts, so the
workload's set-up time and peak RSS cover only what a user of ``srrnet
infer``/``eval``/``train`` pays. Usage:

    python3 bench/fixtures.py --workload NAME --seed N --seconds S --out DIR
"""

from __future__ import annotations

import argparse
from pathlib import Path

import numpy as np

from srrnet.model import build_model
from srrnet.nn import save_checkpoint
from srrnet.pnm import write_frame, write_pgm
from srrnet.synth import SynthParams, generate_arrays

from spec import SYNTH_CONTRAST, TRAIN_FRAMES, TRAIN_OCCLUSION, WORKLOADS

SYNTH_ATTEMPTS = 100
CHECKPOINT_SEED_OFFSET = 1  # checkpoint weights differ from a fresh build_model(seed=0)


def synth_arrays(seed: int, **params):
    """Generated frames and masks for ``seed``.

    The generator rejects a few seeds through its own mask-area self-check;
    those fall through to a derived seed, deterministically, so every
    benchmark seed yields valid inputs.
    """
    for attempt in range(SYNTH_ATTEMPTS):
        try:
            return generate_arrays(SynthParams(seed=seed + attempt * 1_000_003, **params))
        except RuntimeError:
            continue
    raise RuntimeError(f"no valid synthetic sequence for seed {seed}")


def write_sequence(frames, masks, out_dir: Path):
    out_dir.mkdir(parents=True, exist_ok=True)
    for i, (frame, mask) in enumerate(zip(frames, masks)):
        write_frame(out_dir / f"{i:05d}.ppm", frame)
        write_pgm(out_dir / f"{i:05d}.pgm", (mask[0] >= 0.5).astype(np.uint8) * 255)


def make_fixtures(workload_name: str, seed: int, seconds: float, out: Path):
    wl = WORKLOADS[workload_name]
    out.mkdir(parents=True, exist_ok=True)
    if wl.kind == "stream":
        frames, masks = synth_arrays(seed, frames=wl.units(seconds), size=wl.size,
                                     contrast=SYNTH_CONTRAST)
        write_sequence(frames, masks, out / "seq")
        save_checkpoint(out / "model.npz",
                        build_model(wl.preset, seed=seed + CHECKPOINT_SEED_OFFSET))
    else:
        frames, masks = synth_arrays(seed, frames=TRAIN_FRAMES, size=wl.size,
                                     contrast=SYNTH_CONTRAST,
                                     occlusion_prob=TRAIN_OCCLUSION)
        write_sequence(frames, masks, out / "video" / "seq000")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    make_fixtures(args.workload, args.seed, args.seconds, Path(args.out))


if __name__ == "__main__":
    main()
