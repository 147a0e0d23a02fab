"""Command-line surface: synth, train, infer, eval, trace-score, gradcheck, params.

All randomness is governed by ``--seed`` (``params`` draws nothing and has no
``--seed``). A flat ``key=value`` config file can supply any long-option
default; explicit flags win. Exit codes: 0 success, 1 numeric/runtime failure,
2 usage error.

``train`` fixes the model, ``--error-target`` included, and stores its config
in the checkpoint (format 3: the parameters as one flat float64 member;
format-1 and format-2 files are refused, naming their format); ``infer`` and
``trace-score`` take the model from the checkpoint and have no model flags. A
checkpoint that cannot be read, corrupt members included, is an ``error:``
line with exit 1.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

from . import __version__
from .data import load_sequence, load_static_pool, load_video_dataset
from .gradcheck import DEFAULT_TOL, gradcheck_model
from .metrics import evaluate_dataset, format_report_table, write_report_csv
from .decoder import ERROR_TARGETS
from .model import (FULL_SCALE_REFERENCE_PARAMS, PRESETS, SRRNet, build_model, load_model,
                    preset_config)
from .nn import count_parameters, load_checkpoint
from .pipeline import (
    REFERENCE_MODES,
    StepResult,
    TrainSchedule,
    infer_sequence,
    train,
    write_score_trace,
)
from .pnm import write_error_map, write_mask
from .synth import SynthParams, generate_sequence, generate_static_pool
from .attention import ATTENTION_MODES


def _read_config_file(path: str) -> dict:
    """Parse a flat key=value file into an argparse defaults dict."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ValueError(f"cannot read config file {path}: {exc.strerror}") from exc
    values = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, value = line.split("=", 1)
        values[key.strip().replace("-", "_")] = value.strip()
    return values


def _add_config(parser: argparse.ArgumentParser):
    parser.add_argument("--config", type=str, default=None,
                        help="flat key=value config file; flags override it")


def _add_common(parser: argparse.ArgumentParser):
    parser.add_argument("--seed", type=int, default=0)
    _add_config(parser)


def _add_model_flags(parser: argparse.ArgumentParser):
    parser.add_argument("--preset", choices=PRESETS, default="desk")
    parser.add_argument("--attention-mode", choices=ATTENTION_MODES, default="rma")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="srrnet",
                                     description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic camouflage sequence")
    _add_common(p)
    p.add_argument("--out", required=True)
    p.add_argument("--frames", type=int, default=SynthParams.frames)
    p.add_argument("--size", type=int, default=SynthParams.size)
    p.add_argument("--contrast", type=float, default=SynthParams.contrast)
    p.add_argument("--texture-grain", type=int, default=SynthParams.texture_grain)
    p.add_argument("--motion-amplitude", type=float, default=SynthParams.motion_amplitude)
    p.add_argument("--occlusion-prob", type=float, default=SynthParams.occlusion_prob)
    p.add_argument("--static-pool", type=int, default=0, metavar="N",
                   help="instead generate a static pretraining pool of N images")

    p = sub.add_parser("train", help="train a model on dataset directories")
    _add_common(p)
    _add_model_flags(p)
    p.add_argument("--video-data", type=str, default=None)
    p.add_argument("--static-data", type=str, default=None)
    p.add_argument("--out", required=True)
    p.add_argument("--static-iterations", type=int, default=TrainSchedule.static_iterations)
    p.add_argument("--video-iterations", type=int, default=TrainSchedule.video_iterations)
    p.add_argument("--static-lr", type=float, default=TrainSchedule.static_lr)
    p.add_argument("--video-lr", type=float, default=TrainSchedule.video_lr)
    p.add_argument("--gamma", type=float, default=TrainSchedule.gamma)
    p.add_argument("--error-target", choices=ERROR_TARGETS, default="absolute",
                   help="what the error head predicts; stored in the checkpoint")
    p.add_argument("--crop", type=int, default=TrainSchedule.crop)
    p.add_argument("--no-flip", action="store_true")
    p.add_argument("--mask-dropout", type=float, default=TrainSchedule.mask_dropout,
                   help="probability of zeroing each mask input channel per sample")
    p.add_argument("--checkpoint", type=str, default=None,
                   help="resume from an existing checkpoint")

    p = sub.add_parser("infer", help="sequential inference over a sequence directory")
    _add_common(p)
    p.add_argument("--data", required=True)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--reference-mode", choices=REFERENCE_MODES, default="scored")

    p = sub.add_parser("eval", help="evaluate prediction masks against ground truth")
    _add_common(p)
    p.add_argument("--pred", required=True)
    p.add_argument("--gt", required=True)
    p.add_argument("--out", type=str, default=None, help="CSV output path")
    p.add_argument("--allow-missing", action="store_true")
    p.add_argument("--flat", action="store_true",
                   help="average per frame instead of per sequence")

    p = sub.add_parser("trace-score", help="score trace CSV with true MAE column")
    _add_common(p)
    p.add_argument("--data", required=True, help="sequence directory with masks")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--reference-mode", choices=REFERENCE_MODES, default="scored")

    p = sub.add_parser("gradcheck", help="finite-difference gradient suite")
    _add_common(p)
    _add_model_flags(p)
    p.add_argument("--size", type=int, default=32)
    p.add_argument("--samples-per-param", type=int, default=4)
    p.add_argument("--tol", type=float, default=DEFAULT_TOL)

    p = sub.add_parser("params", help="parameter count per preset")
    _add_config(p)
    p.add_argument("--preset", choices=PRESETS, default="desk")
    return parser


_BOOLEANS = {"true": True, "false": False, "yes": True, "no": False, "1": True, "0": False}


def _apply_config_file(parser: argparse.ArgumentParser, argv: list[str]) -> argparse.Namespace:
    # Pre-scan for --config so file values become defaults before final parsing.
    pre, _ = parser.parse_known_args(argv)
    if getattr(pre, "config", None):
        values = _read_config_file(pre.config)
        sub = parser._subparsers._group_actions[0].choices[pre.command]
        unknown = set(values) - {a.dest for a in sub._actions}
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        typed = {}
        for action in sub._actions:
            if action.dest in values:
                raw = values[action.dest]
                if action.type is not None:
                    try:
                        value = action.type(raw)
                    except ValueError:
                        raise ValueError(f"config key {action.dest}={raw!r} is not a valid "
                                         f"{action.type.__name__}") from None
                elif isinstance(action, argparse._StoreTrueAction):
                    if raw.lower() not in _BOOLEANS:
                        raise ValueError(f"config key {action.dest}={raw!r} is not one of "
                                         f"{list(_BOOLEANS)}")
                    value = _BOOLEANS[raw.lower()]
                else:
                    value = raw
                if action.choices is not None and value not in action.choices:
                    raise ValueError(f"config key {action.dest}={raw!r} is not one of "
                                     f"{list(action.choices)}")
                typed[action.dest] = value
        sub.set_defaults(**typed)
    return parser.parse_args(argv)


# ---------------------------------------------------------------------------
# command implementations


def _cmd_synth(args) -> int:
    if args.static_pool:
        out = generate_static_pool(args.seed, args.static_pool, args.size, args.out)
        print(f"wrote static pool of {args.static_pool} images to {out}")
        return 0
    params = SynthParams(seed=args.seed, frames=args.frames, size=args.size,
                         texture_grain=args.texture_grain, contrast=args.contrast,
                         motion_amplitude=args.motion_amplitude,
                         occlusion_prob=args.occlusion_prob)
    out = generate_sequence(params, args.out)
    print(f"wrote {args.frames} frames to {out}")
    return 0


def _cmd_train(args) -> int:
    if args.checkpoint:  # every weight comes from the file, so none is drawn
        model = SRRNet(preset_config(args.preset, attention_mode=args.attention_mode,
                                     error_target=args.error_target))
        load_checkpoint(args.checkpoint, model)
    else:
        model = build_model(args.preset, attention_mode=args.attention_mode,
                            seed=args.seed, error_target=args.error_target)
    schedule = TrainSchedule(
        static_iterations=args.static_iterations,
        video_iterations=args.video_iterations,
        static_lr=args.static_lr, video_lr=args.video_lr,
        gamma=args.gamma, seed=args.seed, flip=not args.no_flip, crop=args.crop,
        mask_dropout=args.mask_dropout)
    video = load_video_dataset(args.video_data) if args.video_data else None
    static = load_static_pool(args.static_data) if args.static_data else None

    def progress(it, parts):
        print(f"iter {it}: bce={parts['bce']:.5f} mse={parts['mse']:.5f} "
              f"total={parts['total']:.5f}")

    result = train(model, schedule, video_sequences=video, static_pool=static,
                   out_dir=args.out, progress=progress)
    print(f"checkpoint: {result.checkpoint_path}")
    print(f"loss trace: {result.csv_path}")
    return 0


def _infer_with_trace(args, trace_path, require_masks: bool
                      ) -> tuple[SRRNet, list[StepResult], list[float] | None]:
    """Run the checkpoint's model over ``--data`` once and write its score trace.

    Also returns each frame's true MAE as the trace wrote it, ``None`` unless
    every frame has a mask. A non-finite score is refused, naming its frame,
    before anything is written.
    """
    model = load_model(args.checkpoint)
    record = load_sequence(args.data, require_masks=require_masks)
    results = infer_sequence(model, record.frames,
                             reference_mode=args.reference_mode, seed=args.seed)
    for res in results:
        if not math.isfinite(res.score):
            raise RuntimeError(f"non-finite score {res.score} at frame {res.frame_index}")
    gts = record.masks if len(record.masks) == len(record.frames) else None
    Path(trace_path).parent.mkdir(parents=True, exist_ok=True)
    return model, results, write_score_trace(trace_path, results, gts)


def _cmd_infer(args) -> int:
    out = Path(args.out)
    model, results, _ = _infer_with_trace(args, out / "scores.csv", require_masks=False)
    signed = model.config.decoder.error_target == "signed"
    for res in results:
        write_mask(out / f"{res.frame_index:05d}.pgm", res.o_msk)
        # a signed error in (-1, 1) is shifted to (0, 1), so its negative half survives
        write_error_map(out / f"{res.frame_index:05d}_err.pgm",
                        (res.o_err + 1.0) / 2.0 if signed else res.o_err)
    print(f"wrote {len(results)} masks to {out}")
    return 0


def _cmd_eval(args) -> int:
    report = evaluate_dataset(args.pred, args.gt, allow_missing=args.allow_missing,
                              flat=args.flat)
    print(format_report_table(report))
    if args.out:
        write_report_csv(args.out, report)
        print(f"csv: {args.out}")
    return 0


def _cmd_trace_score(args) -> int:
    from scipy import stats  # about 0.5 s to import; no other command needs it

    _, results, maes = _infer_with_trace(args, args.out, require_masks=True)
    print(f"score trace: {args.out}")
    print(f"reference updates: {sum(r.updated for r in results)} of {len(results)} frames")
    rho = stats.spearmanr([r.score for r in results], maes).statistic
    print(f"Spearman(score, true MAE): {rho:.4f}")
    return 0


def _cmd_gradcheck(args) -> int:
    model = build_model(args.preset, attention_mode=args.attention_mode,
                        seed=args.seed)
    report = gradcheck_model(model, size=args.size,
                             samples_per_param=args.samples_per_param,
                             tol=args.tol, seed=args.seed)
    worst = report.worst()
    print(f"checked {len(report.checks)} parameter tensors; "
          f"max relative error {report.max_rel_err:.3e} "
          f"(worst: {worst.name if worst else 'n/a'}), tolerance {report.tol:.1e}")
    if not report.passed:
        print("GRADCHECK FAILED", file=sys.stderr)
        return 1
    print("gradcheck passed")
    return 0


def _cmd_params(args) -> int:
    total = count_parameters(SRRNet(preset_config(args.preset)))  # draws no weights
    print(f"preset {args.preset}: {total:,} parameters ({total / 1e6:.2f}M)")
    if args.preset == "full":
        ratio = total / FULL_SCALE_REFERENCE_PARAMS
        print(f"reference full-scale count: {FULL_SCALE_REFERENCE_PARAMS / 1e6:.2f}M "
              f"(this preset is {ratio:.2%} of it)")
    return 0


_COMMANDS = {
    "synth": _cmd_synth,
    "train": _cmd_train,
    "infer": _cmd_infer,
    "eval": _cmd_eval,
    "trace-score": _cmd_trace_score,
    "gradcheck": _cmd_gradcheck,
    "params": _cmd_params,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = _apply_config_file(parser, sys.argv[1:] if argv is None else list(argv))
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        return _COMMANDS[args.command](args)
    except (ValueError, OSError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
