"""Command-line surface: subcommands, config files, exit codes."""

import csv
import json
import shutil
import zipfile

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats

from srrnet.cli import _apply_config_file, build_parser, main
from srrnet.data import load_sequence
from srrnet.model import build_model, load_model
from srrnet.nn import load_checkpoint
from srrnet.pipeline import infer_sequence, write_score_trace
from srrnet.pnm import read_pgm, read_ppm
from srrnet.tensor import Tensor

from conftest import needs_proc, run_peak_probe


def run_cli(*args):
    return main(list(args))


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """A tiny but complete synth -> train -> infer -> eval workspace."""
    root = tmp_path_factory.mktemp("cli")
    data = root / "video" / "seq0"
    assert run_cli("synth", "--out", str(data), "--frames", "4", "--size", "32",
                   "--seed", "3") == 0
    assert run_cli("synth", "--out", str(root / "pool"), "--static-pool", "4",
                   "--size", "32", "--seed", "5") == 0
    assert run_cli("train", "--video-data", str(root / "video"),
                   "--static-data", str(root / "pool"),
                   "--out", str(root / "run"), "--static-iterations", "2",
                   "--video-iterations", "2", "--static-lr", "1e-4",
                   "--video-lr", "1e-4", "--seed", "0") == 0
    return root


def test_synth_writes_expected_layout(workspace):
    seq = workspace / "video" / "seq0"
    assert sorted(p.name for p in seq.iterdir()) == [
        "00000.pgm", "00000.ppm", "00001.pgm", "00001.ppm",
        "00002.pgm", "00002.ppm", "00003.pgm", "00003.ppm"]


def test_train_artifacts(workspace):
    run = workspace / "run"
    assert (run / "checkpoint.npz").exists()
    with open(run / "loss.csv") as f:
        rows = list(csv.reader(f))
    assert rows[0] == ["iteration", "stage", "bce", "mse", "total"]
    assert [r[1] for r in rows[1:]] == ["static", "static", "video", "video"]


def test_train_non_finite_loss_exits_1(workspace, monkeypatch, capsys):
    import srrnet.pipeline as pipeline
    real = pipeline.compute_loss

    def nan_loss(*args, **kwargs):
        return Tensor(np.nan), real(*args, **kwargs)[1]

    monkeypatch.setattr(pipeline, "compute_loss", nan_loss)
    assert run_cli("train", "--video-data", str(workspace / "video"),
                   "--out", str(workspace / "nan_run"), "--video-iterations", "1",
                   "--seed", "0") == 1
    assert "non-finite loss nan at video iteration 1" in capsys.readouterr().err
    assert not (workspace / "nan_run" / "checkpoint.npz").exists()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the gradients overflow on purpose
def test_train_refuses_to_save_non_finite_weights(workspace, capsys):
    assert run_cli("train", "--video-data", str(workspace / "video"),
                   "--out", str(workspace / "inf_run"), "--video-iterations", "1",
                   "--gamma", "1e308") == 1
    assert "is not finite; no checkpoint written" in capsys.readouterr().err
    assert not (workspace / "inf_run" / "checkpoint.npz").exists()


@pytest.mark.parametrize("command", ["infer", "trace-score"])
def test_a_non_finite_score_exits_1_naming_the_frame(workspace, tmp_path, monkeypatch, capsys,
                                                     command):
    import srrnet.decoder as decoder
    real = decoder.mae_score
    calls = []

    def nan_on_third(o_err):
        calls.append(1)
        return Tensor(np.nan) if len(calls) == 3 else real(o_err)

    monkeypatch.setattr(decoder, "mae_score", nan_on_third)
    assert run_cli(command, "--data", str(workspace / "video" / "seq0"),
                   "--checkpoint", str(workspace / "run" / "checkpoint.npz"),
                   "--out", str(tmp_path / "out")) == 1
    assert "non-finite score nan at frame 2" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


def test_a_directory_as_the_checkpoint_exits_1_with_an_error_line(workspace, tmp_path, capsys):
    """Any OSError is reported as one ``error:`` line, not a traceback."""
    assert run_cli("infer", "--data", str(workspace / "video" / "seq0"),
                   "--checkpoint", str(workspace / "run"), "--out", str(tmp_path / "out")) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Is a directory" in err
    assert len(err.splitlines()) == 1


def test_mixed_frame_extents_exit_1_naming_the_frame_before_any_step(workspace, tmp_path,
                                                                       capsys):
    seq = tmp_path / "video" / "mixed"
    seq.mkdir(parents=True)
    for stem in ("00000", "00001"):
        for ext in (".ppm", ".pgm"):
            shutil.copy(workspace / "video" / "seq0" / f"{stem}{ext}", seq)
    assert run_cli("synth", "--out", str(tmp_path / "big"), "--frames", "1", "--size", "64") == 0
    for ext in (".ppm", ".pgm"):
        shutil.copy(tmp_path / "big" / f"00000{ext}", seq / f"00002{ext}")
    checkpoint = str(workspace / "run" / "checkpoint.npz")
    out = tmp_path / "out"
    for argv in (["infer", "--data", str(seq), "--checkpoint", checkpoint, "--out", str(out)],
                 ["trace-score", "--data", str(seq), "--checkpoint", checkpoint,
                  "--out", str(out / "scores.csv")],
                 ["train", "--video-data", str(seq.parent), "--video-iterations", "1",
                  "--out", str(out)]):
        assert run_cli(*argv) == 1
        assert (f"frame {seq / '00002.ppm'} is 64x64 but the frames before it are 32x32"
                in capsys.readouterr().err)
        assert not out.exists()


INFER_PEAK = """
import sys
from srrnet.cli import main
assert main(sys.argv[1:]) == 0
print(peak_bytes())
"""


@needs_proc
def test_infer_peak_grows_by_a_few_bytes_a_pixel_per_frame(workspace, tmp_path):
    """``infer`` keeps a loaded sequence's file paths, and reads each frame
    and mask from its file when the pass reaches it.

    Between an N-frame and a 2N-frame 128x128 sequence the child's peak
    resident size grows by 0.8 to 1.7 bytes a pixel per extra frame, mostly
    the kept results' bool mask and quarter-resolution error map. Holding
    every frame at 8 bits a channel and every mask at one byte grew it by
    5.4, and holding them as float64 by about 44. At N = 40 or 80 the
    allocator's steps of a few MB spread the figure over 0.4 to 5.
    """
    n, size = 160, 128
    long = tmp_path / "long"
    assert run_cli("synth", "--out", str(long), "--frames", str(2 * n), "--size", str(size),
                   "--seed", "3") == 0
    short = tmp_path / "short"
    short.mkdir()
    for path in sorted(long.iterdir())[:2 * n]:  # the first n frames and their masks
        shutil.copy(path, short)
    peaks = [int(run_peak_probe(INFER_PEAK, "infer", "--data", seq,
                                "--checkpoint", workspace / "run" / "checkpoint.npz",
                                "--out", tmp_path / f"out_{seq.name}").split()[-1])
             for seq in (short, long)]
    per_pixel = (peaks[1] - peaks[0]) / (n * size * size)
    assert per_pixel < 3, (peaks, per_pixel)


TRAIN_PEAK = """
import sys
from srrnet.cli import main
start = resident_bytes()
assert main(sys.argv[1:]) == 0
print(peak_bytes() - start)
"""


@needs_proc
def test_a_192px_training_step_peaks_within_200_mb_of_its_start(tmp_path):
    """``srrnet train`` of one desk step on a 192x192 sequence rises at most
    200 MiB above the resident size it starts at.

    The taped attention core keeps q, k, v, its output and each tile's row
    sums, and its backward recomputes each tile's exponentials into one
    buffer: the rise measured 86 MiB. Keeping every tile's n_q x n_k
    exponentials until the backward (stage 1 runs 2,304 tokens a branch
    with ``sr_ratio`` 1) rose 497 MiB.
    """
    assert run_cli("synth", "--out", str(tmp_path / "video" / "seq"), "--size", "192",
                   "--frames", "2", "--seed", "3") == 0
    rise = int(run_peak_probe(TRAIN_PEAK, "train", "--video-data", tmp_path / "video",
                              "--video-iterations", "1", "--out", tmp_path / "run").split()[-1])
    assert rise < 200 * 2**20, rise / 2**20


def test_infer_and_eval(workspace):
    out = workspace / "pred" / "seq0"
    assert run_cli("infer", "--data", str(workspace / "video" / "seq0"),
                   "--checkpoint", str(workspace / "run" / "checkpoint.npz"),
                   "--out", str(out), "--seed", "0") == 0
    masks = sorted(p.name for p in out.glob("[0-9]*.pgm") if "_err" not in p.name)
    assert masks == ["00000.pgm", "00001.pgm", "00002.pgm", "00003.pgm"]
    errs = sorted(p.name for p in out.glob("*_err.pgm"))
    assert len(errs) == 4
    mask = read_pgm(out / "00000.pgm")
    assert mask.shape == (32, 32) and set(np.unique(mask)) <= {0, 255}
    assert read_pgm(out / "00000_err.pgm").shape == (8, 8)
    assert (out / "scores.csv").exists()

    assert run_cli("eval", "--pred", str(workspace / "pred"),
                   "--gt", str(workspace / "video"),
                   "--out", str(workspace / "report.csv")) == 0
    with open(workspace / "report.csv") as f:
        rows = list(csv.reader(f))
    assert rows[-1][0] == "__overall__"


def test_trace_score(workspace, capsys):
    trace = workspace / "trace.csv"
    assert run_cli("trace-score", "--data", str(workspace / "video" / "seq0"),
                   "--checkpoint", str(workspace / "run" / "checkpoint.npz"),
                   "--out", str(trace), "--seed", "0") == 0
    with open(trace) as f:
        rows = list(csv.reader(f))
    assert rows[0] == ["frame_index", "score", "true_mae", "updated", "ref_frame_index"]
    assert len(rows) == 5
    assert all(r[2] != "" for r in rows[1:])  # ground truth present -> true MAE filled

    printed = capsys.readouterr().out.splitlines()
    updates = sum(int(r[3]) for r in rows[1:])
    assert f"reference updates: {updates} of 4 frames" in printed
    rho = stats.spearmanr([float(r[1]) for r in rows[1:]], [float(r[2]) for r in rows[1:]])
    assert f"Spearman(score, true MAE): {rho.statistic:.4f}" in printed


@pytest.fixture(scope="module")
def full_signed_run(workspace):
    """A checkpoint trained with non-default attention mode and error target."""
    out = workspace / "full_signed"
    assert run_cli("train", "--video-data", str(workspace / "video"),
                   "--out", str(out), "--video-iterations", "2", "--video-lr", "1e-4",
                   "--attention-mode", "full", "--error-target", "signed",
                   "--seed", "0") == 0
    return out / "checkpoint.npz"


def test_trace_score_takes_the_model_from_the_checkpoint(workspace, full_signed_run, tmp_path):
    seq = workspace / "video" / "seq0"
    trace = tmp_path / "trace.csv"
    assert run_cli("trace-score", "--data", str(seq), "--checkpoint", str(full_signed_run),
                   "--out", str(trace), "--seed", "0") == 0
    model = build_model("desk", attention_mode="full", seed=0, error_target="signed")
    load_checkpoint(full_signed_run, model)
    record = load_sequence(seq, require_masks=True)
    expected = tmp_path / "expected.csv"
    write_score_trace(expected, infer_sequence(model, record.frames, seed=0), record.masks)
    assert trace.read_bytes() == expected.read_bytes()
    with open(trace) as f:
        scores = [float(r["score"]) for r in csv.DictReader(f)]
    assert max(abs(v) for v in scores) < 0.25  # a sigmoid head would read about 0.5


def test_infer_writes_a_signed_error_map_shifted_to_keep_its_sign(workspace, full_signed_run,
                                                                  tmp_path):
    """A signed error in (-1, 1) is written as (e + 1) / 2: a negative error reads below 128."""
    seq = workspace / "video" / "seq0"
    out = tmp_path / "pred"
    assert run_cli("infer", "--data", str(seq), "--checkpoint", str(full_signed_run),
                   "--out", str(out), "--seed", "0") == 0
    results = infer_sequence(load_model(full_signed_run), load_sequence(seq).frames, seed=0)
    below = 0
    for res in results:
        written = read_pgm(out / f"{res.frame_index:05d}_err.pgm")
        error = res.o_err.reshape(written.shape)
        np.testing.assert_array_equal(written, np.floor((error + 1.0) / 2.0 * 255.0 + 0.5))
        below += int((written < 128).sum())
    assert below > 0


def test_train_resume_refuses_contradicting_flags(workspace, full_signed_run, capsys):
    common = ["train", "--video-data", str(workspace / "video"),
              "--checkpoint", str(full_signed_run), "--error-target", "signed"]
    assert run_cli(*common, "--out", str(workspace / "resumed"),
                   "--attention-mode", "full") == 0
    capsys.readouterr()
    assert run_cli(*common, "--out", str(workspace / "refused"),
                   "--attention-mode", "rma") == 1
    err = capsys.readouterr().err
    assert "attention_mode='full'" in err and "attention_mode='rma'" in err


@pytest.mark.parametrize("flag, value, field", [("--static-iterations", "-1", "static_iterations"),
                                               ("--video-iterations", "-1", "video_iterations"),
                                               ("--video-lr", "-1", "video_lr"),
                                               ("--gamma", "-1", "gamma"),
                                               ("--crop", "40", "crop"),
                                               ("--crop", "96", "crop"),
                                               ("--mask-dropout", "1.5", "mask_dropout"),
                                               ("--video-lr", "nan", "video_lr"),
                                               ("--static-lr", "inf", "static_lr"),
                                               ("--gamma", "nan", "gamma"),
                                               ("--gamma", "inf", "gamma")])
def test_train_rejects_out_of_range_inputs(workspace, tmp_path, capsys, flag, value, field):
    assert run_cli("train", "--video-data", str(workspace / "video"),
                   "--out", str(tmp_path / "rejected"), flag, value) == 1
    assert field in capsys.readouterr().err
    assert not (tmp_path / "rejected").exists()


@pytest.mark.parametrize("command, flag", [("infer", "--preset"), ("infer", "--attention-mode"),
                                           ("trace-score", "--preset"),
                                           ("trace-score", "--attention-mode"),
                                           ("params", "--attention-mode"),
                                           ("params", "--seed"),
                                           ("gradcheck", "--gamma")])
def test_inference_commands_have_no_model_flags(workspace, capsys, command, flag):
    """Flags a command does not take are usage errors.

    ``infer``/``trace-score`` take the model from the checkpoint; ``params``
    counts the same parameters in every attention mode and draws no weights;
    ``gradcheck`` weighs the loss terms equally.
    """
    value = {"--preset": "desk", "--attention-mode": "rma", "--gamma": "1.0",
             "--seed": "0"}[flag]
    required = ["--data", str(workspace / "video" / "seq0"),
                "--checkpoint", str(workspace / "run" / "checkpoint.npz"),
                "--out", str(workspace / "unused")] if command in ("infer", "trace-score") else []
    with pytest.raises(SystemExit) as exc:
        run_cli(command, *required, flag, value)
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err


def test_infer_determinism(workspace, tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert run_cli("infer", "--data", str(workspace / "video" / "seq0"),
                       "--checkpoint", str(workspace / "run" / "checkpoint.npz"),
                       "--out", str(out), "--seed", "7") == 0
    for name in sorted(p.name for p in a.iterdir()):
        assert (a / name).read_bytes() == (b / name).read_bytes(), name


def test_params_command(capsys):
    assert run_cli("params", "--preset", "desk") == 0
    out = capsys.readouterr().out
    assert "129,693" in out


def test_params_counts_full_without_drawing(capsys, monkeypatch):
    def no_generator(*args, **kwargs):
        raise AssertionError("a random generator was created")

    monkeypatch.setattr(np.random, "default_rng", no_generator)
    assert run_cli("params", "--preset", "full") == 0
    assert "preset full: 60,750,661 parameters" in capsys.readouterr().out


def test_gradcheck_command(capsys):
    assert run_cli("gradcheck", "--preset", "desk", "--size", "32",
                   "--samples-per-param", "1", "--seed", "0") == 0
    assert "gradcheck passed" in capsys.readouterr().out


@pytest.mark.parametrize("flag, value, field", [("--samples-per-param", "0", "samples_per_param"),
                                               ("--tol", "0", "tol"), ("--tol", "inf", "tol"),
                                               ("--size", "0", "size"),
                                               ("--size", "-32", "size")])
def test_gradcheck_rejects_a_check_that_checks_nothing(capsys, flag, value, field):
    """No sampled entry, no tolerance an error can stay under, or no extent the
    stages divide is a failed run, naming the field."""
    assert run_cli("gradcheck", "--preset", "desk", flag, value) == 1
    captured = capsys.readouterr()
    assert field in captured.err and "gradcheck passed" not in captured.out


def test_synth_rejects_a_static_pool_of_no_images(tmp_path, capsys):
    assert run_cli("synth", "--out", str(tmp_path / "pool"), "--static-pool", "-3") == 1
    assert "images" in capsys.readouterr().err
    assert not (tmp_path / "pool").exists()


@pytest.mark.parametrize("size", ["0", "-32"])
def test_synth_rejects_a_size_below_32(tmp_path, size, capsys):
    assert run_cli("synth", "--out", str(tmp_path / "seq"), "--size", size) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "size" in err


@pytest.mark.parametrize("edit", [lambda cfg: cfg["decoder"].update(dropout=0.1),
                                  lambda cfg: cfg.pop("stages")],
                         ids=["unknown_field", "missing_field"])
def test_infer_rejects_a_checkpoint_config_that_builds_no_model(workspace, tmp_path, capsys,
                                                                edit):
    """An unknown or a missing config field is the CLI's error line, naming the checkpoint."""
    path = tmp_path / "doctored.npz"
    with np.load(workspace / "run" / "checkpoint.npz") as blob:
        arrays = {name: blob[name] for name in blob.files}
    config = json.loads(str(arrays["__config__"]))
    edit(config)
    arrays["__config__"] = np.asarray(json.dumps(config))
    np.savez(path, **arrays)
    assert run_cli("infer", "--data", str(workspace / "video" / "seq0"),
                   "--checkpoint", str(path), "--out", str(tmp_path / "out")) == 1
    assert f"error: checkpoint {path} " in capsys.readouterr().err


@pytest.mark.parametrize("command", ["infer", "trace-score", "train"])
def test_a_checkpoint_that_is_no_whole_npz_exits_1_naming_it(workspace, tmp_path, capsys,
                                                            command):
    """A copy cut short, an empty file or a single ``.npy`` array is the CLI's error line."""
    full = (workspace / "run" / "checkpoint.npz").read_bytes()
    (tmp_path / "cut.npz").write_bytes(full[:len(full) // 2])
    (tmp_path / "empty.npz").write_bytes(b"")
    np.save(tmp_path / "one.npy", np.zeros(3))
    data = ["--video-data", str(workspace / "video")] if command == "train" else \
        ["--data", str(workspace / "video" / "seq0")]
    for path, reason in ((tmp_path / "cut.npz", "is not a complete npz archive"),
                         (tmp_path / "empty.npz", "is not a complete npz archive"),
                         (tmp_path / "one.npy", "is a single array, not an npz archive")):
        assert run_cli(command, *data, "--checkpoint", str(path),
                       "--out", str(tmp_path / "out")) == 1
        assert f"error: checkpoint {path} {reason}" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["infer", "trace-score", "train"])
def test_a_checkpoint_with_a_corrupt_member_exits_1_naming_it(workspace, tmp_path, capsys,
                                                              command):
    """One flipped parameter byte fails the archive's CRC check: an error line, exit 1."""
    source = workspace / "run" / "checkpoint.npz"
    raw = bytearray(source.read_bytes())
    with zipfile.ZipFile(source) as archive:
        tail = archive.read("__params__.npy")[-64:]
    at = raw.find(tail)  # members are stored uncompressed, so their bytes appear as they are
    assert at > 0 and raw.find(tail, at + 1) == -1
    raw[at + 8] ^= 0xFF
    path = tmp_path / "flipped.npz"
    path.write_bytes(bytes(raw))
    data = ["--video-data", str(workspace / "video")] if command == "train" else \
        ["--data", str(workspace / "video" / "seq0")]
    assert run_cli(command, *data, "--checkpoint", str(path),
                   "--out", str(tmp_path / "out")) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: checkpoint {path} member __params__ is corrupt: "
                          "Bad CRC-32"), err


def test_config_file_supplies_defaults(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# synth settings\nframes=2\nsize=32\nseed=9\n")
    out = tmp_path / "seq"
    assert run_cli("synth", "--config", str(cfg), "--out", str(out)) == 0
    assert len(list(out.glob("*.ppm"))) == 2


def test_config_file_flag_overrides(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("frames=2\nsize=32\n")
    out = tmp_path / "seq"
    assert run_cli("synth", "--config", str(cfg), "--out", str(out),
                   "--frames", "3") == 0
    assert len(list(out.glob("*.ppm"))) == 3


def test_config_file_rejects_unknown_keys(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("bogus_key=1\n")
    assert run_cli("synth", "--config", str(cfg), "--out", str(tmp_path / "x")) == 2
    assert "unknown config keys" in capsys.readouterr().err
    # a config file that is missing or cannot be read is a usage error too
    for unreadable in (tmp_path / "nope.cfg", tmp_path):
        assert run_cli("synth", "--config", str(unreadable), "--out", str(tmp_path / "x")) == 2
        assert f"error: cannot read config file {unreadable}" in capsys.readouterr().err


def test_config_file_values_must_meet_the_flag_choices(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("preset=bogus\n")
    assert run_cli("params", "--config", str(cfg)) == 2
    assert "preset" in capsys.readouterr().err
    cfg.write_text("preset=desk\n")
    assert run_cli("params", "--config", str(cfg)) == 0
    # a store-true key takes true/false/yes/no/1/0 in any case, and nothing else
    cfg.write_text("flat=maybe\n")
    assert run_cli("eval", "--config", str(cfg), "--pred", "p", "--gt", "g") == 2
    assert "config key flat='maybe' is not one of" in capsys.readouterr().err
    for raw, flat in (("TRUE", True), ("No", False), ("1", True), ("0", False)):
        cfg.write_text(f"flat={raw}\n")
        args = _apply_config_file(build_parser(), ["eval", "--config", str(cfg),
                                                   "--pred", "p", "--gt", "g"])
        assert args.flat is flat
    # a typed value that does not convert names its key
    cfg.write_text("frames=abc\n")
    assert run_cli("synth", "--config", str(cfg), "--out", str(tmp_path / "x")) == 2
    assert "error: config key frames='abc' is not a valid int" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


def test_usage_errors_exit_2():
    with pytest.raises(SystemExit) as exc:
        run_cli("no-such-command")
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        run_cli("synth", "--no-such-flag")
    assert exc.value.code == 2


SYNTH_NUMBERS = ["contrast", "motion-amplitude", "occlusion-prob", "texture-grain"]
EDGE_VALUES = ["nan", "inf", "-inf", "0", "-0", "-1", "-4", "0.5", "1", "3", "1e300", "-1e300",
               "abc", "", "1,5", "0x10"]


def exit_code(argv) -> int:
    """``main``'s return value, or the code of argparse's usage-error exit."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


@given(values=st.fixed_dictionaries({name: st.none() | st.sampled_from(EDGE_VALUES)
                                     for name in SYNTH_NUMBERS}),
       in_config=st.fixed_dictionaries({name: st.booleans() for name in SYNTH_NUMBERS}),
       frames=st.integers(1, 3), size=st.sampled_from([32, 64]))
@settings(max_examples=80)
def test_synth_exits_0_1_or_2_on_any_value(tmp_path_factory, values, in_config, frames, size):
    """Edge values, as flags or through ``--config``: an exit code, never an exception.

    A run that exits 0 has written ``frames`` frames and masks that parse.
    """
    root = tmp_path_factory.mktemp("synth")
    argv = ["synth", "--out", str(root / "seq"), "--frames", str(frames), "--size", str(size)]
    config = [f"{name}={value}" for name, value in values.items()
              if value is not None and in_config[name]]
    argv += [f"--{name}={value}" for name, value in values.items()
             if value is not None and not in_config[name]]
    if config:
        (root / "run.cfg").write_text("\n".join(config) + "\n")
        argv += ["--config", str(root / "run.cfg")]
    code = exit_code(argv)
    assert code in (0, 1, 2), (argv, config, code)
    if code == 0:
        for i in range(frames):
            assert read_ppm(root / "seq" / f"{i:05d}.ppm").shape == (size, size, 3)
            assert read_pgm(root / "seq" / f"{i:05d}.pgm").shape == (size, size)


def test_runtime_errors_exit_1(tmp_path, capsys):
    assert run_cli("eval", "--pred", str(tmp_path / "nope"),
                   "--gt", str(tmp_path / "nope")) == 1
    assert "error:" in capsys.readouterr().err
    assert run_cli("synth", "--out", str(tmp_path / "bad"), "--size", "31") == 1
    assert "error: size must be a positive multiple of 32, got 31" in capsys.readouterr().err
    assert run_cli("synth", "--out", str(tmp_path / "bad"), "--frames", "0") == 1
    assert "error: frames must be at least 1, got 0" in capsys.readouterr().err
    assert run_cli("synth", "--out", str(tmp_path / "bad"), "--occlusion-prob", "1.5") == 1
    assert "error: occlusion_prob must be in [0, 1], got 1.5" in capsys.readouterr().err
    assert run_cli("synth", "--out", str(tmp_path / "bad"), "--texture-grain", "-4") == 1
    assert "error: texture_grain must be at least 1, got -4" in capsys.readouterr().err
    for amplitude in ("-50", "nan", "inf"):
        assert run_cli("synth", "--out", str(tmp_path / "bad"), "--motion-amplitude", amplitude) == 1
        assert (f"error: motion_amplitude must be finite and non-negative, got {float(amplitude)}"
                in capsys.readouterr().err)
    assert run_cli("synth", "--out", str(tmp_path / "bad"), "--static-pool", "2", "--size", "48") == 1
    assert "error: size must be a positive multiple of 32, got 48" in capsys.readouterr().err
    assert not (tmp_path / "bad").exists()
