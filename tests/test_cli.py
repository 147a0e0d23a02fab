"""Command-line surface: subcommands, config files, exit codes."""

import csv

import numpy as np
import pytest

from srrnet.cli import main
from srrnet.pnm import read_pgm
from srrnet.tensor import Tensor


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


def test_trace_score(workspace):
    trace = workspace / "trace.csv"
    assert run_cli("trace-score", "--data", str(workspace / "video" / "seq0"),
                   "--checkpoint", str(workspace / "run" / "checkpoint.npz"),
                   "--out", str(trace), "--seed", "0") == 0
    with open(trace) as f:
        rows = list(csv.reader(f))
    assert rows[0] == ["frame_index", "score", "true_mae", "updated", "ref_frame_index"]
    assert len(rows) == 5
    assert all(r[2] != "" for r in rows[1:])  # ground truth present -> true MAE filled


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


def test_gradcheck_command(capsys):
    assert run_cli("gradcheck", "--preset", "desk", "--size", "32",
                   "--samples-per-param", "1", "--seed", "0") == 0
    assert "gradcheck passed" in capsys.readouterr().out


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


def test_usage_errors_exit_2():
    with pytest.raises(SystemExit) as exc:
        run_cli("no-such-command")
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        run_cli("synth", "--no-such-flag")
    assert exc.value.code == 2


def test_runtime_errors_exit_1(tmp_path, capsys):
    assert run_cli("eval", "--pred", str(tmp_path / "nope"),
                   "--gt", str(tmp_path / "nope")) == 1
    assert "error:" in capsys.readouterr().err
    assert run_cli("synth", "--out", str(tmp_path / "bad"), "--size", "31") == 1
