import os
import re
import signal
import subprocess
import sys
from pathlib import Path

import pytest

import multires
from multires import parallel, pipeline
from multires.cli import main
from multires.trainer import TrainingDivergedError

from helpers import MICRO, with_paths

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

# The launcher pip writes for a console-script entry point `name = module:attr`,
# less the argv[0] rewrite that only Windows .exe wrappers need.
LAUNCHER = """#!{python}
import sys
from {module} import {attr}
if __name__ == "__main__":
    sys.exit({attr}())
"""

# A float64 32->32 conv at 32x33, the first layer whose bits moved with the
# OpenBLAS thread count in a toy-shaped step. `multires` is imported before
# numpy, as the console script and `python -m multires` do.
PINNED_CONV = """
import hashlib, os
import multires
import numpy as np
from multires.backend import ConvParams, conv2d_forward
rng = np.random.default_rng(0)
x = rng.standard_normal((2, 32, 32, 33))
p = ConvParams(rng.standard_normal((32, 32, 3, 3)), rng.standard_normal(32))
print(os.environ.get("OPENBLAS_NUM_THREADS"), os.environ.get("OMP_NUM_THREADS"))
print(hashlib.sha256(conv2d_forward(x, p).tobytes()).hexdigest())
"""
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
CPUS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """Config file plus a corpus, caches, and a checkpoint built through main()."""
    root = tmp_path_factory.mktemp("cli")
    cfg = root / "run.cfg"
    cfg.write_text(with_paths(MICRO, root))
    for command in (["gen-data"], ["extract"], ["train"]):
        assert main(["--config", str(cfg)] + command) == 0
    return root, cfg


def test_gen_data_reports_protocols(workspace, capsys):
    root, cfg = workspace
    assert main(["--config", str(cfg), "gen-data"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "effective_seed corpus=5 train=5"
    assert [line.split("/")[-1] for line in out[1:]] == [
        "train_protocol.tsv",
        "dev_protocol.tsv",
        "eval_protocol.tsv",
    ]


def test_extract_single_split(workspace, capsys):
    root, cfg = workspace
    assert main(["--config", str(cfg), "extract", "--split", "dev"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert len(out) == 2
    assert out[1].startswith("wrote ") and out[1].endswith(".mrfe")
    assert "dev." in out[1]


def test_train_echoes_log_and_checkpoint(workspace, capsys):
    root, cfg = workspace
    assert main(["--config", str(cfg), "train"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "effective_seed corpus=5 train=5"
    epoch_lines = [l for l in out if l[0].isdigit()]
    assert len(epoch_lines) == 2
    for line in epoch_lines:
        fields = line.split("\t")
        assert len(fields) == 3
        float(fields[1]), float(fields[2])
    assert any(l.startswith("retained_epoch\t") for l in out)
    assert out[-1].endswith("full.mrck")


def test_eval_prints_summary(workspace, capsys):
    root, cfg = workspace
    assert main(["--config", str(cfg), "eval", str(root / "ckpt/full.mrck")]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[-1].startswith("eer=") and " min_tdcf=" in out[-1]
    assert (root / "ckpt/full.eval_scores.tsv").is_file()
    assert (root / "ckpt/full.eval_det.csv").is_file()


def test_eval_dev_split_flag(workspace, capsys):
    root, cfg = workspace
    assert main(["--config", str(cfg), "eval", str(root / "ckpt/full.mrck"), "--split", "dev"]) == 0
    capsys.readouterr()
    assert (root / "ckpt/full.dev_scores.tsv").is_file()


def test_inspect_weights_output(workspace, capsys):
    root, cfg = workspace
    assert main(["--config", str(cfg), "inspect-weights", str(root / "ckpt/full.mrck")]) == 0
    out = capsys.readouterr().out.splitlines()
    rows = [l.split("\t") for l in out[1:]]
    assert len(rows) == 2
    assert all(len(r) == 3 for r in rows)
    weights = [float(r[2]) for r in rows]
    assert weights == sorted(weights, reverse=True)


def test_prune_reports_retained_set(workspace, capsys):
    root, cfg = workspace
    assert main(["--config", str(cfg), "prune", str(root / "ckpt/full.mrck")]) == 0
    out = capsys.readouterr().out
    assert "retained resolutions: " in out
    assert f"wrote {root / 'ckpt/prune_report.txt'}\n" in out
    assert (root / "ckpt/prune_report.txt").is_file()
    assert (root / "ckpt/refined.mrck").is_file()


def test_seed_override_applies_to_both_streams(workspace, capsys):
    root, cfg = workspace
    assert main(["--config", str(cfg), "--seed", "9", "gen-data"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "effective_seed corpus=9 train=9"
    # restore the fixture corpus for any later test
    assert main(["--config", str(cfg), "gen-data"]) == 0
    capsys.readouterr()


def test_negative_seed_override_fails_before_any_stage(workspace, capsys):
    root, cfg = workspace
    assert main(["--config", str(cfg), "--seed", "-1", "gen-data"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: seed must be >= 0\n"


def test_env_var_supplies_config(workspace, capsys, monkeypatch):
    root, cfg = workspace
    monkeypatch.setenv("MULTIRES_CONFIG", str(cfg))
    assert main(["gen-data"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "effective_seed corpus=5 train=5"


def test_flag_beats_env_var(workspace, capsys, monkeypatch, tmp_path):
    root, cfg = workspace
    monkeypatch.setenv("MULTIRES_CONFIG", str(tmp_path / "missing.cfg"))
    assert main(["--config", str(cfg), "gen-data"]) == 0
    capsys.readouterr()


def test_missing_config_file_fails_cleanly(capsys, tmp_path):
    assert main(["--config", str(tmp_path / "no.cfg"), "gen-data"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: config file not found")


def test_non_finite_config_value_fails_cleanly(capsys, tmp_path):
    # `inf` used to reach gen-data and end in an OverflowError traceback
    cfg = tmp_path / "c.cfg"
    cfg.write_text(with_paths(MICRO + "corpus.duration_s = inf\n", tmp_path))
    assert main(["--config", str(cfg), "gen-data"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: {cfg}: bad value for corpus.duration_s: expected a finite number, got 'inf'\n"
    assert not (tmp_path / "corpus").exists()


@pytest.mark.parametrize("key", ["corpus.duration_s", "train.target_duration_s"])
def test_overflowing_duration_fails_cleanly(capsys, tmp_path, key):
    # a finite duration whose sample count overflows used to end in an OverflowError traceback
    cfg = tmp_path / "c.cfg"
    cfg.write_text(with_paths(MICRO + f"{key} = 1e308\n", tmp_path))
    assert main(["--config", str(cfg), "gen-data"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: {cfg}: {key} = 1e+308 s gives no finite sample count at 2000 Hz\n"
    assert not (tmp_path / "corpus").exists()


def test_extract_before_gen_data_fails_cleanly(capsys, tmp_path):
    cfg = tmp_path / "c.cfg"
    cfg.write_text(MICRO + f"paths.corpus_dir = {tmp_path / 'corpus'}\npaths.cache_dir = {tmp_path / 'cache'}\n")
    assert main(["--config", str(cfg), "extract"]) == 1
    assert "gen-data" in capsys.readouterr().err


def test_train_before_extract_fails_cleanly(capsys, tmp_path):
    cfg = tmp_path / "c.cfg"
    cfg.write_text(MICRO + f"paths.cache_dir = {tmp_path / 'cache'}\n")
    assert main(["--config", str(cfg), "train"]) == 1
    assert "extract" in capsys.readouterr().err


def test_eval_missing_checkpoint_fails_cleanly(workspace, capsys):
    root, cfg = workspace
    assert main(["--config", str(cfg), "eval", str(root / "ckpt/absent.mrck")]) == 1
    assert "train" in capsys.readouterr().err


def test_training_divergence_fails_cleanly(capsys, monkeypatch):
    def diverge(config, progress):
        raise TrainingDivergedError("non-finite loss at optimizer step 2 (epoch 1)")

    monkeypatch.delenv("MULTIRES_CONFIG", raising=False)
    monkeypatch.setattr("multires.cli.run_train", diverge)
    assert main(["train"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: non-finite loss at optimizer step 2")
    assert "Traceback" not in err


def test_killed_worker_or_out_of_memory_fails_cleanly(capsys, monkeypatch, tmp_path):
    # a training worker killed while it recrops its rows in epoch 2 (as the
    # OS kills a process when memory runs out), or memory running out in
    # this process, ends the command with one line
    cfg = tmp_path / "run.cfg"
    cfg.write_text(with_paths(MICRO, tmp_path))
    monkeypatch.setenv("MULTIRES_CONFIG", str(cfg))
    for command in (["gen-data"], ["extract"]):
        assert main(command) == 0
    capsys.readouterr()
    monkeypatch.setattr(parallel, "workers", lambda: 2)
    parent, read_wav = os.getpid(), pipeline.read_wav

    def killed(path, **kwargs):
        if os.getpid() != parent:
            os.kill(os.getpid(), signal.SIGKILL)
        return read_wav(path, **kwargs)

    monkeypatch.setattr(pipeline, "read_wav", killed)
    assert main(["train"]) == 1
    err = capsys.readouterr().err
    assert re.fullmatch(r"error: forked process \d+ ended with wait status 9\n", err), err

    def exhausted(config, progress):
        raise MemoryError("Unable to allocate 295. MiB for an array")

    monkeypatch.setattr("multires.cli.run_train", exhausted)
    assert main(["train"]) == 1
    assert capsys.readouterr().err == "error: out of memory: Unable to allocate 295. MiB for an array\n"


def test_unknown_command_exits_with_usage():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def _declared_scripts():
    if sys.version_info >= (3, 11):
        import tomllib
    else:
        tomllib = pytest.importorskip("tomli")
    with PYPROJECT.open("rb") as fh:
        return tomllib.load(fh)["project"].get("scripts", {})


def test_console_script_and_module_entry(workspace, tmp_path):
    """`multires` as declared in pyproject runs as a command; so does `python -m`.

    The command is run through the launcher an installer would write for the
    declared entry point, so the test needs no install, only the source tree.
    """
    root, cfg = workspace
    scripts = _declared_scripts()
    assert scripts == {"multires": "multires.cli:main"}
    module, _, attr = scripts["multires"].partition(":")
    bin_dir = tmp_path / "bin"
    bin_dir.mkdir()
    launcher = bin_dir / "multires"
    launcher.write_text(LAUNCHER.format(python=sys.executable, module=module, attr=attr))
    launcher.chmod(0o755)
    src_dir = str(Path(multires.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PATH"] = os.pathsep.join(filter(None, [str(bin_dir), env.get("PATH")]))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src_dir, env.get("PYTHONPATH")]))

    done = subprocess.run(
        ["multires", "--config", str(cfg), "gen-data"],
        capture_output=True, text=True, env=env, cwd=tmp_path,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("effective_seed corpus=5 train=5")
    done = subprocess.run(
        [sys.executable, "-m", "multires", "--help"],
        capture_output=True, text=True, env=env, cwd=tmp_path,
    )
    assert done.returncode == 0, done.stderr
    assert "gen-data" in done.stdout


@pytest.mark.skipif(CPUS < 2, reason="on one CPU OpenBLAS runs one thread either way, so nothing is compared")
def test_package_pins_blas_to_one_thread():
    """Unset thread variables give the bytes of one BLAS thread; a set one is kept."""
    src_dir = str(Path(multires.__file__).resolve().parent.parent)
    env = {key: value for key, value in os.environ.items() if key not in BLAS_THREAD_VARS}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src_dir, env.get("PYTHONPATH")]))

    def conv(**thread_vars):
        done = subprocess.run(
            [sys.executable, "-c", PINNED_CONV], capture_output=True, text=True, env=dict(env, **thread_vars)
        )
        assert done.returncode == 0, done.stderr
        return done.stdout.splitlines()

    (unset_vars, unset), (_, pinned) = conv(), conv(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    assert unset == pinned, "conv bytes with the thread variables unset differ from one thread's"
    assert unset_vars == "1 1"
    assert conv(OPENBLAS_NUM_THREADS="2")[0] == "2 None"
