"""Setups that several test modules share, each written once.

`toy_config` is the shipped `configs/toy.cfg`, so the acceptance run checks
the file users run. `MICRO` is a seconds-long pipeline config for the CLI
and pipeline tests. `array_rows` wraps an array as `FeatureCache` rows,
`traced_peak` measures the memory one call allocates and `fresh_run` runs
a measuring script in a new interpreter; `counting_forks` records the
children `parallel` forks, `reduced` turns the gradient terms of one
backward pass into its gradients, and `toy_step` counts the page faults
of one training step.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np

from multires.cache import CacheRows
from multires.config import AppConfig, parse_config
from multires.model import init_model, model_backward, model_forward, model_params
from multires.reduction import reduce_grads
from multires.trainer import TrainConfig, adam_step, cross_entropy_batch, init_optimizer

TOY_CFG = Path(__file__).resolve().parent.parent / "configs" / "toy.cfg"

MICRO = """
corpus.n_train = 6
corpus.n_dev = 4
corpus.n_eval = 4
corpus.duration_s = 0.3
corpus.sample_rate = 2000
corpus.spoof_synthesis = 64/16
corpus.seed = 5
features.resolutions = 32/8,64/16
alignment.target = 16x17
train.epochs = 2
train.batch_size = 4
train.seed = 5
train.warmup_steps = 4
train.target_duration_s = 0.25
backend.stem_channels = 4
backend.stages = 2
backend.blocks_per_stage = 1
backend.se_reduction = 2
"""


def with_paths(text: str, root: Path) -> str:
    """`text` with the corpus, caches and checkpoints under `root`.

    The path lines are appended, and a later line wins in `parse_config`.
    """
    return text + (
        f"paths.corpus_dir = {root / 'corpus'}\n"
        f"paths.cache_dir = {root / 'cache'}\n"
        f"paths.checkpoint_dir = {root / 'ckpt'}\n"
    )


def toy_config(root: Path) -> AppConfig:
    """`configs/toy.cfg`, with its artifacts under `root`."""
    return parse_config(with_paths(TOY_CFG.read_text(encoding="utf-8"), root), source=str(TOY_CFG))


def micro_config(root: Path, **overrides: str) -> AppConfig:
    """`MICRO` under `root`; `overrides` maps config keys to values."""
    extra = "".join(f"{key} = {value}\n" for key, value in overrides.items())
    return parse_config(with_paths(MICRO, root) + extra)


def array_rows(stacks) -> CacheRows:
    """`CacheRows` that copy row n of a float32 copy of `stacks` when read."""
    stacks = np.array(stacks, dtype=np.float32)

    def fill(out: np.ndarray, n: int) -> None:
        out[...] = stacks[n]

    return CacheRows(stacks.shape, fill)


def traced_peak(run) -> int:
    """Bytes allocated at the peak of `run()` above what was live before it.

    tracemalloc also counts a rebuild of CPython's table of interned
    strings inside `run()`, and the table's size depends on everything the
    process ran before: late in the test suite a rebuild added 1.9 MB to
    one call. A bound with a thinner margin is measured in `fresh_run`.
    """
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        kept = run()  # alive while the peak is read
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def fresh_run(script: str, *args: str):
    """Run `script` with `args` in a new interpreter; the JSON value it prints last.

    `src` and this directory are on its path, so it imports `multires` and
    these helpers.
    """
    tests_dir = Path(__file__).resolve().parent
    path = os.pathsep.join([str(tests_dir.parent / "src"), str(tests_dir)])
    done = subprocess.run(
        [sys.executable, "-c", script, *args],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=path), timeout=600,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def reduced(*terms) -> list[np.ndarray]:
    """The gradients that the terms of one backward pass, a single share, reduce to."""
    return reduce_grads([list(terms)])


def counting_forks(monkeypatch) -> list[int]:
    """Record each `os.fork` that returns in this process (the parent side)."""
    forks, fork = [], os.fork

    def counted():
        pid = fork()
        if pid:
            forks.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counted)
    return forks


def toy_step():
    """A call that runs one training step of a 4-row float32 share at the toy shape.

    The model and input shape are `configs/toy.cfg`'s. Each call runs the
    forward, loss, backward, gradient reduction and Adam step of the same
    4 rows and returns the minor page faults (``ru_minflt``) this process
    took meanwhile: the pages it wrote for the first time.
    """
    import resource  # Unix only

    config = parse_config(TOY_CFG.read_text(encoding="utf-8"))
    model = init_model(config.resolutions, config.backend, np.random.default_rng(0), np.float32)
    params = model_params(model)
    state = init_optimizer(params, TrainConfig(dtype="float32"))
    rows = np.random.default_rng(1).standard_normal((4, len(config.resolutions), *config.align_target))
    rows, labels = rows.astype(np.float32), np.array([0, 1, 0, 1])

    def step() -> int:
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        logits, cache = model_forward(rows, model)
        _, d_logits = cross_entropy_batch(logits, labels, len(labels))
        adam_step(params, reduce_grads([model_backward(cache, d_logits)[1]]), state)
        return resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before

    return step
