
import dataclasses
import os
import re
import signal
import threading
from pathlib import Path

import numpy as np
import pytest

from multires import parallel, pipeline, trainer
from multires.backend import BackendConfig
from multires.cache import CacheRows, FeatureCache, read_cache, write_cache
from multires.model import init_model, model_backward, model_forward, model_params
from multires.stft import ResolutionSpec
from multires.trainer import (
    TrainConfig,
    TrainingDivergedError,
    adam_step,
    cross_entropy_batch,
    init_optimizer,
    lr_at,
    score_cache,
    train,
)

from oracles import adam_trace, central_difference
from helpers import array_rows, counting_forks, fresh_run, micro_config

RES = (ResolutionSpec(64, 16), ResolutionSpec(128, 32))
SLIM = BackendConfig(stem_channels=4, stages=1, blocks_per_stage=1, se_reduction=2)


def _caches(n_train=16, n_dev=8, w=6, h=5, seed=0):
    """Separable toy task: bona fide stacks sit above zero, spoofs below."""
    rng = np.random.default_rng(seed)

    def build(n, prefix):
        labels = (np.arange(n) % 2).astype(np.uint8)
        offset = np.where(labels == 1, 0.5, -0.5)[:, None, None, None]
        stacks = (offset + 0.1 * rng.standard_normal((n, 2, w, h))).astype(np.float32)
        ids = tuple(f"{prefix}{i:04d}" for i in range(n))
        return FeatureCache(RES, array_rows(stacks), ids, labels)

    return build(n_train, "t"), build(n_dev, "d")


def _epoch_rows(result):
    """(epoch, train_loss, dev_eer) parsed from the per-epoch log lines."""
    rows = [line.split("\t") for line in result.log_lines[:-1]]
    return [(int(epoch), float(loss), float(eer)) for epoch, loss, eer in rows]


# cross_entropy_batch is checked at a single example and at a batch of five
LABELS = {1: np.array([1]), 5: np.array([0, 1, 1, 0, 1])}


def test_cross_entropy_hand_values():
    for n, labels in LABELS.items():
        losses, grad = cross_entropy_batch(np.zeros((n, 2)), labels, n)
        assert losses.mean() == pytest.approx(np.log(2.0))
        want = np.full((n, 2), 0.5 / n)
        want[np.arange(n), labels] = -0.5 / n
        np.testing.assert_allclose(grad, want, atol=1e-15)


def test_cross_entropy_stable_at_extreme_logits():
    for n in LABELS:
        logits = np.tile([1000.0, -1000.0], (n, 1))
        losses, grad = cross_entropy_batch(logits, np.zeros(n, dtype=np.int64), n)
        assert losses.mean() == 0.0
        np.testing.assert_allclose(grad, np.zeros((n, 2)), atol=1e-15)
        losses, grad = cross_entropy_batch(logits, np.ones(n, dtype=np.int64), n)
        assert losses.mean() == pytest.approx(2000.0)
        assert np.isfinite(grad).all()


def test_cross_entropy_gradient_finite_differences():
    rng = np.random.default_rng(0)
    for n, labels in LABELS.items():
        z = rng.standard_normal((n, 2))

        def loss():
            return cross_entropy_batch(z, labels, n)[0].mean()

        _, grad = cross_entropy_batch(z, labels, n)
        num = central_difference(loss, [z])[0]
        np.testing.assert_allclose(grad, num, rtol=1e-7, atol=1e-9)


def test_cross_entropy_batch_averages_singles():
    # the batch loss is the mean of naive per-example losses logsumexp(z) - z[label]
    rng = np.random.default_rng(1)
    for n, labels in LABELS.items():
        logits = rng.standard_normal((n, 2))
        naive = np.log(np.exp(logits).sum(axis=1)) - logits[np.arange(n), labels]
        losses, _ = cross_entropy_batch(logits.copy(), labels, n)
        assert losses.mean() == pytest.approx(naive.mean(), abs=1e-12)


def _cuts(n: int, smallest: int) -> list[list[int]]:
    """Every cut of rows 0..n into consecutive pieces of at least `smallest` rows."""
    if n == 0:
        return [[0]]
    return [[0] + [first + c for c in rest] for first in range(smallest, n + 1)
            for rest in _cuts(n - first, smallest)]


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_cross_entropy_micro_shares_give_the_batch_bits(dtype):
    # any cut of a batch into micro-shares of 2 rows or more, each given the
    # batch's row count, gathers to the whole batch's loss mean and gradient
    rng = np.random.default_rng(2)
    for n in (8, 9):
        logits = (3 * rng.standard_normal((n, 2))).astype(dtype)
        labels = rng.integers(0, 2, n)
        losses, grad = cross_entropy_batch(logits, labels, n)
        assert losses.dtype == np.float64 and grad.dtype == dtype
        cuts = _cuts(n, trainer.MIN_SHARE_ROWS)
        assert len(cuts) == {8: 13, 9: 21}[n]
        for cut in cuts:
            parts = [cross_entropy_batch(logits[a:b], labels[a:b], n) for a, b in zip(cut, cut[1:])]
            assert np.concatenate([p[0] for p in parts]).mean().tobytes() == losses.mean().tobytes(), cut
            assert np.concatenate([p[1] for p in parts]).tobytes() == grad.tobytes(), cut


def test_lr_schedule_anchor_points():
    assert lr_at(1000, 1e-3, 1000) == pytest.approx(1e-3, abs=0)
    assert lr_at(250, 1e-3, 1000) == pytest.approx(0.25e-3)
    assert lr_at(4000, 1e-3, 1000) == pytest.approx(0.5e-3)
    assert lr_at(1, 1e-3, 1000) == pytest.approx(1e-6)
    with pytest.raises(ValueError):
        lr_at(0, 1e-3, 1000)


def test_lr_schedule_peaks_at_warmup():
    values = [lr_at(s, 1.0, 50) for s in range(1, 500)]
    assert max(values) == pytest.approx(1.0)
    assert values.index(max(values)) == 49


def test_adam_matches_scalar_oracle():
    for wd in (0.0, 0.01):
        p = [np.array([0.7])]
        state = init_optimizer(p, TrainConfig(peak_lr=0.1, warmup_steps=4, weight_decay=wd))
        grads = [0.3, -0.2, 0.05, 0.4]
        want = adam_trace(0.7, grads, 0.1, 4, weight_decay=wd)
        for g, expect in zip(grads, want):
            adam_step(p, [np.array([g])], state)
            assert p[0][0] == pytest.approx(expect, abs=1e-15)
        assert state.step == 4


def test_adam_updates_in_place_per_tensor():
    a, b = np.ones(3), np.full(2, 2.0)
    params = [a, b]
    state = init_optimizer(params, TrainConfig(peak_lr=0.1, warmup_steps=1, weight_decay=0.0))
    adam_step(params, [np.full(3, 0.5), np.zeros(2)], state)
    assert params[0] is a and params[1] is b
    assert (a != 1.0).all()
    np.testing.assert_array_equal(b, 2.0)  # zero grad, zero decay: no movement


def test_adam_shape_mismatch_rejected():
    p = [np.zeros(3)]
    state = init_optimizer(p, TrainConfig())
    with pytest.raises(ValueError, match="shape"):
        adam_step(p, [np.zeros(4)], state)


def test_train_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(epochs=0)
    with pytest.raises(ValueError):
        TrainConfig(dtype="float16")
    assert TrainConfig(dtype="float32").np_dtype == np.float32


def test_train_learns_separable_task():
    train_cache, dev_cache = _caches()
    cfg = TrainConfig(epochs=3, batch_size=4, seed=0, peak_lr=3e-3, warmup_steps=8, dtype="float64")
    result = train(train_cache, dev_cache, cfg, SLIM)
    rows = _epoch_rows(result)
    assert [row[0] for row in rows] == [1, 2, 3]
    assert rows[-1][1] < rows[0][1]
    assert result.best_dev_eer <= 0.25
    assert result.log_lines[-1] == f"retained_epoch\t{result.best_epoch}"
    for line, (epoch, loss, eer) in zip(result.log_lines, rows):
        assert line == f"{epoch}\t{loss:.6f}\t{eer:.6f}"


def test_train_is_deterministic():
    cfg = TrainConfig(epochs=2, batch_size=4, seed=7, peak_lr=1e-3, warmup_steps=8)
    a = train(*_caches(), cfg, SLIM)
    b = train(*_caches(), cfg, SLIM)
    assert a.log_lines == b.log_lines
    for pa, pb in zip(model_params(a.model), model_params(b.model)):
        np.testing.assert_array_equal(pa, pb)


def test_train_seed_changes_run():
    a = train(*_caches(), TrainConfig(epochs=1, batch_size=4, seed=0, warmup_steps=8), SLIM)
    b = train(*_caches(), TrainConfig(epochs=1, batch_size=4, seed=1, warmup_steps=8), SLIM)
    assert a.log_lines != b.log_lines


def test_train_retains_earliest_best_epoch():
    # dev is perfectly separable from epoch 1, so every epoch scores EER 0
    # and the strict < rule must keep epoch 1
    train_cache, dev_cache = _caches(n_train=12, n_dev=6)
    cfg = TrainConfig(epochs=3, batch_size=4, seed=3, peak_lr=3e-3, warmup_steps=8)
    result = train(train_cache, dev_cache, cfg, SLIM)
    eers = [row[2] for row in _epoch_rows(result)]
    assert result.best_epoch == 1 + eers.index(min(eers))


def test_train_reload_hook_drives_epochs_after_first():
    train_cache, dev_cache = _caches()
    calls = []

    def reload(epoch):
        calls.append(epoch)
        return train_cache.stacks

    cfg = TrainConfig(epochs=3, batch_size=4, seed=0, warmup_steps=8)
    train(train_cache, dev_cache, cfg, SLIM, reload_train=reload)
    assert calls == [2, 3]


def test_train_reload_shape_change_rejected():
    train_cache, dev_cache = _caches()

    def reload(epoch):
        return array_rows(train_cache.stacks[:][:, :, :3, :])

    cfg = TrainConfig(epochs=2, batch_size=4, seed=0, warmup_steps=8)
    with pytest.raises(ValueError, match="shape"):
        train(train_cache, dev_cache, cfg, SLIM, reload_train=reload)


def test_train_aborts_on_divergence():
    # a huge step in float32 overflows the conv activations to inf, and the
    # next batch's loss must abort with the failing step named
    train_cache, dev_cache = _caches()
    cfg = TrainConfig(epochs=1, batch_size=4, seed=0, peak_lr=1e20, warmup_steps=1, dtype="float32")
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
        TrainingDivergedError, match="optimizer step"
    ):
        train(train_cache, dev_cache, cfg, SLIM)


def test_score_cache_convention_and_chunking(monkeypatch):
    train_cache, _ = _caches(n_train=10)
    cfg = TrainConfig(epochs=1, batch_size=4, seed=0, warmup_steps=8)
    result = train(train_cache, _caches()[1], cfg, SLIM)
    monkeypatch.setattr(trainer, "SCORE_BATCH", 64)
    full = score_cache(result.model, train_cache)
    for batch_size in (3, 1):
        monkeypatch.setattr(trainer, "SCORE_BATCH", batch_size)
        np.testing.assert_array_equal(full, score_cache(result.model, train_cache))


# Measured in a fresh interpreter (see `helpers.traced_peak`).
SCORING_PEAKS = """
import json
import numpy as np
from helpers import array_rows, traced_peak
from multires.backend import BackendConfig
from multires.cache import FeatureCache
from multires.model import init_model, model_forward
from multires.stft import ResolutionSpec
from multires.trainer import score_cache
res = (ResolutionSpec(128, 32), ResolutionSpec(256, 64), ResolutionSpec(512, 128))
model = init_model(res, BackendConfig(8, 3, 1, 4), np.random.default_rng(5))
stacks = np.random.default_rng(6).standard_normal((8, 3, 64, 65)).astype(np.float32)
cache = FeatureCache(res, array_rows(stacks), tuple(f"u{i}" for i in range(8)), np.arange(8) % 2)
cached = traced_peak(lambda: model_forward(stacks.astype(np.float64), model))
scoring = traced_peak(lambda: score_cache(model, cache))
print(json.dumps([cached, scoring]))
"""


def test_score_cache_keeps_no_backward_cache():
    # scoring builds no backward cache and reads SCORE_BATCH = 2 rows per
    # forward: its peak is about 0.19 of one cached forward on the whole
    # batch (the two peaks were equal when scoring kept the caches, and
    # 8-row scoring without them read about 0.57)
    cached, scoring = fresh_run(SCORING_PEAKS)
    assert scoring <= 0.28 * cached, f"scoring peak {scoring / cached:.2f}x the cached forward's"


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_score_cache_bitwise_at_any_worker_count(micro_eval, monkeypatch, dtype):
    # shares of contiguous chunks, scored in forked children, give the bytes
    # of one process at every chunk size, also with more workers than CPUs
    # or chunks, for rows extracted on demand and rows read from disk
    config = micro_eval
    model = init_model(config.resolutions, config.backend, np.random.default_rng(4), dtype)
    sources = {
        "extracted": pipeline.extract_split(config, "eval"),
        "read": pipeline.load_split_cache(config, "eval"),
    }
    assert sources["read"].n_utterances == 7
    forks = counting_forks(monkeypatch)
    for batch in (1, 2, 3):
        monkeypatch.setattr(trainer, "SCORE_BATCH", batch)
        n_chunks = -(-7 // batch)
        for name, cache in sources.items():
            monkeypatch.setattr(parallel, "workers", lambda: 1)
            want = score_cache(model, cache)
            assert forks == []
            for workers in (2, 5):
                monkeypatch.setattr(parallel, "workers", lambda: workers)
                got = score_cache(model, cache)
                assert got.tobytes() == want.tobytes(), (name, batch, workers)
                assert len(forks) == min(workers, n_chunks) - 1
                forks.clear()
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _failing_rows(cache: FeatureCache, failing: dict[int, str]) -> FeatureCache:
    """`cache` whose rows in `failing` raise `PipelineError` when read."""
    read = cache.stacks

    def fill(out, n):
        if n in failing:
            raise pipeline.PipelineError(failing[n])
        out[...] = read[n : n + 1][0]

    return FeatureCache(cache.resolutions, CacheRows(read.shape, fill), cache.ids, cache.labels)


def test_score_cache_failure_raises_and_reaps(micro_eval, monkeypatch):
    # a failing row in a child's share or in this process's own share raises
    # that row's error (the first one, as serially), and no child is left
    # running or unreaped; a child that dies without a word is reported too
    config = micro_eval
    model = init_model(config.resolutions, config.backend, np.random.default_rng(4))
    cache = pipeline.load_split_cache(config, "eval")
    monkeypatch.setattr(trainer, "SCORE_BATCH", 1)
    monkeypatch.setattr(parallel, "workers", lambda: 2)  # shares rows 0-2 and 3-6
    forks = counting_forks(monkeypatch)
    message = "eval utterance {!r} has non-finite features".format
    for rows in ((5,), (1,), (1, 5), (5, 6)):
        failing = _failing_rows(cache, {row: message(cache.ids[row]) for row in rows})
        with pytest.raises(pipeline.PipelineError, match=re.escape(message(cache.ids[rows[0]]))):
            score_cache(model, failing)
        assert len(forks) == 1
        forks.clear()
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    parent = os.getpid()

    def killed(out, n):
        if n == 4 and os.getpid() != parent:
            os.kill(os.getpid(), signal.SIGKILL)
        out[...] = 0.0

    with pytest.raises(RuntimeError, match="forked process .* ended with wait status"):
        score_cache(model, FeatureCache(cache.resolutions, CacheRows(cache.stacks.shape, killed), cache.ids, cache.labels))
    assert len(forks) == 1
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_passes_leave_their_inputs_unchanged(dtype):
    # activations and gradients are overwritten in place, but only arrays a
    # pass made itself: the stacks, rows and logit gradients it is handed
    # keep their bytes
    model = init_model(RES, SLIM, np.random.default_rng(1), dtype)
    stacks = np.random.default_rng(2).standard_normal((3, 2, 6, 5)).astype(dtype)
    d_logits = np.random.default_rng(3).standard_normal((3, 2)).astype(dtype)
    kept = stacks.tobytes(), d_logits.tobytes()
    _, cache = model_forward(stacks, model)
    model_backward(cache, d_logits)
    model_forward(stacks, model, keep_cache=False)
    assert (stacks.tobytes(), d_logits.tobytes()) == kept

    rows = stacks.astype(np.float32)
    kept = rows.tobytes()

    def fill(out, n):
        out[...] = rows[n]

    score_cache(model, FeatureCache(RES, CacheRows(rows.shape, fill), ("a", "b", "c"), np.arange(3) % 2))
    assert rows.tobytes() == kept


# Peaks of this process, measured in a fresh interpreter (see
# `helpers.traced_peak`) at one worker and at two. The model trained from
# disk must be bitwise the one trained on the same stacks in memory.
DISK_PEAKS = """
import json
import sys
from pathlib import Path
from test_trainer import SLIM, _caches, _trained
from helpers import traced_peak
from multires import parallel
from multires.cache import read_cache
from multires.trainer import TrainConfig, train
train_mem, dev_mem = _caches(n_train=512, n_dev=16, w=16, h=17)
paths = [Path(sys.argv[1]) / f"{name}.mrfe" for name in ("train", "dev")]
cfg = TrainConfig(epochs=1, batch_size=4, seed=0, warmup_steps=8, dtype="float32")
out = {}
for workers in (1, 2):
    parallel.workers = lambda: workers
    in_memory = train(train_mem, dev_mem, cfg, SLIM)  # also fills one-time lazy state
    trained = []  # the model trained from disk, kept while the peak is read
    peak = traced_peak(lambda: trained.append(train(*map(read_cache, paths), cfg, SLIM)))
    out[workers] = [peak, _trained(trained[0]) == _trained(in_memory)]
print(json.dumps(out))
"""


def test_train_on_disk_cache_holds_batches_not_the_split(tmp_path):
    # a cache opened from disk is read a batch at a time, so opening both
    # splits and training stays below the train split's bytes
    train_mem, dev_mem = _caches(n_train=512, n_dev=16, w=16, h=17)
    for name, cache in (("train", train_mem), ("dev", dev_mem)):
        write_cache(cache, tmp_path / f"{name}.mrfe")
    split_bytes = 4 * np.prod(train_mem.stacks.shape)
    for workers, (peak, same) in fresh_run(DISK_PEAKS, str(tmp_path)).items():
        assert peak < split_bytes, f"peak {peak} B for a {split_bytes} B split at {workers} workers"
        assert same, workers

# Peaks of one-process training on a toy-shaped in-memory cache, one
# epoch of 16 rows at batch 4 and at batch 16, and the cache of one 2-row
# forward, measured in a fresh interpreter (see `helpers.traced_peak`).
BATCH_PEAKS = """
import json
import numpy as np
from helpers import TOY_CFG, array_rows, traced_peak
from multires import parallel
from multires.cache import FeatureCache
from multires.config import parse_config
from multires.model import init_model, model_forward
from multires.trainer import MIN_SHARE_ROWS, TrainConfig, train
parallel.workers = lambda: 1
config = parse_config(TOY_CFG.read_text(encoding="utf-8"))
shape = (len(config.resolutions), *config.align_target)
rng = np.random.default_rng(0)
def split(n, prefix):
    ids = tuple(f"{prefix}{i}" for i in range(n))
    return FeatureCache(config.resolutions, array_rows(rng.standard_normal((n, *shape))), ids, np.arange(n) % 2)
train_cache, dev_cache = split(16, "t"), split(2, "d")
model = init_model(config.resolutions, config.backend, np.random.default_rng(0), np.float32)
x = np.zeros((MIN_SHARE_ROWS, *shape), dtype=np.float32)
out = {"micro": traced_peak(lambda: model_forward(x, model))}
for batch in (4, 16):
    cfg = TrainConfig(epochs=1, batch_size=batch, seed=0, warmup_steps=4, dtype="float32")
    train(train_cache, dev_cache, cfg, config.backend)  # also fills one-time lazy state
    out[batch] = traced_peak(lambda: train(train_cache, dev_cache, cfg, config.backend))
print(json.dumps(out))
"""


def test_training_step_peak_does_not_grow_with_the_batch():
    # each share runs as 2-row micro-shares that drop their cache before the
    # next one, so a batch of 16 rows in one process peaks within one
    # micro-share's cache of a batch of 4, not at 4 times its cache
    peaks = fresh_run(BATCH_PEAKS)
    assert abs(peaks["16"] - peaks["4"]) < peaks["micro"], peaks


def _trained(result):
    """What a run must reproduce bit for bit: its log and every parameter's bytes."""
    return result.log_lines, [p.tobytes() for p in model_params(result.model)]


@pytest.mark.parametrize("dtype", ["float32", "float64"])
def test_train_bitwise_at_any_worker_count(tmp_path, monkeypatch, dtype):
    # each step split over forked workers gives the log and parameters of
    # one process: 23 rows leave a partial last batch at every batch size
    # (one row at batch 2, three at 4, which run in one share), for train
    # stacks held in memory, read from disk, and redrawn every epoch; one
    # worker per CPU but this process is forked once per run, beside the
    # dev scorers, but none a batch leaves without a share (none at batch
    # 2 or 3), and none on one CPU
    train_mem, dev = _caches(n_train=23, n_dev=8)
    write_cache(train_mem, tmp_path / "train.mrfe")
    base = train_mem.stacks[:]
    sources = {
        "memory": (train_mem, None),
        "disk": (read_cache(tmp_path / "train.mrfe"), None),
        "recrop": (train_mem, lambda epoch: array_rows(base + 0.01 * epoch)),
    }
    forks = counting_forks(monkeypatch)
    dev_chunks = -(-dev.n_utterances // trainer.SCORE_BATCH)
    for batch in (2, 3, 4, 5, 8):
        cfg = TrainConfig(epochs=2, batch_size=batch, seed=7, warmup_steps=8, dtype=dtype)
        for name, (cache, reload) in sources.items():
            monkeypatch.setattr(parallel, "workers", lambda: 1)
            want = _trained(train(cache, dev, cfg, SLIM, reload_train=reload))
            assert forks == []
            for workers in (2, 5):
                monkeypatch.setattr(parallel, "workers", lambda: workers)
                got = _trained(train(cache, dev, cfg, SLIM, reload_train=reload))
                assert got == want, (name, batch, workers)
                shares = max(1, batch // trainer.MIN_SHARE_ROWS)
                assert len(forks) == min(workers, shares) - 1 + cfg.epochs * (min(workers, dev_chunks) - 1)
                forks.clear()
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_train_forks_nothing_while_a_thread_runs(monkeypatch):
    # a forked child keeps only the forking thread, so with another thread
    # alive every share runs here, with the bits of one CPU
    train_cache, dev_cache = _caches(n_train=12)
    cfg = TrainConfig(epochs=1, batch_size=4, seed=1, warmup_steps=8)
    want = _trained(train(train_cache, dev_cache, cfg, SLIM))
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3})
    forks = counting_forks(monkeypatch)
    release = threading.Event()
    thread = threading.Thread(target=release.wait, args=(30,))
    thread.start()
    try:
        got = _trained(train(train_cache, dev_cache, cfg, SLIM))
    finally:
        release.set()
        thread.join(timeout=30)
    assert forks == []
    assert got == want


@pytest.fixture(scope="module")
def micro_train(tmp_path_factory):
    """A micro corpus whose 10 train WAVs are longer than the target, so epoch 2 recrops."""
    config = micro_config(tmp_path_factory.mktemp("micro_train"), **{"corpus.n_train": "10"})
    pipeline.run_gen_data(config)
    pipeline.run_extract(config, ("train", "dev"))
    assert pipeline._needs_recrop(config)
    return config


def _fails_and_reaps(config, error, match):
    """run_train raises `error` matching `match`, saves no checkpoint and leaves no child."""
    with pytest.raises(error, match=match):
        pipeline.run_train(config)
    assert not config.checkpoint_dir.exists() or not any(config.checkpoint_dir.iterdir())
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_train_failing_share_raises_its_error_and_reaps(micro_train, tmp_path, monkeypatch):
    # epoch 2's first batch of 4 is read as rows perm[0:2] here and
    # perm[2:4] in the worker; a non-finite recropped row raises its error
    # from either share, the first failing row's as serially, and the run
    # stops with no checkpoint and no child left
    monkeypatch.setattr(parallel, "workers", lambda: 2)
    perm = np.random.default_rng([micro_train.train.seed, 2]).permutation(10)
    ids = pipeline.load_split_cache(micro_train, "train").ids
    reading, bad = [], set()
    read_wav, align_map = pipeline.read_wav, pipeline.align_map

    def remember(path, **kwargs):
        reading[:] = [Path(path).stem]
        return read_wav(path, **kwargs)

    def poisoned(*args):
        out = align_map(*args)
        if reading[0] in bad:
            out[...] = np.nan
        return out

    monkeypatch.setattr(pipeline, "read_wav", remember)
    monkeypatch.setattr(pipeline, "align_map", poisoned)
    for n, rows in enumerate(((2,), (3, 2), (1, 2))):
        bad.clear()
        bad.update(ids[perm[row]] for row in rows)
        first = ids[perm[min(rows)]]
        config = dataclasses.replace(micro_train, checkpoint_dir=tmp_path / f"ckpt{n}")
        _fails_and_reaps(config, pipeline.PipelineError, f"train utterance '{first}' has non-finite")


def test_train_divergence_or_a_killed_worker_raises_and_reaps(micro_train, tmp_path, monkeypatch):
    # a loss gone non-finite raises in this process once every share's row
    # losses are gathered, after each share's backward has run on them (so
    # the errstate covers the backward too); a worker killed while it
    # recrops its rows is reported by its wait status; neither run leaves a
    # checkpoint or child
    monkeypatch.setattr(parallel, "workers", lambda: 2)
    diverging = dataclasses.replace(
        micro_train,
        checkpoint_dir=tmp_path / "diverged",
        train=dataclasses.replace(micro_train.train, peak_lr=1e20, warmup_steps=1, dtype="float32"),
    )
    with np.errstate(over="ignore", invalid="ignore"):
        _fails_and_reaps(diverging, TrainingDivergedError, "optimizer step")

    parent, read_wav = os.getpid(), pipeline.read_wav

    def killed(path, **kwargs):
        if os.getpid() != parent:
            os.kill(os.getpid(), signal.SIGKILL)
        return read_wav(path, **kwargs)

    monkeypatch.setattr(pipeline, "read_wav", killed)
    config = dataclasses.replace(micro_train, checkpoint_dir=tmp_path / "killed")
    _fails_and_reaps(config, RuntimeError, "forked process .* ended with wait status")
