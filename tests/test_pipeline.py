import dataclasses
import json
import os

import numpy as np
import pytest

from multires import parallel, pipeline
from multires.config import parse_config
from multires.pipeline import (
    PipelineError,
    cache_path,
    checkpoint_path,
    config_fingerprint,
    evaluate_model,
    extract_split,
    load_split_cache,
    mean_weights,
    run_eval,
    run_extract,
    run_gen_data,
    run_prune,
    run_train,
    weight_report,
    _crop_rng,
    _needs_recrop,
)
from multires.signal_io import read_protocol, read_scores, read_wav, unify_length
from multires.stft import ResolutionSpec, log_magnitude, stft
from multires.weighting import mean_weights_over_set

from helpers import fresh_run, micro_config
from oracles import pool_2d_left_to_right


@pytest.fixture(scope="module")
def run_dir(tmp_path_factory):
    """One generated corpus + extracted caches shared by the read-only tests."""
    tmp_path = tmp_path_factory.mktemp("pipeline")
    config = micro_config(tmp_path)
    run_gen_data(config)
    run_extract(config)
    return tmp_path, config


def test_fingerprint_sensitivity(tmp_path):
    base = micro_config(tmp_path)
    assert len(config_fingerprint(base)) == 8
    assert config_fingerprint(base) == config_fingerprint(micro_config(tmp_path))
    changed = [
        micro_config(tmp_path, **{"corpus.seed": "6"}),
        micro_config(tmp_path, **{"features.resolutions": "32/8"}),
        micro_config(tmp_path, **{"alignment.target": "max"}),
        micro_config(tmp_path, **{"train.target_duration_s": "0.3"}),
        micro_config(tmp_path, **{"train.seed": "6"}),
    ]
    fingerprints = {config_fingerprint(c) for c in changed}
    assert config_fingerprint(base) not in fingerprints
    assert len(fingerprints) == len(changed)
    # keys that do not affect cache bytes leave the fingerprint alone
    assert config_fingerprint(micro_config(tmp_path, **{"train.epochs": "9"})) == config_fingerprint(base)
    assert config_fingerprint(micro_config(tmp_path, **{"backend.stages": "3"})) == config_fingerprint(base)
    # pinned, so existing cache file names stay valid
    assert config_fingerprint(parse_config("")) == "5d389358"
    assert config_fingerprint(parse_config("alignment.target = 128x129")) == "7b1659b4"


def test_artifact_paths(tmp_path):
    config = micro_config(tmp_path)
    fp = config_fingerprint(config)
    assert cache_path(config, "dev").name == f"dev.{fp}.mrfe"
    assert checkpoint_path(config, "full").name == "full.mrck"


def test_extract_requires_corpus(tmp_path):
    config = micro_config(tmp_path)
    with pytest.raises(PipelineError, match="gen-data"):
        extract_split(config, "train")


def test_extract_and_load_round_trip(run_dir):
    _, config = run_dir
    cache = load_split_cache(config, "train")
    assert cache.n_utterances == 6
    assert cache.stacks.shape[2:] == (16, 17)
    assert cache.resolutions == (ResolutionSpec(32, 8), ResolutionSpec(64, 16))
    assert sorted(cache.ids)[0] == "train_b0000"


def test_extract_is_deterministic(run_dir):
    tmp_path, config = run_dir
    first = cache_path(config, "train").read_bytes()
    run_extract(config, splits=("train",))
    assert cache_path(config, "train").read_bytes() == first


def test_eval_split_uses_leading_crop(run_dir):
    _, config = run_dir
    # eval extraction must not consume the train crop stream: epoch is
    # irrelevant for non-train splits
    a = extract_split(config, "eval", epoch=0)
    b = extract_split(config, "eval", epoch=3)
    np.testing.assert_array_equal(a.stacks[:], b.stacks[:])


def test_train_crops_differ_by_epoch(run_dir):
    _, config = run_dir
    a = extract_split(config, "train", epoch=0)
    b = extract_split(config, "train", epoch=1)
    assert a.stacks.shape == b.stacks.shape
    assert not np.array_equal(a.stacks[:], b.stacks[:])


def _assert_channels(config, split, grid, epoch=0):
    # channel m of utterance i is resolution m's map, pooled onto the grid and cast to float32
    cache = extract_split(config, split, epoch=epoch)
    stacks = cache.stacks[:]
    entries = read_protocol(config.corpus_dir / f"{split}_protocol.tsv")
    assert stacks.shape == (len(entries), len(config.resolutions)) + grid
    assert stacks.dtype == np.float32
    assert cache.ids == tuple(e.utt_id for e in entries)
    assert cache.labels.tolist() == [int(e.label) for e in entries]
    for i, entry in enumerate(entries):
        rng = _crop_rng(config, epoch, i) if split == "train" else None
        wave = unify_length(read_wav(config.corpus_dir / entry.path), config.train.target_duration_s, rng)
        for m, res in enumerate(config.resolutions):
            want = pool_2d_left_to_right(log_magnitude(stft(wave, res)), *grid)
            assert stacks[i, m].tobytes() == want.astype(np.float32).tobytes(), (i, m)


def test_extract_split_explicit_target(run_dir):
    tmp_path, config = run_dir
    _assert_channels(config, "train", (16, 17), epoch=1)
    _assert_channels(micro_config(tmp_path, **{"alignment.target": "8x8"}), "dev", (8, 8))


def test_extract_split_max_target(run_dir):
    tmp_path, _ = run_dir
    config = micro_config(tmp_path, **{"alignment.target": "max"})
    # 0.25 s at 2 kHz is 500 samples: 32/8 gives 63 frames, 64/16 gives 33 bins
    _assert_channels(config, "dev", (63, 33))


# 32/16 and 32/24 read every 2nd and 3rd row of the 32/8 map
SHARED = "32/8,32/16,32/24,64/16"


def test_extract_split_computes_one_map_per_window(run_dir, monkeypatch):
    # each utterance runs the STFTs of 32/8 and 64/16 only, and every channel
    # still equals its own resolution's map pooled onto the grid
    tmp_path, _ = run_dir
    calls = []

    def counted(wave, res):
        calls.append(res)
        return stft(wave, res)

    monkeypatch.setattr(pipeline, "stft", counted)
    # 0.25 s at 2 kHz is 500 samples: 32/8 gives 63 frames, 64/16 gives 33 bins
    for target, grid in (("16x17", (16, 17)), ("max", (63, 33))):
        config = micro_config(tmp_path, **{"features.resolutions": SHARED, "alignment.target": target})
        for split, epoch in (("dev", 0), ("train", 1)):
            calls.clear()
            _assert_channels(config, split, grid, epoch)
            n = len(read_protocol(config.corpus_dir / f"{split}_protocol.tsv"))
            assert calls == [ResolutionSpec(32, 8), ResolutionSpec(64, 16)] * n, (target, split)


def test_extract_split_rejects_non_finite_features(run_dir, monkeypatch):
    tmp_path, config = run_dir
    entries = read_protocol(config.corpus_dir / "dev_protocol.tsv")
    maps = 2  # log_magnitude calls per utterance in both configs below
    calls = []

    def poisoned(spectrum):
        out = log_magnitude(spectrum)
        if len(calls) == poison_at:  # utterance 2
            out[3, 4] = np.inf
        if len(calls) == 3 * maps:  # utterance 3, first map
            out[:] = np.nan
        calls.append(out.shape)
        return out

    monkeypatch.setattr(pipeline, "log_magnitude", poisoned)
    shared = micro_config(tmp_path, **{"features.resolutions": SHARED})
    # utterance 2's second resolution, then its 32/8 map, which three channels read
    for config, poison_at in ((config, 2 * maps + 1), (shared, 2 * maps)):
        calls.clear()
        cache = extract_split(config, "dev")
        with pytest.raises(PipelineError, match=f"dev utterance '{entries[2].utt_id}' has non-finite"):
            cache.stacks[:]
        # the read stops at the first bad utterance, not after the whole split
        assert len(calls) == 3 * maps < len(entries) * maps


def test_failed_extract_leaves_no_cache_and_keeps_the_earlier_one(run_dir, tmp_path, monkeypatch):
    # rows are extracted while write_cache writes them, so a bad utterance
    # partway through the split aborts the atomic write; at two workers this
    # process extracts rows 0-2 and a forked child rows 3-5, and only this
    # process's calls are counted
    _, config = run_dir
    m = len(config.resolutions)
    calls = []

    def poisoned(spectrum):
        out = log_magnitude(spectrum)
        if len(calls) == 2 * m:  # utterance 2, first resolution
            out[:] = np.nan
        calls.append(out.shape)
        return out

    def extract_poisoned(config):
        calls.clear()
        with monkeypatch.context() as patch:
            patch.setattr(pipeline, "log_magnitude", poisoned)
            with pytest.raises(PipelineError, match="non-finite"):
                run_extract(config, splits=("train",))
        assert len(calls) == 3 * m  # utterances 0 and 1, then all of utterance 2's maps

    for workers in (1, 2):
        monkeypatch.setattr(parallel, "workers", lambda: workers)
        cache_dir = tmp_path / f"workers{workers}"
        config = dataclasses.replace(config, cache_dir=cache_dir)
        extract_poisoned(config)
        assert list(cache_dir.iterdir()) == []
        path = run_extract(config, splits=("train",))["train"]
        before = path.read_bytes()
        extract_poisoned(config)
        assert list(cache_dir.iterdir()) == [path]
        assert path.read_bytes() == before


# Peaks of this process, measured in a fresh interpreter (see
# `helpers.traced_peak`) at one worker and at two.
EXTRACT_PEAKS = """
import json
import sys
from pathlib import Path
from helpers import micro_config, traced_peak
from multires import parallel
from multires.pipeline import run_extract
config = micro_config(Path(sys.argv[1]), **json.loads(sys.argv[2]))
run_extract(config)  # fills one-time lazy state, such as the train split's crop streams
peaks = {}
for workers in (1, 2):
    parallel.workers = lambda: workers
    peaks[workers] = {s: traced_peak(lambda: run_extract(config, splits=(s,))) for s in ("dev", "train")}
print(json.dumps(peaks))
"""


def test_extract_to_disk_peak_does_not_grow_with_utterances(tmp_path):
    # each process extracts and writes one utterance of its share before the
    # next, so a split of 32 peaks no higher in this process than a split of
    # 4, far below 28 more rows, at one worker and at two
    overrides = {"corpus.n_train": "32", "alignment.target": "128x129"}
    config = micro_config(tmp_path, **overrides)
    run_gen_data(config)
    row_bytes = 4 * len(config.resolutions) * 128 * 129
    for workers, peaks in fresh_run(EXTRACT_PEAKS, str(tmp_path), json.dumps(overrides)).items():
        assert peaks["train"] - peaks["dev"] < row_bytes, (workers, peaks)
    assert load_split_cache(config, "train").n_utterances == 32
    assert load_split_cache(config, "dev").n_utterances == 4


RECROP_PEAKS = """
import json
import sys
from pathlib import Path
from helpers import micro_config, traced_peak
from multires import parallel
from multires.pipeline import run_train
config = micro_config(Path(sys.argv[1]), **json.loads(sys.argv[2]))
run_train(config)  # fills one-time lazy state
peaks = {}
for workers in (1, 2):
    parallel.workers = lambda: workers
    peaks[workers] = traced_peak(lambda: run_train(config))
print(json.dumps(peaks))
"""


def test_recropping_train_holds_batches_not_the_split(tmp_path):
    # each epoch after the first recrops the train split; its rows are
    # extracted a batch at a time, so training never holds the split
    overrides = {"corpus.n_train": "512", "train.epochs": "2", "train.dtype": "float32"}
    config = micro_config(tmp_path, **overrides)
    run_gen_data(config)
    run_extract(config)
    assert _needs_recrop(config)
    payload = load_split_cache(config, "train").n_utterances * 4 * len(config.resolutions) * 16 * 17
    for workers, peak in fresh_run(RECROP_PEAKS, str(tmp_path), json.dumps(overrides)).items():
        assert peak < payload, f"peak {peak} B for a {payload} B split at {workers} workers"


def test_needs_recrop_logic(run_dir, tmp_path):
    _, config = run_dir
    assert _needs_recrop(config)  # 0.3 s corpus vs 0.25 s target
    matched = micro_config(config.corpus_dir.parent, **{"train.target_duration_s": "0.3"})
    assert not _needs_recrop(matched)


def test_load_missing_cache_names_extract(tmp_path):
    config = micro_config(tmp_path)
    with pytest.raises(PipelineError, match="extract"):
        load_split_cache(config, "train")


def test_cache_resolution_guard(run_dir):
    tmp_path, config = run_dir
    other = micro_config(tmp_path, **{"features.resolutions": "32/8"})
    # force the other config to look for its own fingerprint: copy bytes over
    other.cache_dir.mkdir(parents=True, exist_ok=True)
    cache_path(other, "train").write_bytes(cache_path(config, "train").read_bytes())
    with pytest.raises(PipelineError, match="different resolutions"):
        load_split_cache(other, "train")


def test_train_eval_prune_workflow(run_dir):
    tmp_path, config = run_dir
    result, ckpt = run_train(config)
    assert ckpt.is_file()
    log = (config.checkpoint_dir / "train_log.txt").read_text().splitlines()
    assert log == result.log_lines
    assert log[-1] == f"retained_epoch\t{result.best_epoch}"

    # retraining from the same caches reproduces the log byte for byte
    result2, _ = run_train(config)
    assert result2.log_lines == result.log_lines

    # evaluating the checkpoint on dev must reproduce the retained dev EER
    report = run_eval(config, ckpt, split="dev")
    assert report.eer == pytest.approx(result.best_dev_eer, abs=1e-12)
    assert (config.checkpoint_dir / "full.dev_scores.tsv").is_file()
    assert (config.checkpoint_dir / "full.dev_det.csv").is_file()
    records = read_scores(config.checkpoint_dir / "full.dev_scores.tsv")
    assert [r.utt_id for r in records] == sorted(r.utt_id for r in records)
    assert report.summary.startswith("eer=")

    # weight report: one line per resolution, descending weight
    lines = weight_report(config, ckpt).splitlines()
    assert len(lines) == 2
    weights = [float(line.split("\t")[2]) for line in lines]
    assert weights == sorted(weights, reverse=True)

    # prune retrains on the retained subset and emits every artifact
    prune_result, refined_result, refined_ckpt = run_prune(config, ckpt)
    assert len(prune_result.retained) == 1
    assert refined_ckpt.is_file()
    assert (config.checkpoint_dir / "prune_report.txt").is_file()
    assert (config.checkpoint_dir / "train_log.refined.txt").is_file()

    # the refined checkpoint carries its own resolution list, so eval works
    # from the unpruned config
    refined_report = run_eval(config, refined_ckpt, split="eval")
    assert 0.0 <= refined_report.eer <= 1.0
    assert (config.checkpoint_dir / "refined.eval_scores.tsv").is_file()


def test_failed_artifact_writes_keep_previous_files(run_dir, tmp_path, monkeypatch):
    # checkpoints, train logs, the prune report, scores and DET files are all
    # moved into place last: when that move fails, every earlier artifact
    # keeps its bytes and no .tmp file is left behind
    _, config = run_dir
    config = dataclasses.replace(config, checkpoint_dir=tmp_path)
    _, ckpt = run_train(config)
    run_eval(config, ckpt)
    (tmp_path / "prune_report.txt").write_text("previous report\n")
    before = {path.name: path.read_bytes() for path in tmp_path.iterdir()}

    def fail(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr(os, "replace", fail)
    for step in (run_train, lambda c: run_eval(c, ckpt), lambda c: run_prune(c, ckpt)):
        with pytest.raises(OSError, match="disk full"):
            step(config)
    assert {path.name: path.read_bytes() for path in tmp_path.iterdir()} == before


def test_evaluate_model_resolution_guard(run_dir):
    _, config = run_dir
    from multires.model import init_model

    model = init_model((ResolutionSpec(32, 8),), config.backend, np.random.default_rng(0))
    cache = load_split_cache(config, "dev")
    with pytest.raises(PipelineError, match="disagree"):
        evaluate_model(model, cache, config.tdcf)


def test_pruned_checkpoint_without_caches_names_how_to_build_them(run_dir, tmp_path):
    # 'extract' with the config's 32/8,64/16 builds no cache for a checkpoint
    # that kept only 64/16, so the message names what does
    _, config = run_dir
    from multires.model import init_model, save_checkpoint

    config = dataclasses.replace(config, cache_dir=tmp_path / "cache")
    ckpt = tmp_path / "refined.mrck"
    save_checkpoint(init_model((ResolutionSpec(64, 16),), config.backend, np.random.default_rng(0)), ckpt)
    for step in (lambda: run_eval(config, ckpt), lambda: weight_report(config, ckpt)):
        with pytest.raises(PipelineError, match=r"run 'extract' with features\.resolutions = 64/16, or 'prune'"):
            step()


def test_eval_missing_checkpoint(tmp_path):
    config = micro_config(tmp_path)
    with pytest.raises(PipelineError, match="train"):
        run_eval(config, tmp_path / "none.mrck")


def test_mean_weights_read_dev(run_dir):
    tmp_path, config = run_dir
    _, ckpt = run_train(config)
    model, weights = mean_weights(config, ckpt)
    assert weights.shape == (2,)
    assert ((weights > 0) & (weights < 1)).all()
    dev = mean_weights_over_set(load_split_cache(config, "dev"), model.predictor)
    np.testing.assert_array_equal(weights, dev)


def test_weight_report_is_the_prune_report_without_verdicts(run_dir, tmp_path):
    _, config = run_dir
    config = dataclasses.replace(config, checkpoint_dir=tmp_path)
    _, ckpt = run_train(config)
    ranking = weight_report(config, ckpt).splitlines()
    run_prune(config, ckpt)
    report = (tmp_path / "prune_report.txt").read_text(encoding="utf-8").splitlines()
    per_resolution = [line.rpartition("\t") for line in report if not line.startswith("#")]
    assert [head for head, _, _ in per_resolution] == ranking
    assert {verdict for _, _, verdict in per_resolution} == {"retained", "discarded"}
