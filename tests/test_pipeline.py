import dataclasses

import numpy as np
import pytest

from multires import pipeline
from multires.alignment import align_map
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


def _config(tmp_path, **overrides):
    lines = {
        "corpus.n_train": "6",
        "corpus.n_dev": "4",
        "corpus.n_eval": "4",
        "corpus.duration_s": "0.3",
        "corpus.sample_rate": "2000",
        "corpus.spoof_synthesis": "64/16",
        "corpus.seed": "5",
        "features.resolutions": "32/8,64/16",
        "alignment.target": "16x17",
        "train.epochs": "2",
        "train.batch_size": "4",
        "train.seed": "5",
        "train.warmup_steps": "4",
        "train.target_duration_s": "0.25",
        "backend.stem_channels": "4",
        "backend.stages": "2",
        "backend.blocks_per_stage": "1",
        "backend.se_reduction": "2",
        "paths.corpus_dir": str(tmp_path / "corpus"),
        "paths.cache_dir": str(tmp_path / "cache"),
        "paths.checkpoint_dir": str(tmp_path / "ckpt"),
    }
    lines.update(overrides)
    return parse_config("".join(f"{k}={v}\n" for k, v in lines.items()))


@pytest.fixture(scope="module")
def run_dir(tmp_path_factory):
    """One generated corpus + extracted caches shared by the read-only tests."""
    tmp_path = tmp_path_factory.mktemp("pipeline")
    config = _config(tmp_path)
    run_gen_data(config)
    run_extract(config)
    return tmp_path, config


def test_fingerprint_sensitivity(tmp_path):
    base = _config(tmp_path)
    assert len(config_fingerprint(base)) == 8
    assert config_fingerprint(base) == config_fingerprint(_config(tmp_path))
    changed = [
        _config(tmp_path, **{"corpus.seed": "6"}),
        _config(tmp_path, **{"features.resolutions": "32/8"}),
        _config(tmp_path, **{"alignment.target": "max"}),
        _config(tmp_path, **{"train.target_duration_s": "0.3"}),
        _config(tmp_path, **{"train.seed": "6"}),
    ]
    fingerprints = {config_fingerprint(c) for c in changed}
    assert config_fingerprint(base) not in fingerprints
    assert len(fingerprints) == len(changed)
    # keys that do not affect cache bytes leave the fingerprint alone
    assert config_fingerprint(_config(tmp_path, **{"train.epochs": "9"})) == config_fingerprint(base)
    assert config_fingerprint(_config(tmp_path, **{"backend.stages": "3"})) == config_fingerprint(base)


def test_artifact_paths(tmp_path):
    config = _config(tmp_path)
    fp = config_fingerprint(config)
    assert cache_path(config, "dev").name == f"dev.{fp}.mrfe"
    assert checkpoint_path(config, "full").name == "full.mrck"


def test_extract_requires_corpus(tmp_path):
    config = _config(tmp_path)
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
    np.testing.assert_array_equal(a.stacks, b.stacks)


def test_train_crops_differ_by_epoch(run_dir):
    _, config = run_dir
    a = extract_split(config, "train", epoch=0)
    b = extract_split(config, "train", epoch=1)
    assert a.stacks.shape == b.stacks.shape
    assert not np.array_equal(a.stacks, b.stacks)


def _assert_channels(config, split, grid, epoch=0):
    # channel m of utterance i is resolution m's map, aligned and cast to float32
    cache = extract_split(config, split, epoch=epoch)
    entries = read_protocol(config.corpus_dir / f"{split}_protocol.tsv")
    assert cache.stacks.shape == (len(entries), len(config.resolutions)) + grid
    assert cache.stacks.dtype == np.float32
    assert cache.ids == tuple(e.utt_id for e in entries)
    assert cache.labels.tolist() == [int(e.label) for e in entries]
    for i, entry in enumerate(entries):
        rng = _crop_rng(config, epoch, i) if split == "train" else None
        wave = unify_length(read_wav(config.corpus_dir / entry.path), config.train.target_duration_s, rng)
        for m, res in enumerate(config.resolutions):
            want = align_map(log_magnitude(stft(wave, res)), config.align_method, *grid)
            assert cache.stacks[i, m].tobytes() == want.astype(np.float32).tobytes(), (i, m)


def test_extract_split_explicit_target(run_dir):
    tmp_path, config = run_dir
    _assert_channels(config, "train", (16, 17), epoch=1)
    _assert_channels(_config(tmp_path, **{"alignment.target": "8x8"}), "dev", (8, 8))


def test_extract_split_nearest_max(run_dir):
    tmp_path, _ = run_dir
    config = _config(tmp_path, **{"alignment.target": "max", "alignment.method": "nearest"})
    # 0.25 s at 2 kHz is 500 samples: 32/8 gives 63 frames, 64/16 gives 33 bins
    _assert_channels(config, "dev", (63, 33))


def test_extract_split_rejects_non_finite_features(run_dir, monkeypatch):
    _, config = run_dir
    entries = read_protocol(config.corpus_dir / "dev_protocol.tsv")
    m = len(config.resolutions)
    calls = []

    def poisoned(spectrum):
        out = log_magnitude(spectrum)
        if len(calls) == 2 * m + 1:  # utterance 2, second resolution
            out[3, 4] = np.inf
        if len(calls) == 3 * m:  # utterance 3, first resolution
            out[:] = np.nan
        calls.append(out.shape)
        return out

    monkeypatch.setattr(pipeline, "log_magnitude", poisoned)
    with pytest.raises(PipelineError, match=f"dev utterance '{entries[2].utt_id}' has non-finite"):
        extract_split(config, "dev")
    assert len(calls) == len(entries) * m


def test_needs_recrop_logic(run_dir, tmp_path):
    _, config = run_dir
    assert _needs_recrop(config)  # 0.3 s corpus vs 0.25 s target
    matched = _config(config.corpus_dir.parent, **{"train.target_duration_s": "0.3"})
    assert not _needs_recrop(matched)


def test_load_missing_cache_names_extract(tmp_path):
    config = _config(tmp_path)
    with pytest.raises(PipelineError, match="extract"):
        load_split_cache(config, "train")


def test_cache_resolution_guard(run_dir):
    tmp_path, config = run_dir
    other = _config(tmp_path, **{"features.resolutions": "32/8"})
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


def test_evaluate_model_resolution_guard(run_dir):
    _, config = run_dir
    from multires.model import init_model

    model = init_model((ResolutionSpec(32, 8),), config.backend, np.random.default_rng(0))
    cache = load_split_cache(config, "dev")
    with pytest.raises(PipelineError, match="disagree"):
        evaluate_model(model, cache, config.tdcf)


def test_eval_missing_checkpoint(tmp_path):
    config = _config(tmp_path)
    with pytest.raises(PipelineError, match="train"):
        run_eval(config, tmp_path / "none.mrck")


def test_mean_weights_split_selection(run_dir):
    tmp_path, config = run_dir
    _, ckpt = run_train(config)
    model, weights = mean_weights(config, ckpt)
    assert weights.shape == (2,)
    assert ((weights > 0) & (weights < 1)).all()
    # weights.split defaults to dev; setting it to train switches the split
    per_split = {
        split: mean_weights_over_set(load_split_cache(config, split), model.predictor)
        for split in ("dev", "train")
    }
    np.testing.assert_array_equal(weights, per_split["dev"])
    _, train_weights = mean_weights(dataclasses.replace(config, weights_split="train"), ckpt)
    np.testing.assert_array_equal(train_weights, per_split["train"])
    assert not np.array_equal(per_split["dev"], per_split["train"])
