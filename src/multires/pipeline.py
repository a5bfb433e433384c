"""End-to-end orchestration: corpus -> features -> training -> reports.

Each step is a deterministic function of the config, and every artifact
lands under the configured directories:

    <cache_dir>/<split>.<fingerprint>.mrfe   aligned feature caches
    <checkpoint_dir>/full.mrck               trained model, all resolutions
    <checkpoint_dir>/refined.mrck            model retrained on the retained set
    <checkpoint_dir>/train_log[.refined].txt
    <checkpoint_dir>/prune_report.txt
    <checkpoint_dir>/<name>.<split>_scores.tsv / _det.csv

The fingerprint hashes every config key that influences cache bytes, so a
config change can never silently reuse stale features.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .alignment import align_map, max_grid
from .cache import CacheRows, FeatureCache, read_cache, write_cache
from .config import AppConfig, with_resolutions
from .corpus import SPLITS, generate_corpus
from .metrics import (
    TdcfParams,
    det_points_from_scores,
    eer_from_scores,
    min_tdcf_from_scores,
    summary_line,
    write_det_csv,
)
from .model import Model, load_checkpoint, save_checkpoint
from .pruning import PruneResult, format_report, prune, rank_weights
from .signal_io import (
    Label,
    ScoreRecord,
    read_protocol,
    read_wav,
    sample_count,
    unify_length,
    write_scores,
    write_text,
)
from .stft import frame_sources, log_magnitude, stft
from .trainer import TrainResult, score_cache, train
from .weighting import mean_weights_over_set

CROP_STREAM = 0x43524F50  # namespaces crop draws away from corpus-synthesis draws


class PipelineError(RuntimeError):
    """Raised when a step is missing its inputs or artifacts disagree."""


def config_fingerprint(config: AppConfig) -> str:
    """8-hex digest of every config key that changes extracted cache bytes."""
    c = config.corpus
    target = "max" if config.align_target is None else f"{config.align_target[0]}x{config.align_target[1]}"
    text = "\n".join(
        [
            f"corpus={c.n_train},{c.n_dev},{c.n_eval},{c.duration_s!r},{c.sample_rate},{c.spoof_synthesis},{c.seed}",
            "resolutions=" + ",".join(str(r) for r in config.resolutions),
            # the method name stays in the text so existing cache file names stay valid
            f"alignment=adaptive_pool,{target}",
            f"duration={config.train.target_duration_s!r}",
            f"crop_seed={config.train.seed}",
        ]
    )
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:8]


def cache_path(config: AppConfig, split: str) -> Path:
    return config.cache_dir / f"{split}.{config_fingerprint(config)}.mrfe"


def checkpoint_path(config: AppConfig, name: str) -> Path:
    return config.checkpoint_dir / f"{name}.mrck"


def run_gen_data(config: AppConfig) -> dict[str, Path]:
    return generate_corpus(config.corpus, config.corpus_dir)


def _crop_rng(config: AppConfig, epoch: int, index: int) -> np.random.Generator:
    return np.random.default_rng([config.train.seed, CROP_STREAM, epoch, index])


def extract_split(config: AppConfig, split: str, epoch: int = 0) -> FeatureCache:
    """Protocol -> unified waveforms -> log-STFT maps -> the split's aligned stacks.

    The stacks are a `CacheRows` that extracts an utterance when its row is
    read: channel m is resolution m's map, average-pooled onto the (W, H)
    grid by `align_map`, and a row with a non-finite value stops the read
    with the utterance named. No array of the whole split is built. Each
    map of `frame_sources` is computed once per utterance, each of its
    resolutions is aligned from its rows, and it is dropped before the next
    one is computed.
    `epoch` selects the crop stream for the train split; extraction to disk
    always uses epoch 0, and per-epoch recropping reuses later streams.
    """
    if split not in SPLITS:
        raise PipelineError(f"unknown split {split!r}")
    protocol = config.corpus_dir / f"{split}_protocol.tsv"
    if not protocol.is_file():
        raise PipelineError(f"missing protocol {protocol}; run 'gen-data' first")
    entries = read_protocol(protocol)
    n_samples = sample_count(config.train.target_duration_s, config.corpus.sample_rate)
    w, h = config.align_target or max_grid(config.resolutions, n_samples)
    sources = frame_sources(config.resolutions)

    def fill(out: np.ndarray, i: int) -> None:
        wave = read_wav(config.corpus_dir / entries[i].path, expect_sample_rate=config.corpus.sample_rate)
        rng = _crop_rng(config, epoch, i) if split == "train" else None
        wave = unify_length(wave, config.train.target_duration_s, rng)
        for source, members in sources.items():
            base = log_magnitude(stft(wave, source))
            for m, step in members:
                out[m] = align_map(base[::step], w, h)
            del base  # keeps one source map alive at a time
        # a float64 sum of float32 values is finite exactly when every value is
        if not np.isfinite(out.sum(dtype=np.float64)):
            raise PipelineError(f"{split} utterance {entries[i].utt_id!r} has non-finite features")

    rows = CacheRows((len(entries), len(config.resolutions), w, h), fill)
    ids = tuple(entry.utt_id for entry in entries)
    labels = np.array([int(entry.label) for entry in entries], dtype=np.uint8)
    return FeatureCache(config.resolutions, rows, ids, labels)


def run_extract(config: AppConfig, splits: tuple[str, ...] = SPLITS) -> dict[str, Path]:
    out: dict[str, Path] = {}
    for split in splits:
        path = cache_path(config, split)
        write_cache(extract_split(config, split), path)
        out[split] = path
    return out


def load_split_cache(config: AppConfig, split: str) -> FeatureCache:
    path = cache_path(config, split)
    if not path.is_file():
        raise PipelineError(f"missing feature cache {path}; run 'extract' first")
    cache = read_cache(path)
    if cache.resolutions != tuple(config.resolutions):
        raise PipelineError(f"cache {path} was built for different resolutions than the config")
    return cache


def _needs_recrop(config: AppConfig) -> bool:
    """True when train WAV lengths differ from the unified target length."""
    protocol = config.corpus_dir / "train_protocol.tsv"
    if not protocol.is_file():
        return False
    for entry in read_protocol(protocol):
        wave = read_wav(config.corpus_dir / entry.path)
        if wave.samples.size != sample_count(config.train.target_duration_s, wave.sample_rate):
            return True
    return False


def run_train(config: AppConfig, name: str = "full", progress=None) -> tuple[TrainResult, Path]:
    train_cache = load_split_cache(config, "train")
    dev_cache = load_split_cache(config, "dev")
    reload_train = None
    if _needs_recrop(config):
        reload_train = lambda epoch: extract_split(config, "train", epoch=epoch).stacks
    result = train(train_cache, dev_cache, config.train, config.backend, reload_train, progress)
    ckpt = checkpoint_path(config, name)
    save_checkpoint(result.model, ckpt)
    suffix = "" if name == "full" else f".{name}"
    log_text = "".join(line + "\n" for line in result.log_lines)
    write_text(config.checkpoint_dir / f"train_log{suffix}.txt", log_text)
    return result, ckpt


@dataclass
class EvalReport:
    eer: float
    min_tdcf: float
    records: list[ScoreRecord]
    det: np.ndarray  # (K, 3) rows of threshold, p_miss, p_fa

    @property
    def summary(self) -> str:
        return summary_line(self.eer, self.min_tdcf)


def evaluate_model(model: Model, cache: FeatureCache, tdcf: TdcfParams) -> EvalReport:
    if cache.resolutions != model.resolutions:
        raise PipelineError("checkpoint and cache disagree on resolutions")
    scores = score_cache(model, cache)
    labels = cache.labels
    records = [
        ScoreRecord(utt, Label(int(lab)), float(s))
        for utt, lab, s in zip(cache.ids, labels, scores)
    ]
    records.sort(key=lambda r: r.utt_id)
    return EvalReport(
        eer=eer_from_scores(scores, labels),
        min_tdcf=min_tdcf_from_scores(scores, labels, tdcf),
        records=records,
        det=det_points_from_scores(scores, labels),
    )


def _model_and_split(config: AppConfig, ckpt: str | Path, split: str) -> tuple[Model, FeatureCache]:
    """The checkpoint in `train.dtype`, and the split's cache for its resolutions."""
    ckpt = Path(ckpt)
    if not ckpt.is_file():
        raise PipelineError(f"missing checkpoint {ckpt}; run 'train' first")
    model = load_checkpoint(ckpt, config.train.np_dtype)
    model_config = with_resolutions(config, model.resolutions)
    path = cache_path(model_config, split)
    if model.resolutions != config.resolutions and not path.is_file():
        # 'extract' with the config as it is would build caches for other resolutions
        retained = ", ".join(map(str, model.resolutions))
        raise PipelineError(
            f"missing feature cache {path} for the checkpoint's resolutions; run 'extract' "
            f"with features.resolutions = {retained}, or 'prune', which builds these caches"
        )
    return model, load_split_cache(model_config, split)


def run_eval(config: AppConfig, ckpt: str | Path, split: str = "eval") -> EvalReport:
    model, cache = _model_and_split(config, ckpt, split)
    report = evaluate_model(model, cache, config.tdcf)
    stem = Path(ckpt).stem
    write_scores(report.records, config.checkpoint_dir / f"{stem}.{split}_scores.tsv")
    write_det_csv(report.det, config.checkpoint_dir / f"{stem}.{split}_det.csv")
    return report


def mean_weights(config: AppConfig, ckpt: str | Path) -> tuple[Model, np.ndarray]:
    """The checkpoint and its mean gate weight per resolution on dev, where `train` picks its epoch."""
    model, cache = _model_and_split(config, ckpt, "dev")
    return model, mean_weights_over_set(cache, model.predictor)


def weight_report(config: AppConfig, ckpt: str | Path) -> str:
    """`rank_weights` lines of the dev mean weights: `prune_report.txt`'s lines without the verdict."""
    model, weights = mean_weights(config, ckpt)
    return "".join(line + "\n" for _, line in rank_weights(model.resolutions, weights))


def prune_report_path(config: AppConfig) -> Path:
    return config.checkpoint_dir / "prune_report.txt"


def run_prune(
    config: AppConfig, ckpt: str | Path, progress=None
) -> tuple[PruneResult, TrainResult, Path]:
    """Full -> refined workflow: gap-prune on mean weights, re-extract, retrain."""
    model, weights = mean_weights(config, ckpt)
    result = prune(weights, model.resolutions)
    write_text(prune_report_path(config), format_report(result))
    refined_config = with_resolutions(config, result.retained)
    run_extract(refined_config)
    train_result, refined_ckpt = run_train(refined_config, name="refined", progress=progress)
    return result, train_result, refined_ckpt
