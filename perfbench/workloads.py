"""The four benchmark workloads: configs, set-up and one timed unit each.

Configs are built here from toy-style config text (the same keys as
`configs/toy.cfg`, copied so that edits to the shipped config cannot change
the benchmark silently).  `--seed` sets `corpus.seed`, so it chooses the
generated utterances; `train.seed` stays at the toy value 2, because at one
epoch the gate ranking follows the initial weights (see NOTES.md).

This module imports `multires` lazily so the orchestrator can read the
workload table without numpy.
"""

from __future__ import annotations

import hashlib
import shutil
import time
from dataclasses import dataclass
from pathlib import Path

EER_LIMIT = 0.10
TOP_RESOLUTION = "256\t64"  # corpus.spoof_synthesis of the toy corpus

TOY_TEXT = """\
corpus.n_train = 400
corpus.n_dev = 100
corpus.n_eval = 200
corpus.duration_s = 1.0
corpus.sample_rate = 8000
corpus.spoof_synthesis = 256/64
features.resolutions = 128/32, 256/64, 512/128
alignment.target = 128x129
train.epochs = 4
train.batch_size = 8
train.seed = 2
train.warmup_steps = 200
train.target_duration_s = 1.0
train.dtype = float32
backend.stem_channels = 8
backend.stages = 3
backend.blocks_per_stage = 1
backend.se_reduction = 4
"""

GRID13 = (
    "512/64, 512/128, 1024/64, 1024/128, 1024/256, 2048/64, 2048/128, "
    "2048/256, 2048/512, 400/160, 1724/130, 288/96, 480/120"
)


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "train", "extract" or "score"
    why: str
    overrides: str


WORKLOADS = (
    Workload(
        "train_toy_f32",
        "train",
        "run_train at the toy shape (400/100 utts, 3x128x129, batch 8, float32, 1 epoch): "
        "training is ~95% of pipeline time and conv2d is most of a step.",
        "corpus.n_eval = 2\ntrain.epochs = 1\n",
    ),
    Workload(
        "extract_grid13",
        "extract",
        "run_extract + load_split_cache of 32/8/16 utts at the 13-resolution grid, 128x129: "
        "front end and cache only, so backend changes must read no change here.",
        f"corpus.n_train = 32\ncorpus.n_dev = 8\ncorpus.n_eval = 16\nfeatures.resolutions = {GRID13}\n",
    ),
    Workload(
        "score_toy_f64",
        "score",
        "run_eval on 64 eval utts plus weight_report on 48 dev utts, float64, batch 32: forward "
        "only, so a change that buys backward speed with forward time or memory shows here.",
        "corpus.n_train = 32\ncorpus.n_dev = 48\ncorpus.n_eval = 64\ntrain.epochs = 1\n"
        "train.warmup_steps = 4\ntrain.dtype = float64\n",
    ),
    Workload(
        "train_recrop_f32",
        "train",
        "run_train with target_duration_s 2.0 on the 1.0 s corpus (160/40 utts, 2 epochs): "
        "epoch 2 re-extracts the train split inside training.",
        "corpus.n_train = 160\ncorpus.n_dev = 40\ncorpus.n_eval = 2\ntrain.epochs = 2\n"
        "train.target_duration_s = 2.0\n",
    ),
)

BY_NAME = {w.name: w for w in WORKLOADS}


def config_text(w: Workload, seed: int, data_dir: Path, unit_dir: Path, extra: str = "") -> str:
    return (
        TOY_TEXT
        + f"corpus.seed = {seed % 2**32}\n"
        + w.overrides
        + f"paths.corpus_dir = {data_dir / 'corpus'}\n"
        + f"paths.cache_dir = {data_dir / 'cache'}\n"
        + f"paths.checkpoint_dir = {unit_dir}\n"
        + extra  # last, so that it overrides the lines above
    )


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def hash_files(paths) -> dict[str, str]:
    return {Path(p).name: sha256(Path(p)) for p in sorted(paths, key=str)}


class Checks:
    """Named pass/fail results; every failure is kept and reported."""

    def __init__(self) -> None:
        self.results: list[tuple[str, bool, str]] = []

    def add(self, name: str, ok: bool, detail: str = "") -> None:
        self.results.append((name, bool(ok), detail))


def setup(w: Workload, seed: int, data_dir: Path, checks: Checks) -> tuple[float, dict[str, str]]:
    """Build the inputs the timed phase reads; returns wall time and artifact hashes."""
    from multires.config import parse_config
    from multires.pipeline import run_extract, run_gen_data, run_train

    cfg = parse_config(config_text(w, seed, data_dir, data_dir / "checkpoints"), w.name)
    t0 = time.perf_counter()
    run_gen_data(cfg)
    artifacts = []
    if w.kind == "train":
        artifacts += run_extract(cfg, ("train", "dev")).values()
    elif w.kind == "score":
        artifacts += run_extract(cfg).values()
        train_cfg = parse_config(
            config_text(w, seed, data_dir, data_dir / "checkpoints", "train.dtype = float32\n"),
            w.name,
        )
        result, ckpt = run_train(train_cfg)
        artifacts += [ckpt, ckpt.parent / "train_log.txt"]
        checks.add("setup checkpoint dev_eer <= 0.10", result.best_dev_eer <= EER_LIMIT,
                   f"dev_eer={result.best_dev_eer:.6f}")
    elapsed = time.perf_counter() - t0
    return elapsed, hash_files(artifacts)


@dataclass
class UnitResult:
    wall_s: float
    utterances: int
    artifacts: dict[str, str]
    quality: dict[str, float]


def run_unit(w: Workload, seed: int, data_dir: Path, unit_dir: Path, checks: Checks) -> UnitResult:
    """One timed pass of the workload through the public pipeline API."""
    from multires.config import parse_config
    from multires.corpus import SPLITS
    from multires.pipeline import load_split_cache, run_eval, run_extract, run_train, weight_report

    if w.kind == "extract":
        # Each unit extracts into its own cache directory.
        text = config_text(w, seed, data_dir, unit_dir, f"paths.cache_dir = {unit_dir / 'cache'}\n")
    else:
        text = config_text(w, seed, data_dir, unit_dir)
    cfg = parse_config(text, w.name)
    quality: dict[str, float] = {}

    if w.kind == "train":
        t0 = time.perf_counter()
        result, ckpt = run_train(cfg)
        wall = time.perf_counter() - t0
        utterances = cfg.corpus.n_train * cfg.train.epochs
        artifacts = [ckpt, unit_dir / "train_log.txt"]
        quality["dev_eer"] = result.best_dev_eer
        checks.add("dev_eer <= 0.10", result.best_dev_eer <= EER_LIMIT, f"dev_eer={result.best_dev_eer:.6f}")
    elif w.kind == "extract":
        t0 = time.perf_counter()
        paths = run_extract(cfg)
        caches = {split: load_split_cache(cfg, split) for split in SPLITS}
        wall = time.perf_counter() - t0
        utterances = sum(cfg.corpus.split_size(s) for s in SPLITS)
        artifacts = list(paths.values())
        grid = (len(cfg.resolutions),) + cfg.align_target
        for split, cache in caches.items():
            want = (cfg.corpus.split_size(split),) + grid
            checks.add(f"{split} cache shape", cache.stacks.shape == want,
                       f"{cache.stacks.shape} vs {want}")
    else:
        ckpt = data_dir / "checkpoints" / "full.mrck"
        t0 = time.perf_counter()
        report = run_eval(cfg, ckpt)
        ranking = weight_report(cfg, ckpt)
        wall = time.perf_counter() - t0
        utterances = cfg.corpus.n_eval
        artifacts = [unit_dir / "full.eval_scores.tsv"]
        quality["eval_eer"] = report.eer
        top = "\t".join(ranking.splitlines()[0].split("\t")[:2])
        checks.add("eval_eer <= 0.10", report.eer <= EER_LIMIT, f"eval_eer={report.eer:.6f}")
        checks.add("weight_report ranks 256/64 first", top == TOP_RESOLUTION, f"top={top!r}")

    hashes = hash_files(artifacts)
    shutil.rmtree(unit_dir, ignore_errors=True)
    return UnitResult(wall, utterances, hashes, quality)


def expected_convs_per_step() -> int:
    """Stem + 2 per block + one 1x1 projection per block that strides or widens."""
    from multires.config import parse_config

    cfg = parse_config(TOY_TEXT).backend
    count, prev = 1, cfg.stem_channels
    for stage in range(1, cfg.stages + 1):
        ch = cfg.stage_channels(stage)
        for b in range(cfg.blocks_per_stage):
            stride = 2 if (stage >= 2 and b == 0) else 1
            count += 2 + (1 if (stride != 1 or prev != ch) else 0)
            prev = ch
    return count
