"""Flat key=value configuration with section prefixes.

One key per line, `section.key=value`, `#` comments and blank lines allowed.
Every key has a default; unknown keys are rejected so typos fail loudly.
`serialize_config` emits a canonical ordering whose parse is equal to the
original config (round-trip stability is part of the contract).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from pathlib import Path

from .alignment import AlignMethod
from .backend import BackendConfig
from .corpus import SPLITS, CorpusSpec
from .metrics import TdcfParams
from .stft import ResolutionSpec
from .trainer import TrainConfig

ENV_CONFIG_VAR = "MULTIRES_CONFIG"

# Hand-selected 13-entry resolution grid; the package default.
DEFAULT_RESOLUTIONS = (
    "512/64", "512/128", "1024/64", "1024/128", "1024/256",
    "2048/64", "2048/128", "2048/256", "2048/512",
    "400/160", "1724/130", "288/96", "480/120",
)


class ConfigError(ValueError):
    """Raised for unknown keys, bad values, or malformed config lines."""


@dataclass(frozen=True)
class AppConfig:
    corpus: CorpusSpec
    resolutions: tuple[ResolutionSpec, ...]
    align_method: AlignMethod
    align_target: tuple[int, int] | None  # None = max rule over the map sizes
    train: TrainConfig
    backend: BackendConfig
    tdcf: TdcfParams
    weights_split: str
    corpus_dir: Path
    cache_dir: Path
    checkpoint_dir: Path

    def __post_init__(self) -> None:
        if not self.resolutions:
            raise ConfigError("features.resolutions must be non-empty")
        if len(set(self.resolutions)) != len(self.resolutions):
            raise ConfigError("features.resolutions contains duplicate window/hop pairs")
        if self.weights_split not in SPLITS:
            raise ConfigError(f"weights.split must be one of {SPLITS}")
        if self.align_target is not None and min(self.align_target) < 1:
            raise ConfigError("alignment.target dims must be >= 1")


def _parse_bool(raw: str) -> bool:
    if raw == "true":
        return True
    if raw == "false":
        return False
    raise ValueError(f"expected true or false, got {raw!r}")


def _parse_target(raw: str) -> tuple[int, int] | None:
    if raw == "max":
        return None
    parts = raw.split("x")
    if len(parts) != 2:
        raise ValueError(f"expected WxH or max, got {raw!r}")
    return int(parts[0]), int(parts[1])


def _parse_resolutions(raw: str) -> tuple[ResolutionSpec, ...]:
    tokens = [tok for tok in raw.split(",") if tok.strip()]
    return tuple(ResolutionSpec.parse(tok) for tok in tokens)


_DEFAULTS: dict[str, str] = {
    "corpus.n_train": "400",
    "corpus.n_dev": "100",
    "corpus.n_eval": "200",
    "corpus.duration_s": "1.0",
    "corpus.sample_rate": "8000",
    "corpus.spoof_synthesis": "256/64",
    "corpus.seed": "0",
    "features.resolutions": ",".join(DEFAULT_RESOLUTIONS),
    "alignment.method": "adaptive_pool",
    "alignment.target": "max",
    "train.epochs": "10",
    "train.batch_size": "8",
    "train.seed": "0",
    "train.peak_lr": "0.001",
    "train.warmup_steps": "1000",
    "train.weight_decay": "1e-09",
    "train.target_duration_s": "4.5",
    "train.recrop_each_epoch": "true",
    "train.dtype": "float64",
    "backend.stem_channels": "16",
    "backend.stages": "3",
    "backend.blocks_per_stage": "2",
    "backend.se_reduction": "4",
    "backend.n_classes": "2",
    "tdcf.c1": "1.0",
    "tdcf.c2": "1.0",
    "weights.split": "dev",
    "paths.corpus_dir": "data/corpus",
    "paths.cache_dir": "data/cache",
    "paths.checkpoint_dir": "data/checkpoints",
}


def parse_config(text: str, source: str = "<config>") -> AppConfig:
    values = dict(_DEFAULTS)
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        key, sep, raw = stripped.partition("=")
        if not sep:
            raise ConfigError(f"{source}:{lineno}: expected key=value, got {stripped!r}")
        key = key.strip()
        if key not in _DEFAULTS:
            raise ConfigError(f"{source}:{lineno}: unknown config key {key!r}")
        values[key] = raw.strip()
    return _assemble(values, source)


def _assemble(v: dict[str, str], source: str) -> AppConfig:
    def conv(key: str, fn):
        try:
            return fn(v[key])
        except (ValueError, TypeError) as exc:
            raise ValueError(f"bad value for {key}: {exc}") from None

    try:
        corpus = CorpusSpec(
            n_train=conv("corpus.n_train", int),
            n_dev=conv("corpus.n_dev", int),
            n_eval=conv("corpus.n_eval", int),
            duration_s=conv("corpus.duration_s", float),
            sample_rate=conv("corpus.sample_rate", int),
            spoof_synthesis=conv("corpus.spoof_synthesis", ResolutionSpec.parse),
            seed=conv("corpus.seed", int),
        )
        train = TrainConfig(
            epochs=conv("train.epochs", int),
            batch_size=conv("train.batch_size", int),
            seed=conv("train.seed", int),
            peak_lr=conv("train.peak_lr", float),
            warmup_steps=conv("train.warmup_steps", int),
            weight_decay=conv("train.weight_decay", float),
            target_duration_s=conv("train.target_duration_s", float),
            recrop_each_epoch=conv("train.recrop_each_epoch", _parse_bool),
            dtype=v["train.dtype"],
        )
        backend = BackendConfig(
            stem_channels=conv("backend.stem_channels", int),
            stages=conv("backend.stages", int),
            blocks_per_stage=conv("backend.blocks_per_stage", int),
            se_reduction=conv("backend.se_reduction", int),
            n_classes=conv("backend.n_classes", int),
        )
        tdcf = TdcfParams(c1=conv("tdcf.c1", float), c2=conv("tdcf.c2", float))
        return AppConfig(
            corpus=corpus,
            resolutions=conv("features.resolutions", _parse_resolutions),
            align_method=conv("alignment.method", AlignMethod),
            align_target=conv("alignment.target", _parse_target),
            train=train,
            backend=backend,
            tdcf=tdcf,
            weights_split=v["weights.split"],
            corpus_dir=Path(v["paths.corpus_dir"]),
            cache_dir=Path(v["paths.cache_dir"]),
            checkpoint_dir=Path(v["paths.checkpoint_dir"]),
        )
    except ValueError as exc:
        raise ConfigError(f"{source}: {exc}") from None


def serialize_config(config: AppConfig) -> str:
    c = config
    target = "max" if c.align_target is None else f"{c.align_target[0]}x{c.align_target[1]}"
    items = [
        ("corpus.n_train", str(c.corpus.n_train)),
        ("corpus.n_dev", str(c.corpus.n_dev)),
        ("corpus.n_eval", str(c.corpus.n_eval)),
        ("corpus.duration_s", repr(c.corpus.duration_s)),
        ("corpus.sample_rate", str(c.corpus.sample_rate)),
        ("corpus.spoof_synthesis", str(c.corpus.spoof_synthesis)),
        ("corpus.seed", str(c.corpus.seed)),
        ("features.resolutions", ",".join(str(r) for r in c.resolutions)),
        ("alignment.method", c.align_method.value),
        ("alignment.target", target),
        ("train.epochs", str(c.train.epochs)),
        ("train.batch_size", str(c.train.batch_size)),
        ("train.seed", str(c.train.seed)),
        ("train.peak_lr", repr(c.train.peak_lr)),
        ("train.warmup_steps", str(c.train.warmup_steps)),
        ("train.weight_decay", repr(c.train.weight_decay)),
        ("train.target_duration_s", repr(c.train.target_duration_s)),
        ("train.recrop_each_epoch", "true" if c.train.recrop_each_epoch else "false"),
        ("train.dtype", c.train.dtype),
        ("backend.stem_channels", str(c.backend.stem_channels)),
        ("backend.stages", str(c.backend.stages)),
        ("backend.blocks_per_stage", str(c.backend.blocks_per_stage)),
        ("backend.se_reduction", str(c.backend.se_reduction)),
        ("backend.n_classes", str(c.backend.n_classes)),
        ("tdcf.c1", repr(c.tdcf.c1)),
        ("tdcf.c2", repr(c.tdcf.c2)),
        ("weights.split", c.weights_split),
        ("paths.corpus_dir", str(c.corpus_dir)),
        ("paths.cache_dir", str(c.cache_dir)),
        ("paths.checkpoint_dir", str(c.checkpoint_dir)),
    ]
    return "".join(f"{k}={v}\n" for k, v in items)


def default_config() -> AppConfig:
    return _assemble(dict(_DEFAULTS), "<defaults>")


def load_config(path: str | Path) -> AppConfig:
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"config file not found: {path}")
    return parse_config(path.read_text(encoding="utf-8"), source=str(path))


def save_config(config: AppConfig, path: str | Path) -> None:
    Path(path).write_text(serialize_config(config), encoding="utf-8")


def with_seed(config: AppConfig, seed: int) -> AppConfig:
    """Override both the corpus and training seeds (the CLI --seed flag)."""
    return dataclasses.replace(
        config,
        corpus=dataclasses.replace(config.corpus, seed=seed),
        train=dataclasses.replace(config.train, seed=seed),
    )


def with_resolutions(config: AppConfig, resolutions: tuple[ResolutionSpec, ...]) -> AppConfig:
    return dataclasses.replace(config, resolutions=tuple(resolutions))
