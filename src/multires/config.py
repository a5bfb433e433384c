"""Flat key=value configuration with section prefixes.

One key per line, `section.key=value`, `#` comments and blank lines allowed.
Every key has a default; unknown keys are rejected so typos fail loudly.

Each key is declared once. The `corpus.*`, `train.*`, `backend.*` and
`tdcf.*` keys are the fields of `CorpusSpec`, `TrainConfig`, `BackendConfig`
and `TdcfParams`, with those classes' defaults; the type of a default picks
the key's parser. The other keys are the rows of `_TOP_LEVEL`. Parsing,
`_DEFAULTS` and `serialize_config` all walk that one key list, so
`serialize_config` emits a canonical ordering whose parse is equal to the
original config (round-trip stability is part of the contract).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, NamedTuple, get_type_hints

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


class _Key(NamedTuple):
    name: str  # as written in a config file
    attr: str  # AppConfig field
    field: str | None  # section field, or None when the key sets `attr` itself
    default: str
    parse: Callable[[str], Any]
    format: Callable[[Any], str]


# Section field parsers, by the type of the field's default.
_PARSERS: dict[type, Callable[[str], Any]] = {
    int: int,
    float: float,
    str: str,
    ResolutionSpec: ResolutionSpec.parse,
}

# AppConfig fields that are not sections: key, default text, parser, formatter.
_TOP_LEVEL: dict[str, tuple[str, str, Callable[[str], Any], Callable[[Any], str]]] = {
    "resolutions": (
        "features.resolutions",
        ",".join(DEFAULT_RESOLUTIONS),
        _parse_resolutions,
        lambda rs: ",".join(map(str, rs)),
    ),
    "align_method": ("alignment.method", "adaptive_pool", AlignMethod, lambda m: m.value),
    "align_target": (
        "alignment.target",
        "max",
        _parse_target,
        lambda t: "max" if t is None else f"{t[0]}x{t[1]}",
    ),
    "weights_split": ("weights.split", "dev", str, str),
    "corpus_dir": ("paths.corpus_dir", "data/corpus", Path, str),
    "cache_dir": ("paths.cache_dir", "data/cache", Path, str),
    "checkpoint_dir": ("paths.checkpoint_dir", "data/checkpoints", Path, str),
}

# The other AppConfig fields are sections: field name -> section class.
_SECTIONS: dict[str, type] = {
    name: cls for name, cls in get_type_hints(AppConfig).items() if name not in _TOP_LEVEL
}


def _declare_keys() -> tuple[_Key, ...]:
    keys = []
    for attr in (f.name for f in dataclasses.fields(AppConfig)):
        if attr in _TOP_LEVEL:
            name, default, parse, fmt = _TOP_LEVEL[attr]
            keys.append(_Key(name, attr, None, default, parse, fmt))
            continue
        for f in dataclasses.fields(_SECTIONS[attr]):
            default = f.default_factory() if f.default is dataclasses.MISSING else f.default
            keys.append(_Key(f"{attr}.{f.name}", attr, f.name, str(default), _PARSERS[type(default)], str))
    return tuple(keys)


_KEYS = _declare_keys()
_DEFAULTS: dict[str, str] = {key.name: key.default for key in _KEYS}


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
    try:
        kwargs: dict[str, Any] = {attr: {} for attr in _SECTIONS}
        for key in _KEYS:
            try:
                value = key.parse(v[key.name])
            except (ValueError, TypeError) as exc:
                raise ValueError(f"bad value for {key.name}: {exc}") from None
            if key.field is None:
                kwargs[key.attr] = value
            else:
                kwargs[key.attr][key.field] = value
        for attr, cls in _SECTIONS.items():
            try:
                kwargs[attr] = cls(**kwargs[attr])
            except ValueError as exc:
                # every section message starts with its field name
                raise ValueError(f"{attr}.{exc}") from None
        return AppConfig(**kwargs)
    except ValueError as exc:
        raise ConfigError(f"{source}: {exc}") from None


def serialize_config(config: AppConfig) -> str:
    lines = []
    for key in _KEYS:
        value = getattr(config, key.attr)
        if key.field is not None:
            value = getattr(value, key.field)
        lines.append(f"{key.name}={key.format(value)}\n")
    return "".join(lines)


def default_config() -> AppConfig:
    return _assemble(dict(_DEFAULTS), "<defaults>")


def load_config(path: str | Path) -> AppConfig:
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"config file not found: {path}")
    return parse_config(path.read_text(encoding="utf-8"), source=str(path))


def with_seed(config: AppConfig, seed: int) -> AppConfig:
    """Override both the corpus and training seeds (the CLI --seed flag)."""
    return dataclasses.replace(
        config,
        corpus=dataclasses.replace(config.corpus, seed=seed),
        train=dataclasses.replace(config.train, seed=seed),
    )


def with_resolutions(config: AppConfig, resolutions: tuple[ResolutionSpec, ...]) -> AppConfig:
    return dataclasses.replace(config, resolutions=tuple(resolutions))
