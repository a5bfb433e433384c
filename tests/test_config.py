from pathlib import Path

import pytest

from multires.alignment import AlignMethod
from multires.config import (
    _DEFAULTS,
    DEFAULT_RESOLUTIONS,
    AppConfig,
    ConfigError,
    default_config,
    load_config,
    parse_config,
    save_config,
    serialize_config,
    with_resolutions,
    with_seed,
)
from multires.stft import ResolutionSpec


def test_defaults():
    cfg = default_config()
    assert cfg.corpus.n_train == 400
    assert cfg.corpus.spoof_synthesis == ResolutionSpec(256, 64)
    assert len(cfg.resolutions) == 13
    assert cfg.resolutions == tuple(ResolutionSpec.parse(r) for r in DEFAULT_RESOLUTIONS)
    assert cfg.align_method is AlignMethod.ADAPTIVE_POOL
    assert cfg.align_target is None
    assert cfg.train.dtype == "float64"
    assert cfg.weights_split == "dev"
    assert cfg.checkpoint_dir == Path("data/checkpoints")


def test_parse_overrides_and_comments():
    cfg = parse_config(
        """
        # toy run
        corpus.n_train = 12
        features.resolutions = 128/32, 256/64
        alignment.target = 64x65

        train.dtype = float32
        """
    )
    assert cfg.corpus.n_train == 12
    assert cfg.resolutions == (ResolutionSpec(128, 32), ResolutionSpec(256, 64))
    assert cfg.align_target == (64, 65)
    assert cfg.train.dtype == "float32"
    # untouched keys keep their defaults
    assert cfg.corpus.n_dev == 100


def test_unknown_key_rejected_with_location():
    with pytest.raises(ConfigError, match=r"<config>:2: unknown config key 'train\.lr'"):
        parse_config("corpus.seed = 1\ntrain.lr = 0.1\n")


def test_missing_equals_rejected():
    with pytest.raises(ConfigError, match="key=value"):
        parse_config("corpus.seed 5\n")


def test_bad_value_names_key():
    with pytest.raises(ConfigError, match="corpus.sample_rate"):
        parse_config("corpus.sample_rate = loud\n")
    with pytest.raises(ConfigError, match="alignment.target"):
        parse_config("alignment.target = wide\n")
    with pytest.raises(ConfigError, match="alignment.method"):
        parse_config("alignment.method = bilinear\n")
    # the source is named once, not once per wrapping
    with pytest.raises(ConfigError) as info:
        parse_config("features.resolutions = 12x\n", source="run.cfg")
    assert str(info.value).startswith("run.cfg: bad value for features.resolutions")


def test_semantic_validation():
    with pytest.raises(ConfigError, match="duplicate"):
        parse_config("features.resolutions = 128/32,128/32\n")
    with pytest.raises(ConfigError, match="weights.split"):
        parse_config("weights.split = test\n")
    with pytest.raises(ConfigError, match="non-empty"):
        parse_config("features.resolutions = ,\n")
    # values each section's own validation rejects
    for line, match in [
        ("train.epochs = 0", "epochs"),
        ("train.dtype = float16", "dtype"),
        ("backend.se_reduction = 32", "se_reduction"),
        ("tdcf.c1 = 0", "c1"),
    ]:
        with pytest.raises(ConfigError, match=match) as info:
            parse_config(line + "\n", source="run.cfg")
        assert str(info.value).startswith("run.cfg: ")


def test_round_trip_stability():
    cfg = parse_config(
        "corpus.duration_s = 2.5\ntrain.peak_lr = 0.0003\ntrain.weight_decay = 1e-08\n"
        "alignment.target = 100x129\npaths.cache_dir = /tmp/x\n"
    )
    text = serialize_config(cfg)
    again = parse_config(text)
    assert again == cfg
    assert serialize_config(again) == text


def test_round_trip_default_config():
    cfg = default_config()
    assert parse_config(serialize_config(cfg)) == cfg


def test_serialize_emits_every_default_key_once_in_order():
    lines = serialize_config(default_config()).splitlines()
    assert [line.partition("=")[0] for line in lines] == list(_DEFAULTS)


def test_save_and_load(tmp_path):
    cfg = with_seed(default_config(), 9)
    path = tmp_path / "run.cfg"
    save_config(cfg, path)
    assert load_config(path) == cfg


def test_load_missing_file_is_config_error(tmp_path):
    with pytest.raises(ConfigError, match="not found"):
        load_config(tmp_path / "absent.cfg")


def test_with_seed_sets_both_streams():
    cfg = with_seed(default_config(), 42)
    assert cfg.corpus.seed == 42
    assert cfg.train.seed == 42


def test_with_resolutions_replaces_list():
    cfg = with_resolutions(default_config(), (ResolutionSpec(256, 64),))
    assert cfg.resolutions == (ResolutionSpec(256, 64),)
    # everything else untouched
    assert cfg.corpus == default_config().corpus


def test_target_must_be_positive():
    with pytest.raises(ConfigError, match="target"):
        parse_config("alignment.target = 0x10\n")
