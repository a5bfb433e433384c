import dataclasses
import re
from pathlib import Path

import pytest

from multires.config import (
    _DEFAULTS,
    DEFAULT_RESOLUTIONS,
    ConfigError,
    default_config,
    load_config,
    parse_config,
    serialize_config,
    with_resolutions,
    with_seed,
)
from multires.stft import ResolutionSpec

from helpers import TOY_CFG, toy_config


def test_defaults():
    cfg = default_config()
    assert cfg.corpus.n_train == 400
    assert cfg.corpus.spoof_synthesis == ResolutionSpec(256, 64)
    assert len(cfg.resolutions) == 13
    assert cfg.resolutions == tuple(ResolutionSpec.parse(r) for r in DEFAULT_RESOLUTIONS)
    assert cfg.align_target is None
    assert cfg.train.dtype == "float64"
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


@pytest.mark.parametrize(
    "key, value",
    [
        # the head always has two logits, spoof and bona fide
        pytest.param("backend.n_classes", "2", id="backend.n_classes"),
        # recropping follows from the train WAV lengths alone
        pytest.param("train.recrop_each_epoch", "false", id="train.recrop_each_epoch"),
        # adaptive average pooling is the only alignment
        pytest.param("alignment.method", "adaptive_pool", id="alignment.method"),
        # gate weights are always ranked on dev, the split training selects epochs on
        pytest.param("weights.split", "dev", id="weights.split"),
    ],
)
def test_removed_key_rejected(key, value):
    with pytest.raises(ConfigError, match=f"unknown config key '{re.escape(key)}'"):
        parse_config(f"{key} = {value}\n")


def test_missing_equals_rejected():
    with pytest.raises(ConfigError, match="key=value"):
        parse_config("corpus.seed 5\n")


def test_bad_value_names_key():
    with pytest.raises(ConfigError, match="corpus.sample_rate"):
        parse_config("corpus.sample_rate = loud\n")
    with pytest.raises(ConfigError, match="alignment.target"):
        parse_config("alignment.target = wide\n")
    # float keys take finite values only; nan and inf used to load, or crash
    # later with a traceback or a message that named no key
    for key, value in [
        ("corpus.duration_s", "inf"),
        ("corpus.duration_s", "nan"),
        ("train.target_duration_s", "inf"),
        ("train.target_duration_s", "nan"),
        ("train.peak_lr", "nan"),
        ("train.peak_lr", "inf"),
        ("train.weight_decay", "nan"),
        ("tdcf.c1", "nan"),
        ("tdcf.c2", "inf"),
        ("tdcf.c2", "-inf"),
    ]:
        with pytest.raises(ConfigError, match=rf"bad value for {re.escape(key)}: expected a finite number"):
            parse_config(f"{key} = {value}\n")
    # the source is named once, not once per wrapping
    with pytest.raises(ConfigError) as info:
        parse_config("features.resolutions = 12x\n", source="run.cfg")
    assert str(info.value).startswith("run.cfg: bad value for features.resolutions")


def test_semantic_validation():
    with pytest.raises(ConfigError, match="duplicate"):
        parse_config("features.resolutions = 128/32,128/32\n")
    with pytest.raises(ConfigError, match="non-empty"):
        parse_config("features.resolutions = ,\n")
    # values each section's own validation rejects, reported under the key
    for line, match in [
        ("corpus.n_dev = 0", r"corpus\.n_dev"),
        ("corpus.n_dev = 1", r"corpus\.n_dev must be >= 2"),
        ("corpus.n_eval = 1", r"corpus\.n_eval must be >= 2"),
        ("train.epochs = 0", r"train\.epochs"),
        ("train.dtype = float16", r"train\.dtype"),
        ("backend.se_reduction = 32", r"backend\.se_reduction"),
        ("tdcf.c1 = 0", r"tdcf\.c1"),
        ("train.weight_decay = -0.5", r"train\.weight_decay must be >= 0"),
        # a negative seed fails at load, not later inside numpy's generator
        ("corpus.seed = -1", r"corpus\.seed must be >= 0"),
        ("train.seed = -1", r"train\.seed must be >= 0"),
        # 1e-05 s rounds to no sample at 8 kHz, which gen-data cannot synthesize
        ("corpus.duration_s = 0.00001", r"corpus\.duration_s = 1e-05 gives 0 samples at 8000 Hz"),
        # finite durations whose sample count overflows used to end in an OverflowError
        ("corpus.duration_s = 1e308", r"corpus\.duration_s = 1e\+308 s gives no finite sample count at 8000 Hz"),
        (
            "train.target_duration_s = 1e308",
            r"train\.target_duration_s = 1e\+308 s gives no finite sample count at 8000 Hz",
        ),
        # 0.2 s at 8 kHz is 1600 samples; reflect padding for 4096/64 needs 2049
        (
            "features.resolutions = 128/32, 4096/64\ntrain.target_duration_s = 0.2",
            r"features\.resolutions entry 4096/64 needs at least 2049 samples, "
            r"but train\.target_duration_s = 0\.2 gives 1600 at 8000 Hz",
        ),
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


# A valid value for every key that differs from its default.
NON_DEFAULTS = {
    "corpus.n_train": "11",
    "corpus.n_dev": "12",
    "corpus.n_eval": "13",
    "corpus.duration_s": "2.5",
    "corpus.sample_rate": "16000",
    "corpus.spoof_synthesis": "512/128",
    "corpus.seed": "5",
    "features.resolutions": "128/32,256/64",
    "alignment.target": "64x65",
    "train.epochs": "3",
    "train.batch_size": "4",
    "train.seed": "6",
    "train.peak_lr": "0.002",
    "train.warmup_steps": "7",
    "train.weight_decay": "1e-05",
    "train.target_duration_s": "1.5",
    "train.dtype": "float32",
    "backend.stem_channels": "24",
    "backend.stages": "4",
    "backend.blocks_per_stage": "1",
    "backend.se_reduction": "8",
    "tdcf.c1": "2.0",
    "tdcf.c2": "3.0",
    "paths.corpus_dir": "x/corpus",
    "paths.cache_dir": "x/cache",
    "paths.checkpoint_dir": "x/checkpoints",
}


def _field(cfg, key):
    section, _, name = key.partition(".")
    if section in ("corpus", "train", "backend", "tdcf"):
        return getattr(getattr(cfg, section), name)
    return {
        "features.resolutions": cfg.resolutions,
        "alignment.target": cfg.align_target,
        "paths.corpus_dir": cfg.corpus_dir,
        "paths.cache_dir": cfg.cache_dir,
        "paths.checkpoint_dir": cfg.checkpoint_dir,
    }[key]


def test_every_key_reaches_its_own_field():
    assert list(NON_DEFAULTS) == list(_DEFAULTS)
    defaults = default_config()
    for key, value in NON_DEFAULTS.items():
        assert value != _DEFAULTS[key], key
        cfg = parse_config(f"{key} = {value}\n")
        assert _field(cfg, key) != _field(defaults, key), key
        # no other key moved
        assert all(_field(cfg, k) == _field(defaults, k) for k in _DEFAULTS if k != key), key
    text = "".join(f"{k}={v}\n" for k, v in NON_DEFAULTS.items())
    cfg = parse_config(text)
    assert all(_field(cfg, k) != _field(defaults, k) for k in _DEFAULTS)
    assert serialize_config(cfg) == text
    assert serialize_config(parse_config(serialize_config(cfg))) == text


def test_save_and_load(tmp_path):
    cfg = with_seed(default_config(), 9)
    path = tmp_path / "run.cfg"
    path.write_text(serialize_config(cfg), encoding="utf-8")
    assert load_config(path) == cfg


def test_toy_config_is_the_shipped_file(tmp_path):
    # the acceptance toy run parses configs/toy.cfg and moves only its three directories
    want = dataclasses.replace(
        load_config(TOY_CFG),
        corpus_dir=tmp_path / "corpus",
        cache_dir=tmp_path / "cache",
        checkpoint_dir=tmp_path / "ckpt",
    )
    assert toy_config(tmp_path) == want


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


def test_readme_config_table_names_only_real_keys():
    # the first column of README's Configuration table, e.g.
    # `corpus.n_train` / `n_dev` / `n_eval`: a bare name takes its row's section
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    table = text.split("## Configuration", 1)[1].split("\n\n| key |", 1)[1].split("\n\n", 1)[0]
    rows = [line for line in table.splitlines() if line.startswith("| `")]
    assert rows
    for row in rows:
        keys = re.findall(r"`([^`]+)`", row.split(" | ", 1)[0])
        section = keys[0].partition(".")[0]
        for key in keys:
            key = key if "." in key else f"{section}.{key}"
            if key.endswith(".*"):
                assert any(k.startswith(key[:-1]) for k in _DEFAULTS), row
            else:
                assert key in _DEFAULTS, row
