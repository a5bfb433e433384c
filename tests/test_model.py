import struct

import numpy as np
import pytest

from multires.backend import BackendConfig, backend_backward, block_backward
from multires.excitation import init_excitation
from multires.model import (
    MAGIC,
    CheckpointFormatError,
    _build_model,
    fresh_weights,
    init_model,
    load_checkpoint,
    model_backward,
    model_forward,
    model_params,
    named_params,
    save_checkpoint,
)
from multires.stft import ResolutionSpec
from multires.trainer import cross_entropy_batch
from multires.weighting import hidden_width

from helpers import reduced, traced_peak
from oracles import central_difference

RES = (ResolutionSpec(128, 32), ResolutionSpec(256, 64), ResolutionSpec(512, 128))
CFG = BackendConfig(stem_channels=4, stages=2, blocks_per_stage=1, se_reduction=2)


def test_init_model_channel_count_follows_resolutions():
    model = init_model(RES, CFG, np.random.default_rng(0))
    assert model.n_channels == 3
    assert model.predictor.n_channels == 3
    assert model.backend.stem.weight.shape[1] == 3


def test_model_params_and_named_params_align():
    model = init_model(RES, CFG, np.random.default_rng(0))
    params = model_params(model)
    names = [name for name, _ in named_params(model.predictor, model.backend)]
    assert len(params) == len(names)
    assert names[0] == "predictor.fc1_w"
    assert names[4] == "stem.w"
    assert names[-2:] == ["head.w", "head.b"]
    # live references: mutating through the list reaches the model
    params[0][...] = 7.0
    assert (model.predictor.fc1_weight == 7.0).all()


@pytest.mark.parametrize(
    "config", [BackendConfig(8, 3, 1, 4), BackendConfig(4, 2, 2, 2), BackendConfig(1, 1, 1, 1)]
)
def test_builder_calls_its_source_in_traversal_order(config):
    # the toy backend and a two-block-per-stage one have projection blocks; 1/1/1/1 has none
    calls = []

    def make(shape):
        calls.append((shape, np.zeros(shape)))
        return calls[-1][1]

    model = _build_model(RES, config, make)
    params = named_params(model.predictor, model.backend)
    assert any(name.endswith(".proj.w") for name, _ in params) == (config.stages > 1)
    assert [shape for shape, _ in calls] == [arr.shape for _, arr in params]
    assert all(made is arr for (_, made), (_, arr) in zip(calls, params))


def test_forward_backward_shapes():
    model = init_model(RES, CFG, np.random.default_rng(1))
    x = np.random.default_rng(2).standard_normal((4, 3, 6, 5))
    logits, cache = model_forward(x, model)
    assert logits.shape == (4, 2)
    d_stacks, terms = model_backward(cache, np.ones_like(logits))
    assert d_stacks.shape == x.shape
    assert len(terms) == len(model_params(model))
    for t, g, p in zip(terms, reduced(*terms), model_params(model)):
        assert t.shape == g.shape == p.shape


def test_forward_rejects_wrong_channels():
    model = init_model(RES, CFG, np.random.default_rng(1))
    with pytest.raises(ValueError, match="stacks"):
        model_forward(np.zeros((1, 2, 4, 4)), model)


def test_forward_keeps_each_activation_once():
    # the cache holds each activation once, not a pre-ReLU copy beside it
    model = init_model(RES, BackendConfig(8, 3, 1, 4), np.random.default_rng(5))
    x = np.random.default_rng(6).standard_normal((4, 3, 64, 65))
    peak = traced_peak(lambda: model_forward(x, model))
    assert peak <= 25 * x.nbytes, f"peak {peak / x.nbytes:.1f}x input bytes"


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_training_step_peak_near_its_cache(dtype):
    # backward frees each block's activations once its backward returns and
    # masks gradients in place, so a whole step peaks little above the cache
    # its forward keeps (about 1.05x here), not at twice it
    model = init_model(RES, BackendConfig(8, 3, 1, 4), np.random.default_rng(5), dtype)
    x = np.random.default_rng(6).standard_normal((4, 3, 64, 65)).astype(dtype)

    def step():
        logits, cache = model_forward(x, model)
        _, d_logits = cross_entropy_batch(logits, np.arange(4) % 2, 4)
        return reduced(*model_backward(cache, d_logits)[1])

    cached = traced_peak(lambda: model_forward(x, model))
    peak = traced_peak(step)
    assert peak <= 1.3 * cached, f"step peak {peak / cached:.2f}x the cached forward's"


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_logits_with_and_without_cache_are_bitwise_equal(dtype):
    model = init_model(RES, CFG, np.random.default_rng(7), dtype)
    for n in (1, 5):
        x = np.random.default_rng(n).standard_normal((n, 3, 9, 7)).astype(dtype)
        kept, cache = model_forward(x, model)
        scored, none = model_forward(x, model, keep_cache=False)
        assert cache is not None and none is None
        assert kept.dtype == scored.dtype == dtype
        np.testing.assert_array_equal(kept, scored)


def test_backward_consumes_its_cache():
    # backward lets go of each activation at its last read, so one cache
    # serves one backward; another is refused, not run on emptied caches
    model = init_model(RES, CFG, np.random.default_rng(1))
    x = np.random.default_rng(2).standard_normal((2, 3, 6, 5))
    logits, cache = model_forward(x, model)
    d_logits = np.ones_like(logits)
    model_backward(cache, d_logits)
    with pytest.raises(ValueError, match="consumed"):
        model_backward(cache, d_logits)
    with pytest.raises(ValueError, match="consumed"):
        backend_backward(cache.backend, d_logits)

    _, cache = model_forward(x, model)
    block = cache.backend.blocks[-1]
    dout = np.ones_like(block.out)
    block_backward(block, dout.copy())
    with pytest.raises(ValueError, match="consumed"):
        block_backward(block, dout)


def test_end_to_end_gradients_match_finite_differences():
    model = init_model(RES, CFG, np.random.default_rng(3))
    rng = np.random.default_rng(4)
    x = rng.standard_normal((2, 3, 5, 4))
    logits, cache = model_forward(x, model)
    d_logits = rng.standard_normal(logits.shape)
    d_stacks, terms = model_backward(cache, d_logits)

    def loss():
        out, _ = model_forward(x, model)
        return float((out * d_logits).sum())

    arrays = [x] + model_params(model)
    got = [d_stacks] + reduced(*terms)
    num = central_difference(loss, arrays)
    for g, n in zip(got, num):
        np.testing.assert_allclose(g, n, rtol=1e-5, atol=1e-7)


def test_checkpoint_round_trip_bitwise(tmp_path):
    model = init_model(RES, CFG, np.random.default_rng(5))
    path = tmp_path / "m.mrck"
    save_checkpoint(model, path)
    back = load_checkpoint(path)
    assert back.resolutions == RES
    assert back.config == CFG
    for a, b in zip(model_params(model), model_params(back)):
        np.testing.assert_array_equal(a, b)


def test_checkpoint_save_is_deterministic(tmp_path):
    model = init_model(RES, CFG, np.random.default_rng(6))
    save_checkpoint(model, tmp_path / "a.mrck")
    save_checkpoint(model, tmp_path / "b.mrck")
    assert (tmp_path / "a.mrck").read_bytes() == (tmp_path / "b.mrck").read_bytes()


def test_checkpoint_header_layout(tmp_path):
    model = init_model(RES, CFG, np.random.default_rng(7))
    path = tmp_path / "h.mrck"
    save_checkpoint(model, path)
    buf = path.read_bytes()
    assert buf[:4] == MAGIC
    assert struct.unpack_from("<H", buf, 4) == (1,)
    assert struct.unpack_from("<IIIII", buf, 6) == (4, 2, 1, 2, 2)
    assert struct.unpack_from("<II", buf, 26) == (3, 2)  # M, predictor hidden
    assert struct.unpack_from("<II", buf, 34) == (128, 32)
    n_params = sum(p.size for p in model_params(model))
    assert len(buf) == 34 + 8 * 3 + 8 * n_params


def test_checkpoint_stores_float64_even_for_float32_models(tmp_path):
    model = init_model(RES, CFG, np.random.default_rng(8), dtype=np.float32)
    path = tmp_path / "f.mrck"
    save_checkpoint(model, path)
    back = load_checkpoint(path)
    for a, b in zip(model_params(model), model_params(back)):
        assert b.dtype == np.float64
        np.testing.assert_array_equal(b, a.astype(np.float64))


def test_float32_checkpoint_saves_the_bytes_of_its_float64_widening(tmp_path):
    model = init_model(RES, CFG, np.random.default_rng(14), dtype=np.float32)
    wide = init_model(RES, CFG, np.random.default_rng(15), dtype=np.float64)
    for dst, src in zip(model_params(wide), model_params(model)):
        dst[...] = src.astype(np.float64)
    save_checkpoint(model, tmp_path / "narrow.mrck")
    save_checkpoint(wide, tmp_path / "wide.mrck")
    assert (tmp_path / "narrow.mrck").read_bytes() == (tmp_path / "wide.mrck").read_bytes()


def test_float32_checkpoint_round_trip_is_bitwise(tmp_path):
    model = init_model(RES, CFG, np.random.default_rng(9), dtype=np.float32)
    path = tmp_path / "f32.mrck"
    save_checkpoint(model, path)
    back = load_checkpoint(path, np.float32)
    assert back.resolutions == RES and back.config == CFG
    for a, b in zip(model_params(model), model_params(back)):
        assert b.dtype == np.float32
        np.testing.assert_array_equal(a, b)


def test_load_rejects_bad_magic(tmp_path):
    path = tmp_path / "x.mrck"
    path.write_bytes(b"JUNKJUNKJUNK")
    with pytest.raises(CheckpointFormatError, match="magic"):
        load_checkpoint(path)


def test_load_rejects_truncated_params(tmp_path):
    model = init_model(RES, CFG, np.random.default_rng(10))
    path = tmp_path / "t.mrck"
    save_checkpoint(model, path)
    whole = path.read_bytes()
    path.write_bytes(whole[:-16])
    with pytest.raises(CheckpointFormatError, match="parameters"):
        load_checkpoint(path)


def test_load_rejects_trailing_bytes(tmp_path):
    model = init_model(RES, CFG, np.random.default_rng(18))
    path = tmp_path / "e.mrck"
    save_checkpoint(model, path)
    path.write_bytes(path.read_bytes() + bytes(8))
    with pytest.raises(CheckpointFormatError, match="8 bytes after the float64 parameters"):
        load_checkpoint(path)


def test_load_allocates_no_more_than_the_file(tmp_path):
    # a corrupt stem width must fail on the file's length before it builds a model that wide
    model = init_model(RES, BackendConfig(8, 3, 1, 4), np.random.default_rng(19))
    path = tmp_path / "s.mrck"
    save_checkpoint(model, path)
    buf = bytearray(path.read_bytes())
    struct.pack_into("<I", buf, 6, 64)  # stem_channels
    path.write_bytes(bytes(buf))

    def load():
        with pytest.raises(CheckpointFormatError, match="parameters"):
            load_checkpoint(path)

    peak = traced_peak(load)
    assert peak <= 4 * len(buf), f"peak {peak / len(buf):.1f}x file bytes"


def test_load_rejects_inconsistent_hidden_width(tmp_path):
    model = init_model(RES, CFG, np.random.default_rng(11))
    path = tmp_path / "w.mrck"
    save_checkpoint(model, path)
    buf = bytearray(path.read_bytes())
    struct.pack_into("<I", buf, 30, 5)  # predictor hidden field
    path.write_bytes(bytes(buf))
    with pytest.raises(CheckpointFormatError, match="hidden width"):
        load_checkpoint(path)


def test_load_rejects_class_count_other_than_two(tmp_path):
    model = init_model(RES, CFG, np.random.default_rng(13))
    path = tmp_path / "c.mrck"
    save_checkpoint(model, path)
    buf = bytearray(path.read_bytes())
    assert struct.unpack_from("<I", buf, 22) == (2,)  # class count field
    for classes in (1, 3):
        struct.pack_into("<I", buf, 22, classes)
        path.write_bytes(bytes(buf))
        with pytest.raises(CheckpointFormatError, match=f"{classes} classes"):
            load_checkpoint(path)


def test_load_rejects_zero_resolutions(tmp_path):
    model = init_model(RES, CFG, np.random.default_rng(16))
    path = tmp_path / "z.mrck"
    save_checkpoint(model, path)
    buf = bytearray(path.read_bytes())
    struct.pack_into("<I", buf, 26, 0)  # M; hidden_width(0) still matches the stored 2
    path.write_bytes(bytes(buf))
    with pytest.raises(CheckpointFormatError, match="z\\.mrck: bad header"):
        load_checkpoint(path)


def test_truncation_rejected(tmp_path):
    # every cut, inside the magic, the fixed header, the resolutions or the parameters
    model = init_model(RES, BackendConfig(1, 1, 1, 1), np.random.default_rng(17))
    path = tmp_path / "t.mrck"
    save_checkpoint(model, path)
    whole = path.read_bytes()
    for cut in range(len(whole)):
        path.write_bytes(whole[:cut])
        with pytest.raises(CheckpointFormatError):
            load_checkpoint(path)


def test_init_order_predictor_before_backend():
    # drawing the predictor first is part of the determinism contract: a
    # backend-first init would consume different rng draws
    model_a = init_model(RES, CFG, np.random.default_rng(12))
    rng = np.random.default_rng(12)
    predictor = init_excitation(3, hidden_width(3), fresh_weights(rng))
    np.testing.assert_array_equal(model_a.predictor.fc1_weight, predictor.fc1_weight)
