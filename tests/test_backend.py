import tracemalloc

import numpy as np
import pytest

from multires.backend import (
    BackendConfig,
    BlockParams,
    ConvParams,
    backend_backward,
    backend_forward,
    block_backward,
    block_forward,
    conv2d_backward,
    conv2d_forward,
    init_backend,
    relu,
)
from multires.model import fresh_weights

from oracles import central_difference, naive_conv2d


def _conv(c_out, c_in, k, seed=0):
    rng = np.random.default_rng(seed)
    return ConvParams(rng.standard_normal((c_out, c_in, k, k)), rng.standard_normal(c_out))


def test_config_derived_channel_plan():
    cfg = BackendConfig(stem_channels=16, stages=3, blocks_per_stage=2)
    assert [cfg.stage_channels(s) for s in (1, 2, 3)] == [16, 32, 64]
    assert cfg.stage_channels(cfg.stages) == 64


def test_config_validation():
    with pytest.raises(ValueError):
        BackendConfig(stages=0)
    with pytest.raises(ValueError):
        BackendConfig(stem_channels=2, se_reduction=4)


def test_conv_matches_naive_loop_stride1():
    rng = np.random.default_rng(1)
    x = rng.standard_normal((2, 3, 5, 6))
    p = _conv(4, 3, 3, seed=2)
    np.testing.assert_allclose(conv2d_forward(x, p), naive_conv2d(x, p.weight, p.bias, 1), atol=1e-12)


def test_conv_matches_naive_loop_stride2():
    rng = np.random.default_rng(3)
    # odd spatial dims exercise the ceil-division output size
    x = rng.standard_normal((2, 2, 7, 5))
    p = _conv(3, 2, 3, seed=4)
    y = conv2d_forward(x, p, stride=2)
    assert y.shape == (2, 3, 4, 3)
    np.testing.assert_allclose(y, naive_conv2d(x, p.weight, p.bias, 2), atol=1e-12)


def test_conv_1x1_kernel():
    rng = np.random.default_rng(5)
    x = rng.standard_normal((1, 4, 3, 3))
    p = _conv(2, 4, 1, seed=6)
    np.testing.assert_allclose(conv2d_forward(x, p), naive_conv2d(x, p.weight, p.bias, 1), atol=1e-12)


def _assert_conv_grads(x, p, stride, rng):
    dy = rng.standard_normal(conv2d_forward(x, p, stride).shape)
    dx, dp = conv2d_backward(x, p, dy, stride)

    def loss():
        return float((conv2d_forward(x, p, stride) * dy).sum())

    num = central_difference(loss, [x, p.weight, p.bias])
    np.testing.assert_allclose(dx, num[0], rtol=1e-6, atol=1e-8)
    np.testing.assert_allclose(dp.weight, num[1], rtol=1e-6, atol=1e-8)
    np.testing.assert_allclose(dp.bias, num[2], rtol=1e-6, atol=1e-8)


def test_conv_backward_finite_differences():
    rng = np.random.default_rng(7)
    x = rng.standard_normal((2, 2, 4, 5))
    p = _conv(3, 2, 3, seed=8)
    for stride in (1, 2):
        _assert_conv_grads(x, p, stride, rng)


def test_conv_stride2_backward_even_and_odd_dims():
    rng = np.random.default_rng(17)
    p = _conv(3, 2, 3, seed=18)
    for w, h in [(6, 4), (5, 7)]:
        _assert_conv_grads(rng.standard_normal((2, 2, w, h)), p, 2, rng)


def test_conv_1x1_stride2_projection_odd_dims():
    rng = np.random.default_rng(19)
    x = rng.standard_normal((2, 3, 7, 5))
    p = _conv(4, 3, 1, seed=20)
    y = conv2d_forward(x, p, stride=2)
    assert y.shape == (2, 4, 4, 3)
    np.testing.assert_allclose(y, naive_conv2d(x, p.weight, p.bias, 2), atol=1e-12)
    _assert_conv_grads(x, p, 2, rng)


def test_conv_single_input_channel():
    rng = np.random.default_rng(21)
    x = rng.standard_normal((2, 1, 5, 6))
    p = _conv(3, 1, 3, seed=22)
    for stride in (1, 2):
        np.testing.assert_allclose(conv2d_forward(x, p, stride), naive_conv2d(x, p.weight, p.bias, stride), atol=1e-12)
        _assert_conv_grads(x, p, stride, rng)


def test_conv_float32_in_float32_out():
    rng = np.random.default_rng(23)
    x = rng.standard_normal((2, 3, 9, 8))
    p = _conv(4, 3, 3, seed=24)
    p32 = ConvParams(p.weight.astype(np.float32), p.bias.astype(np.float32))
    for stride in (1, 2):
        y64 = naive_conv2d(x, p.weight, p.bias, stride)
        dy = rng.standard_normal(y64.shape)
        want = (y64, *_flat_grads(conv2d_backward(x, p, dy, stride)))
        y32 = conv2d_forward(x.astype(np.float32), p32, stride)
        got = (y32, *_flat_grads(conv2d_backward(x.astype(np.float32), p32, dy.astype(np.float32), stride)))
        for g, w in zip(got, want):
            assert g.dtype == np.float32
            assert np.abs(g - w).max() <= 1e-5 * np.abs(w).max()


def _flat_grads(grads):
    dx, dp = grads
    return dx, dp.weight, dp.bias


def test_conv_backward_rejects_bad_shapes():
    x = np.zeros((2, 3, 5, 4))
    p = _conv(4, 3, 3)
    with pytest.raises(ValueError, match=r"\(2, 4, 3, 2\).*\(2, 3, 5, 4\).*\(2, 4, 5, 4\)"):
        conv2d_backward(x, p, np.zeros((2, 4, 5, 4)), stride=2)
    with pytest.raises(ValueError, match=r"\(4, 2, 3, 3\).*\(2, 3, 5, 4\)"):
        conv2d_backward(x, _conv(4, 2, 3), np.zeros((2, 4, 5, 4)))


def test_conv_memory_stays_near_input_size():
    # the kernel holds a few input-sized buffers, never a k*k-times column copy
    rng = np.random.default_rng(25)
    x = rng.standard_normal((8, 8, 64, 65))
    p = _conv(8, 8, 3, seed=26)
    dy = rng.standard_normal(x.shape)
    tracemalloc.start()
    try:
        for call, bound in ((lambda: conv2d_forward(x, p), 6), (lambda: conv2d_backward(x, p, dy), 8)):
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            call()
            peak = tracemalloc.get_traced_memory()[1] - base
            assert peak <= bound * x.nbytes, f"peak {peak / x.nbytes:.1f}x input bytes"
    finally:
        tracemalloc.stop()


def test_conv_rejects_even_kernel():
    with pytest.raises(ValueError):
        ConvParams(np.zeros((2, 2, 2, 2)), np.zeros(2))


def test_relu_subgradient_at_zero_is_zero():
    x = np.array([-1.0, 0.0, 2.0])
    assert (relu(x) == [0.0, 0.0, 2.0]).all()
    # backward masks strictly positive inputs, so d/dx at 0 is 0
    mask = x > 0
    assert mask.tolist() == [False, False, True]


def _make_block(c_in, c_out, stride, seed):
    rng = np.random.default_rng(seed)
    from multires.excitation import init_excitation

    conv1 = ConvParams(
        rng.standard_normal((c_out, c_in, 3, 3)) * 0.2, rng.standard_normal(c_out) * 0.1
    )
    conv2 = ConvParams(
        rng.standard_normal((c_out, c_out, 3, 3)) * 0.2, rng.standard_normal(c_out) * 0.1
    )
    proj = None
    if stride != 1 or c_in != c_out:
        proj = ConvParams(rng.standard_normal((c_out, c_in, 1, 1)) * 0.2, rng.standard_normal(c_out) * 0.1)
    se = init_excitation(c_out, max(1, c_out // 2), fresh_weights(rng))
    return BlockParams(conv1, conv2, proj, se, stride)


def test_block_identity_skip_used_when_shapes_match():
    p = _make_block(3, 3, 1, seed=9)
    assert p.proj is None
    x = np.random.default_rng(10).standard_normal((2, 3, 4, 4))
    y, cache = block_forward(x, p)
    assert y.shape == x.shape
    assert (y >= 0).all()  # final ReLU


def test_block_projection_on_stride_or_width_change():
    p = _make_block(3, 6, 2, seed=11)
    assert p.proj is not None and p.proj.weight.shape == (6, 3, 1, 1)
    x = np.random.default_rng(12).standard_normal((1, 3, 5, 5))
    y, _ = block_forward(x, p)
    assert y.shape == (1, 6, 3, 3)


def test_block_forward_composition():
    # recompute the block out of its published pieces
    from multires.excitation import excite_forward

    p = _make_block(2, 2, 1, seed=13)
    x = np.random.default_rng(14).standard_normal((1, 2, 4, 4))
    y, _ = block_forward(x, p)
    inner = relu(conv2d_forward(x, p.conv1))
    se_out, _ = excite_forward(conv2d_forward(inner, p.conv2), p.se)
    np.testing.assert_allclose(y, relu(se_out + x), atol=1e-12)


def test_block_backward_finite_differences():
    for c_in, c_out, stride, seed in [(2, 2, 1, 15), (2, 4, 2, 16)]:
        p = _make_block(c_in, c_out, stride, seed)
        rng = np.random.default_rng(seed + 100)
        x = rng.standard_normal((2, c_in, 4, 5))
        y, cache = block_forward(x, p)
        dy = rng.standard_normal(y.shape)
        dx, grads = block_backward(cache, dy)

        def loss():
            out, _ = block_forward(x, p)
            return float((out * dy).sum())

        arrays = [x, p.conv1.weight, p.conv1.bias, p.conv2.weight, p.conv2.bias]
        grad_arrays = [dx, grads.conv1.weight, grads.conv1.bias, grads.conv2.weight, grads.conv2.bias]
        if p.proj is not None:
            arrays += [p.proj.weight, p.proj.bias]
            grad_arrays += [grads.proj.weight, grads.proj.bias]
        arrays += [p.se.fc1_weight, p.se.fc1_bias, p.se.fc2_weight, p.se.fc2_bias]
        grad_arrays += [grads.se.fc1_weight, grads.se.fc1_bias, grads.se.fc2_weight, grads.se.fc2_bias]

        num = central_difference(loss, arrays)
        for got, want in zip(grad_arrays, num):
            np.testing.assert_allclose(got, want, rtol=1e-5, atol=1e-7)


def test_init_backend_structure():
    cfg = BackendConfig(stem_channels=8, stages=3, blocks_per_stage=2, se_reduction=4)
    params = init_backend(3, cfg, fresh_weights(np.random.default_rng(0)))
    assert params.stem.weight.shape == (8, 3, 3, 3)
    assert len(params.blocks) == 6
    strides = [b.stride for b in params.blocks]
    assert strides == [1, 1, 2, 1, 2, 1]  # downsample at the head of stages 2, 3
    projs = [b.proj is not None for b in params.blocks]
    assert projs == [False, False, True, False, True, False]
    widths = [b.conv1.weight.shape[0] for b in params.blocks]
    assert widths == [8, 8, 16, 16, 32, 32]
    assert params.fc_weight.shape == (2, 32)
    assert (params.fc_bias == 0).all()
    # SE bottleneck width max(1, C // r)
    assert params.blocks[0].se.hidden == 2
    assert params.blocks[-1].se.hidden == 8


def test_init_backend_uniform_bounds():
    cfg = BackendConfig(stem_channels=4, stages=1, blocks_per_stage=1, se_reduction=4)
    params = init_backend(2, cfg, fresh_weights(np.random.default_rng(1)))
    fan_in = 2 * 9
    assert np.abs(params.stem.weight).max() <= 1 / np.sqrt(fan_in)
    assert (params.stem.bias == 0).all()


def test_backend_forward_shapes_and_pooling():
    cfg = BackendConfig(stem_channels=4, stages=2, blocks_per_stage=1, se_reduction=2)
    params = init_backend(3, cfg, fresh_weights(np.random.default_rng(2)))
    x = np.random.default_rng(3).standard_normal((5, 3, 9, 7))
    logits, cache = backend_forward(x, params)
    assert logits.shape == (5, 2)
    assert cache.blocks[-1].out.shape == (5, 8, 5, 4)  # one stride-2 block: ceil(9/2), ceil(7/2)
    np.testing.assert_allclose(cache.pooled, cache.blocks[-1].out.mean(axis=(2, 3)), atol=0)
    np.testing.assert_allclose(logits, cache.pooled @ params.fc_weight.T + params.fc_bias, atol=0)


def test_backend_backward_finite_differences():
    cfg = BackendConfig(stem_channels=3, stages=2, blocks_per_stage=1, se_reduction=3)
    params = init_backend(2, cfg, fresh_weights(np.random.default_rng(4)))
    rng = np.random.default_rng(5)
    x = rng.standard_normal((2, 2, 5, 4))
    logits, cache = backend_forward(x, params)
    d_logits = rng.standard_normal(logits.shape)
    dx, grads = backend_backward(cache, d_logits)

    def loss():
        out, _ = backend_forward(x, params)
        return float((out * d_logits).sum())

    arrays = [x] + param_list_backend(params)
    grad_arrays = [dx] + param_list_backend(grads)
    num = central_difference(loss, arrays)
    for got, want in zip(grad_arrays, num):
        np.testing.assert_allclose(got, want, rtol=1e-5, atol=1e-7)


def param_list_backend(params):
    out = [params.stem.weight, params.stem.bias]
    for b in params.blocks:
        out += [b.conv1.weight, b.conv1.bias, b.conv2.weight, b.conv2.bias]
        if b.proj is not None:
            out += [b.proj.weight, b.proj.bias]
        out += [b.se.fc1_weight, b.se.fc1_bias, b.se.fc2_weight, b.se.fc2_bias]
    out += [params.fc_weight, params.fc_bias]
    return out
