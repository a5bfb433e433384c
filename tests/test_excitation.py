import numpy as np
import pytest

from multires.excitation import (
    ExcitationParams,
    bottleneck_weights,
    excite_backward,
    excite_forward,
    init_excitation,
)
from multires.model import fresh_weights

from oracles import central_difference


def _params(c=5, h=3, seed=0):
    return init_excitation(c, h, fresh_weights(np.random.default_rng(seed)))


def test_init_shapes_and_ranges():
    p = _params(c=6, h=2)
    assert p.fc1_weight.shape == (2, 6) and p.fc2_weight.shape == (6, 2)
    assert (p.fc1_bias == 0).all() and (p.fc2_bias == 0).all()
    assert np.abs(p.fc1_weight).max() <= 1 / np.sqrt(6)
    assert np.abs(p.fc2_weight).max() <= 1 / np.sqrt(2)
    assert p.n_channels == 6 and p.hidden == 2


def test_params_shape_validation():
    with pytest.raises(ValueError, match="inconsistent"):
        ExcitationParams(np.zeros((3, 5)), np.zeros(3), np.zeros((5, 2)), np.zeros(5))


def test_bottleneck_weights_compositional():
    # straight recomputation through separate numpy calls
    p = _params()
    pooled = np.random.default_rng(1).standard_normal((4, 5))
    scales, r = bottleneck_weights(pooled, p)
    a_ref = pooled @ p.fc1_weight.T + p.fc1_bias
    r_ref = np.where(a_ref > 0, a_ref, 0.0)
    z_ref = r_ref @ p.fc2_weight.T + p.fc2_bias
    np.testing.assert_allclose(r, r_ref, atol=0)
    np.testing.assert_allclose(scales, 1 / (1 + np.exp(-z_ref)), atol=1e-15)
    assert ((scales > 0) & (scales < 1)).all()


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_outputs_do_not_depend_on_batch_size(dtype):
    # every row gives the same bits alone (N=1) as inside a larger batch
    rng = np.random.default_rng(11)
    for c, n in [(3, 5), (13, 7), (16, 9), (32, 4)]:
        p = init_excitation(c, max(1, c // 4), fresh_weights(rng, dtype))
        x = rng.standard_normal((n, c, 4, 5)).astype(dtype)
        y, cache = excite_forward(x, p)
        scales, r = bottleneck_weights(cache.pooled, p)
        for i in range(n):
            y1, cache1 = excite_forward(x[i : i + 1], p)
            assert y1[0].tobytes() == y[i].tobytes()
            assert cache1.scales[0].tobytes() == cache.scales[i].tobytes()
            one = bottleneck_weights(cache.pooled[i : i + 1], p)
            for got, want in zip(one, (scales, r)):
                assert got.dtype == dtype
                assert got[0].tobytes() == want[i].tobytes()


def test_sigmoid_stable_at_large_magnitudes():
    p = ExcitationParams(np.eye(2) * 50, np.zeros(2), np.eye(2), np.zeros(2))
    pooled = np.array([[20.0, -20.0]])
    scales, _ = bottleneck_weights(pooled, p)
    assert np.isfinite(scales).all()
    assert scales[0, 0] > 0.999999
    assert 0.0 < scales[0, 1]


def test_forward_scales_each_channel():
    p = _params(c=3, h=2)
    x = np.random.default_rng(2).standard_normal((2, 3, 4, 5))
    y, cache = excite_forward(x, p)
    scales, _ = bottleneck_weights(x.mean(axis=(2, 3)), p)
    np.testing.assert_allclose(y, x * scales[:, :, None, None], atol=0)
    np.testing.assert_array_equal(cache.pooled, x.mean(axis=(2, 3)))


def test_forward_rejects_channel_mismatch():
    p = _params(c=3, h=2)
    with pytest.raises(ValueError, match="expected"):
        excite_forward(np.zeros((1, 4, 2, 2)), p)


def test_backward_matches_finite_differences():
    rng = np.random.default_rng(3)
    p = _params(c=4, h=2, seed=4)
    x = rng.standard_normal((3, 4, 5, 6))
    dy = rng.standard_normal((3, 4, 5, 6))

    y, cache = excite_forward(x, p)
    dx, grads = excite_backward(cache, dy)

    def loss():
        out, _ = excite_forward(x, p)
        return float((out * dy).sum())

    num = central_difference(loss, [x, p.fc1_weight, p.fc1_bias, p.fc2_weight, p.fc2_bias])
    for got, want in zip([dx, grads.fc1_weight, grads.fc1_bias, grads.fc2_weight, grads.fc2_bias], num):
        np.testing.assert_allclose(got, want, rtol=1e-6, atol=1e-8)


def test_backward_includes_pooled_path():
    # if dx ignored the dependence of the scale on x, a constant-channel
    # perturbation would be mispredicted
    p = _params(c=2, h=2, seed=5)
    x = np.random.default_rng(6).standard_normal((1, 2, 3, 3))
    dy = np.ones_like(x)
    _, cache = excite_forward(x, p)
    dx, _ = excite_backward(cache, dy)
    direct_only = dy * cache.scales[:, :, None, None]
    assert not np.allclose(dx, direct_only)
