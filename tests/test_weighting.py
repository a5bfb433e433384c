import numpy as np
import pytest

from multires.cache import FeatureCache
from multires.excitation import init_excitation
from multires.model import fresh_weights
from multires.stft import ResolutionSpec
from multires.weighting import batch_weights, hidden_width, mean_weights_over_set

RES3 = (ResolutionSpec(128, 32), ResolutionSpec(256, 64), ResolutionSpec(512, 128))


def _predictor(seed, dtype=np.float64):
    return init_excitation(3, hidden_width(3), fresh_weights(np.random.default_rng(seed), dtype))


def test_hidden_width_rule():
    assert hidden_width(2) == 2
    assert hidden_width(3) == 2
    assert hidden_width(4) == 2
    assert hidden_width(5) == 2
    assert hidden_width(6) == 3
    assert hidden_width(13) == 6


def test_batch_weights_matches_per_utterance_predictions():
    # every row against sigmoid(W2 . relu(W1 . mean + b1) + b2) in float64
    p = _predictor(6)
    rng = np.random.default_rng(7)
    p.fc1_bias = rng.standard_normal(p.fc1_bias.shape)  # init leaves biases at zero
    p.fc2_bias = rng.standard_normal(p.fc2_bias.shape)
    stacks = rng.standard_normal((5, 3, 4, 4))
    batched = batch_weights(stacks, p)
    assert batched.shape == (5, 3)
    for i in range(5):
        mean = stacks[i].mean(axis=(1, 2))
        hidden = np.maximum(p.fc1_weight @ mean + p.fc1_bias, 0.0)
        want = 1.0 / (1.0 + np.exp(-(p.fc2_weight @ hidden + p.fc2_bias)))
        np.testing.assert_allclose(batched[i], want, rtol=1e-14, atol=1e-15)
    assert ((batched > 0) & (batched < 1)).all()
    # the output dtype follows the parameters, as in float32 training
    p32 = _predictor(6, np.float32)
    assert batch_weights(stacks, p32).dtype == np.float32


def test_mean_weights_over_set_averages_and_chunks():
    p = _predictor(8)
    stacks = np.random.default_rng(9).standard_normal((7, 3, 4, 4)).astype(np.float32)
    cache = FeatureCache(RES3, stacks, [f"u{i}" for i in range(7)], np.zeros(7, dtype=np.uint8))
    want = batch_weights(stacks, p).astype(np.float64).mean(axis=0)
    np.testing.assert_allclose(mean_weights_over_set(cache, p), want, atol=1e-12)
    # chunked traversal must not change the answer
    np.testing.assert_allclose(mean_weights_over_set(cache, p, batch_size=2), want, atol=1e-12)


def test_mean_weights_over_set_rejects_empty():
    p = _predictor(0)
    cache = FeatureCache(RES3, np.zeros((0, 3, 2, 2), dtype=np.float32), [], np.zeros(0, dtype=np.uint8))
    with pytest.raises(ValueError, match="empty"):
        mean_weights_over_set(cache, p)
