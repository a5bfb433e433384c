"""Per-resolution weight predictor: initialization and weight read-outs.

The predictor is an SE-style bottleneck over the M resolutions of the
aligned stack: each channel's global mean goes through FC -> ReLU -> FC ->
sigmoid to give one weight per resolution.  The scaling itself is
:func:`multires.excitation.excite_forward`, called from
:func:`multires.model.model_forward`; this module builds the predictor's
parameters and reads its weights out without scaling anything.  The mean of
the predicted weights over a data split is the per-resolution importance
summary consumed by pruning and ``inspect-weights``.
"""

from __future__ import annotations

import numpy as np

from .cache import FeatureCache
from .excitation import ExcitationParams, bottleneck_weights, init_excitation


def hidden_width(n_resolutions: int) -> int:
    """Bottleneck width for the weight predictor: max(2, M // 2)."""
    return max(2, n_resolutions // 2)


def init_weight_predictor(
    n_resolutions: int, rng: np.random.Generator, dtype: np.dtype = np.float64
) -> ExcitationParams:
    return init_excitation(n_resolutions, hidden_width(n_resolutions), rng, dtype)


def batch_weights(stacks: np.ndarray, params: ExcitationParams) -> np.ndarray:
    """Predicted weights for a batch of stacks (N, M, W, H) -> (N, M)."""
    pooled = stacks.mean(axis=(2, 3), dtype=params.fc1_weight.dtype)
    scales, _, _ = bottleneck_weights(pooled, params)
    return scales


def mean_weights_over_set(
    cache: FeatureCache, params: ExcitationParams, batch_size: int = 64
) -> np.ndarray:
    """Arithmetic mean of per-utterance predicted weights over a cached split.

    This is the per-resolution summary used for pruning and the
    ``inspect-weights`` report.
    """
    if cache.n_utterances == 0:
        raise ValueError("cannot average weights over an empty split")
    total = np.zeros(params.n_channels, dtype=np.float64)
    for start in range(0, cache.n_utterances, batch_size):
        chunk = cache.stacks[start : start + batch_size]
        total += batch_weights(chunk, params).astype(np.float64).sum(axis=0)
    return total / cache.n_utterances
