"""Per-resolution weight predictor: its width and its mean weights over a split.

The predictor is an SE-style bottleneck over the M resolutions of the
aligned stack: each channel's global mean goes through FC -> ReLU -> FC ->
sigmoid to give one weight per resolution.  Both the scaling in
:func:`multires.excitation.excite_forward` (called from
:func:`multires.model.model_forward`) and the read-out here take those
weights from :func:`multires.excitation.bottleneck_weights`; this module
fixes the predictor's bottleneck width and averages its weights over a data
split without scaling anything.  That mean is the per-resolution importance
summary consumed by pruning and ``inspect-weights``.
"""

from __future__ import annotations

import numpy as np

from .cache import FeatureCache, map_chunks
from .excitation import ExcitationParams, bottleneck_weights


def hidden_width(n_resolutions: int) -> int:
    """Bottleneck width for the weight predictor: max(2, M // 2)."""
    return max(2, n_resolutions // 2)


def mean_weights_over_set(cache: FeatureCache, params: ExcitationParams) -> np.ndarray:
    """Arithmetic mean of per-utterance predicted weights over a cached split.

    This is the per-resolution summary used for pruning and the
    ``inspect-weights`` report. `cache.map_chunks` reads the split a chunk
    at a time on every CPU and joins each utterance's weights into one
    (N, M) float64 array, which is summed once, so the mean does not depend
    on the chunk size or process count.
    """
    n = cache.n_utterances
    if n == 0:
        raise ValueError("cannot average weights over an empty split")
    weights = map_chunks(cache, lambda rows: bottleneck_weights(rows, params)[1].astype(np.float64))
    return weights.sum(axis=0) / n
