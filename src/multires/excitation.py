"""Channel excitation kernel: global pool -> FC -> ReLU -> FC -> sigmoid -> scale.

This one computation serves two places: the per-resolution weight predictor
of the front-end (channels = resolutions) and the SE blocks inside the
residual backend (channels = conv channels).  Forward caches everything the
exact reverse-mode backward needs, including the product-rule term where the
predicted scale both multiplies the input and depends on it through the pool.

All arrays are batched (leading axis N); dtype follows the inputs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np


@dataclass
class ExcitationParams:
    """Bottleneck FC pair: fc1 (hidden x C), fc2 (C x hidden), plus biases."""

    fc1_weight: np.ndarray
    fc1_bias: np.ndarray
    fc2_weight: np.ndarray
    fc2_bias: np.ndarray

    def __post_init__(self) -> None:
        h, c = self.fc1_weight.shape
        if self.fc1_bias.shape != (h,) or self.fc2_weight.shape != (c, h) or self.fc2_bias.shape != (c,):
            raise ValueError(
                f"inconsistent excitation shapes: fc1 {self.fc1_weight.shape}, "
                f"fc1_bias {self.fc1_bias.shape}, fc2 {self.fc2_weight.shape}, "
                f"fc2_bias {self.fc2_bias.shape}"
            )

    @property
    def n_channels(self) -> int:
        return self.fc1_weight.shape[1]

    @property
    def hidden(self) -> int:
        return self.fc1_weight.shape[0]


def init_excitation(
    n_channels: int, hidden: int, make: Callable[[tuple[int, ...]], np.ndarray]
) -> ExcitationParams:
    """Bottleneck whose tensors come from ``make(shape)``, called in `named_params` order."""
    return ExcitationParams(
        fc1_weight=make((hidden, n_channels)),
        fc1_bias=make((hidden,)),
        fc2_weight=make((n_channels, hidden)),
        fc2_bias=make((n_channels,)),
    )


def _sigmoid(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def bottleneck_weights(pooled: np.ndarray, params: ExcitationParams):
    """FC -> ReLU -> FC -> sigmoid on pooled channel means (N, C) -> (N, C).

    Returns (scales, hidden); backward reads the ReLU output `hidden` for
    fc2's gradient and, as hidden > 0, for the ReLU's mask.
    """
    # einsum, not `@`: BLAS takes another path for a one-row batch, and an
    # utterance's gates must not depend on the size of its batch
    a = np.einsum("nc,hc->nh", pooled, params.fc1_weight) + params.fc1_bias
    r = np.maximum(a, 0.0)
    z = np.einsum("nh,ch->nc", r, params.fc2_weight) + params.fc2_bias
    return _sigmoid(z), r


@dataclass
class ExciteCache:
    x: np.ndarray
    pooled: np.ndarray
    hidden: np.ndarray
    scales: np.ndarray
    params: ExcitationParams


def excite_forward(x: np.ndarray, params: ExcitationParams) -> tuple[np.ndarray, ExciteCache]:
    """Scale each channel of x (N, C, W, H) by its predicted weight in (0, 1)."""
    if x.ndim != 4 or x.shape[1] != params.n_channels:
        raise ValueError(f"expected (N, {params.n_channels}, W, H) input, got {x.shape}")
    pooled = x.mean(axis=(2, 3))
    scales, hidden = bottleneck_weights(pooled, params)
    y = x * scales[:, :, None, None]
    return y, ExciteCache(x, pooled, hidden, scales, params)


def excite_backward(cache: ExciteCache, dy: np.ndarray) -> tuple[np.ndarray, ExcitationParams]:
    """Gradients w.r.t. x and the bottleneck parameters.

    dx has two terms: the direct scaling path and the pooled path through
    the predictor (broadcast back over the spatial axes).
    """
    x, s, p = cache.x, cache.scales, cache.params
    spatial = x.shape[2] * x.shape[3]

    d_scales = np.einsum("ncwh,ncwh->nc", dy, x)
    dz = d_scales * s * (1.0 - s)
    d_fc2_b = dz.sum(axis=0)
    d_fc2_w = dz.T @ cache.hidden
    dr = dz @ p.fc2_weight
    da = dr * (cache.hidden > 0)
    d_fc1_b = da.sum(axis=0)
    d_fc1_w = da.T @ cache.pooled
    d_pooled = da @ p.fc1_weight

    dx = dy * s[:, :, None, None] + d_pooled[:, :, None, None] / spatial
    return dx, ExcitationParams(d_fc1_w, d_fc1_b, d_fc2_w, d_fc2_b)
