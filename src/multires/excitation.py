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
    n_channels: int,
    hidden: int,
    rng: np.random.Generator,
    dtype: np.dtype = np.float64,
) -> ExcitationParams:
    """Weights uniform in [-1/sqrt(fan_in), +1/sqrt(fan_in)], biases zero."""
    lim1 = 1.0 / np.sqrt(n_channels)
    lim2 = 1.0 / np.sqrt(hidden)
    return ExcitationParams(
        fc1_weight=rng.uniform(-lim1, lim1, (hidden, n_channels)).astype(dtype),
        fc1_bias=np.zeros(hidden, dtype=dtype),
        fc2_weight=rng.uniform(-lim2, lim2, (n_channels, hidden)).astype(dtype),
        fc2_bias=np.zeros(n_channels, dtype=dtype),
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

    Returns (scales, pre-ReLU activations, post-ReLU activations); the extra
    terms feed the backward pass.
    """
    # einsum, not `@`: BLAS takes another path for a one-row batch, and an
    # utterance's gates must not depend on the size of its batch
    a = np.einsum("nc,hc->nh", pooled, params.fc1_weight) + params.fc1_bias
    r = np.maximum(a, 0.0)
    z = np.einsum("nh,ch->nc", r, params.fc2_weight) + params.fc2_bias
    return _sigmoid(z), a, r


@dataclass
class ExciteCache:
    x: np.ndarray
    pooled: np.ndarray
    pre_relu: np.ndarray
    hidden: np.ndarray
    scales: np.ndarray
    params: ExcitationParams


def excite_forward(x: np.ndarray, params: ExcitationParams) -> tuple[np.ndarray, ExciteCache]:
    """Scale each channel of x (N, C, W, H) by its predicted weight in (0, 1)."""
    if x.ndim != 4 or x.shape[1] != params.n_channels:
        raise ValueError(f"expected (N, {params.n_channels}, W, H) input, got {x.shape}")
    pooled = x.mean(axis=(2, 3))
    scales, a, r = bottleneck_weights(pooled, params)
    y = x * scales[:, :, None, None]
    return y, ExciteCache(x, pooled, a, r, scales, params)


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
    da = dr * (cache.pre_relu > 0)
    d_fc1_b = da.sum(axis=0)
    d_fc1_w = da.T @ cache.pooled
    d_pooled = da @ p.fc1_weight

    dx = dy * s[:, :, None, None] + d_pooled[:, :, None, None] / spatial
    return dx, ExcitationParams(d_fc1_w, d_fc1_b, d_fc2_w, d_fc2_b)
