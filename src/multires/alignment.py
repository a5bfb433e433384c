"""Reshape per-resolution feature maps to a common size and stack them.

Two alignment methods:

* adaptive average pooling: output bin ``i`` (of ``Out`` bins over ``In``
  inputs) averages input indices ``[floor(i*In/Out), ceil((i+1)*In/Out))``,
  applied to rows first, then columns
* nearest-neighbor resampling: ``out[i][j] = in[floor(i*In_w/Out_w)][floor(j*In_h/Out_h)]``

Pooling one axis follows a plan that is built once per ``(In, Out)`` pair and
cached: the bin starts, the bin widths, and for each offset ``k >= 1`` the bins
wider than ``k``.  The sums are vectorized over bins but still accumulate
strictly left to right (``acc = in[start]``, then ``acc += in[start + k]`` for
k = 1, 2, ...), and each sum is divided by its width in the input dtype, so
results are bit-identical to a straightforward loop over the bin formula.  The
column pass runs on a contiguous copy of the transposed row-pooled map.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

import numpy as np

from .stft import FeatureMap, ResolutionSpec


class AlignMethod(str, Enum):
    ADAPTIVE_POOL = "adaptive_pool"
    NEAREST = "nearest"


@dataclass
class FeatureStack:
    """M aligned feature maps as one (M, W, H) tensor; channel m belongs to resolutions[m]."""

    data: np.ndarray
    resolutions: tuple[ResolutionSpec, ...]

    def __post_init__(self) -> None:
        self.data = np.asarray(self.data)
        self.resolutions = tuple(self.resolutions)
        if self.data.ndim != 3:
            raise ValueError("feature stack must be 3-D (channels x frames x bins)")
        if len(self.resolutions) != self.data.shape[0] or not self.resolutions:
            raise ValueError(
                f"{len(self.resolutions)} resolutions for {self.data.shape[0]} channels"
            )
        if not np.all(np.isfinite(self.data)):
            raise ValueError("feature stack contains non-finite entries")

    @property
    def spatial_shape(self) -> tuple[int, int]:
        return self.data.shape[1], self.data.shape[2]


def pool_bins(n_in: int, n_out: int) -> list[tuple[int, int]]:
    """[start, end) input ranges for each of the n_out bins."""
    if n_in < 1 or n_out < 1:
        raise ValueError("bin counts must be >= 1")
    return [(i * n_in // n_out, -((-(i + 1) * n_in) // n_out)) for i in range(n_out)]


@dataclass(frozen=True)
class _PoolPlan:
    """Read-only index arrays for pooling n_in entries into n_out bins."""

    starts: np.ndarray  # (n_out,) first input index of each bin
    widths: np.ndarray  # (n_out,) input entries per bin
    # one (wider, rows) pair per offset k = 1, 2, ...: the (n_out, 1) mask of
    # bins wider than k, and start + k for each bin (clamped where masked out)
    steps: tuple[tuple[np.ndarray, np.ndarray], ...]


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


@lru_cache(maxsize=256)
def _pool_plan(n_in: int, n_out: int) -> _PoolPlan:
    starts, ends = np.array(pool_bins(n_in, n_out)).T
    widths = ends - starts
    steps = tuple(
        (_read_only((widths > k)[:, None]), _read_only(np.minimum(starts + k, n_in - 1)))
        for k in range(1, int(widths.max()))
    )
    return _PoolPlan(_read_only(starts), _read_only(widths), steps)


def _pool_axis0(mat: np.ndarray, n_out: int) -> np.ndarray:
    plan = _pool_plan(mat.shape[0], n_out)
    acc = mat[plan.starts]
    for wider, rows in plan.steps:
        np.add(acc, mat[rows], out=acc, where=wider)
    acc /= plan.widths.astype(mat.dtype)[:, None]
    return acc


def adaptive_avg_pool(mat: np.ndarray, w_out: int, h_out: int) -> np.ndarray:
    """Separable average pooling to (w_out, h_out); rows first, then columns."""
    mat = np.asarray(mat)
    if mat.ndim != 2:
        raise ValueError("expected a 2-D map")
    if not np.issubdtype(mat.dtype, np.floating):
        mat = mat.astype(np.float64)
    rows = mat if mat.shape[0] == w_out else _pool_axis0(mat, w_out)
    if rows.shape[1] == h_out:
        return rows.copy() if rows is mat else rows
    return np.ascontiguousarray(_pool_axis0(np.ascontiguousarray(rows.T), h_out).T)


def nearest_upsample(mat: np.ndarray, w_out: int, h_out: int) -> np.ndarray:
    mat = np.asarray(mat)
    if mat.ndim != 2:
        raise ValueError("expected a 2-D map")
    if w_out < 1 or h_out < 1:
        raise ValueError("output dims must be >= 1")
    w_in, h_in = mat.shape
    wi = np.arange(w_out) * w_in // w_out
    hi = np.arange(h_out) * h_in // h_out
    return mat[np.ix_(wi, hi)].copy()


def align_map(mat: np.ndarray, method: AlignMethod, w_out: int, h_out: int) -> np.ndarray:
    if method is AlignMethod.ADAPTIVE_POOL:
        return adaptive_avg_pool(mat, w_out, h_out)
    return nearest_upsample(mat, w_out, h_out)


def align_and_stack(
    maps: list[FeatureMap],
    method: AlignMethod = AlignMethod.ADAPTIVE_POOL,
    target: tuple[int, int] | None = None,
) -> FeatureStack:
    """Align every map to a common size and stack along a channel axis.

    The default target is (max frames, max bins) over the input maps; an
    explicit target overrides it, which is how desk-scale runs cap memory.
    """
    if not maps:
        raise ValueError("maps must be non-empty")
    if target is None:
        w_out = max(m.shape[0] for m in maps)
        h_out = max(m.shape[1] for m in maps)
    else:
        w_out, h_out = target
    data = np.stack([align_map(m.data, method, w_out, h_out) for m in maps])
    return FeatureStack(data, tuple(m.resolution for m in maps))
