"""Reshape one resolution's log-STFT map onto the split's common grid.

:func:`multires.pipeline.extract_split` writes ``align_map`` of every map
straight into channel ``m`` of the utterance's ``(M, W, H)`` row when that
row is read.  The grid is ``alignment.target`` or, for ``max``,
:func:`max_grid`: the largest frame and bin counts over the resolutions,
known from the sample count alone.

Alignment is adaptive average pooling: output bin ``i`` (of ``Out`` bins
over ``In`` inputs) averages input indices
``[floor(i*In/Out), ceil((i+1)*In/Out))``, applied to rows first, then
columns; an axis that already has ``Out`` entries is left as it is.

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
from functools import lru_cache

import numpy as np

from .stft import ResolutionSpec, frame_count


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


def max_grid(resolutions: tuple[ResolutionSpec, ...], n_samples: int) -> tuple[int, int]:
    """The ``alignment.target = max`` grid: the largest frame and bin counts
    of the resolutions' maps over an ``n_samples``-sample signal."""
    return (
        max(frame_count(n_samples, r.hop_len) for r in resolutions),
        max(r.n_bins for r in resolutions),
    )


def align_map(mat: np.ndarray, w_out: int, h_out: int) -> np.ndarray:
    """Pool a float map to (w_out, h_out); rows first, then columns."""
    if mat.ndim != 2:
        raise ValueError("expected a 2-D map")
    rows = mat if mat.shape[0] == w_out else _pool_axis0(mat, w_out)
    if rows.shape[1] == h_out:
        return rows.copy() if rows is mat else rows
    return np.ascontiguousarray(_pool_axis0(np.ascontiguousarray(rows.T), h_out).T)
