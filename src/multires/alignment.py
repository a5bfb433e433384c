"""Reshape one resolution's log-STFT map onto the split's common grid.

:func:`multires.pipeline.extract_split` writes ``align_map`` of every map into
channel ``m`` of an utterance's ``(M, W, H)`` row when that row is read.  The
grid is ``alignment.target`` or, for ``max``, :func:`max_grid`: the largest
frame and bin counts over the resolutions, known from the sample count alone.

Alignment is adaptive average pooling, rows first, then columns: output bin
``i`` of ``Out`` averages inputs ``[floor(i*In/Out), ceil((i+1)*In/Out))``;
an axis with ``Out`` entries already is left as it is.  Each bin sums strictly
left to right and divides by its width in the input dtype, so the bits equal a
loop over the bin formula.  Rows pool each distinct bin once, widest first so
every ``+=`` adds to leading rows, and one gather orders and repeats them;
columns pool in place on the row-pooled map.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .stft import ResolutionSpec, frame_count


def pool_bins(n_in: int, n_out: int) -> list[tuple[int, int]]:
    """[start, end) input ranges for each of the n_out bins."""
    if n_in < 1 or n_out < 1:
        raise ValueError("bin counts must be >= 1")
    return [(i * n_in // n_out, -((-(i + 1) * n_in) // n_out)) for i in range(n_out)]


class _PoolPlan(NamedTuple):
    """Read-only index arrays for pooling n_in entries into n_out bins."""

    starts: np.ndarray  # first input index of each bin
    # per offset k = 1, 2, ...: start + k of the bins wider than k, and those bins
    steps: tuple[tuple[np.ndarray, slice | np.ndarray], ...]
    wide: slice | np.ndarray  # the bins wider than 1; a 1-wide bin is its own mean
    widths: np.ndarray  # their widths
    expand: np.ndarray  # the plan bin of each of the n_out output bins


@lru_cache(maxsize=256)
def _pool_plan(n_in: int, n_out: int, gather: bool) -> _PoolPlan:
    ranges = pool_bins(n_in, n_out)
    kept = sorted(set(ranges), key=lambda r: (r[0] - r[1], r)) if gather else ranges  # widest first
    index = {r: i for i, r in enumerate(kept)}
    expand = np.array([index[r] for r in ranges])
    starts, ends = np.array(kept).T
    widths = ends - starts
    # bins wider than k = 1 .. max width: the last is empty, and the first always exists
    wider = [np.flatnonzero(widths > k) for k in range(1, widths.max() + 1)]
    # as a slice where those bins lead (sorted, or all of them), so += adds in place
    keys = [slice(len(b)) if gather or len(b) == len(widths) else b for b in wider]
    steps = tuple((starts[b] + k, key) for k, (b, key) in enumerate(zip(wider[:-1], keys), 1))
    plan = _PoolPlan(starts, steps, keys[0], widths[wider[0]], expand)
    for a in (plan.starts, plan.widths, expand, *wider, *(rows for rows, _ in steps)):
        a.flags.writeable = False
    return plan


def _pool(mat: np.ndarray, plan: _PoolPlan, axis: int) -> np.ndarray:
    """A new array of each bin's mean of ``mat`` along ``axis`` (0 or 1)."""
    lead = (slice(None),) * axis
    acc = mat[lead + (plan.starts,)]
    for rows, bins in plan.steps:
        acc[lead + (bins,)] += mat[lead + (rows,)]
    acc[lead + (plan.wide,)] /= np.expand_dims(plan.widths.astype(mat.dtype), 1 - axis)
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
    plan = _pool_plan(mat.shape[0], w_out, True)
    out = mat if mat.shape[0] == w_out else _pool(mat, plan, 0)
    if out.shape[1] != h_out:  # columns keep repeated bins: a gather back costs more
        out = _pool(out, _pool_plan(out.shape[1], h_out, False), 1)
    return out[plan.expand]  # a new array, even where neither axis pools
