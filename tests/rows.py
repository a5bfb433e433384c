"""In-memory feature rows for tests that build a `FeatureCache` from an array."""

from __future__ import annotations

import numpy as np

from multires.cache import CacheRows


def array_rows(stacks) -> CacheRows:
    """`CacheRows` that copy row n of a float32 copy of `stacks` when read."""
    stacks = np.array(stacks, dtype=np.float32)

    def fill(out: np.ndarray, n: int) -> None:
        out[...] = stacks[n]

    return CacheRows(stacks.shape, fill)
