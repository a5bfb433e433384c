"""Gradient terms of batch shares, and the numeric facts that make their reduction exact.

A training step cut into shares has the bits of one process only while
two facts about numpy and its BLAS hold. Each has a test here, so an
upgrade that breaks one fails by name instead of moving the trained bits.
"""

import numpy as np
import pytest

from multires.backend import BackendConfig
from multires.model import init_model, model_backward, model_forward
from multires.reduction import reduce_grads
from multires.stft import ResolutionSpec
from multires.trainer import MIN_SHARE_ROWS, cross_entropy_batch

RES = (ResolutionSpec(128, 32), ResolutionSpec(256, 64), ResolutionSpec(512, 128))
DTYPES = [np.float32, np.float64]


def _in_order(rows: np.ndarray) -> np.ndarray:
    total = np.zeros(rows.shape[1:], dtype=rows.dtype)
    for row in rows:
        total += row
    return total


@pytest.mark.parametrize("dtype", DTYPES)
def test_conv_bias_sum_adds_examples_in_order(dtype):
    # premise 1: numpy sums a conv's output gradient over (N, W, H) as the
    # per-example sums added one example after another, and sums axis 0 of
    # a conv's block products the same way; so the per-example and
    # per-block terms of consecutive shares reduce to one process's bits
    rng = np.random.default_rng(0)
    for shape in [(8, 8, 128, 129), (8, 16, 64, 65), (8, 32, 32, 33), (5, 4, 16, 17), (2, 3, 5, 6)]:
        dy = rng.standard_normal(shape).astype(dtype)
        per_example = dy.sum(axis=(2, 3))
        whole = dy.sum(axis=(0, 2, 3))
        assert per_example.tobytes() == np.stack([d.sum(axis=(1, 2)) for d in dy]).tobytes(), shape
        assert whole.tobytes() == per_example.sum(axis=0).tobytes() == _in_order(per_example).tobytes(), shape
    for blocks, k, c_out, c_in in [(16, 3, 8, 3), (24, 3, 16, 8), (8, 3, 32, 32), (8, 1, 32, 16), (3, 3, 2, 2)]:
        parts = rng.standard_normal((blocks, k, k, c_out, c_in)).astype(dtype)
        assert parts.sum(axis=0).tobytes() == _in_order(parts).tobytes(), parts.shape


@pytest.mark.parametrize("dtype", DTYPES)
def test_gemm_rows_need_two_rows_to_match_a_taller_gemm(dtype):
    # premise 2: the per-row GEMMs of the backward pass (d_logits @ fc_w,
    # dz @ fc2_w, da @ fc1_w) give each row of a share of 2 or more rows the
    # bits it gets in the whole batch's GEMM; a 1-row share takes the GEMV
    # path, which gives some rows other bits, so a share has MIN_SHARE_ROWS
    assert MIN_SHARE_ROWS == 2
    rng = np.random.default_rng(1)
    one_row_differs = False
    for n, c, k in [(8, 2, 32), (8, 8, 2), (32, 8, 4), (8, 32, 8), (8, 16, 4), (8, 4, 16), (8, 2, 8)]:
        a = rng.standard_normal((n, c)).astype(dtype)
        w = rng.standard_normal((c, k)).astype(dtype)
        whole = a @ w
        for rows in range(2, n):
            for start in range(n - rows + 1):
                share = a[start : start + rows] @ w
                assert share.tobytes() == whole[start : start + rows].tobytes(), (n, c, k, rows, start)
        one_row_differs |= any((a[i : i + 1] @ w).tobytes() != whole[i : i + 1].tobytes() for i in range(n))
    assert one_row_differs, "1-row GEMMs now match: MIN_SHARE_ROWS could be 1"


@pytest.mark.parametrize("dtype", DTYPES)
def test_shares_of_a_batch_reduce_to_its_gradients(dtype):
    # a batch cut anywhere into shares of at least 2 rows, each run through
    # forward and backward on its own, gives the logits and the gradients
    # of the whole batch bit for bit
    model = init_model(RES, BackendConfig(8, 3, 1, 4), np.random.default_rng(5), dtype)
    x = np.random.default_rng(6).standard_normal((7, 3, 32, 33)).astype(dtype)
    logits, cache = model_forward(x, model)
    _, d_logits = cross_entropy_batch(logits, np.arange(7) % 2, 7)
    want = reduce_grads([model_backward(cache, d_logits)[1]])
    for cuts in ([0, 2, 7], [0, 5, 7], [0, 2, 4, 7], [0, 3, 5, 7]):
        shares = [model_forward(x[a:b], model) for a, b in zip(cuts, cuts[1:])]
        assert np.concatenate([s[0] for s in shares]).tobytes() == logits.tobytes(), cuts
        terms = [model_backward(s[1], d_logits[a:b])[1] for s, a, b in zip(shares, cuts, cuts[1:])]
        got = reduce_grads(terms)
        assert [g.dtype for g in got] == [w.dtype for w in want]
        assert all(g.tobytes() == w.tobytes() for g, w in zip(got, want)), cuts
