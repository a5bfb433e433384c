import numpy as np
import pytest

from multires.alignment import (
    AlignMethod,
    adaptive_avg_pool,
    align_map,
    max_grid,
    nearest_upsample,
    pool_bins,
)
from multires.signal_io import Waveform
from multires.stft import ResolutionSpec, log_magnitude, stft

from oracles import pool_2d, pool_2d_left_to_right

# the toy resolutions and the 13-resolution grid of the resolution search
TOY = "128/32, 256/64, 512/128"
GRID13 = (
    "512/64, 512/128, 1024/64, 1024/128, 1024/256, 2048/64, 2048/128, "
    "2048/256, 2048/512, 400/160, 1724/130, 288/96, 480/120"
)
TOY_AND_GRID13 = f"{TOY}, {GRID13}"


def test_pool_bins_cover_input_exactly():
    for n_in in range(1, 13):
        for n_out in range(1, 13):
            bins = pool_bins(n_in, n_out)
            assert len(bins) == n_out
            assert bins[0][0] == 0 and bins[-1][1] == n_in
            for (s, e) in bins:
                assert e > s  # every bin is non-empty
            for (a, b), (c, d) in zip(bins, bins[1:]):
                assert c <= b  # adjacent bins touch or overlap, no gaps


def test_pool_matches_brute_force_all_small_sizes():
    rng = np.random.default_rng(0)
    for w_in in range(1, 9):
        for h_in in range(1, 9):
            mat = rng.standard_normal((w_in, h_in))
            for w_out in range(1, 9):
                for h_out in range(1, 9):
                    got = adaptive_avg_pool(mat, w_out, h_out)
                    np.testing.assert_allclose(got, pool_2d(mat, w_out, h_out), atol=1e-12)


def test_pool_doubling_duplicates_entries():
    out = adaptive_avg_pool(np.array([[1.0], [2.0], [3.0], [4.0]]), 8, 1)
    np.testing.assert_array_equal(out[:, 0], [1, 1, 2, 2, 3, 3, 4, 4])


def test_pool_identity_is_a_copy():
    mat = np.arange(12.0).reshape(3, 4)
    out = adaptive_avg_pool(mat, 3, 4)
    np.testing.assert_array_equal(out, mat)
    out[0, 0] = 99.0
    assert mat[0, 0] == 0.0


def test_pool_accumulates_left_to_right():
    # bit-exact agreement with an explicit ordered summation loop
    rng = np.random.default_rng(5)
    mat = rng.standard_normal((7, 5))
    got = adaptive_avg_pool(mat, 3, 2)
    for i, (ws, we) in enumerate(pool_bins(7, 3)):
        row = mat[ws].copy()
        for k in range(ws + 1, we):
            row = row + mat[k]
        row = row / (we - ws)
        for j, (hs, he) in enumerate(pool_bins(5, 2)):
            acc = row[hs]
            for k in range(hs + 1, he):
                acc = acc + row[k]
            assert got[i, j] == acc / (he - hs)


def _assert_pool_bit_exact(mat, w_out, h_out):
    got = adaptive_avg_pool(mat, w_out, h_out)
    want = pool_2d_left_to_right(mat, w_out, h_out)
    assert got.dtype == mat.dtype and got.shape == (w_out, h_out)
    assert got.tobytes() == want.tobytes(), (mat.shape, w_out, h_out, mat.dtype)


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_pool_bit_exact_all_sizes_to_9x9(dtype):
    rng = np.random.default_rng(7)
    for w_in in range(1, 10):
        for h_in in range(1, 10):
            mat = rng.standard_normal((w_in, h_in)).astype(dtype)
            for w_out in range(1, 10):
                for h_out in range(1, 10):
                    _assert_pool_bit_exact(mat, w_out, h_out)


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_pool_bit_exact_real_map_shapes(dtype):
    # every map shape of the toy and grid resolutions at 1.0 s and 2.0 s, 8 kHz
    rng = np.random.default_rng(8)
    shapes = set()
    for text in TOY_AND_GRID13.split(","):
        res = ResolutionSpec.parse(text)
        for n_samples in (8000, 16000):
            shapes.add((n_samples // res.hop_len + 1, res.n_bins))
    assert {(126, 1025), (251, 65), (63, 257)} <= shapes
    for shape in sorted(shapes):
        mat = rng.standard_normal(shape).astype(dtype) * 4.0 - 9.0
        _assert_pool_bit_exact(mat, 128, 129)


def test_pool_casts_integer_input():
    out = adaptive_avg_pool(np.array([[1, 2], [3, 4]]), 1, 1)
    assert out.dtype == np.float64
    assert out[0, 0] == 2.5


def test_nearest_upsample_formula():
    mat = np.arange(6.0).reshape(2, 3)
    out = nearest_upsample(mat, 4, 6)
    for i in range(4):
        for j in range(6):
            assert out[i, j] == mat[i * 2 // 4, j * 3 // 6]


def test_nearest_upsample_identity():
    mat = np.arange(6.0).reshape(2, 3)
    np.testing.assert_array_equal(nearest_upsample(mat, 2, 3), mat)


def _parse(text):
    return tuple(ResolutionSpec.parse(t) for t in text.split(","))


def test_max_grid_matches_stft_map_shapes():
    # the max rule is read off the sizes alone, yet equals the largest frame
    # and bin counts of the maps that stft returns
    rng = np.random.default_rng(3)
    for n_samples in (8000, 16000):  # 1.0 s and 2.0 s at 8 kHz
        wave = Waveform(rng.standard_normal(n_samples), 8000)
        for resolutions in (_parse(TOY), _parse(GRID13)):
            shapes = [stft(wave, r).shape for r in resolutions]
            want = (max(s[0] for s in shapes), max(s[1] for s in shapes))
            assert max_grid(resolutions, n_samples) == want
    assert max_grid(_parse(TOY), 8000) == (251, 257)


def test_align_and_stack_max_rule():
    # each axis takes its own maximum: maps (21, 9) and (6, 17) give (21, 17),
    # and stacking the aligned maps keeps the resolutions' order
    r1, r2 = ResolutionSpec(16, 4), ResolutionSpec(32, 16)
    wave = Waveform(np.random.default_rng(5).standard_normal(80), 8000)
    maps = [log_magnitude(stft(wave, r1)), log_magnitude(stft(wave, r2))]
    assert [m.shape for m in maps] == [(21, 9), (6, 17)]
    assert max_grid((r1, r2), 80) == (21, 17)
    stack = np.stack([align_map(m, AlignMethod.ADAPTIVE_POOL, 21, 17) for m in maps])
    assert stack.shape == (2, 21, 17)
    np.testing.assert_array_equal(stack[0], adaptive_avg_pool(maps[0], 21, 17))
    np.testing.assert_array_equal(stack[1], adaptive_avg_pool(maps[1], 21, 17))


def test_align_map_methods():
    mat = np.random.default_rng(4).standard_normal((6, 17))
    for w_out, h_out in ((21, 17), (8, 8), (6, 17)):
        pooled = align_map(mat, AlignMethod.ADAPTIVE_POOL, w_out, h_out)
        assert pooled.tobytes() == adaptive_avg_pool(mat, w_out, h_out).tobytes()
        nearest = align_map(mat, AlignMethod.NEAREST, w_out, h_out)
        assert nearest.shape == (w_out, h_out)
        np.testing.assert_array_equal(nearest, nearest_upsample(mat, w_out, h_out))
