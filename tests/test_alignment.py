import numpy as np
import pytest

from multires.alignment import align_map, max_grid, pool_bins
from multires.signal_io import Waveform
from multires.stft import ResolutionSpec, frame_count, log_magnitude, stft

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
                    got = align_map(mat, w_out, h_out)
                    np.testing.assert_allclose(got, pool_2d(mat, w_out, h_out), atol=1e-12)


def test_pool_doubling_duplicates_entries():
    out = align_map(np.array([[1.0], [2.0], [3.0], [4.0]]), 8, 1)
    np.testing.assert_array_equal(out[:, 0], [1, 1, 2, 2, 3, 3, 4, 4])


def test_pool_identity_is_a_copy():
    mat = np.arange(12.0).reshape(3, 4)
    out = align_map(mat, 3, 4)
    np.testing.assert_array_equal(out, mat)
    out[0, 0] = 99.0
    assert mat[0, 0] == 0.0


def test_pool_accumulates_left_to_right():
    # bit-exact agreement with an explicit ordered summation loop
    rng = np.random.default_rng(5)
    mat = rng.standard_normal((7, 5))
    got = align_map(mat, 3, 2)
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
    got = align_map(mat, w_out, h_out)
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


def _parse(text):
    return tuple(ResolutionSpec.parse(t) for t in text.split(","))


# the toy config's max grid (toy at 1.0 s) and the default config's (GRID13 at 4.5 s)
TOY_MAX, DEFAULT_MAX = (251, 257), (563, 1025)


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_pool_bit_exact_real_map_shapes(dtype):
    # every map shape of the toy and grid resolutions at 1.0 s, 2.0 s and 4.5 s,
    # 8 kHz, onto the fixed grid and both configs' max grids
    assert max_grid(_parse(TOY), 8000) == TOY_MAX
    assert max_grid(_parse(GRID13), 36000) == DEFAULT_MAX
    rng = np.random.default_rng(8)
    shapes = {
        (frame_count(n_samples, res.hop_len), res.n_bins)
        for res in _parse(TOY_AND_GRID13)
        for n_samples in (8000, 16000, 36000)
    }
    assert {(126, 1025), (251, 65), (63, 257), (563, 1025), (282, 513)} <= shapes
    for shape in sorted(shapes):
        mat = rng.standard_normal(shape).astype(dtype) * 4.0 - 9.0
        for target in ((128, 129), TOY_MAX, DEFAULT_MAX):
            _assert_pool_bit_exact(mat, *target)


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_pool_bit_exact_random_sizes(dtype):
    # seeded (n_in, n_out) pairs on both axes, from 4x downsampling to 12x
    # upsampling, where many output bins share one input range; every third
    # map is a strided view, as extraction passes every k-th row of a map
    rng = np.random.default_rng(11)
    ratios = np.array([0.25, 0.5, 0.9, 1.0, 1.5, 2.0, 3.0, 8.0, 12.0])
    seen = set()
    for trial in range(150):
        n_in = rng.integers(1, 40, size=2)
        n_out = np.maximum(1, np.round(n_in * rng.choice(ratios, size=2)) + rng.integers(-1, 2, size=2))
        seen |= {(axis, n_out[axis] >= 2 * n_in[axis], n_out[axis] >= 8 * n_in[axis]) for axis in (0, 1)}
        step = 1 + 2 * (trial % 3 == 0)
        base = rng.standard_normal((n_in[0] * step, n_in[1])).astype(dtype)
        _assert_pool_bit_exact(base[::step], int(n_out[0]), int(n_out[1]))
    assert {(0, True, True), (1, True, True), (0, True, False), (1, True, False)} <= seen


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("strided", [False, True])
@pytest.mark.parametrize("w_out, h_out", [(12, 9), (5, 9), (12, 4), (40, 9), (12, 30), (3, 33), (48, 2)])
def test_align_map_returns_a_fresh_array_and_leaves_its_input(dtype, strided, w_out, h_out):
    # the (12, 9) input is pooled on no axis, on one, or on both, down and up;
    # the result is a new array of the input's dtype and the input keeps its bytes
    base = np.random.default_rng(12).standard_normal((24 if strided else 12, 9)).astype(dtype)
    mat = base[::2] if strided else base
    before = base.tobytes()
    got = align_map(mat, w_out, h_out)
    assert got.dtype == dtype and got.shape == (w_out, h_out)
    assert not np.shares_memory(got, base)
    assert base.tobytes() == before
    assert got.tobytes() == pool_2d_left_to_right(mat, w_out, h_out).tobytes()


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


def test_max_grid_takes_each_axis_maximum():
    # each axis takes its own maximum: maps (21, 9) and (6, 17) give (21, 17),
    # and stacking the aligned maps keeps the resolutions' order
    r1, r2 = ResolutionSpec(16, 4), ResolutionSpec(32, 16)
    wave = Waveform(np.random.default_rng(5).standard_normal(80), 8000)
    maps = [log_magnitude(stft(wave, r1)), log_magnitude(stft(wave, r2))]
    assert [m.shape for m in maps] == [(21, 9), (6, 17)]
    assert max_grid((r1, r2), 80) == (21, 17)
    stack = np.stack([align_map(m, 21, 17) for m in maps])
    assert stack.shape == (2, 21, 17)
    np.testing.assert_array_equal(stack[0], pool_2d_left_to_right(maps[0], 21, 17))
    np.testing.assert_array_equal(stack[1], pool_2d_left_to_right(maps[1], 21, 17))


def test_align_map_matches_left_to_right_pool():
    mat = np.random.default_rng(4).standard_normal((6, 17))
    for w_out, h_out in ((21, 17), (8, 8), (6, 17)):
        pooled = align_map(mat, w_out, h_out)
        assert pooled.tobytes() == pool_2d_left_to_right(mat, w_out, h_out).tobytes()
