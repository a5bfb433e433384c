import numpy as np
import pytest

from multires.signal_io import Waveform
from multires.stft import (
    LOG_FLOOR,
    ResolutionSpec,
    frame_count,
    frame_sources,
    hann_window,
    log_magnitude,
    next_pow2,
    stft,
)

from oracles import naive_dft, reflect_frames


def test_next_pow2():
    assert next_pow2(1) == 1
    assert next_pow2(2) == 2
    assert next_pow2(3) == 4
    assert next_pow2(512) == 512
    assert next_pow2(513) == 1024
    assert next_pow2(1724) == 2048


def test_resolution_spec_derived_sizes():
    r = ResolutionSpec(1724, 130)
    assert r.n_fft == 2048
    assert r.n_bins == 1025
    assert str(r) == "1724/130"
    assert ResolutionSpec.parse("1724/130") == r


def test_resolution_spec_validation():
    with pytest.raises(ValueError):
        ResolutionSpec(64, 0)
    with pytest.raises(ValueError):
        ResolutionSpec(64, 65)  # hop beyond the window
    with pytest.raises(ValueError):
        ResolutionSpec.parse("512x128")


def test_hann_window_is_periodic_form():
    # periodic convention: w[0] = 0 and w[len/2] = 1 (even length)
    w = hann_window(8)
    assert w[0] == 0.0
    assert w[4] == 1.0
    n = np.arange(8)
    np.testing.assert_allclose(w, 0.5 - 0.5 * np.cos(2 * np.pi * n / 8), atol=0)


def test_frame_count_formula():
    assert frame_count(8000, 64) == 126
    assert frame_count(8000, 130) == 62
    assert frame_count(63, 64) == 1
    assert frame_count(64, 64) == 2
    # 72000 samples at hop 64: floor(72000/64) + 1
    assert frame_count(72000, 64) == 1126


def test_stft_matches_naive_dft_small():
    rng = np.random.default_rng(0)
    x = rng.standard_normal(300)
    res = ResolutionSpec(24, 7)
    spec = stft(Waveform(x, 8000), res)
    frames = reflect_frames(x, hann_window(24), res.n_fft, 7)
    assert spec.shape == (frames.shape[0], res.n_bins)
    for t in range(frames.shape[0]):
        np.testing.assert_allclose(spec[t], naive_dft(frames[t]), atol=1e-10)


GRID13 = (
    "512/64, 512/128, 1024/64, 1024/128, 1024/256, 2048/64, 2048/128, "
    "2048/256, 2048/512, 400/160, 1724/130, 288/96, 480/120"
)


@pytest.mark.parametrize("text", [t.strip() for t in GRID13.split(",")])
def test_stft_bit_exact_against_gathered_frames(text):
    res = ResolutionSpec.parse(text)
    x = np.random.default_rng(9).standard_normal(8000) * 0.3
    got = stft(Waveform(x, 8000), res)
    frames = reflect_frames(x, hann_window(res.window_len), res.n_fft, res.hop_len)
    want = np.fft.rfft(frames, n=res.n_fft, axis=1)
    assert got.shape == want.shape == (frame_count(x.size, res.hop_len), res.n_bins)
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("window", [256, 2048, 400, 1724])  # two fill their FFT, two are zero-padded
@pytest.mark.parametrize("k", [2, 3, 4])
def test_hop_multiple_reads_every_kth_frame_bit_exact(window, k):
    # extraction computes one map per window and reads a resolution at hop
    # k*h as every k-th row of the map at hop h; this pins that the rows are
    # the same bytes, so a numpy or pocketfft change that transforms rows
    # differently fails here instead of changing the caches
    rng = np.random.default_rng(window + k)
    coarse_frames = set()
    for hop in (16, window // k):
        fine, coarse = ResolutionSpec(window, hop), ResolutionSpec(window, k * hop)
        first = -(-(fine.min_samples + 1) // (k * hop))  # least m with m*k*h - 1 >= min_samples
        for multiple in (first, first + 6):
            # lengths one below, at and one above a multiple of k*h
            for n in (multiple * k * hop - 1, multiple * k * hop, multiple * k * hop + 1):
                wave = Waveform(rng.standard_normal(n) * 0.3, 8000)
                rows = log_magnitude(stft(wave, fine))[::k]
                want = log_magnitude(stft(wave, coarse))
                assert rows.shape[0] == want.shape[0] == frame_count(n, k * hop)
                assert rows[: frame_count(n, k * hop)].tobytes() == want.tobytes(), (hop, n)
                coarse_frames.add(want.shape[0])
    assert 1 in coarse_frames  # a signal shorter than the coarse hop


def test_frame_sources_share_a_window_at_dividing_hops():
    grid = tuple(ResolutionSpec.parse(t) for t in GRID13.split(","))
    sources = frame_sources(grid)
    assert {str(r): members for r, members in sources.items()} == {
        "512/64": [(0, 1), (1, 2)],
        "1024/64": [(2, 1), (3, 2), (4, 4)],
        "2048/64": [(5, 1), (6, 2), (7, 4), (8, 8)],
        "400/160": [(9, 1)],
        "1724/130": [(10, 1)],
        "288/96": [(11, 1)],
        "480/120": [(12, 1)],
    }
    # the smallest dividing hop is the source, whatever the order; a hop
    # that no other hop of its window divides is its own source
    res = tuple(ResolutionSpec.parse(t) for t in ("32/24", "64/16", "32/12", "32/8", "32/16"))
    assert {str(r): members for r, members in frame_sources(res).items()} == {
        "32/8": [(0, 3), (3, 1), (4, 2)],
        "64/16": [(1, 1)],
        "32/12": [(2, 1)],
    }


def test_hann_window_is_fresh_and_stft_keeps_its_own():
    res = ResolutionSpec(48, 16)
    wave = Waveform(np.random.default_rng(10).standard_normal(500), 8000)
    before = stft(wave, res)
    w = hann_window(48)
    assert w.flags.writeable
    w[:] = 7.0
    fresh = hann_window(48)
    assert fresh.tobytes() == (0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(48) / 48)).tobytes()
    assert stft(wave, res).tobytes() == before.tobytes()


def test_stft_zero_pads_window_to_fft_size():
    rng = np.random.default_rng(1)
    x = rng.standard_normal(500)
    res = ResolutionSpec(48, 16)  # n_fft 64, so 16 zero samples per frame
    spec = stft(Waveform(x, 8000), res)
    frames = reflect_frames(x, hann_window(48), 64, 16)
    assert np.count_nonzero(frames[0, 48:]) == 0
    np.testing.assert_allclose(spec[0], naive_dft(frames[0]), atol=1e-10)


def test_stft_pure_tone_peaks_at_right_bin():
    sr = 8000
    res = ResolutionSpec(256, 64)
    k = 32  # put the tone exactly on bin k of the 256-point grid
    t = np.arange(sr) / sr
    x = np.sin(2 * np.pi * (k * sr / 256) * t)
    spec = np.abs(stft(Waveform(x, sr), res))
    # skip first/last frame: reflect padding bends the tone at the edges
    assert (spec[1:-1].argmax(axis=1) == k).all()


def test_stft_rejects_too_short_signal():
    with pytest.raises(ValueError, match="too short"):
        stft(Waveform(np.zeros(100), 8000), ResolutionSpec(512, 128))


def test_stft_map_shapes_for_toy_resolutions():
    # the toy resolutions, in config order, over 1.0 s at 8 kHz
    wave = Waveform(np.random.default_rng(2).standard_normal(8000), 8000)
    resolutions = [ResolutionSpec(128, 32), ResolutionSpec(256, 64), ResolutionSpec(512, 128)]
    maps = [stft(wave, r) for r in resolutions]
    assert [m.shape for m in maps] == [(251, 65), (126, 129), (63, 257)]
    assert [m.shape for m in maps] == [(frame_count(8000, r.hop_len), r.n_bins) for r in resolutions]


def test_log_magnitude_floor():
    res = ResolutionSpec(16, 8)
    spec = np.zeros((3, res.n_bins), dtype=complex)
    spec[0, 0] = 2.0
    fmap = log_magnitude(spec)
    assert fmap.shape == spec.shape and fmap.dtype == np.float64
    assert fmap[0, 0] == pytest.approx(np.log(2.0))
    assert (fmap[1:] == np.log(LOG_FLOOR)).all()
    assert np.isfinite(fmap).all()

