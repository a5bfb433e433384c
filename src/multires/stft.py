"""Short-time Fourier front-end: framed, Hann-windowed DFT, log-magnitude maps.

Conventions
-----------
* one resolution = (window length, hop length) in samples
* FFT size is the next power of two >= the window length, so the bin count
  is ``n_fft/2 + 1`` (one-sided spectrum)
* frames are "centered": the signal is reflect-padded by ``n_fft/2`` on both
  sides, frame ``t`` covers ``window_len`` padded samples starting at
  ``t * hop_len``, and the frame count is ``len(signal) // hop_len + 1``
* log magnitude uses ``ln(max(|z|, 1e-10))`` so silence stays finite
* two resolutions with one window and hops ``h`` and ``k*h`` frame the same
  samples: frame ``t`` of the second starts where frame ``k*t`` of the first
  does, so its map is rows ``0, k, 2k, ...`` of the first's, byte for byte
  (:func:`frame_sources`)

Nothing here is trainable. ``log_magnitude(stft(wave, res))`` is one
resolution's (frames, bins) map as a plain float64 array;
:func:`multires.pipeline.extract_split` computes it once per source in
:func:`frame_sources`, aligns every resolution's rows of it onto the split's
grid (see :mod:`multires.alignment`) and caches the stacks to disk.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .signal_io import Waveform

LOG_FLOOR = 1e-10


def next_pow2(n: int) -> int:
    """Smallest power of two >= n (n >= 1)."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    return 1 << (n - 1).bit_length()


@dataclass(frozen=True)
class ResolutionSpec:
    """One time-frequency resolution: analysis window length and frame hop."""

    window_len: int
    hop_len: int

    def __post_init__(self) -> None:
        if not (isinstance(self.window_len, (int, np.integer)) and isinstance(self.hop_len, (int, np.integer))):
            raise ValueError("window_len and hop_len must be integers")
        if not 0 < self.hop_len <= self.window_len:
            raise ValueError(f"need 0 < hop_len <= window_len, got {self.window_len}/{self.hop_len}")

    @property
    def n_fft(self) -> int:
        return next_pow2(self.window_len)

    @property
    def n_bins(self) -> int:
        return self.n_fft // 2 + 1

    @property
    def min_samples(self) -> int:
        """Shortest signal `stft` takes: reflect padding by n_fft/2 needs one more sample."""
        return self.n_fft // 2 + 1

    @classmethod
    def parse(cls, text: str) -> "ResolutionSpec":
        """Parse the ``window/hop`` notation, e.g. ``2048/64``."""
        parts = text.strip().split("/")
        try:
            window, hop = (int(p) for p in parts)
        except ValueError:
            raise ValueError(f"bad resolution {text!r} (expected 'window/hop')") from None
        return cls(window, hop)

    def __str__(self) -> str:
        return f"{self.window_len}/{self.hop_len}"


def hann_window(length: int) -> np.ndarray:
    """Periodic Hann window: w[n] = 0.5 - 0.5 cos(2 pi n / length)."""
    if length < 1:
        raise ValueError(f"window length must be >= 1, got {length}")
    n = np.arange(length)
    return 0.5 - 0.5 * np.cos(2.0 * np.pi * n / length)


@lru_cache(maxsize=64)
def _analysis_window(length: int) -> np.ndarray:
    """hann_window(length), computed once per length and read-only."""
    w = hann_window(length)
    w.flags.writeable = False
    return w


def frame_count(n_samples: int, hop_len: int) -> int:
    return n_samples // hop_len + 1


def frame_sources(resolutions: tuple[ResolutionSpec, ...]) -> dict[ResolutionSpec, list[tuple[int, int]]]:
    """Each map to compute, with the ``(index, step)`` of every resolution read from it.

    The source of a resolution is the one in `resolutions` with the same
    window and the smallest hop that divides its hop (itself when no other
    does); its map is every ``step``-th row of the source's, ``step`` being
    the ratio of the hops. Such a slice has exactly ``frame_count`` rows, as
    ``n // h + 1`` rows taken ``k`` apart are ``n // (k*h) + 1``. Sources
    come in the order of their first member's index, and members in index
    order.
    """
    sources: dict[ResolutionSpec, list[tuple[int, int]]] = {}
    for m, res in enumerate(resolutions):
        source = min(
            (r for r in resolutions if r.window_len == res.window_len and res.hop_len % r.hop_len == 0),
            key=lambda r: r.hop_len,
        )
        sources.setdefault(source, []).append((m, res.hop_len // source.hop_len))
    return sources


def stft(waveform: Waveform, resolution: ResolutionSpec) -> np.ndarray:
    """One-sided STFT, complex matrix of shape (frames, n_fft/2 + 1).

    Frames are Hann-windowed ``window_len``-sample slices of the
    reflect-padded signal, zero-padded up to ``n_fft`` before the DFT.  They
    are read through a strided view of the padded signal (every ``hop_len``-th
    window of a sliding window view), so the only frame-sized array built is
    the windowed product that the FFT consumes.
    """
    x = waveform.samples
    n_fft = resolution.n_fft
    pad = n_fft // 2
    if x.size < resolution.min_samples:
        raise ValueError(
            f"signal of {x.size} samples is too short for window {resolution.window_len} "
            f"(reflect padding needs at least {resolution.min_samples} samples)"
        )
    padded = np.pad(x, pad, mode="reflect")

    n_frames = frame_count(x.size, resolution.hop_len)
    frames = sliding_window_view(padded, resolution.window_len)[:: resolution.hop_len][:n_frames]
    return np.fft.rfft(frames * _analysis_window(resolution.window_len), n=n_fft, axis=1)


def log_magnitude(spectrum: np.ndarray) -> np.ndarray:
    """ln(max(|z|, 1e-10)) applied entrywise; the floor keeps silence finite."""
    magnitude = np.abs(spectrum)
    np.maximum(magnitude, LOG_FLOOR, out=magnitude)
    return np.log(magnitude, out=magnitude)
