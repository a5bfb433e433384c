"""Synthetic desk-scale corpus: harmonic bona fide tones vs. resynthesized spoofs.

Bona fide utterances are sums of a few harmonics with random fundamental,
amplitudes, and phases, shaped by an attack-decay envelope and lightly
noised.  Spoof utterances take a bona fide waveform through an STFT
analysis, discard the phase, and overlap-add the zero-phase frames back
together at a configured window/hop.  That resynthesis leaves a buzzy
frame-rate artifact whose scale is exactly the chosen resolution, which is
what makes the per-resolution weighting observable at desk scale.

Generation is a pure function of CorpusSpec: every utterance draws from its
own `default_rng([seed, split, index])` stream, so outputs are byte-stable
regardless of generation order, and so at any process count.
`generate_corpus` shares the bona fide/spoof pairs of all splits out over
every CPU; a process synthesizes bona fide i, writes it, writes its spoof
from the same waveform and drops both, so it holds one pair at a time,
whatever the size of the split.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import parallel
from .signal_io import Label, ProtocolEntry, Waveform, sample_count, write_protocol, write_wav
from .stft import ResolutionSpec, hann_window

SPLITS = ("train", "dev", "eval")

NOISE_SNR_DB = 30.0
PEAK_AMPLITUDE = 0.5


@dataclass(frozen=True)
class CorpusSpec:
    n_train: int = 400
    n_dev: int = 100
    n_eval: int = 200
    duration_s: float = 1.0
    sample_rate: int = 8000
    spoof_synthesis: ResolutionSpec = field(default_factory=lambda: ResolutionSpec(256, 64))
    seed: int = 0

    def __post_init__(self) -> None:
        for name in ("n_train", "n_dev", "n_eval", "duration_s", "sample_rate"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        for name in ("n_dev", "n_eval"):  # an EER needs both classes
            if getattr(self, name) < 2:
                raise ValueError(f"{name} must be >= 2 (a bona fide and a spoof utterance)")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        try:
            n_samples = sample_count(self.duration_s, self.sample_rate)
        except ValueError as exc:
            raise ValueError(f"duration_s = {exc}") from None
        if n_samples < 1:
            raise ValueError(
                f"duration_s = {self.duration_s!r} gives {n_samples} samples "
                f"at {self.sample_rate} Hz; need at least 1"
            )

    def split_size(self, split: str) -> int:
        return {"train": self.n_train, "dev": self.n_dev, "eval": self.n_eval}[split]


def synth_bonafide(n_samples: int, sample_rate: int, rng: np.random.Generator) -> np.ndarray:
    """One harmonic tone burst: 3-8 partials, f0 in [80, 300] Hz, 30 dB SNR noise."""
    f0 = rng.uniform(80.0, 300.0)
    n_harmonics = int(rng.integers(3, 9))
    t = np.arange(n_samples) / sample_rate
    x = np.zeros(n_samples)
    for k in range(1, n_harmonics + 1):
        amp = rng.uniform(0.3, 1.0) / k
        phase = rng.uniform(0.0, 2.0 * np.pi)
        x += amp * np.sin(2.0 * np.pi * k * f0 * t + phase)
    attack = rng.uniform(0.02, 0.15) * t[-1] if n_samples > 1 else 1.0
    tau = rng.uniform(0.3, 0.8) * max(t[-1], 1e-6)
    envelope = np.minimum(t / max(attack, 1e-6), 1.0) * np.exp(-np.maximum(t - attack, 0.0) / tau)
    x *= envelope
    peak = np.max(np.abs(x))
    if peak > 0:
        x *= PEAK_AMPLITUDE / peak
    noise_std = np.sqrt(np.mean(x**2) / 10.0 ** (NOISE_SNR_DB / 10.0))
    x += rng.normal(0.0, noise_std, n_samples)
    return x


def resynthesize(source: Waveform, resolution: ResolutionSpec) -> Waveform:
    """Magnitude-only zero-phase analysis/overlap-add at the given resolution.

    Frames of `window_len` samples at `hop_len` spacing are transformed,
    their phase zeroed, inverted, and overlap-added with a squared-window
    normalization; the result is RMS-matched to the source.
    """
    win, hop = resolution.window_len, resolution.hop_len
    x = source.samples
    n = x.size
    n_frames = max(1, -(-(n - win) // hop) + 1) if n > win else 1
    padded = np.zeros((n_frames - 1) * hop + win)
    padded[:n] = x
    w = hann_window(win)
    frames = np.lib.stride_tricks.sliding_window_view(padded, win)[::hop] * w
    rebuilt = np.fft.irfft(np.abs(np.fft.rfft(frames, axis=-1)), n=win, axis=-1) * w
    # np.add.at over frame-major indices sums each sample's frames in frame order
    index = (np.arange(n_frames)[:, None] * hop + np.arange(win)).ravel()
    out = np.zeros_like(padded)
    norm = np.zeros_like(padded)
    np.add.at(out, index, rebuilt.ravel())
    np.add.at(norm, index, np.tile(w * w, n_frames))
    out /= np.maximum(norm, 1e-8)
    out = out[:n]
    src_rms = np.sqrt(np.mean(x**2))
    out_rms = np.sqrt(np.mean(out**2))
    if out_rms > 0:
        out *= src_rms / out_rms
    peak = np.max(np.abs(out))
    if peak > 0.99:
        out *= 0.99 / peak
    return Waveform(out, source.sample_rate)


def _utterance_rng(seed: int, split_index: int, utt_index: int) -> np.random.Generator:
    return np.random.default_rng([seed, split_index, utt_index])


def generate_corpus(spec: CorpusSpec, out_dir: str | Path) -> dict[str, Path]:
    """Write WAVs plus one protocol file per split; returns protocol paths.

    Each split holds ceil(n/2) bona fide and floor(n/2) spoof utterances;
    spoof j is the resynthesis of bona fide j, so every spoof has an emitted
    source to compare against. Pair i of a split is bona fide i and, where
    the split has it, spoof i: the pairs of all splits are shared out over
    the CPUs (`parallel.run_shares`), and the protocols are written once
    every WAV is, so a protocol never names a missing file.
    """
    out_dir = Path(out_dir)
    wav_dir = out_dir / "wav"
    n_samples = sample_count(spec.duration_s, spec.sample_rate)
    pairs = [(s, i) for s, split in enumerate(SPLITS) for i in range((spec.split_size(split) + 1) // 2)]

    def write_pairs(start: int, stop: int) -> None:
        for split_index, i in pairs[start:stop]:
            split = SPLITS[split_index]
            rng = _utterance_rng(spec.seed, split_index, i)
            wave = Waveform(synth_bonafide(n_samples, spec.sample_rate, rng), spec.sample_rate)
            write_wav(wav_dir / f"{split}_b{i:04d}.wav", wave)
            if i < spec.split_size(split) // 2:
                write_wav(wav_dir / f"{split}_s{i:04d}.wav", resynthesize(wave, spec.spoof_synthesis))

    try:
        parallel.run_shares(len(pairs), write_pairs)
    except BaseException:
        # a worker killed inside `atomic_write` leaves its temp file; all are reaped by now
        for tmp in wav_dir.glob("*.tmp"):
            tmp.unlink(missing_ok=True)
        raise
    protocols: dict[str, Path] = {}
    for split in SPLITS:
        total = spec.split_size(split)
        n_bona = (total + 1) // 2
        ids = [(f"{split}_b{i:04d}", Label.BONAFIDE) for i in range(n_bona)]
        ids += [(f"{split}_s{j:04d}", Label.SPOOF) for j in range(total - n_bona)]
        path = out_dir / f"{split}_protocol.tsv"
        write_protocol([ProtocolEntry(utt_id, label, f"wav/{utt_id}.wav") for utt_id, label in ids], path)
        protocols[split] = path
    return protocols
