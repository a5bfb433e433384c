"""WAV ingestion, length unification, and protocol/score file handling.

Audio is RIFF/WAVE, PCM 16-bit little-endian, mono only.  Resampling is out
of scope: callers that know the expected rate pass it to :func:`read_wav`
and a mismatch is an error.

Text formats (UTF-8, tab-separated, one record per line):

* protocol file:  ``utt_id<TAB>label<TAB>relative_path`` with label in
  {bonafide, spoof}
* score file:     ``utt_id<TAB>label<TAB>score`` with the score printed at
  full round-trip precision (at least 6 significant digits)
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from enum import IntEnum
from pathlib import Path

import numpy as np

INT16_SCALE = 32768.0


class WavFormatError(ValueError):
    """Raised for malformed or unsupported WAV files."""


class ProtocolError(ValueError):
    """Raised for malformed protocol or score files."""


class Label(IntEnum):
    """Utterance class; the integer value doubles as the training label."""

    SPOOF = 0
    BONAFIDE = 1

    @classmethod
    def parse(cls, token: str) -> "Label":
        try:
            return _LABEL_TOKENS[token]
        except KeyError:
            raise ProtocolError(f"unknown label token {token!r} (expected 'bonafide' or 'spoof')") from None

    @property
    def token(self) -> str:
        return "bonafide" if self is Label.BONAFIDE else "spoof"


_LABEL_TOKENS = {"bonafide": Label.BONAFIDE, "spoof": Label.SPOOF}


@dataclass
class Waveform:
    """Mono sample buffer in [-1, 1] plus its sample rate in Hz."""

    samples: np.ndarray
    sample_rate: int

    def __post_init__(self) -> None:
        self.samples = np.asarray(self.samples, dtype=np.float64)
        if self.samples.ndim != 1 or self.samples.size == 0:
            raise ValueError("waveform must be a non-empty 1-D sample buffer")
        if not np.all(np.isfinite(self.samples)):
            raise ValueError("waveform contains non-finite samples")
        if not isinstance(self.sample_rate, (int, np.integer)) or self.sample_rate <= 0:
            raise ValueError(f"sample_rate must be a positive integer, got {self.sample_rate!r}")
        self.sample_rate = int(self.sample_rate)

    def __len__(self) -> int:
        return self.samples.size


@dataclass(frozen=True)
class ProtocolEntry:
    utt_id: str
    label: Label
    path: str


@dataclass(frozen=True)
class ScoreRecord:
    """(utterance id, ground-truth label, classifier score); higher = more bona fide."""

    utt_id: str
    label: Label
    score: float


# ---------------------------------------------------------------------------
# WAV I/O


def read_wav(path: str | Path, expect_sample_rate: int | None = None) -> Waveform:
    """Read a PCM16 mono RIFF/WAVE file.

    int16 values are scaled by 1/32768.  Unsupported encodings raise
    :class:`WavFormatError` naming the offending field.
    """
    data = Path(path).read_bytes()
    if len(data) < 12 or data[:4] != b"RIFF" or data[8:12] != b"WAVE":
        raise WavFormatError("malformed RIFF header")

    fmt = None
    raw = None
    pos = 12
    while pos + 8 <= len(data):
        chunk_id = data[pos : pos + 4]
        (chunk_size,) = struct.unpack_from("<I", data, pos + 4)
        body = data[pos + 8 : pos + 8 + chunk_size]
        if len(body) < chunk_size:
            raise WavFormatError(f"truncated {chunk_id!r} chunk (declared {chunk_size} bytes)")
        if chunk_id == b"fmt ":
            if chunk_size < 16:
                raise WavFormatError("malformed fmt chunk (shorter than 16 bytes)")
            fmt = struct.unpack_from("<HHIIHH", body, 0)
        elif chunk_id == b"data":
            raw = body
        pos += 8 + chunk_size + (chunk_size & 1)  # chunks are word-aligned

    if fmt is None:
        raise WavFormatError("missing fmt chunk")
    if raw is None:
        raise WavFormatError("missing data chunk")

    audio_format, channels, sample_rate, _byte_rate, _block_align, bits = fmt
    if audio_format != 1:
        raise WavFormatError(f"unsupported audio_format {audio_format} (PCM required)")
    if channels != 1:
        raise WavFormatError(f"unsupported channels {channels} (mono required)")
    if bits != 16:
        raise WavFormatError(f"unsupported bits_per_sample {bits} (16 required)")
    if len(raw) == 0:
        raise WavFormatError("empty data chunk")
    if len(raw) % 2 != 0:
        raise WavFormatError("data chunk length is not a multiple of the sample size")
    if expect_sample_rate is not None and sample_rate != expect_sample_rate:
        raise WavFormatError(f"sample_rate {sample_rate} does not match configured rate {expect_sample_rate}")

    values = np.frombuffer(raw, dtype="<i2").astype(np.float64)
    return Waveform(values / INT16_SCALE, int(sample_rate))


def write_wav(path: str | Path, waveform: Waveform) -> None:
    """Write a PCM16 mono RIFF/WAVE file; samples are clipped to the int16 range."""
    ints = np.clip(np.round(waveform.samples * INT16_SCALE), -32768, 32767).astype("<i2")
    payload = ints.tobytes()
    header = b"RIFF" + struct.pack("<I", 36 + len(payload)) + b"WAVE"
    header += b"fmt " + struct.pack(
        "<IHHIIHH",
        16,  # fmt chunk size
        1,  # PCM
        1,  # mono
        waveform.sample_rate,
        waveform.sample_rate * 2,  # byte rate
        2,  # block align
        16,  # bits per sample
    )
    header += b"data" + struct.pack("<I", len(payload))
    Path(path).write_bytes(header + payload)


# ---------------------------------------------------------------------------
# Length unification


def sample_count(seconds: float, sample_rate: int) -> int:
    """Length in samples of ``seconds`` of audio: ``round(seconds * sample_rate)``."""
    return int(round(seconds * sample_rate))


def unify_length(
    waveform: Waveform, target_s: float, rng: np.random.Generator | None = None
) -> Waveform:
    """Force a waveform to exactly ``round(target_s * sample_rate)`` samples.

    Shorter utterances are tiled end-to-end and truncated; longer ones are
    cropped to the leading segment when ``rng`` is None (deterministic), or
    to a uniformly random contiguous segment drawn from ``rng``.
    """
    if target_s <= 0:
        raise ValueError(f"target_s must be positive, got {target_s}")
    target_len = sample_count(target_s, waveform.sample_rate)
    if target_len < 1:
        raise ValueError(f"target length rounds to zero samples at rate {waveform.sample_rate}")

    n = len(waveform)
    if n == target_len:
        return waveform
    if n < target_len:
        reps = -(-target_len // n)
        samples = np.tile(waveform.samples, reps)[:target_len]
        return Waveform(samples, waveform.sample_rate)

    start = 0 if rng is None else int(rng.integers(0, n - target_len + 1))
    return Waveform(waveform.samples[start : start + target_len], waveform.sample_rate)


# ---------------------------------------------------------------------------
# Protocol files


def _read_rows(path: str | Path) -> list[tuple[int, str, Label, str]]:
    """``(line number, utt_id, label, third field)`` per non-blank line.

    Shared by protocol and score files: three tab-separated fields, an id
    with no whitespace that is unique within the file, and a label token.
    """
    rows: list[tuple[int, str, Label, str]] = []
    seen: set[str] = set()
    for lineno, line in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), start=1):
        if not line.strip():
            continue
        fields = line.split("\t")
        if len(fields) != 3:
            raise ProtocolError(f"{path}:{lineno}: expected 3 tab-separated fields, got {len(fields)}")
        utt_id, label_token, third = fields
        if not utt_id or any(c.isspace() for c in utt_id):
            raise ProtocolError(f"{path}:{lineno}: bad utt_id {utt_id!r}")
        if utt_id in seen:
            raise ProtocolError(f"{path}:{lineno}: duplicate utt_id {utt_id!r}")
        seen.add(utt_id)
        try:
            label = Label.parse(label_token)
        except ProtocolError as exc:
            raise ProtocolError(f"{path}:{lineno}: {exc}") from None
        rows.append((lineno, utt_id, label, third))
    return rows


def read_protocol(path: str | Path) -> list[ProtocolEntry]:
    return [ProtocolEntry(utt_id, label, rel_path) for _, utt_id, label, rel_path in _read_rows(path)]


def write_protocol(entries: list[ProtocolEntry], path: str | Path) -> None:
    seen: set[str] = set()
    lines = []
    for e in entries:
        if e.utt_id in seen:
            raise ProtocolError(f"duplicate utt_id {e.utt_id!r}")
        seen.add(e.utt_id)
        lines.append(f"{e.utt_id}\t{e.label.token}\t{e.path}")
    Path(path).write_text("".join(line + "\n" for line in lines), encoding="utf-8")


# ---------------------------------------------------------------------------
# Score files


def format_score(value: float) -> str:
    """Exact round-trip decimal form, padded to at least 6 significant digits."""
    if not np.isfinite(value):
        raise ValueError(f"score must be finite, got {value}")
    return np.format_float_positional(float(value), unique=True, min_digits=6, trim="k")


def write_scores(records: list[ScoreRecord], path: str | Path) -> None:
    lines = [f"{r.utt_id}\t{r.label.token}\t{format_score(r.score)}" for r in records]
    Path(path).write_text("".join(line + "\n" for line in lines), encoding="utf-8")


def read_scores(path: str | Path) -> list[ScoreRecord]:
    records: list[ScoreRecord] = []
    for lineno, utt_id, label, score_text in _read_rows(path):
        try:
            score = float(score_text)
        except ValueError:
            raise ProtocolError(f"{path}:{lineno}: bad score {score_text!r}") from None
        records.append(ScoreRecord(utt_id, label, score))
    return records
