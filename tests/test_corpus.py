import errno
import os
import time
from pathlib import Path

import numpy as np
import pytest

from multires import parallel, signal_io
from multires.corpus import (
    PEAK_AMPLITUDE,
    SPLITS,
    CorpusSpec,
    generate_corpus,
    resynthesize,
    synth_bonafide,
)
from multires.signal_io import Label, Waveform, read_protocol, read_wav, write_wav
from multires.stft import ResolutionSpec

from helpers import counting_forks, fresh_run

SMALL = CorpusSpec(
    n_train=5,
    n_dev=3,
    n_eval=4,
    duration_s=0.2,
    sample_rate=2000,
    spoof_synthesis=ResolutionSpec(64, 16),
    seed=11,
)


def test_spec_validation():
    with pytest.raises(ValueError):
        CorpusSpec(n_dev=0)
    with pytest.raises(ValueError):
        CorpusSpec(duration_s=0.0)
    assert SMALL.split_size("train") == 5
    assert SMALL.split_size("eval") == 4


def test_synth_bonafide_basic_properties():
    rng = np.random.default_rng(0)
    x = synth_bonafide(1600, 8000, rng)
    assert x.shape == (1600,)
    assert np.isfinite(x).all()
    # peak is pinned to 0.5 before the 30 dB noise floor is added
    assert abs(np.max(np.abs(x)) - PEAK_AMPLITUDE) < 0.05
    # deterministic under the same stream
    y = synth_bonafide(1600, 8000, np.random.default_rng(0))
    np.testing.assert_array_equal(x, y)


def test_synth_bonafide_is_tonal():
    # energy should concentrate at a fundamental under 300 Hz and its harmonics
    x = synth_bonafide(8000, 8000, np.random.default_rng(42))
    spectrum = np.abs(np.fft.rfft(x * np.hanning(8000)))
    f0_bin = spectrum[:3000].argmax()
    assert 60 <= f0_bin <= 320


def test_resynthesize_preserves_length_and_rms():
    rng = np.random.default_rng(1)
    src = Waveform(synth_bonafide(1000, 2000, rng), 2000)
    out = resynthesize(src, ResolutionSpec(64, 16))
    assert len(out) == len(src)
    src_rms = np.sqrt(np.mean(src.samples**2))
    out_rms = np.sqrt(np.mean(out.samples**2))
    assert out_rms == pytest.approx(src_rms, rel=1e-6) or np.max(np.abs(out.samples)) == pytest.approx(0.99)


def test_resynthesize_discards_phase():
    # a pure tone and its negation have identical magnitudes, so the two
    # resyntheses must coincide
    t = np.arange(1000) / 2000
    tone = Waveform(0.4 * np.sin(2 * np.pi * 100 * t), 2000)
    anti = Waveform(-tone.samples, 2000)
    a = resynthesize(tone, ResolutionSpec(64, 16))
    b = resynthesize(anti, ResolutionSpec(64, 16))
    np.testing.assert_allclose(a.samples, b.samples, atol=1e-12)


def test_resynthesize_peak_cap():
    out = resynthesize(Waveform(np.ones(200) * 0.9, 1000), ResolutionSpec(32, 8))
    assert np.max(np.abs(out.samples)) <= 0.99 + 1e-12


def test_generate_corpus_layout(tmp_path):
    protocols = generate_corpus(SMALL, tmp_path)
    assert set(protocols) == set(SPLITS)
    for split, n, n_bona in [("train", 5, 3), ("dev", 3, 2), ("eval", 4, 2)]:
        entries = read_protocol(protocols[split])
        assert len(entries) == n
        bona = [e for e in entries if e.label is Label.BONAFIDE]
        spoof = [e for e in entries if e.label is Label.SPOOF]
        assert len(bona) == n_bona and len(spoof) == n - n_bona
        assert [e.utt_id for e in bona] == [f"{split}_b{i:04d}" for i in range(n_bona)]
        assert [e.utt_id for e in spoof] == [f"{split}_s{j:04d}" for j in range(n - n_bona)]
        for e in entries:
            wave = read_wav(tmp_path / e.path, expect_sample_rate=2000)
            assert len(wave) == 400


def test_generate_corpus_is_deterministic(tmp_path):
    a_dir = tmp_path / "a"
    b_dir = tmp_path / "b"
    generate_corpus(SMALL, a_dir)
    generate_corpus(SMALL, b_dir)
    for rel in sorted(p.relative_to(a_dir) for p in a_dir.rglob("*") if p.is_file()):
        assert (a_dir / rel).read_bytes() == (b_dir / rel).read_bytes(), rel


def test_generate_corpus_seed_changes_audio(tmp_path):
    import dataclasses

    a_dir = tmp_path / "a"
    b_dir = tmp_path / "b"
    generate_corpus(SMALL, a_dir)
    generate_corpus(dataclasses.replace(SMALL, seed=12), b_dir)
    assert (a_dir / "wav/train_b0000.wav").read_bytes() != (b_dir / "wav/train_b0000.wav").read_bytes()


def test_spoof_is_resynthesis_of_matching_bonafide(tmp_path):
    generate_corpus(SMALL, tmp_path)
    # rebuild spoof 0 of the dev split from its seed stream and compare bytes
    rng = np.random.default_rng([11, SPLITS.index("dev"), 0])
    bona = Waveform(synth_bonafide(400, 2000, rng), 2000)
    spoof = resynthesize(bona, SMALL.spoof_synthesis)
    path = tmp_path / "rebuilt.wav"
    write_wav(path, spoof)
    assert path.read_bytes() == (tmp_path / "wav/dev_s0000.wav").read_bytes()


class _DiskFull:
    """A binary file that takes `room` bytes, then fails as a full disk would."""

    def __init__(self, f, room):
        self.f, self.room = f, room

    def write(self, data):
        if len(data) > self.room:
            self.f.write(data[: self.room])
            self.room = 0
            raise OSError(errno.ENOSPC, "No space left on device")
        self.room -= len(data)
        return self.f.write(data)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.f.close()


# Files written before each failure at one process, where the order is fixed:
# bona fide i then spoof i, pair by pair and split by split, protocols last.
WRITTEN_BEFORE = {"train_b0002.wav": 4, "eval_s0001.wav": 5 + 3 + 3, "dev_protocol.tsv": 5 + 3 + 4 + 1}


@pytest.mark.parametrize("failing", ["train_b0002.wav", "eval_s0001.wav", "dev_protocol.tsv"])
def test_generate_corpus_write_failing_midway_leaves_nothing_partial(tmp_path, monkeypatch, failing):
    # at 2 processes or more, train_b0002 fails in the caller's share and
    # eval_s0001 in a worker's, while the other processes may be mid-write
    def open_filling_up(path, mode):
        f = open(path, mode)
        return _DiskFull(f, 20) if str(path).endswith(failing + ".tmp") else f

    monkeypatch.setattr(signal_io, "open", open_filling_up, raising=False)
    forks, many = counting_forks(monkeypatch), max(2, parallel.workers())
    for processes in (1, many):
        monkeypatch.setattr(parallel, "workers", lambda: processes)
        out = tmp_path / str(processes)
        with pytest.raises(OSError, match="No space left"):
            generate_corpus(SMALL, out)
        written = sorted(p.name for p in out.rglob("*") if p.is_file())
        assert failing not in written
        assert not [name for name in written if name.endswith(".tmp")]
        # everything written before the failure is whole
        for path in (out / "wav").iterdir():
            assert read_wav(path).samples.size == 400
        protocols = sorted(out.glob("*_protocol.tsv"))
        for path in protocols:
            assert len(read_protocol(path)) == 5
        if failing.endswith(".wav"):  # no protocol names a WAV before every WAV is written
            assert protocols == []
        if processes == 1:
            assert len(written) == WRITTEN_BEFORE[failing]
    assert len(forks) == min(many, 7) - 1  # SMALL has 7 pairs
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_generate_corpus_removes_the_temp_file_of_a_killed_worker(tmp_path, monkeypatch):
    # the caller's share fails while the worker holds dev_b0000.wav.tmp open;
    # killing the worker leaves that temp file, and generate_corpus removes it
    parent, held = os.getpid(), tmp_path / "wav" / "dev_b0000.wav.tmp"

    def open_stalling(path, mode):
        f = open(path, mode)
        if os.getpid() != parent and Path(path) == held:
            time.sleep(60)  # killed long before
        if str(path).endswith("train_b0002.wav.tmp"):
            deadline = time.monotonic() + 30
            while not held.exists() and time.monotonic() < deadline:
                time.sleep(0.01)
            assert held.exists()
            return _DiskFull(f, 20)
        return f

    monkeypatch.setattr(signal_io, "open", open_stalling, raising=False)
    monkeypatch.setattr(parallel, "workers", lambda: 2)  # shares: train pairs, dev and eval pairs
    with pytest.raises(OSError, match="No space left"):
        generate_corpus(SMALL, tmp_path)
    assert sorted(p.name for p in tmp_path.rglob("*")) == [
        "train_b0000.wav", "train_b0001.wav", "train_s0000.wav", "train_s0001.wav", "wav"
    ]
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_generate_corpus_bytes_do_not_depend_on_the_process_count(tmp_path, monkeypatch):
    forks = counting_forks(monkeypatch)
    trees = {}
    for processes in (1, 3):
        monkeypatch.setattr(parallel, "workers", lambda: processes)
        out = tmp_path / str(processes)
        generate_corpus(SMALL, out)
        assert len(forks) == min(processes, 3 + 2 + 2) - 1  # SMALL has 7 pairs
        forks.clear()
        trees[processes] = {p.relative_to(out): p.read_bytes() for p in out.rglob("*") if p.is_file()}
    assert len(trees[1]) == 5 + 3 + 4 + 3
    assert trees[1] == trees[3]


GEN_PEAKS = """
import json, sys
from pathlib import Path
from helpers import traced_peak
from multires import parallel
from multires.corpus import CorpusSpec, generate_corpus

parallel.workers = lambda: 1
root = Path(sys.argv[1])
generate_corpus(CorpusSpec(n_train=2, n_dev=2, n_eval=2), root / "warm")
print(json.dumps([
    traced_peak(lambda: generate_corpus(CorpusSpec(n_train=n, n_dev=2, n_eval=2), root / str(n)))
    for n in (8, 64)
]))
"""


def test_generate_corpus_peak_does_not_grow_with_the_split(tmp_path):
    # one pair alive at a time: 64 train utterances peak where 8 do
    peaks = fresh_run(GEN_PEAKS, str(tmp_path))
    assert abs(peaks[1] - peaks[0]) < 2 * 8000 * 8, peaks  # 2 waveforms: 1.0 s at 8 kHz, float64
