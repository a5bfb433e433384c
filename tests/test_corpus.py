import errno

import numpy as np
import pytest

from multires import signal_io
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


@pytest.mark.parametrize("failing", ["train_b0002.wav", "dev_protocol.tsv"])
def test_generate_corpus_write_failing_midway_leaves_nothing_partial(tmp_path, monkeypatch, failing):
    def open_filling_up(path, mode):
        f = open(path, mode)
        return _DiskFull(f, 20) if str(path).endswith(failing + ".tmp") else f

    monkeypatch.setattr(signal_io, "open", open_filling_up, raising=False)
    with pytest.raises(OSError, match="No space left"):
        generate_corpus(SMALL, tmp_path)
    written = sorted(p.name for p in tmp_path.rglob("*") if p.is_file())
    assert failing not in written
    assert not [name for name in written if name.endswith(".tmp")]
    # everything written before the failure is whole
    for path in (tmp_path / "wav").iterdir():
        assert read_wav(path).samples.size == 400
    for path in tmp_path.glob("*_protocol.tsv"):
        assert len(read_protocol(path)) == 5
    assert len(written) == (2 if failing.endswith(".wav") else 5 + 1 + 3)
