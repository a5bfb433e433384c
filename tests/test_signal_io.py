import numpy as np
import pytest

from multires.signal_io import (
    Label,
    ProtocolEntry,
    ProtocolError,
    ScoreRecord,
    Waveform,
    WavFormatError,
    format_score,
    read_protocol,
    read_scores,
    read_wav,
    unify_length,
    write_protocol,
    write_scores,
    write_wav,
)


def test_wav_round_trip_exact(tmp_path):
    # values already on the int16 grid survive a write/read cycle bit-exactly
    rng = np.random.default_rng(1)
    ints = rng.integers(-32768, 32768, size=1000)
    wave = Waveform(ints / 32768.0, 16000)
    path = tmp_path / "a.wav"
    write_wav(path, wave)
    back = read_wav(path)
    assert back.sample_rate == 16000
    np.testing.assert_array_equal(back.samples, wave.samples)


def test_wav_write_quantizes_and_clips(tmp_path):
    wave = Waveform(np.array([0.333333, 1.5, -2.0]), 8000)
    path = tmp_path / "b.wav"
    write_wav(path, wave)
    back = read_wav(path)
    assert back.samples[1] == 32767 / 32768.0
    assert back.samples[2] == -1.0
    assert abs(back.samples[0] - 0.333333) < 1 / 32768.0


def test_wav_header_fields(tmp_path):
    path = tmp_path / "c.wav"
    write_wav(path, Waveform(np.zeros(7), 8000))
    data = path.read_bytes()
    assert data[:4] == b"RIFF" and data[8:12] == b"WAVE"
    assert len(data) == 44 + 14  # 44-byte canonical header + 7 int16 samples


def test_read_wav_rejects_sample_rate_mismatch(tmp_path):
    path = tmp_path / "d.wav"
    write_wav(path, Waveform(np.zeros(10), 8000))
    with pytest.raises(WavFormatError, match="sample_rate"):
        read_wav(path, expect_sample_rate=16000)


def test_read_wav_rejects_stereo(tmp_path):
    path = tmp_path / "e.wav"
    write_wav(path, Waveform(np.zeros(10), 8000))
    data = bytearray(path.read_bytes())
    data[22] = 2  # channel count lives at offset 22
    path.write_bytes(bytes(data))
    with pytest.raises(WavFormatError, match="channels"):
        read_wav(path)


def test_read_wav_rejects_garbage(tmp_path):
    path = tmp_path / "f.wav"
    path.write_bytes(b"not a wav file at all")
    with pytest.raises(WavFormatError):
        read_wav(path)


def test_unify_length_tiles_short_input():
    wave = Waveform(np.array([0.1, 0.2, 0.3]), 10)
    out = unify_length(wave, 0.8)
    np.testing.assert_allclose(out.samples, [0.1, 0.2, 0.3, 0.1, 0.2, 0.3, 0.1, 0.2])


def test_unify_length_leading_crop():
    wave = Waveform(np.arange(10) / 10.0, 10)
    out = unify_length(wave, 0.4)
    np.testing.assert_array_equal(out.samples, np.arange(4) / 10.0)


def test_unify_length_random_crop_is_contiguous():
    wave = Waveform(np.arange(100, dtype=float), 100)
    rng = np.random.default_rng(7)
    starts = set()
    for _ in range(50):
        out = unify_length(wave, 0.2, rng)
        assert len(out) == 20
        np.testing.assert_array_equal(np.diff(out.samples), 1.0)
        starts.add(int(out.samples[0]))
    assert len(starts) > 10  # actually random, not pinned to one offset


def test_unify_length_noop_when_exact():
    wave = Waveform(np.zeros(80), 80)
    assert unify_length(wave, 1.0) is wave
    assert unify_length(wave, 1.0, np.random.default_rng(0)) is wave


def test_protocol_round_trip(tmp_path):
    entries = [
        ProtocolEntry("train_b0000", Label.BONAFIDE, "wav/train_b0000.wav"),
        ProtocolEntry("train_s0000", Label.SPOOF, "wav/train_s0000.wav"),
    ]
    path = tmp_path / "p.tsv"
    write_protocol(entries, path)
    assert read_protocol(path) == entries
    text = path.read_text()
    assert "bonafide" in text and "spoof" in text and "\t" in text


def test_protocol_rejects_duplicate_ids(tmp_path):
    path = tmp_path / "p.tsv"
    path.write_text("a\tbonafide\tx.wav\na\tspoof\ty.wav\n")
    with pytest.raises(ProtocolError, match="duplicate"):
        read_protocol(path)


def test_protocol_rejects_unknown_label(tmp_path):
    path = tmp_path / "p.tsv"
    path.write_text("a\tgenuine\tx.wav\n")
    with pytest.raises(ProtocolError, match=r"p\.tsv:1: unknown label token 'genuine'"):
        read_protocol(path)


def test_scores_reject_unknown_label(tmp_path):
    path = tmp_path / "s.txt"
    path.write_text("a\tspoof\t0.5\nb\tgenuine\t1.0\n")
    with pytest.raises(ProtocolError, match=r"s\.txt:2: unknown label token 'genuine'"):
        read_scores(path)


def test_format_score_round_trips():
    rng = np.random.default_rng(3)
    for v in rng.standard_normal(200) * 10.0**rng.integers(-8, 8, size=200):
        assert float(format_score(v)) == v


def test_format_score_min_digits():
    assert format_score(0.5) == "0.500000"
    assert format_score(1.0) == "1.000000"
    with pytest.raises(ValueError):
        format_score(float("nan"))


def test_scores_round_trip(tmp_path):
    records = [
        ScoreRecord("eval_b0000", Label.BONAFIDE, 3.25),
        ScoreRecord("eval_s0000", Label.SPOOF, -1.0625),
    ]
    path = tmp_path / "s.tsv"
    write_scores(records, path)
    assert read_scores(path) == records


def test_scores_reject_duplicate_ids(tmp_path):
    path = tmp_path / "s.tsv"
    path.write_text("a\tbonafide\t1.0\na\tspoof\t-1.0\n")
    with pytest.raises(ProtocolError, match="duplicate utt_id 'a'"):
        read_scores(path)


def test_label_values_and_tokens():
    assert int(Label.SPOOF) == 0 and int(Label.BONAFIDE) == 1
    assert Label.parse("bonafide") is Label.BONAFIDE
    assert Label.parse("spoof") is Label.SPOOF
    assert Label.BONAFIDE.token == "bonafide"
