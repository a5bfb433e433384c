import struct

import numpy as np
import pytest

from multires.cache import MAGIC, VERSION, CacheFormatError, FeatureCache, read_cache, write_cache
from multires.stft import ResolutionSpec

RES = (ResolutionSpec(128, 32), ResolutionSpec(256, 64))


def _cache(n=3, w=4, h=5, seed=0):
    rng = np.random.default_rng(seed)
    stacks = rng.standard_normal((n, len(RES), w, h)).astype(np.float32)
    ids = tuple(f"train_b{i:04d}" for i in range(n))
    labels = (np.arange(n) % 2).astype(np.uint8)
    return FeatureCache(RES, stacks, ids, labels)


def test_round_trip_bitwise(tmp_path):
    cache = _cache()
    path = tmp_path / "train.mrfe"
    write_cache(cache, path)
    back = read_cache(path)
    assert back.resolutions == cache.resolutions
    assert back.ids == cache.ids
    np.testing.assert_array_equal(back.labels, cache.labels)
    assert back.stacks.dtype == np.float32
    np.testing.assert_array_equal(
        back.stacks.view(np.uint32), cache.stacks.view(np.uint32)
    )


def test_header_layout(tmp_path):
    cache = _cache(n=1, w=2, h=3)
    path = tmp_path / "c.mrfe"
    write_cache(cache, path)
    buf = path.read_bytes()
    assert buf[:4] == MAGIC
    version, m = struct.unpack_from("<HH", buf, 4)
    assert (version, m) == (VERSION, 2)
    assert struct.unpack_from("<II", buf, 8) == (128, 32)
    assert struct.unpack_from("<II", buf, 16) == (256, 64)
    assert struct.unpack_from("<III", buf, 24) == (2, 3, 1)
    # file size is fully determined by the header
    assert len(buf) == 36 + (2 + len("train_b0000") + 1 + 2 * 2 * 3 * 4)


def test_empty_split_round_trips(tmp_path):
    cache = FeatureCache(RES, np.zeros((0, 2, 4, 4), dtype=np.float32), (), np.zeros(0, dtype=np.uint8))
    path = tmp_path / "empty.mrfe"
    write_cache(cache, path)
    back = read_cache(path)
    assert back.n_utterances == 0
    assert back.stacks.shape[2:] == (4, 4)


def test_bad_magic_rejected(tmp_path):
    path = tmp_path / "x.mrfe"
    path.write_bytes(b"NOPE" + bytes(20))
    with pytest.raises(CacheFormatError, match="magic"):
        read_cache(path)


def test_unsupported_version_rejected(tmp_path):
    cache = _cache(n=1)
    path = tmp_path / "v.mrfe"
    write_cache(cache, path)
    buf = bytearray(path.read_bytes())
    buf[4] = 99
    path.write_bytes(bytes(buf))
    with pytest.raises(CacheFormatError, match="version"):
        read_cache(path)


def test_truncation_rejected(tmp_path):
    # every cut after the header, including cuts inside an id or a label
    for cache in (_cache(), _cache(n=1, w=1, h=1)):
        path = tmp_path / "t.mrfe"
        write_cache(cache, path)
        whole = path.read_bytes()
        header = 8 + 8 * len(RES) + 12
        for cut in range(header, len(whole)):
            path.write_bytes(whole[:cut])
            with pytest.raises(CacheFormatError, match="truncated|trailing"):
                read_cache(path)


def test_corrupt_label_rejected(tmp_path):
    cache = _cache(n=1, w=1, h=1)
    path = tmp_path / "l.mrfe"
    write_cache(cache, path)
    buf = bytearray(path.read_bytes())
    label_at = 8 + 8 * len(RES) + 12 + 2 + len(cache.ids[0])
    assert buf[label_at] == cache.labels[0]
    buf[label_at] = 2
    path.write_bytes(bytes(buf))
    with pytest.raises(CacheFormatError, match=r"l\.mrfe: truncated or corrupt cache \(labels"):
        read_cache(path)


def test_trailing_bytes_rejected(tmp_path):
    cache = _cache()
    path = tmp_path / "tr.mrfe"
    write_cache(cache, path)
    path.write_bytes(path.read_bytes() + b"\x00\x00")
    with pytest.raises(CacheFormatError, match="trailing"):
        read_cache(path)


def test_validation_duplicate_ids():
    with pytest.raises(ValueError, match="duplicate"):
        FeatureCache(RES, np.zeros((2, 2, 3, 3), dtype=np.float32), ("a", "a"), np.zeros(2, dtype=np.uint8))


def test_validation_bad_label():
    with pytest.raises(ValueError, match="labels"):
        FeatureCache(RES, np.zeros((1, 2, 3, 3), dtype=np.float32), ("a",), np.array([5], dtype=np.uint8))


def test_validation_channel_mismatch():
    with pytest.raises(ValueError, match="channels"):
        FeatureCache(RES, np.zeros((1, 3, 3, 3), dtype=np.float32), ("a",), np.zeros(1, dtype=np.uint8))


def test_failed_write_leaves_no_file(tmp_path):
    good = _cache()
    long_last = FeatureCache(RES, good.stacks, good.ids[:-1] + ("x" * 0x10000,), good.labels)
    path = tmp_path / "w.mrfe"
    with pytest.raises(ValueError, match="too long"):
        write_cache(long_last, path)
    assert list(tmp_path.iterdir()) == []
    write_cache(good, path)
    before = path.read_bytes()
    with pytest.raises(ValueError, match="too long"):
        write_cache(long_last, path)
    assert list(tmp_path.iterdir()) == [path]
    assert path.read_bytes() == before


def test_utterance_count_beyond_file_size_rejected(tmp_path):
    # checked before the stacks are allocated, so a corrupt count cannot exhaust memory
    path = tmp_path / "n.mrfe"
    write_cache(_cache(n=1), path)
    buf = bytearray(path.read_bytes())
    struct.pack_into("<I", buf, 8 + 8 * len(RES) + 8, 0xFFFFFFFF)
    path.write_bytes(bytes(buf))
    with pytest.raises(CacheFormatError, match="cannot hold 4294967295 utterances"):
        read_cache(path)
