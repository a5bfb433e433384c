import gc
import os
import struct

import numpy as np
import pytest

from multires.cache import MAGIC, VERSION, CacheFormatError, FeatureCache, read_cache, write_cache
from multires.stft import ResolutionSpec

from helpers import array_rows, fresh_run, traced_peak

RES = (ResolutionSpec(128, 32), ResolutionSpec(256, 64))


def _cache(n=3, w=4, h=5, seed=0):
    rng = np.random.default_rng(seed)
    stacks = rng.standard_normal((n, len(RES), w, h)).astype(np.float32)
    ids = tuple(f"train_b{i:04d}" for i in range(n))
    labels = (np.arange(n) % 2).astype(np.uint8)
    return FeatureCache(RES, array_rows(stacks), ids, labels)


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
        back.stacks[:].view(np.uint32), cache.stacks[:].view(np.uint32)
    )


def test_header_layout(tmp_path):
    cache = _cache(n=2, w=2, h=3)
    path = tmp_path / "c.mrfe"
    write_cache(cache, path)
    buf = path.read_bytes()
    assert buf[:4] == MAGIC
    version, m = struct.unpack_from("<HH", buf, 4)
    assert (version, m) == (VERSION, 2) == (2, 2)
    assert struct.unpack_from("<II", buf, 8) == (128, 32)
    assert struct.unpack_from("<II", buf, 16) == (256, 64)
    entry = 2 + len("train_b0000") + 1
    assert struct.unpack_from("<IIIQ", buf, 24) == (2, 3, 2, 2 * entry)
    # the id/label table, then one contiguous (N, M, W, H) float32 payload
    table = buf[44 : 44 + 2 * entry]
    assert table == b"".join(
        struct.pack("<H", 11) + uid.encode() + bytes([lab]) for uid, lab in zip(cache.ids, cache.labels)
    )
    assert buf[44 + 2 * entry :] == cache.stacks[:].astype("<f4").tobytes()


def test_version_1_cache_names_version_and_extract(tmp_path):
    path = tmp_path / "old.mrfe"
    v1 = MAGIC + struct.pack("<HH", 1, 1) + struct.pack("<II", 128, 32) + struct.pack("<III", 1, 1, 1)
    path.write_bytes(v1 + struct.pack("<H", 1) + b"a" + b"\x01" + bytes(4))
    with pytest.raises(CacheFormatError, match=r"version 1 .*rerun 'extract'"):
        read_cache(path)


def test_empty_split_round_trips(tmp_path):
    cache = FeatureCache(RES, array_rows(np.zeros((0, 2, 4, 4))), (), np.zeros(0, dtype=np.uint8))
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
        header = 8 + 8 * len(RES) + 20
        for cut in range(header, len(whole)):
            path.write_bytes(whole[:cut])
            with pytest.raises(CacheFormatError, match="truncated|trailing"):
                read_cache(path)


def test_corrupt_label_rejected(tmp_path):
    cache = _cache(n=1, w=1, h=1)
    path = tmp_path / "l.mrfe"
    write_cache(cache, path)
    buf = bytearray(path.read_bytes())
    label_at = 8 + 8 * len(RES) + 20 + 2 + len(cache.ids[0])
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
        FeatureCache(RES, array_rows(np.zeros((2, 2, 3, 3))), ("a", "a"), np.zeros(2, dtype=np.uint8))


def test_validation_bad_label():
    with pytest.raises(ValueError, match="labels"):
        FeatureCache(RES, array_rows(np.zeros((1, 2, 3, 3))), ("a",), np.array([5], dtype=np.uint8))


def test_validation_channel_mismatch():
    with pytest.raises(ValueError, match="channels"):
        FeatureCache(RES, array_rows(np.zeros((1, 3, 3, 3))), ("a",), np.zeros(1, dtype=np.uint8))


def test_validation_bare_array_rejected():
    # every split's rows are a CacheRows, read a slice or an index array at a time
    with pytest.raises(TypeError, match="CacheRows"):
        FeatureCache(RES, np.zeros((1, 2, 3, 3), dtype=np.float32), ("a",), np.zeros(1, dtype=np.uint8))


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
    # checked before the table is read, so a corrupt count cannot exhaust memory
    path = tmp_path / "n.mrfe"
    write_cache(_cache(n=1), path)
    buf = bytearray(path.read_bytes())
    struct.pack_into("<I", buf, 8 + 8 * len(RES) + 8, 0xFFFFFFFF)
    path.write_bytes(bytes(buf))
    errors = []

    def open_corrupt():
        try:
            read_cache(path)
        except CacheFormatError as exc:
            errors.append(str(exc))

    assert traced_peak(open_corrupt) < 16 * 1024
    assert len(errors) == 1 and "cannot hold 4294967295 utterances" in errors[0]


def test_rows_read_bitwise_equal_to_stacks(tmp_path):
    cache = _cache(n=7, w=3, h=4, seed=5)
    path = tmp_path / "rows.mrfe"
    write_cache(cache, path)
    rows = read_cache(path).stacks
    assert rows.shape == cache.stacks.shape
    perm = np.random.default_rng(1).permutation(7)
    keys = [perm, perm[:3], np.array([6, 6, 0]), np.array([], dtype=np.int64),
            slice(None), slice(2, 5), slice(5, 5), slice(6, 99), slice(1, 2)]
    for key in keys:
        got = rows[key]
        want = cache.stacks[key]
        assert got.dtype == np.float32 and got.shape == want.shape, key
        assert got.tobytes() == want.tobytes(), key
        got[...] = 0  # a fresh array: the next read is unaffected
    assert rows[perm].tobytes() == cache.stacks[perm].tobytes()
    for bad in (7, -8, np.array([0, 7]), np.array([0.5]), (0, 1),
                4, -1, np.int64(4), slice(None, None, 3)):
        with pytest.raises(IndexError):
            rows[bad]

    empty = FeatureCache(RES, array_rows(np.zeros((0, 2, 3, 4))), (), np.zeros(0, dtype=np.uint8))
    write_cache(empty, path)
    rows = read_cache(path).stacks
    assert rows[:].shape == rows[np.array([], dtype=np.int64)].shape == (0, 2, 3, 4)


# Measured in a fresh interpreter (see `helpers.traced_peak`).
READ_PEAKS = """
import json
import sys
from helpers import traced_peak
from multires.cache import read_cache
read_cache(sys.argv[1])  # fills one-time lazy state
print(json.dumps([traced_peak(lambda: read_cache(path)) for path in sys.argv[1:]]))
"""


def test_read_cache_peak_does_not_grow_with_utterances(tmp_path):
    # opening reads the header and the id table, never the payload
    row_bytes = 4 * len(RES) * 64 * 65
    paths = {n: tmp_path / f"{n}.mrfe" for n in (4, 64)}
    for n, path in paths.items():
        write_cache(_cache(n=n, w=64, h=65), path)
    peaks = dict(zip(paths, fresh_run(READ_PEAKS, *map(str, paths.values()))))
    assert peaks[64] < row_bytes, peaks
    # only the id table grows: a few hundred bytes per utterance at most
    assert peaks[64] - peaks[4] < 60 * 256, peaks


def test_descriptor_closed_when_cache_dropped(tmp_path):
    path = tmp_path / "fd.mrfe"
    write_cache(_cache(), path)
    gc.collect()
    before = len(os.listdir("/proc/self/fd"))
    cache = read_cache(path)
    assert len(os.listdir("/proc/self/fd")) == before + 1
    cache.stacks[:2]
    del cache
    gc.collect()
    assert len(os.listdir("/proc/self/fd")) == before
    # a rejected file is closed too
    path.write_bytes(path.read_bytes() + b"\x00")
    with pytest.raises(CacheFormatError):
        read_cache(path)
    assert len(os.listdir("/proc/self/fd")) == before
