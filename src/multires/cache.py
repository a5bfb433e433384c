"""Binary on-disk cache of aligned feature stacks for a whole data split.

Extraction is a pure forward computation (nothing upstream of the weight
predictor is trainable), so stacks are computed once per split and reused
across training epochs.  The format is self-describing: the header carries
the resolution list and aligned dimensions so compatibility with a config or
checkpoint is checked structurally, not by filename.

Layout (version 2), all integers little-endian:

    magic "MRFE" | version u16 | M u16
    M x (window u32, hop u32)
    W u32 | H u32 | N u32 | table_bytes u64
    table: N x (id_len u16, id UTF-8 bytes, label u8), table_bytes in all
    payload: N x M x W x H float32, row-major, utterance n at
             payload_offset + n * (4 * M * W * H)

The header alone fixes the file size, so `read_cache` checks it against the
file before it reads the table, and reads no payload at all.  A split's rows
come from one `CacheRows`, which builds each utterance when it is indexed:
`read_cache` reads it from the file, and `pipeline.extract_split` extracts it
from the utterance's WAV.  `write_cache` sizes the file from the header and
hands the rows to `parallel.run_shares`: each process (one per CPU) builds
its contiguous share of rows one at a time and writes each at its own
offset, so no process holds the split.  `map_chunks` is the one
forward-only pass over a split, `SCORE_BATCH` rows at a time on every CPU,
behind both scoring and the mean gate weights.  Version 1 interleaved the
ids with the payload and can no longer be read.
"""

from __future__ import annotations

import functools
import os
import struct
import weakref
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from .parallel import run_shares
from .signal_io import atomic_write
from .stft import ResolutionSpec

MAGIC = b"MRFE"
VERSION = 2
_PREFIX = struct.Struct("<4sHH")
_DIMS = struct.Struct("<IIIQ")  # W, H, N, table_bytes
_ROW_DTYPE = np.dtype("<f4")
# Rows per read of a forward-only pass over a split (scoring, mean gate
# weights): memory only, as neither result depends on it. Not 1: one-row
# forwards ran about 6% slower on the toy shape.
SCORE_BATCH = 2


class CacheFormatError(ValueError):
    """Raised when a cache file does not parse as MRFE."""


class CacheRows:
    """A split's (N, M, W, H) float32 rows, built one utterance at a time.

    ``rows[a:b]`` and ``rows[index_array]`` (a step-1 slice or a 1-D array of
    non-negative integers) each return a fresh ndarray holding only those
    utterances, in that order: ``fill(out, n)`` writes utterance n's
    (M, W, H) block into ``out``, once per requested row.
    """

    def __init__(self, shape: tuple[int, int, int, int], fill: Callable[[np.ndarray, int], None]):
        self.shape = shape
        self.dtype = _ROW_DTYPE
        self._fill = fill

    def __getitem__(self, key) -> np.ndarray:
        n = self.shape[0]
        if isinstance(key, slice) and key.step in (None, 1):
            rows = range(*key.indices(n))
        elif isinstance(key, np.ndarray) and key.ndim == 1 and key.dtype.kind in "iu":
            if key.size and (key.min() < 0 or key.max() >= n):
                raise IndexError(f"row index out of range for {n} utterances")
            rows = key.tolist()
        else:
            raise IndexError(f"cache rows take a step-1 slice or a 1-D integer array, not {key!r}")
        out = np.empty((len(rows),) + self.shape[1:], dtype=self.dtype)
        for j, row in enumerate(rows):
            self._fill(out[j], row)
        return out


@dataclass
class FeatureCache:
    """Aligned stacks for one split: stacks[n] is utterance n's (M, W, H) block.

    `stacks` is the `CacheRows` of a split being extracted or of a cache
    file opened by `read_cache`, so a reader indexes it with a slice or an
    index array and gets just those rows.
    """

    resolutions: tuple[ResolutionSpec, ...]
    stacks: CacheRows
    ids: tuple[str, ...]
    labels: np.ndarray

    def __post_init__(self) -> None:
        self.resolutions = tuple(self.resolutions)
        self.ids = tuple(self.ids)
        if not isinstance(self.stacks, CacheRows):
            raise TypeError(f"stacks must be CacheRows, not {type(self.stacks).__name__}")
        self.labels = np.asarray(self.labels, dtype=np.uint8)
        if not self.resolutions:
            raise ValueError("cache needs at least one resolution")
        if len(self.stacks.shape) != 4:
            raise ValueError(f"stacks must be (N, M, W, H), got shape {self.stacks.shape}")
        n, m = self.stacks.shape[:2]
        if m != len(self.resolutions):
            raise ValueError(f"stacks have {m} channels but {len(self.resolutions)} resolutions listed")
        if len(self.ids) != n or self.labels.shape != (n,):
            raise ValueError("ids, labels, and stacks disagree on utterance count")
        if len(set(self.ids)) != n:
            raise ValueError("duplicate utterance ids in cache")
        if not np.all((self.labels == 0) | (self.labels == 1)):
            raise ValueError("labels must be 0 (spoof) or 1 (bonafide)")

    @property
    def n_utterances(self) -> int:
        return self.stacks.shape[0]


def map_chunks(cache: FeatureCache, fn: Callable[[np.ndarray], np.ndarray]) -> np.ndarray:
    """fn(rows) for each `SCORE_BATCH`-row chunk of `cache.stacks`, joined in row order.

    `parallel.run_shares` shares the chunks out, one contiguous share per
    CPU, and each process maps its chunks one at a time, so it holds one
    chunk's rows and what `fn` builds from them. A result that depends only
    on its rows is bitwise the same at any process count, and a failing row
    raises its error as it would serially. An empty split gives an empty
    float64 array.
    """
    def map_share(first: int, last: int) -> list[np.ndarray]:
        return [fn(cache.stacks[i * SCORE_BATCH : (i + 1) * SCORE_BATCH]) for i in range(first, last)]

    shares = run_shares(-(-cache.n_utterances // SCORE_BATCH), map_share)
    return np.concatenate([part for share in shares for part in share]) if cache.n_utterances else np.empty(0)


def _pwrite_row(fd: int, row: np.ndarray, offset: int) -> None:
    view = memoryview(row.reshape(-1).view(np.uint8))
    done = 0
    while done < len(view):
        done += os.pwrite(fd, view[done:], offset + done)


def write_cache(cache: FeatureCache, path: str | Path) -> None:
    """Write the cache to `path` through `atomic_write`, its rows on every CPU.

    The header and table are written and the file is sized to hold the
    payload. `parallel.run_shares` then cuts the rows into one contiguous
    share per CPU: each process reads its rows from `stacks` one at a time
    (and so, for a split being extracted, computes them) and ``os.pwrite``s
    each at its own offset, so no process holds a copy of the split and the
    bytes do not depend on the number of processes. A failing row raises
    its error as it would serially; the temp file is then removed and any
    earlier file at `path` is left as it was.
    """
    n, m, w, h = cache.stacks.shape
    row_bytes = _ROW_DTYPE.itemsize * m * w * h
    table = bytearray()
    for utt_id, label in zip(cache.ids, cache.labels):
        raw_id = utt_id.encode("utf-8")
        if len(raw_id) > 0xFFFF:
            raise ValueError(f"utterance id too long: {utt_id!r}")
        table += struct.pack("<H", len(raw_id)) + raw_id + struct.pack("<B", int(label))
    with atomic_write(path) as f:
        f.write(_PREFIX.pack(MAGIC, VERSION, m))
        for res in cache.resolutions:
            f.write(struct.pack("<II", res.window_len, res.hop_len))
        f.write(_DIMS.pack(w, h, n, len(table)))
        f.write(table)
        f.flush()
        fd, offset = f.fileno(), f.tell()
        os.ftruncate(fd, offset + n * row_bytes)

        def write_rows(start: int, stop: int) -> None:
            for i in range(start, stop):
                _pwrite_row(fd, cache.stacks[i : i + 1], offset + i * row_bytes)

        run_shares(n, write_rows)


def _pread_exact(fd: int, size: int, offset: int, what: str) -> bytes:
    raw = os.pread(fd, size, offset)
    if len(raw) != size:
        raise ValueError(f"file ends inside {what}")
    return raw


def _parse_table(raw: bytes, n: int) -> tuple[tuple[str, ...], np.ndarray]:
    ids = []
    labels = np.empty(n, dtype=np.uint8)
    pos = 0
    for i in range(n):
        (id_len,) = struct.unpack_from("<H", raw, pos)
        end = pos + 2 + id_len
        if end >= len(raw):
            raise ValueError(f"table ends inside utterance {i}'s id or label")
        ids.append(raw[pos + 2 : end].decode("utf-8"))
        labels[i] = raw[end]
        pos = end + 1
    if pos != len(raw):
        raise ValueError(f"{len(raw) - pos} table bytes after {n} entries")
    return tuple(ids), labels


def _read_header(fd: int, path: str | Path):
    """Resolutions, (N, M, W, H), payload offset, ids and labels, checked against the file size."""
    size = os.fstat(fd).st_size
    head = os.pread(fd, _PREFIX.size, 0)
    if len(head) < _PREFIX.size or head[:4] != MAGIC:
        raise CacheFormatError(f"{path}: not a feature cache (bad magic)")
    _, version, m = _PREFIX.unpack(head)
    if version == 1:
        raise CacheFormatError(
            f"{path}: cache version 1 is no longer readable (this build reads version {VERSION}); "
            "rerun 'extract' to rebuild it"
        )
    if version != VERSION:
        raise CacheFormatError(f"{path}: unsupported cache version {version}")
    try:
        raw = _pread_exact(fd, 8 * m + _DIMS.size, _PREFIX.size, "the header")
        resolutions = tuple(
            ResolutionSpec(*struct.unpack_from("<II", raw, 8 * i)) for i in range(m)
        )
        w, h, n, table_bytes = _DIMS.unpack_from(raw, 8 * m)
        row_bytes = _ROW_DTYPE.itemsize * m * w * h
        offset = _PREFIX.size + len(raw) + table_bytes
        if 3 * n > table_bytes:
            raise ValueError(f"a {table_bytes}-byte table cannot hold {n} utterances")
        extra = size - (offset + n * row_bytes)
        if extra < 0:
            raise ValueError(f"{size} bytes cannot hold {n} utterances of {row_bytes} feature bytes")
        if extra > 0:
            raise ValueError(f"{extra} trailing bytes after the payload")
        ids, labels = _parse_table(_pread_exact(fd, table_bytes, offset - table_bytes, "the table"), n)
    except (struct.error, ValueError) as exc:
        raise CacheFormatError(f"{path}: truncated or corrupt cache ({exc})") from exc
    return resolutions, (n, m, w, h), offset, ids, labels


def _pread_row(fd: int, path: str | Path, offset: int, out: np.ndarray, row: int) -> None:
    view = memoryview(out.reshape(-1).view(np.uint8))
    offset += row * len(view)
    done = 0
    while done < len(view):
        got = os.preadv(fd, [view[done:]], offset + done)
        if got == 0:
            raise CacheFormatError(f"{path}: file ends inside utterance {row}'s features")
        done += got


def read_cache(path: str | Path) -> FeatureCache:
    """Open a cache: check its header, table and size, and read no payload.

    The returned cache's `stacks` is a `CacheRows` that reads rows from the
    file with ``os.preadv`` straight into the result, so no page of the file
    stays mapped into the process. It keeps the file open until it is
    garbage collected.
    """
    fd = os.open(path, os.O_RDONLY)
    try:
        resolutions, shape, offset, ids, labels = _read_header(fd, path)
        rows = CacheRows(shape, functools.partial(_pread_row, fd, path, offset))
        try:
            cache = FeatureCache(resolutions, rows, ids, labels)
        except ValueError as exc:
            raise CacheFormatError(f"{path}: truncated or corrupt cache ({exc})") from exc
    except BaseException:
        os.close(fd)
        raise
    weakref.finalize(rows, os.close, fd)
    return cache
