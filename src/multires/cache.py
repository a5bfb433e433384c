"""Binary on-disk cache of aligned feature stacks for a whole data split.

Extraction is a pure forward computation (nothing upstream of the weight
predictor is trainable), so stacks are computed once per split and reused
across training epochs.  The format is self-describing: the header carries
the resolution list and aligned dimensions so compatibility with a config or
checkpoint is checked structurally, not by filename.

Layout, all integers little-endian:

    magic "MRFE" | version u16 | M u16
    M x (window u32, hop u32)
    W u32 | H u32 | N u32
    N x (id_len u16, id UTF-8 bytes, label u8, M*W*H float32)
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import BinaryIO

import numpy as np

from .signal_io import atomic_write
from .stft import ResolutionSpec

MAGIC = b"MRFE"
VERSION = 1


class CacheFormatError(ValueError):
    """Raised when a cache file does not parse as MRFE."""


@dataclass
class FeatureCache:
    """Aligned stacks for one split: stacks[n] is utterance n's (M, W, H) block."""

    resolutions: tuple[ResolutionSpec, ...]
    stacks: np.ndarray
    ids: tuple[str, ...]
    labels: np.ndarray

    def __post_init__(self) -> None:
        self.resolutions = tuple(self.resolutions)
        self.ids = tuple(self.ids)
        self.stacks = np.asarray(self.stacks, dtype=np.float32)
        self.labels = np.asarray(self.labels, dtype=np.uint8)
        if not self.resolutions:
            raise ValueError("cache needs at least one resolution")
        if self.stacks.ndim != 4:
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


def write_cache(cache: FeatureCache, path: str | Path) -> None:
    """Stream the cache to `path` through `atomic_write`.

    Each utterance's bytes go straight from `stacks` to the file, so no copy
    of the split is held. A failure part-way removes the temp file and
    leaves any earlier file at `path` as it was.
    """
    n, m, w, h = cache.stacks.shape
    payload = np.ascontiguousarray(cache.stacks, dtype="<f4")
    with atomic_write(path) as f:
        f.write(MAGIC + struct.pack("<HH", VERSION, m))
        for res in cache.resolutions:
            f.write(struct.pack("<II", res.window_len, res.hop_len))
        f.write(struct.pack("<III", w, h, n))
        for i in range(n):
            raw_id = cache.ids[i].encode("utf-8")
            if len(raw_id) > 0xFFFF:
                raise ValueError(f"utterance id too long: {cache.ids[i]!r}")
            f.write(struct.pack("<H", len(raw_id)) + raw_id + struct.pack("<B", int(cache.labels[i])))
            f.write(payload[i])


def _read_exact(f: BinaryIO, size: int, what: str) -> bytes:
    raw = f.read(size)
    if len(raw) != size:
        raise ValueError(f"file ends inside {what}")
    return raw


def read_cache(path: str | Path) -> FeatureCache:
    """Parse a cache, reading each utterance's block straight into `stacks`."""
    with open(path, "rb") as f:
        size = os.fstat(f.fileno()).st_size
        head = f.read(8)
        if len(head) < 8 or head[:4] != MAGIC:
            raise CacheFormatError(f"{path}: not a feature cache (bad magic)")
        version, m = struct.unpack_from("<HH", head, 4)
        if version != VERSION:
            raise CacheFormatError(f"{path}: unsupported cache version {version}")
        try:
            resolutions = []
            for _ in range(m):
                window, hop = struct.unpack("<II", _read_exact(f, 8, "the resolution table"))
                resolutions.append(ResolutionSpec(window, hop))
            w, h, n = struct.unpack("<III", _read_exact(f, 12, "the dimensions"))
            block = 4 * m * w * h
            if n * (3 + block) > size - f.tell():
                raise ValueError(f"{size} bytes cannot hold {n} utterances of {block} feature bytes")
            stacks = np.empty((n, m, w, h), dtype="<f4")
            ids = []
            labels = np.empty(n, dtype=np.uint8)
            for i in range(n):
                (id_len,) = struct.unpack("<H", _read_exact(f, 2, f"utterance {i}'s id length"))
                raw = _read_exact(f, id_len + 1, f"utterance {i}'s id or label")
                ids.append(raw[:id_len].decode("utf-8"))
                labels[i] = raw[id_len]
                if f.readinto(stacks[i]) != block:
                    raise ValueError(f"file ends inside utterance {i}'s features")
            cache = FeatureCache(tuple(resolutions), stacks, tuple(ids), labels)
        except (struct.error, ValueError) as exc:
            raise CacheFormatError(f"{path}: truncated or corrupt cache ({exc})") from exc
        trailing = size - f.tell()
    if trailing:
        raise CacheFormatError(f"{path}: {trailing} trailing bytes after payload")
    return cache
