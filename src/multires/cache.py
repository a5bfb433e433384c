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

import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

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

    @property
    def spatial_shape(self) -> tuple[int, int]:
        return self.stacks.shape[2], self.stacks.shape[3]


def write_cache(cache: FeatureCache, path: str | Path) -> None:
    n, m, w, h = cache.stacks.shape
    parts = [MAGIC, struct.pack("<HH", VERSION, m)]
    for res in cache.resolutions:
        parts.append(struct.pack("<II", res.window_len, res.hop_len))
    parts.append(struct.pack("<III", w, h, n))
    payload = np.ascontiguousarray(cache.stacks, dtype="<f4")
    for i in range(n):
        raw_id = cache.ids[i].encode("utf-8")
        if len(raw_id) > 0xFFFF:
            raise ValueError(f"utterance id too long: {cache.ids[i]!r}")
        parts.append(struct.pack("<H", len(raw_id)))
        parts.append(raw_id)
        parts.append(struct.pack("<B", int(cache.labels[i])))
        parts.append(payload[i].tobytes())
    Path(path).write_bytes(b"".join(parts))


def read_cache(path: str | Path) -> FeatureCache:
    buf = Path(path).read_bytes()
    if len(buf) < 8 or buf[:4] != MAGIC:
        raise CacheFormatError(f"{path}: not a feature cache (bad magic)")
    version, m = struct.unpack_from("<HH", buf, 4)
    if version != VERSION:
        raise CacheFormatError(f"{path}: unsupported cache version {version}")
    off = 8
    try:
        resolutions = []
        for _ in range(m):
            window, hop = struct.unpack_from("<II", buf, off)
            off += 8
            resolutions.append(ResolutionSpec(window, hop))
        w, h, n = struct.unpack_from("<III", buf, off)
        off += 12
        block = m * w * h
        stacks = np.empty((n, m, w, h), dtype=np.float32)
        ids = []
        labels = np.empty(n, dtype=np.uint8)
        for i in range(n):
            (id_len,) = struct.unpack_from("<H", buf, off)
            off += 2
            if off + id_len + 1 > len(buf):
                raise ValueError(f"utterance {i} ends inside its id or label")
            ids.append(buf[off : off + id_len].decode("utf-8"))
            off += id_len
            labels[i] = buf[off]
            off += 1
            flat = np.frombuffer(buf, dtype="<f4", count=block, offset=off)
            stacks[i] = flat.reshape(m, w, h)
            off += 4 * block
        cache = FeatureCache(tuple(resolutions), stacks, tuple(ids), labels)
    except (struct.error, ValueError) as exc:
        raise CacheFormatError(f"{path}: truncated or corrupt cache ({exc})") from exc
    if off != len(buf):
        raise CacheFormatError(f"{path}: {len(buf) - off} trailing bytes after payload")
    return cache
