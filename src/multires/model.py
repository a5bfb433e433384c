"""Full model = resolution weighting + SE-residual backend, plus checkpoints.

The checkpoint format (magic "MRCK") stores the backend configuration, the
class count (always ``N_CLASSES`` = 2), the resolution list, and every
parameter as float64 little-endian in one fixed traversal order:

    predictor fc1_w, fc1_b, fc2_w, fc2_b,
    stem w, b,
    per block: conv1 w, b, conv2 w, b, [proj w, b,] se fc1_w, fc1_b, fc2_w, fc2_b,
    head fc w, b

`named_params` is that one traversal. The checkpoint, the optimizer, the
flat list of gradient terms that `model_backward` returns and the
diagnostic names all derive from it, so they agree on parameter order by
construction. A model of
any dtype is saved as float64, and `load_checkpoint` narrows to the dtype the
caller asks for.

One builder makes every model: it takes a tensor source ``make(shape)`` and
calls it once per tensor in `named_params` order. `fresh_weights`, the one
place the fan-in rule is written, feeds `init_model`. `load_checkpoint` feeds
it a reader of the file's next ``prod(shape)`` float64 values that fails when
the file ends first, so a load never allocates more than the file holds;
bytes left after the last tensor are rejected too.
"""

from __future__ import annotations

import math
import struct
from dataclasses import astuple, dataclass
from pathlib import Path
from typing import Callable, Optional

import numpy as np

from .backend import (
    N_CLASSES,
    BackendConfig,
    BackendParams,
    BackendCache,
    ConvParams,
    backend_backward,
    backend_forward,
    init_backend,
)
from .excitation import ExcitationParams, ExciteCache, excite_backward, excite_forward, init_excitation
from .reduction import Term
from .signal_io import atomic_write
from .stft import ResolutionSpec
from .weighting import hidden_width

MAGIC = b"MRCK"
VERSION = 1
# magic, version, the BackendConfig fields, class count, M, predictor hidden width
_HEADER = struct.Struct("<4sH7I")
_RESOLUTION = struct.Struct("<II")  # window, hop; M of them follow the header


class CheckpointFormatError(ValueError):
    """Raised when a checkpoint file does not parse as MRCK."""


@dataclass
class Model:
    resolutions: tuple[ResolutionSpec, ...]
    config: BackendConfig
    predictor: ExcitationParams
    backend: BackendParams

    @property
    def n_channels(self) -> int:
        return len(self.resolutions)


@dataclass
class ModelCache:
    excite: ExciteCache
    backend: BackendCache


TensorSource = Callable[[tuple[int, ...]], np.ndarray]


def fresh_weights(rng: np.random.Generator, dtype: np.dtype = np.float64) -> TensorSource:
    """New tensors: ndim >= 2 uniform in +-1/sqrt(prod(shape[1:])), 1-D (biases) zero."""

    def make(shape: tuple[int, ...]) -> np.ndarray:
        if len(shape) == 1:
            return np.zeros(shape, dtype=dtype)
        bound = 1.0 / np.sqrt(math.prod(shape[1:]))
        return rng.uniform(-bound, bound, size=shape).astype(dtype)

    return make


def _build_model(
    resolutions: tuple[ResolutionSpec, ...], config: BackendConfig, make: TensorSource
) -> Model:
    if not resolutions:
        raise ValueError("model needs at least one resolution")
    m = len(resolutions)
    predictor = init_excitation(m, hidden_width(m), make)
    return Model(resolutions, config, predictor, init_backend(m, config, make))


def init_model(
    resolutions: tuple[ResolutionSpec, ...],
    config: BackendConfig,
    rng: np.random.Generator,
    dtype: np.dtype = np.float64,
) -> Model:
    return _build_model(tuple(resolutions), config, fresh_weights(rng, dtype))


def model_forward(
    stacks: np.ndarray, model: Model, keep_cache: bool = True
) -> tuple[np.ndarray, Optional[ModelCache]]:
    """Aligned stacks (N, M, W, H) -> logits (N, N_CLASSES), plus the backward cache.

    A training step keeps the cache for `model_backward`. Scoring passes
    ``keep_cache=False``: the cache is None and each activation is dropped
    once the next layer has read it. Both run the same layers in the same
    order, so their logits are bitwise equal.
    """
    if stacks.ndim != 4 or stacks.shape[1] != model.n_channels:
        raise ValueError(
            f"expected stacks (N, {model.n_channels}, W, H), got shape {stacks.shape}"
        )
    weighted, ec = excite_forward(stacks, model.predictor, keep_cache)
    logits, bc = backend_forward(weighted, model.backend, keep_cache)
    return logits, ModelCache(ec, bc) if keep_cache else None


def model_backward(cache: ModelCache, d_logits: np.ndarray) -> tuple[np.ndarray, list[Term]]:
    """Logit gradients -> input-stack gradient plus gradient terms parallel to `model_params`.

    `reduction.reduce_grads([terms])` gives the batch's gradients; the terms
    of consecutive shares of a batch, in batch order, give the whole
    batch's. Consumes the cache: backward frees each activation after its
    last read, so a second call on the same cache raises ValueError.
    d_logits is only read.
    """
    d_weighted, backend_grads = backend_backward(cache.backend, d_logits)
    d_stacks, predictor_grads = excite_backward(cache.excite, d_weighted)
    return d_stacks, [arr for _, arr in named_params(predictor_grads, backend_grads)]


def _conv(prefix: str, conv: ConvParams) -> list[tuple[str, np.ndarray]]:
    return [(f"{prefix}.w", conv.weight), (f"{prefix}.b", conv.bias)]


def _excitation(prefix: str, p: ExcitationParams) -> list[tuple[str, np.ndarray]]:
    return [
        (f"{prefix}.fc1_w", p.fc1_weight),
        (f"{prefix}.fc1_b", p.fc1_bias),
        (f"{prefix}.fc2_w", p.fc2_weight),
        (f"{prefix}.fc2_b", p.fc2_bias),
    ]


def named_params(
    predictor: ExcitationParams, backend: BackendParams
) -> list[tuple[str, np.ndarray]]:
    """(name, live tensor) for every parameter, in checkpoint traversal order."""
    out = _excitation("predictor", predictor) + _conv("stem", backend.stem)
    for i, blk in enumerate(backend.blocks):
        out += _conv(f"block{i}.conv1", blk.conv1) + _conv(f"block{i}.conv2", blk.conv2)
        if blk.proj is not None:
            out += _conv(f"block{i}.proj", blk.proj)
        out += _excitation(f"block{i}.se", blk.se)
    return out + [("head.w", backend.fc_weight), ("head.b", backend.fc_bias)]


def model_params(model: Model) -> list[np.ndarray]:
    """Live parameter tensors in checkpoint traversal order."""
    return [arr for _, arr in named_params(model.predictor, model.backend)]


def save_checkpoint(model: Model, path: str | Path) -> None:
    header = (MAGIC, VERSION, *astuple(model.config), N_CLASSES, model.n_channels, model.predictor.hidden)
    parts = [_HEADER.pack(*header)]
    parts += [_RESOLUTION.pack(res.window_len, res.hop_len) for res in model.resolutions]
    parts += [np.ascontiguousarray(arr, dtype="<f8").tobytes() for arr in model_params(model)]
    with atomic_write(path) as f:
        f.write(b"".join(parts))


def load_checkpoint(path: str | Path, dtype: np.dtype = np.float64) -> Model:
    """Model at ``dtype`` holding the file's float64 parameters, rounded to ``dtype``."""
    buf = Path(path).read_bytes()
    if buf[:4] != MAGIC:
        raise CheckpointFormatError(f"{path}: not a checkpoint (bad magic)")
    if len(buf) < _HEADER.size:
        raise CheckpointFormatError(f"{path}: truncated header ({len(buf)} of {_HEADER.size} bytes)")
    _, version, *config_fields, classes, m, hidden = _HEADER.unpack_from(buf)
    if version != VERSION:
        raise CheckpointFormatError(f"{path}: unsupported checkpoint version {version}")
    if classes != N_CLASSES:
        raise CheckpointFormatError(f"{path}: header has {classes} classes, expected {N_CLASSES}")
    if hidden != hidden_width(m):
        raise CheckpointFormatError(
            f"{path}: predictor hidden width {hidden} does not match {hidden_width(m)} for M={m}"
        )
    off = _HEADER.size
    rest = memoryview(buf)[off + m * _RESOLUTION.size :]

    def read(shape: tuple[int, ...]) -> np.ndarray:
        nonlocal rest
        size = 8 * math.prod(shape)
        if size > len(rest):
            raise CheckpointFormatError(f"{path}: file ends inside the float64 parameters")
        arr = np.frombuffer(rest[:size], dtype="<f8").reshape(shape).astype(dtype)
        rest = rest[size:]
        return arr

    try:
        resolutions = []
        for _ in range(m):
            resolutions.append(ResolutionSpec(*_RESOLUTION.unpack_from(buf, off)))
            off += _RESOLUTION.size
        model = _build_model(tuple(resolutions), BackendConfig(*config_fields), read)
    except CheckpointFormatError:
        raise
    except (struct.error, ValueError) as exc:
        raise CheckpointFormatError(f"{path}: bad header ({exc})") from exc
    if len(rest):
        raise CheckpointFormatError(f"{path}: {len(rest)} bytes after the float64 parameters")
    return model
