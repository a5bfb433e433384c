"""Full model = resolution weighting + SE-residual backend, plus checkpoints.

The checkpoint format (magic "MRCK") stores the backend configuration, the
class count (always ``N_CLASSES`` = 2), the resolution list, and every
parameter as float64 little-endian in one fixed traversal order:

    predictor fc1_w, fc1_b, fc2_w, fc2_b,
    stem w, b,
    per block: conv1 w, b, conv2 w, b, [proj w, b,] se fc1_w, fc1_b, fc2_w, fc2_b,
    head fc w, b

`named_params` is that one traversal. The checkpoint, the optimizer, the
flat gradient list that `model_backward` returns and the diagnostic names all
derive from it, so they agree on parameter order by construction. A model of
any dtype is saved as float64, and `load_checkpoint` narrows to the dtype the
caller asks for.
"""

from __future__ import annotations

import struct
from dataclasses import astuple, dataclass
from pathlib import Path

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
from .excitation import ExcitationParams, ExciteCache, excite_backward, excite_forward
from .stft import ResolutionSpec
from .weighting import hidden_width, init_weight_predictor

MAGIC = b"MRCK"
VERSION = 1


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


def init_model(
    resolutions: tuple[ResolutionSpec, ...],
    config: BackendConfig,
    rng: np.random.Generator,
    dtype: np.dtype = np.float64,
) -> Model:
    resolutions = tuple(resolutions)
    if not resolutions:
        raise ValueError("model needs at least one resolution")
    predictor = init_weight_predictor(len(resolutions), rng, dtype)
    backend = init_backend(len(resolutions), config, rng, dtype)
    return Model(resolutions, config, predictor, backend)


def model_forward(stacks: np.ndarray, model: Model) -> tuple[np.ndarray, ModelCache]:
    """Aligned stacks (N, M, W, H) -> logits (N, N_CLASSES)."""
    if stacks.ndim != 4 or stacks.shape[1] != model.n_channels:
        raise ValueError(
            f"expected stacks (N, {model.n_channels}, W, H), got shape {stacks.shape}"
        )
    weighted, ec = excite_forward(stacks, model.predictor)
    logits, bc = backend_forward(weighted, model.backend)
    return logits, ModelCache(ec, bc)


def model_backward(cache: ModelCache, d_logits: np.ndarray) -> tuple[np.ndarray, list[np.ndarray]]:
    """Logit gradients -> input-stack gradient plus gradients parallel to `model_params`."""
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
    parts = [MAGIC, struct.pack("<H", VERSION)]
    parts.append(struct.pack("<IIIII", *astuple(model.config), N_CLASSES))
    parts.append(struct.pack("<II", model.n_channels, model.predictor.hidden))
    for res in model.resolutions:
        parts.append(struct.pack("<II", res.window_len, res.hop_len))
    for arr in model_params(model):
        parts.append(np.ascontiguousarray(arr, dtype="<f8").tobytes())
    Path(path).write_bytes(b"".join(parts))


def load_checkpoint(path: str | Path, dtype: np.dtype = np.float64) -> Model:
    """Model at ``dtype`` holding the file's float64 parameters, rounded to ``dtype``."""
    buf = Path(path).read_bytes()
    if len(buf) < 6 or buf[:4] != MAGIC:
        raise CheckpointFormatError(f"{path}: not a checkpoint (bad magic)")
    (version,) = struct.unpack_from("<H", buf, 4)
    if version != VERSION:
        raise CheckpointFormatError(f"{path}: unsupported checkpoint version {version}")
    off = 6
    try:
        *config_fields, classes = struct.unpack_from("<IIIII", buf, off)
        off += 20
        m, hidden = struct.unpack_from("<II", buf, off)
        off += 8
        resolutions = []
        for _ in range(m):
            window, hop = struct.unpack_from("<II", buf, off)
            off += 8
            resolutions.append(ResolutionSpec(window, hop))
        config = BackendConfig(*config_fields)
    except (struct.error, ValueError) as exc:
        raise CheckpointFormatError(f"{path}: bad header ({exc})") from exc
    if classes != N_CLASSES:
        raise CheckpointFormatError(f"{path}: header has {classes} classes, expected {N_CLASSES}")
    if hidden != hidden_width(m):
        raise CheckpointFormatError(
            f"{path}: predictor hidden width {hidden} does not match {hidden_width(m)} for M={m}"
        )
    model = init_model(tuple(resolutions), config, np.random.default_rng(0), dtype)  # overwritten below
    want = sum(arr.size for arr in model_params(model))
    have = (len(buf) - off) // 8
    if len(buf) - off != want * 8:
        raise CheckpointFormatError(f"{path}: expected {want} float64 parameters, found {have}")
    for arr in model_params(model):
        flat = np.frombuffer(buf, dtype="<f8", count=arr.size, offset=off)
        arr[...] = flat.reshape(arr.shape)
        off += 8 * arr.size
    return model
