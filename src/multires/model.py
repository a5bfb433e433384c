"""Full model = resolution weighting + SE-residual backend, plus checkpoints.

The checkpoint format (magic "MRCK") stores the backend configuration, the
resolution list, and every parameter as float64 little-endian in one fixed
traversal order:

    predictor fc1_w, fc1_b, fc2_w, fc2_b,
    stem w, b,
    per block: conv1 w, b, conv2 w, b, [proj w, b,] se fc1_w, fc1_b, fc2_w, fc2_b,
    head fc w, b

The same traversal drives the optimizer, so checkpoints, Adam state, and
gradients all agree on parameter order by construction.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .backend import (
    BackendConfig,
    BackendParams,
    BackendCache,
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


@dataclass
class ModelGrads:
    predictor: ExcitationParams
    backend: BackendParams


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
    """Aligned stacks (N, M, W, H) -> logits (N, n_classes)."""
    if stacks.ndim != 4 or stacks.shape[1] != model.n_channels:
        raise ValueError(
            f"expected stacks (N, {model.n_channels}, W, H), got shape {stacks.shape}"
        )
    weighted, ec = excite_forward(stacks, model.predictor)
    logits, bc = backend_forward(weighted, model.backend)
    return logits, ModelCache(ec, bc)


def model_backward(cache: ModelCache, d_logits: np.ndarray) -> tuple[np.ndarray, ModelGrads]:
    """Logit gradients -> input-stack gradient plus all parameter gradients."""
    d_weighted, backend_grads = backend_backward(cache.backend, d_logits)
    d_stacks, predictor_grads = excite_backward(cache.excite, d_weighted)
    return d_stacks, ModelGrads(predictor_grads, backend_grads)


def param_list(predictor: ExcitationParams, backend: BackendParams) -> list[np.ndarray]:
    """All parameter tensors in checkpoint traversal order (live references)."""
    out = [predictor.fc1_weight, predictor.fc1_bias, predictor.fc2_weight, predictor.fc2_bias]
    out += [backend.stem.weight, backend.stem.bias]
    for blk in backend.blocks:
        out += [blk.conv1.weight, blk.conv1.bias, blk.conv2.weight, blk.conv2.bias]
        if blk.proj is not None:
            out += [blk.proj.weight, blk.proj.bias]
        out += [blk.se.fc1_weight, blk.se.fc1_bias, blk.se.fc2_weight, blk.se.fc2_bias]
    out += [backend.fc_weight, backend.fc_bias]
    return out


def param_names(predictor: ExcitationParams, backend: BackendParams) -> list[str]:
    """Human-readable names parallel to :func:`param_list` (for diagnostics)."""
    names = ["predictor.fc1_w", "predictor.fc1_b", "predictor.fc2_w", "predictor.fc2_b"]
    names += ["stem.w", "stem.b"]
    for i, blk in enumerate(backend.blocks):
        p = f"block{i}"
        names += [f"{p}.conv1.w", f"{p}.conv1.b", f"{p}.conv2.w", f"{p}.conv2.b"]
        if blk.proj is not None:
            names += [f"{p}.proj.w", f"{p}.proj.b"]
        names += [f"{p}.se.fc1_w", f"{p}.se.fc1_b", f"{p}.se.fc2_w", f"{p}.se.fc2_b"]
    names += ["head.w", "head.b"]
    return names


def model_params(model: Model) -> list[np.ndarray]:
    return param_list(model.predictor, model.backend)


def grad_list(grads: ModelGrads) -> list[np.ndarray]:
    return param_list(grads.predictor, grads.backend)


def cast_model(model: Model, dtype: np.dtype) -> Model:
    """Copy of the model with every parameter converted to dtype."""
    rng = np.random.default_rng(0)  # throwaway; arrays are overwritten below
    fresh = init_model(model.resolutions, model.config, rng, dtype)
    for dst, src in zip(model_params(fresh), model_params(model)):
        dst[...] = src.astype(dtype)
    return fresh


def save_checkpoint(model: Model, path: str | Path) -> None:
    parts = [MAGIC, struct.pack("<H", VERSION)]
    cfg = model.config
    parts.append(
        struct.pack(
            "<IIIII",
            cfg.stem_channels,
            cfg.stages,
            cfg.blocks_per_stage,
            cfg.se_reduction,
            cfg.n_classes,
        )
    )
    parts.append(struct.pack("<II", model.n_channels, model.predictor.hidden))
    for res in model.resolutions:
        parts.append(struct.pack("<II", res.window_len, res.hop_len))
    for arr in model_params(model):
        parts.append(np.ascontiguousarray(arr, dtype="<f8").tobytes())
    Path(path).write_bytes(b"".join(parts))


def load_checkpoint(path: str | Path) -> Model:
    buf = Path(path).read_bytes()
    if len(buf) < 6 or buf[:4] != MAGIC:
        raise CheckpointFormatError(f"{path}: not a checkpoint (bad magic)")
    (version,) = struct.unpack_from("<H", buf, 4)
    if version != VERSION:
        raise CheckpointFormatError(f"{path}: unsupported checkpoint version {version}")
    off = 6
    try:
        stem, stages, blocks, red, classes = struct.unpack_from("<IIIII", buf, off)
        off += 20
        m, hidden = struct.unpack_from("<II", buf, off)
        off += 8
        resolutions = []
        for _ in range(m):
            window, hop = struct.unpack_from("<II", buf, off)
            off += 8
            resolutions.append(ResolutionSpec(window, hop))
        config = BackendConfig(stem, stages, blocks, red, classes)
    except (struct.error, ValueError) as exc:
        raise CheckpointFormatError(f"{path}: bad header ({exc})") from exc
    if hidden != hidden_width(m):
        raise CheckpointFormatError(
            f"{path}: predictor hidden width {hidden} does not match {hidden_width(m)} for M={m}"
        )
    model = init_model(tuple(resolutions), config, np.random.default_rng(0))
    want = sum(arr.size for arr in model_params(model))
    have = (len(buf) - off) // 8
    if len(buf) - off != want * 8:
        raise CheckpointFormatError(f"{path}: expected {want} float64 parameters, found {have}")
    for arr in model_params(model):
        flat = np.frombuffer(buf, dtype="<f8", count=arr.size, offset=off)
        arr[...] = flat.reshape(arr.shape)
        off += 8 * arr.size
    return model
