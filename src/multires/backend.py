"""Scaled-down SE-residual convolutional classifier with exact gradients.

The network is a stem conv, a configurable grid of residual blocks with
squeeze-excite recalibration, global average pooling, and a linear head.
Everything is plain numpy with hand-written reverse-mode passes; there is no
batch norm, and ReLU's derivative at exactly 0 is taken as 0.

Conventions fixed for testability: cross-correlation (no kernel flip),
"same" zero padding, output dims ceil(W / stride) for stride in {1, 2}.
Stage s >= 2 opens with a stride-2 block that doubles the channel count.

Every conv (stem, 3x3 at stride 1 and 2, 1x1 projection) is one
implicit-GEMM kernel, the unrolled-GEMM convolution of Chellapilla, Puri &
Simard (2006) without the unrolled matrix. A call pads x and lays it out
once as a channel-major buffer (C, N * W_q * H_q + tail), so kernel tap
(i, j) is a slice of it at a fixed flat offset and the conv is k * k GEMMs
summed on the padded grid, then cropped. A stride-2 conv first splits the
padded input into its 2 x 2 polyphase parts, and tap (i, j) reads part
(i % 2, j % 2). Backward re-gathers x and runs the same per-tap GEMMs for
d_weight and for the buffer gradient, which is then gathered back onto x.
Activations stay (N, C, W, H) between calls.

Every forward takes ``keep_cache``. A training forward keeps the backward
cache, which holds each activation once; a ReLU's mask is read from its
output, as relu(z) > 0 exactly where z > 0. A scoring forward
(``keep_cache=False``) returns None for the cache and drops each activation
once the next layer has read it: between layers it holds the block's input
and the current activation, not every layer's for the whole batch.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .excitation import (
    ExcitationParams,
    ExciteCache,
    excite_backward,
    excite_forward,
    init_excitation,
)


# The head's two logits, [spoof, bona fide]: what cross-entropy and scoring read.
N_CLASSES = 2


@dataclass(frozen=True)
class BackendConfig:
    stem_channels: int = 16
    stages: int = 3
    blocks_per_stage: int = 2
    se_reduction: int = 4

    def __post_init__(self) -> None:
        for name in ("stem_channels", "stages", "blocks_per_stage", "se_reduction"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if self.se_reduction > self.stem_channels:
            raise ValueError("se_reduction must not exceed stem_channels (the narrowest stage)")

    def stage_channels(self, stage: int) -> int:
        """Channel count of 1-based stage: stem doubled at each later stage."""
        return self.stem_channels * (2 ** (stage - 1))


@dataclass
class ConvParams:
    """Cross-correlation kernel (C_out, C_in, k, k) plus per-channel bias."""

    weight: np.ndarray
    bias: np.ndarray

    def __post_init__(self) -> None:
        if self.weight.ndim != 4 or self.weight.shape[2] != self.weight.shape[3]:
            raise ValueError(f"conv weight must be (C_out, C_in, k, k), got {self.weight.shape}")
        if self.weight.shape[2] % 2 != 1:
            raise ValueError("kernel size must be odd for same padding")
        if self.bias.shape != (self.weight.shape[0],):
            raise ValueError("conv bias shape does not match output channels")


@dataclass
class BlockParams:
    conv1: ConvParams
    conv2: ConvParams
    proj: Optional[ConvParams]  # 1x1 skip conv when stride 2 or channels change
    se: ExcitationParams
    stride: int = 1

    def __post_init__(self) -> None:
        if self.stride not in (1, 2):
            raise ValueError("block stride must be 1 or 2")


@dataclass
class BackendParams:
    stem: ConvParams
    blocks: list[BlockParams]
    fc_weight: np.ndarray  # (N_CLASSES, stage_channels(stages))
    fc_bias: np.ndarray


def init_backend(
    in_channels: int, config: BackendConfig, make: Callable[[tuple[int, ...]], np.ndarray]
) -> BackendParams:
    """Backend whose tensors come from ``make(shape)``, called in `named_params` order."""
    if in_channels < 1:
        raise ValueError("in_channels must be >= 1")

    def conv(c_out: int, c_in: int, k: int) -> ConvParams:
        return ConvParams(make((c_out, c_in, k, k)), make((c_out,)))

    stem = conv(config.stem_channels, in_channels, 3)
    blocks = []
    prev = config.stem_channels
    for stage in range(1, config.stages + 1):
        ch = config.stage_channels(stage)
        for b in range(config.blocks_per_stage):
            stride = 2 if (stage >= 2 and b == 0) else 1
            conv1 = conv(ch, prev, 3)
            conv2 = conv(ch, ch, 3)
            proj = conv(ch, prev, 1) if (stride != 1 or prev != ch) else None
            se = init_excitation(ch, max(1, ch // config.se_reduction), make)
            blocks.append(BlockParams(conv1, conv2, proj, se, stride))
            prev = ch
    return BackendParams(stem, blocks, make((N_CLASSES, prev)), make((N_CLASSES,)))


# ---------------------------------------------------------------------------
# conv2d


# Bytes of input plus output columns in one block of the tap GEMMs: well
# inside a core's L2, so the k*k taps of a block read it from cache.
_BLOCK_BYTES = 1 << 19


def _check_input(x: np.ndarray, p: ConvParams) -> None:
    if x.ndim != 4:
        raise ValueError(f"conv input must be (N, C, W, H), got {x.shape}")
    if x.shape[1] != p.weight.shape[1]:
        raise ValueError(
            f"conv weight {p.weight.shape} expects {p.weight.shape[1]} input channels, "
            f"got input {x.shape}"
        )


def _phase_span(n: int, phase: int, pad: int, stride: int) -> tuple[slice, slice]:
    """Where one polyphase part of a padded axis holds input values.

    Padded position `stride * u + phase` is input position
    `stride * u + phase - pad`. Returns the slice over `u` and the input
    slice that fill each other; every other position of the part is padding.
    """
    first = (phase - pad) % stride
    start = (first + pad - phase) // stride
    count = len(range(first, n, stride))
    return slice(start, start + count), slice(first, n, stride)


class _TapLayout:
    """Polyphase grid of one conv call and where each kernel tap reads it.

    The padded input splits into its stride x stride polyphase parts, each on
    a (W_q, H_q) grid per example, laid out channel-major as one buffer
    (C, phases, N * W_q * H_q + tail). Tap (i, j) reads phase (i % s, j % s)
    at flat offset (i // s) * H_q + j // s, so its GEMM operand is a slice
    with contiguous rows. Outputs are computed on the grid and cropped to
    (W', H'); the tail keeps the last tap's slice inside the buffer.
    """

    def __init__(self, x_shape: tuple[int, ...], k: int, stride: int) -> None:
        n, _, w, h = x_shape
        self.x_shape, self.stride, self.pad = tuple(x_shape), stride, (k - 1) // 2
        self.wo, self.ho = -(-w // stride), -(-h // stride)
        reach = (k - 1) // stride
        self.wq, self.hq = self.wo + reach, self.ho + reach
        self.size = n * self.wq * self.hq  # columns of every tap GEMM
        self.phases = sorted({(i % stride, j % stride) for i in range(k) for j in range(k)})
        self.taps = [  # (i, j, phase index, flat offset)
            (i, j, self.phases.index((i % stride, j % stride)), (i // stride) * self.hq + j // stride)
            for i in range(k)
            for j in range(k)
        ]

    def blocks(self, rows: int, dtype) -> tuple[int, list[slice]]:
        """Column blocks of the tap GEMMs: (widest block, blocks).

        A block is a run of one example's output rows, sized so `rows` rows
        of it (inputs plus outputs) take at most about `_BLOCK_BYTES`. Grid
        rows past W' are never computed. Every example is cut the same way,
        so an output column meets GEMMs of the same shapes whatever the
        batch, and a forward pass does not depend on the batch it is in.
        """
        per = max(1, _BLOCK_BYTES // (rows * np.dtype(dtype).itemsize * self.hq))
        g = self.wq * self.hq
        return per * self.hq, [
            slice(n * g + a * self.hq, n * g + min(a + per, self.wo) * self.hq)
            for n in range(self.x_shape[0])
            for a in range(0, self.wo, per)
        ]

    def _phase_views(self, buf: np.ndarray, x: np.ndarray):
        """Matching (buffer part, input part) views, one pair per phase."""
        grid = buf[:, :, : self.size].reshape(buf.shape[:2] + (self.x_shape[0], self.wq, self.hq))
        for ph, (pi, pj) in enumerate(self.phases):
            gu, xu = _phase_span(self.x_shape[2], pi, self.pad, self.stride)
            gv, xv = _phase_span(self.x_shape[3], pj, self.pad, self.stride)
            yield grid[:, ph, :, gu, gv], x[:, :, xu, xv].transpose(1, 0, 2, 3)

    def gather(self, x: np.ndarray, dtype) -> np.ndarray:
        """Pad x and lay its polyphase parts out channel-major, in one pass."""
        tail = max(off for *_, off in self.taps)
        buf = np.zeros((x.shape[1], len(self.phases), self.size + tail), dtype=dtype)
        for part, x_part in self._phase_views(buf, x):
            part[...] = x_part
        return buf

    def scatter(self, d_buf: np.ndarray) -> np.ndarray:
        """Gradient w.r.t. x from the gradient w.r.t. its gathered buffer."""
        n, _, w, h = self.x_shape
        dx = np.zeros((n, d_buf.shape[0], w, h), dtype=d_buf.dtype)
        for part, dx_part in self._phase_views(d_buf, dx):
            dx_part[...] = part
        return dx

    def crop(self, flat: np.ndarray) -> np.ndarray:
        """(C, N * W_q * H_q) grid values -> (N, C, W', H') view of the output."""
        grid = flat.reshape(flat.shape[0], self.x_shape[0], self.wq, self.hq)
        return grid[:, :, : self.wo, : self.ho].transpose(1, 0, 2, 3)


def _tap_weights(weight: np.ndarray, dtype) -> np.ndarray:
    """(C_out, C_in, k, k) -> (k, k, C_out, C_in), so each tap is contiguous."""
    return np.ascontiguousarray(weight.transpose(2, 3, 0, 1), dtype=dtype)


def _taps_forward(x: np.ndarray, weight: np.ndarray, lay: _TapLayout, dtype) -> np.ndarray:
    """Sum over taps of W[:, :, i, j] @ tap slice, on the flat (C_out, grid)."""
    buf = lay.gather(x, dtype)
    w_taps = _tap_weights(weight, dtype)
    c_out, c_in = weight.shape[:2]
    acc = np.empty((c_out, lay.size), dtype=dtype)
    step, blocks = lay.blocks(c_in + c_out, dtype)
    tmp = np.empty((c_out, step), dtype=dtype)
    for cols in blocks:
        out, part = acc[:, cols], tmp[:, : cols.stop - cols.start]
        for t, (i, j, ph, off) in enumerate(lay.taps):
            np.matmul(w_taps[i, j], buf[:, ph, off + cols.start : off + cols.stop], out=part if t else out)
            if t:
                out += part
    return acc


def _taps_backward(
    x: np.ndarray, weight: np.ndarray, dy: np.ndarray, lay: _TapLayout, dtype
) -> tuple[np.ndarray, np.ndarray]:
    """Per-tap GEMMs of dy against the gathered input: (d_buf, d_weight)."""
    buf = lay.gather(x, dtype)
    w_taps = _tap_weights(weight, dtype)
    c_out, c_in = weight.shape[:2]
    dy_p = np.zeros((c_out, lay.size), dtype=dtype)
    lay.crop(dy_p)[...] = dy
    dw_taps = np.zeros_like(w_taps)
    dw_part = np.empty((c_out, c_in), dtype=dtype)
    d_buf = np.zeros_like(buf)
    step, blocks = lay.blocks(c_in + c_out, dtype)
    tmp = np.empty((c_in, step), dtype=dtype)
    for cols in blocks:
        d_out, part = dy_p[:, cols], tmp[:, : cols.stop - cols.start]
        for i, j, ph, off in lay.taps:
            span = slice(off + cols.start, off + cols.stop)
            np.matmul(d_out, buf[:, ph, span].T, out=dw_part)
            dw_taps[i, j] += dw_part
            np.matmul(w_taps[i, j].T, d_out, out=part)
            d_buf[:, ph, span] += part
    return d_buf, dw_taps.transpose(2, 3, 0, 1)


def conv2d_forward(x: np.ndarray, p: ConvParams, stride: int = 1) -> np.ndarray:
    """Same-padded cross-correlation on (N, C_in, W, H) -> (N, C_out, W', H')."""
    _check_input(x, p)
    lay = _TapLayout(x.shape, p.weight.shape[2], stride)
    dtype = np.result_type(x, p.weight)
    grid = lay.crop(_taps_forward(x, p.weight, lay, dtype))
    y = np.empty(grid.shape, dtype=np.result_type(dtype, p.bias))
    np.add(grid, p.bias[:, None, None], out=y)
    return y


def conv2d_backward(
    x: np.ndarray, p: ConvParams, dy: np.ndarray, stride: int = 1
) -> tuple[np.ndarray, ConvParams]:
    """Gradients w.r.t. input and parameters; re-gathers x rather than caching it."""
    _check_input(x, p)
    lay = _TapLayout(x.shape, p.weight.shape[2], stride)
    want = (x.shape[0], p.weight.shape[0], lay.wo, lay.ho)
    if dy.shape != want:
        raise ValueError(
            f"conv output gradient must be {want} for input {x.shape} at stride {stride}, "
            f"got {dy.shape}"
        )
    d_buf, d_weight = _taps_backward(x, p.weight, dy, lay, np.result_type(x, p.weight, dy))
    d_bias = dy.sum(axis=(0, 2, 3)).astype(p.bias.dtype, copy=False)
    return lay.scatter(d_buf), ConvParams(np.ascontiguousarray(d_weight), d_bias)


def relu(x: np.ndarray) -> np.ndarray:
    return np.maximum(x, 0)


# ---------------------------------------------------------------------------
# residual SE block


@dataclass
class BlockCache:
    x: np.ndarray
    act1: np.ndarray  # relu(conv1(x))
    se_cache: ExciteCache
    out: np.ndarray  # the block's output, relu(se(conv2) + skip)
    params: BlockParams


def block_forward(
    x: np.ndarray, p: BlockParams, keep_cache: bool = True
) -> tuple[np.ndarray, Optional[BlockCache]]:
    """out = relu(se(conv2(relu(conv1(x)))) + skip(x))."""
    act1 = relu(conv2d_forward(x, p.conv1, p.stride))
    pre2 = conv2d_forward(act1, p.conv2, 1)
    if not keep_cache:
        act1 = None  # conv2 was its last reader
    out, se_cache = excite_forward(pre2, p.se, keep_cache)
    del pre2
    out += x if p.proj is None else conv2d_forward(x, p.proj, p.stride)
    np.maximum(out, 0, out=out)
    return out, BlockCache(x, act1, se_cache, out, p) if keep_cache else None


def block_backward(cache: BlockCache, dout: np.ndarray) -> tuple[np.ndarray, BlockParams]:
    p = cache.params
    d_pre = dout * (cache.out > 0)
    d_pre2, d_se = excite_backward(cache.se_cache, d_pre)
    d_act1, d_conv2 = conv2d_backward(cache.act1, p.conv2, d_pre2, 1)
    d_pre1 = d_act1 * (cache.act1 > 0)
    dx, d_conv1 = conv2d_backward(cache.x, p.conv1, d_pre1, p.stride)
    if p.proj is None:
        dx = dx + d_pre
        d_proj = None
    else:
        dx_skip, d_proj = conv2d_backward(cache.x, p.proj, d_pre, p.stride)
        dx = dx + dx_skip
    return dx, BlockParams(d_conv1, d_conv2, d_proj, d_se, p.stride)


# ---------------------------------------------------------------------------
# full network


@dataclass
class BackendCache:
    x: np.ndarray
    blocks: list[BlockCache]  # blocks[0].x is the stem's ReLU output
    pooled: np.ndarray
    params: BackendParams


def backend_forward(
    x: np.ndarray, params: BackendParams, keep_cache: bool = True
) -> tuple[np.ndarray, Optional[BackendCache]]:
    """Stack batch (N, M, W, H) -> logits (N, N_CLASSES), plus the backward cache if kept."""
    h = relu(conv2d_forward(x, params.stem, 1))
    blocks = []
    for bp in params.blocks:
        h, bc = block_forward(h, bp, keep_cache)
        blocks.append(bc)
    pooled = h.mean(axis=(2, 3))
    # einsum, not `@`: BLAS takes another path for a one-row batch, and a
    # score must not depend on the batch that it was computed in.
    logits = np.einsum("nc,kc->nk", pooled, params.fc_weight) + params.fc_bias
    return logits, BackendCache(x, blocks, pooled, params) if keep_cache else None


def backend_backward(cache: BackendCache, d_logits: np.ndarray) -> tuple[np.ndarray, BackendParams]:
    """d_logits (N, N_CLASSES) -> input-stack gradient plus parameter gradients."""
    params = cache.params
    d_fc_w = d_logits.T @ cache.pooled
    d_fc_b = d_logits.sum(axis=0)
    d_pooled = d_logits @ params.fc_weight
    features = cache.blocks[-1].out
    spatial = features.shape[2] * features.shape[3]
    dh = np.broadcast_to(d_pooled[:, :, None, None] / spatial, features.shape).copy()
    d_blocks: list[BlockParams] = []
    for bc in reversed(cache.blocks):
        dh, bg = block_backward(bc, dh)
        d_blocks.append(bg)
    d_blocks.reverse()
    d_stem_in = dh * (cache.blocks[0].x > 0)
    dx, d_stem = conv2d_backward(cache.x, params.stem, d_stem_in, 1)
    return dx, BackendParams(d_stem, d_blocks, d_fc_w, d_fc_b)
