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
Simard (2006) without the unrolled matrix. The padded input is a (W_q, H_q)
grid per example, so kernel tap (i, j) reads it at a fixed flat offset and
the conv is k * k GEMMs summed on the grid, then cropped. A stride-2 conv
splits the padded input into its 2 x 2 polyphase parts, and tap (i, j)
reads part (i % 2, j % 2). A call takes one example's output rows a
cache-sized block at a time: it copies the grid rows the block reads from
x into a channel-major slab, runs the tap GEMMs on it, and adds the bias
into the block's rows of y, so it holds no input- or output-sized
temporary (Anderson et al., "Low-memory GEMM-based convolution algorithms
for deep neural networks", 2017). Backward refills the slabs from x and runs
the same per-tap GEMMs for d_weight and for the input gradient, which adds
up in a rolling slab and is copied onto dx row by row. The d_weight
products of each block and the d_bias sums of each example are returned as
gradient terms (`reduction`), summed over the batch only once every share
of it has run.
Activations stay (N, C, W, H) between calls.

Every forward takes ``keep_cache``. A training forward keeps the backward
cache, which holds each activation once; a ReLU is applied in place on the
fresh conv output, and its mask is read from that output, as relu(z) > 0
exactly where z > 0. A scoring forward (``keep_cache=False``) returns None
for the cache and drops each activation once the next layer has read it:
between layers it holds the block's input and the current activation, not
every layer's for the whole batch, and the SE gate scales conv2's output in
place.

Backward consumes the cache. It takes the block caches out of it, last
block first, and drops each activation after its last read; the ReLU masks
multiply into gradients the step made itself, and the skip sums add in
place. So a training step peaks a little above its forward's cache, not at
twice it, and a second backward on the same cache raises ValueError.
Nothing is written into an array the caller passed in, except the output
gradient handed to `block_backward`, whose buffer that call takes over.
"""

from __future__ import annotations

import functools
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
from .reduction import Outer, RowSum, TapSum


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
    """Polyphase grid of one conv shape and where each kernel tap reads it.

    The padded input splits into its stride x stride polyphase parts, each on
    a (W_q, H_q) grid per example. Tap (i, j) reads phase (i % s, j % s) at
    flat offset (i // s) * H_q + j // s of that grid, so on a slab of whole
    grid rows, laid out channel-major as (C, phases, rows * H_q), its GEMM
    operand is a slice with contiguous rows. Outputs are computed on the grid
    rows and cropped to (W', H'). A block of output rows [a0, a1) reads grid
    rows [a0, a1 + halo), where halo covers the largest tap offset.
    """

    def __init__(self, w: int, h: int, k: int, stride: int) -> None:
        self.stride, pad = stride, (k - 1) // 2
        self.wo, self.ho = -(-w // stride), -(-h // stride)
        reach = (k - 1) // stride
        self.wq, self.hq = self.wo + reach, self.ho + reach
        self.phases = sorted({(i % stride, j % stride) for i in range(k) for j in range(k)})
        self.taps = [  # (i, j, phase index, flat offset)
            (i, j, self.phases.index((i % stride, j % stride)), (i // stride) * self.hq + j // stride)
            for i in range(k)
            for j in range(k)
        ]
        self.halo = -(-max(off for *_, off in self.taps) // self.hq)
        self.spans = [  # (grid rows, input rows, grid columns, input columns) per phase
            _phase_span(w, pi, pad, stride) + _phase_span(h, pj, pad, stride) for pi, pj in self.phases
        ]

    def blocks(self, n: int, rows: int, dtype) -> tuple[int, list[tuple[int, int, int]]]:
        """Blocks of the tap GEMMs over n examples: (most output rows in one, [(i, a0, a1)]).

        A block is a run [a0, a1) of example i's output rows, sized so `rows`
        rows of its columns (inputs plus outputs) take at most about
        `_BLOCK_BYTES`, and at most W'. Grid rows past W' are never
        computed. Every example is cut the same way, so an output column
        meets GEMMs of the same shapes whatever the batch, and a forward pass
        does not depend on the batch it is in.
        """
        per = min(self.wo, max(1, _BLOCK_BYTES // (rows * np.dtype(dtype).itemsize * self.hq)))
        return per, [(i, a, min(a + per, self.wo)) for i in range(n) for a in range(0, self.wo, per)]

    def slab(self, channels: int, per: int, dtype) -> np.ndarray:
        """Zeroed (C, phases, (per + halo) * H_q) grid rows of one block."""
        return np.zeros((channels, len(self.phases), (per + self.halo) * self.hq), dtype=dtype)

    def _rows(self, ph: int, r0: int, r1: int) -> tuple[slice, slice]:
        """Grid rows [r0, r1) of phase ph that hold input: (slab rows, input rows)."""
        gu, xu = self.spans[ph][:2]
        lo, hi = (min(max(r, r0), r1) for r in (gu.start, gu.stop))
        first = xu.start + self.stride * (lo - gu.start)
        return slice(lo - r0, hi - r0), slice(first, first + self.stride * (hi - lo), self.stride)

    def fill(self, slab: np.ndarray, x: np.ndarray, r0: int, r1: int) -> None:
        """Slab rows from 0 = padded grid rows [r0, r1) of one example x (C, W, H).

        Only the input's own positions are written, and rows that hold none
        are zeroed, so the padding columns keep the zeros `slab` made.
        """
        grid = slab.reshape(slab.shape[:2] + (-1, self.hq))
        for ph, (_, _, gv, xv) in enumerate(self.spans):
            rows, x_rows = self._rows(ph, r0, r1)
            grid[:, ph, : rows.start] = 0
            grid[:, ph, rows.stop : r1 - r0] = 0
            grid[:, ph, rows, gv] = x[:, x_rows, xv]

    def drain(self, slab: np.ndarray, dx: np.ndarray, r0: int, r1: int) -> None:
        """Copy the input positions of grid rows [r0, r1), slab rows from 0, onto dx (C, W, H)."""
        grid = slab.reshape(slab.shape[:2] + (-1, self.hq))
        for ph, (_, _, gv, xv) in enumerate(self.spans):
            rows, x_rows = self._rows(ph, r0, r1)
            dx[:, x_rows, xv] = grid[:, ph, rows, gv]


@functools.lru_cache(maxsize=256)
def _tap_layout(w: int, h: int, k: int, stride: int) -> _TapLayout:
    """The layout of every conv on W x H inputs with this k and stride, built once.

    Callers only read it. `blocks` reads `_BLOCK_BYTES` on each call, so the
    block size is not frozen into the cached layout.
    """
    return _TapLayout(w, h, k, stride)


def _tap_weights(weight: np.ndarray, dtype) -> np.ndarray:
    """(C_out, C_in, k, k) -> (k, k, C_out, C_in), so each tap is contiguous."""
    return np.ascontiguousarray(weight.transpose(2, 3, 0, 1), dtype=dtype)


def conv2d_forward(x: np.ndarray, p: ConvParams, stride: int = 1) -> np.ndarray:
    """Same-padded cross-correlation on (N, C_in, W, H) -> (N, C_out, W', H')."""
    _check_input(x, p)
    lay = _tap_layout(*x.shape[2:], p.weight.shape[2], stride)
    dtype = np.result_type(x, p.weight)
    w_taps = _tap_weights(p.weight, dtype)
    c_out, c_in = p.weight.shape[:2]
    per, blocks = lay.blocks(x.shape[0], c_in + c_out, dtype)
    slab = lay.slab(c_in, per, dtype)
    acc = np.empty((c_out, per * lay.hq), dtype=dtype)
    tmp = np.empty_like(acc)
    y = np.empty((x.shape[0], c_out, lay.wo, lay.ho), dtype=np.result_type(dtype, p.bias))
    for n, a0, a1 in blocks:
        cols = (a1 - a0) * lay.hq
        lay.fill(slab, x[n], a0, a1 + lay.halo)
        out, part = acc[:, :cols], tmp[:, :cols]
        for t, (i, j, ph, off) in enumerate(lay.taps):
            np.matmul(w_taps[i, j], slab[:, ph, off : off + cols], out=part if t else out)
            if t:
                out += part
        grid = out.reshape(c_out, a1 - a0, lay.hq)[:, :, : lay.ho]
        np.add(grid, p.bias[:, None, None], out=y[n, :, a0:a1])
    return y


def conv2d_backward(
    x: np.ndarray, p: ConvParams, dy: np.ndarray, stride: int = 1
) -> tuple[np.ndarray, ConvParams]:
    """Gradient w.r.t. input, plus the parameters' gradient terms; refills the slabs from x.

    Each block's input-gradient products add into a slab of grid rows
    [a0, a1 + halo). Rows below a1 get nothing from later blocks, so they go
    straight onto dx; the halo rows carry over to the next block of the same
    example, and a new example starts from zeros. The weight's term keeps
    each block's tap products and the bias's term each example's sum of
    dy; `reduction.reduce_grads` adds them up in block and example order.
    """
    _check_input(x, p)
    lay = _tap_layout(*x.shape[2:], p.weight.shape[2], stride)
    want = (x.shape[0], p.weight.shape[0], lay.wo, lay.ho)
    if dy.shape != want:
        raise ValueError(
            f"conv output gradient must be {want} for input {x.shape} at stride {stride}, "
            f"got {dy.shape}"
        )
    dtype = np.result_type(x, p.weight, dy)
    w_taps = _tap_weights(p.weight, dtype)
    c_out, c_in = p.weight.shape[:2]
    per, blocks = lay.blocks(x.shape[0], c_in + c_out, dtype)
    slab = lay.slab(c_in, per, dtype)
    d_slab = np.zeros_like(slab)
    d_grid = d_slab.reshape(slab.shape[:2] + (-1, lay.hq))
    d_out = np.zeros((c_out, per, lay.hq), dtype=dtype)  # columns past H' stay zero
    tmp = np.empty((c_in, per * lay.hq), dtype=dtype)
    dw_parts = np.empty((len(blocks),) + w_taps.shape, dtype=dtype)
    dx = np.zeros(x.shape, dtype=dtype)
    for b, (n, a0, a1) in enumerate(blocks):
        rows, cols = a1 - a0, (a1 - a0) * lay.hq
        lay.fill(slab, x[n], a0, a1 + lay.halo)
        d_out[:, :rows, : lay.ho] = dy[n, :, a0:a1]
        d_cols, part = d_out[:, :rows].reshape(c_out, cols), tmp[:, :cols]
        for i, j, ph, off in lay.taps:
            span = slice(off, off + cols)
            np.matmul(d_cols, slab[:, ph, span].T, out=dw_parts[b, i, j])
            np.matmul(w_taps[i, j].T, d_cols, out=part)
            d_slab[:, ph, span] += part
        if a1 < lay.wo:
            lay.drain(d_slab, dx[n], a0, a1)
            d_grid[:, :, : lay.halo] = d_grid[:, :, rows : rows + lay.halo]
            d_grid[:, :, lay.halo : rows + lay.halo] = 0
        else:
            lay.drain(d_slab, dx[n], a0, lay.wq)
            d_grid[:, :, : rows + lay.halo] = 0
    return dx, ConvParams(TapSum(dw_parts), RowSum(dy.sum(axis=(2, 3))))


def relu_in_place(z: np.ndarray) -> np.ndarray:
    """ReLU written into z, a fresh array that no one else holds; returns z.

    A backward mask reads the output as relu(z) > 0, which is z > 0, so the
    derivative at exactly 0 is 0.
    """
    return np.maximum(z, 0, out=z)


# ---------------------------------------------------------------------------
# residual SE block


@dataclass
class BlockCache:
    """What one block's backward reads; `take` hands the activations over once."""

    x: Optional[np.ndarray]
    act1: Optional[np.ndarray]  # relu(conv1(x))
    se_cache: Optional[ExciteCache]
    out: Optional[np.ndarray]  # the block's output, relu(se(conv2) + skip)
    params: BlockParams

    def take(self) -> tuple[np.ndarray, np.ndarray, ExciteCache, np.ndarray]:
        """(x, act1, se_cache, out), leaving the cache empty so they can be freed."""
        if self.out is None:
            raise ValueError("block cache was consumed by an earlier backward pass")
        held = (self.x, self.act1, self.se_cache, self.out)
        self.x = self.act1 = self.se_cache = self.out = None
        return held


def block_forward(
    x: np.ndarray, p: BlockParams, keep_cache: bool = True
) -> tuple[np.ndarray, Optional[BlockCache]]:
    """out = relu(se(conv2(relu(conv1(x)))) + skip(x))."""
    act1 = relu_in_place(conv2d_forward(x, p.conv1, p.stride))
    pre2 = conv2d_forward(act1, p.conv2, 1)
    if not keep_cache:
        act1 = None  # conv2 was its last reader
    # the SE cache keeps pre2; without one, pre2 is scaled where it lies
    out, se_cache = excite_forward(pre2, p.se, keep_cache, out=None if keep_cache else pre2)
    del pre2
    out += x if p.proj is None else conv2d_forward(x, p.proj, p.stride)
    relu_in_place(out)
    return out, BlockCache(x, act1, se_cache, out, p) if keep_cache else None


def block_backward(cache: BlockCache, dout: np.ndarray) -> tuple[np.ndarray, BlockParams]:
    """Block output gradient -> input gradient plus parameter gradients.

    Consumes both arguments. The activations are taken out of the cache and
    each is dropped after its last read, so a second call on the same cache
    raises ValueError. dout's buffer becomes the gradient at the final ReLU;
    pass a copy to keep it.
    """
    p = cache.params
    x, act1, se_cache, out = cache.take()
    d_pre = dout  # masked in place into the gradient at the final ReLU's input
    d_pre *= out > 0
    del out
    d_pre2, d_se = excite_backward(se_cache, d_pre)
    del se_cache
    d_pre1, d_conv2 = conv2d_backward(act1, p.conv2, d_pre2, 1)
    del d_pre2
    d_pre1 *= act1 > 0  # d_act1 until masked
    del act1
    dx, d_conv1 = conv2d_backward(x, p.conv1, d_pre1, p.stride)
    del d_pre1
    if p.proj is None:
        dx += d_pre
        d_proj = None
    else:
        dx_skip, d_proj = conv2d_backward(x, p.proj, d_pre, p.stride)
        dx += dx_skip
    return dx, BlockParams(d_conv1, d_conv2, d_proj, d_se, p.stride)


# ---------------------------------------------------------------------------
# full network


@dataclass
class BackendCache:
    x: np.ndarray
    blocks: list[BlockCache]  # blocks[0].x is the stem's ReLU output; emptied by backward
    pooled: np.ndarray
    params: BackendParams


def backend_forward(
    x: np.ndarray, params: BackendParams, keep_cache: bool = True
) -> tuple[np.ndarray, Optional[BackendCache]]:
    """Stack batch (N, M, W, H) -> logits (N, N_CLASSES), plus the backward cache if kept."""
    h = relu_in_place(conv2d_forward(x, params.stem, 1))
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
    """d_logits (N, N_CLASSES) -> input-stack gradient plus parameter gradients.

    Consumes the cache: its block caches are taken out of it, last block
    first, and each block's backward frees its activations at their last
    reads, so the step holds the activations of the blocks not yet reached
    beside one block's gradients, not every block's twice over.
    A second call on the same cache raises ValueError. d_logits is only read.
    """
    blocks, cache.blocks = cache.blocks, []
    if not blocks:
        raise ValueError("backend cache was consumed by an earlier backward pass")
    params = cache.params
    stem_out = blocks[0].x
    d_fc_w = Outer(d_logits, cache.pooled)
    d_fc_b = RowSum(d_logits)
    d_pooled = d_logits @ params.fc_weight
    shape = blocks[-1].out.shape
    dh = np.broadcast_to(d_pooled[:, :, None, None] / (shape[2] * shape[3]), shape).copy()
    d_blocks: list[BlockParams] = []
    while blocks:
        dh, bg = block_backward(blocks.pop(), dh)
        d_blocks.append(bg)
    d_blocks.reverse()
    dh *= stem_out > 0
    del stem_out
    dx, d_stem = conv2d_backward(cache.x, params.stem, dh, 1)
    return dx, BackendParams(d_stem, d_blocks, d_fc_w, d_fc_b)
