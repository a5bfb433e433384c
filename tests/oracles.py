"""Independent brute-force references used by the test suite.

Everything here is deliberately naive: explicit loops, direct formula
transcriptions, no shared code with the package internals beyond numpy
array containers.  Slow is fine; these exist to disagree when the fast
implementations are wrong.
"""

from __future__ import annotations

import numpy as np


def naive_dft_matrix(n: int) -> np.ndarray:
    """(n//2+1, n) matrix of exp(-2 pi i k t / n), written out directly."""
    k = np.arange(n // 2 + 1)
    angles = -2j * np.pi * np.outer(k, np.arange(n)) / n
    return np.exp(angles)


def naive_dft(frame: np.ndarray) -> np.ndarray:
    """O(N^2) DFT by direct summation; first N//2+1 bins."""
    return naive_dft_matrix(frame.size) @ frame.astype(np.complex128)


def reflect_frames(x: np.ndarray, window: np.ndarray, n_fft: int, hop: int) -> np.ndarray:
    """Centered framing by the documented recipe, built independently.

    Reflect-pad by n_fft//2 on both sides, take floor(len/hop)+1 frames of
    window-length samples at t*hop, multiply by the window, zero-pad to n_fft.
    """
    pad = n_fft // 2
    padded = np.concatenate([x[1 : pad + 1][::-1], x, x[-pad - 1 : -1][::-1]])
    n_frames = x.size // hop + 1
    out = np.zeros((n_frames, n_fft))
    for t in range(n_frames):
        seg = padded[t * hop : t * hop + window.size] * window
        out[t, : window.size] = seg
    return out


def pool_1d(row: list[float], n_out: int) -> list[float]:
    """Adaptive average pooling of one axis straight from the bin formula."""
    n_in = len(row)
    out = []
    for i in range(n_out):
        lo = (i * n_in) // n_out
        hi = int(np.ceil((i + 1) * n_in / n_out))
        members = row[lo:hi]
        out.append(sum(members) / len(members))
    return out


def pool_2d(mat: np.ndarray, w_out: int, h_out: int) -> np.ndarray:
    rows = [pool_1d(list(r), h_out) for r in mat]
    cols = list(zip(*rows))
    pooled_cols = [pool_1d(list(c), w_out) for c in cols]
    return np.array(list(zip(*pooled_cols)), dtype=float)


def _pool_axis0_left_to_right(mat: np.ndarray, n_out: int) -> np.ndarray:
    """Pool axis 0 bin by bin; each bin sum adds its rows strictly in order."""
    n_in = mat.shape[0]
    out = np.empty((n_out,) + mat.shape[1:], dtype=mat.dtype)
    for i in range(n_out):
        lo = (i * n_in) // n_out
        hi = -((-(i + 1) * n_in) // n_out)
        acc = mat[lo].copy()
        for k in range(lo + 1, hi):
            acc = acc + mat[k]
        out[i] = acc / mat.dtype.type(hi - lo)
    return out


def pool_2d_left_to_right(mat: np.ndarray, w_out: int, h_out: int) -> np.ndarray:
    """Adaptive average pooling, rows first, then columns, in the input dtype.

    The reference for bit-exact comparison: every output entry is
    ``(x[lo] + x[lo+1] + ... + x[hi-1]) / (hi - lo)`` evaluated left to right.
    """
    rows = _pool_axis0_left_to_right(mat, w_out)
    return _pool_axis0_left_to_right(rows.T, h_out).T


def sweep_rates(scores: np.ndarray, labels: np.ndarray) -> list[tuple[float, float, float]]:
    """(threshold, p_miss, p_fa) at every distinct score and +-inf, by counting."""
    bona = [s for s, l in zip(scores, labels) if l == 1]
    spoof = [s for s, l in zip(scores, labels) if l == 0]
    thresholds = [-np.inf] + sorted(set(list(scores))) + [np.inf]
    points = []
    for t in thresholds:
        p_miss = sum(1 for s in bona if s < t) / len(bona)
        p_fa = sum(1 for s in spoof if s >= t) / len(spoof)
        points.append((t, p_miss, p_fa))
    return points


def brute_eer(scores: np.ndarray, labels: np.ndarray) -> float:
    """Crossing of the miss/false-alarm staircase, interpolated linearly."""
    points = sweep_rates(scores, labels)
    prev = None
    for _, pm, pf in points:
        d = pm - pf
        if d == 0.0:
            return pm
        if d > 0.0:
            pm0, pf0 = prev
            d0 = pm0 - pf0
            frac = -d0 / (d - d0)
            return pm0 + frac * (pm - pm0)
        prev = (pm, pf)
    raise AssertionError("no crossing found")


def brute_min_tdcf(scores: np.ndarray, labels: np.ndarray, c1: float, c2: float) -> float:
    points = sweep_rates(scores, labels)
    return min((c1 * pm + c2 * pf) / min(c1, c2) for _, pm, pf in points)


def brute_prune(weights: list[float]) -> list[int]:
    """Indices (into the original list) retained by exhaustive largest-gap search."""
    order = sorted(range(len(weights)), key=lambda i: (weights[i], i))
    s = [weights[i] for i in order]
    best_gap, best_m = -np.inf, None
    for m in range(1, len(s)):
        gap = s[m] - s[m - 1]
        if gap > best_gap:
            best_gap, best_m = gap, m
    return sorted(order[best_m:])


def naive_conv2d(x: np.ndarray, weight: np.ndarray, bias: np.ndarray, stride: int) -> np.ndarray:
    """Direct six-loop same-padded cross-correlation."""
    n, c_in, w, h = x.shape
    c_out, _, k, _ = weight.shape
    pad = (k - 1) // 2
    wo = -(-w // stride)
    ho = -(-h // stride)
    out = np.zeros((n, c_out, wo, ho))
    for b in range(n):
        for o in range(c_out):
            for p in range(wo):
                for q in range(ho):
                    acc = 0.0
                    for c in range(c_in):
                        for i in range(k):
                            for j in range(k):
                                ii = p * stride + i - pad
                                jj = q * stride + j - pad
                                if 0 <= ii < w and 0 <= jj < h:
                                    acc += x[b, c, ii, jj] * weight[o, c, i, j]
                    out[b, o, p, q] = acc + bias[o]
    return out


def central_difference(fn, arrays: list[np.ndarray], step: float = 1e-5) -> list[np.ndarray]:
    """Per-element central finite differences of a scalar function.

    `fn()` must read the arrays in place and return a float; entries are
    perturbed one at a time and restored.
    """
    grads = []
    for arr in arrays:
        g = np.zeros_like(arr, dtype=np.float64)
        flat = arr.reshape(-1)
        gf = g.reshape(-1)
        for idx in range(flat.size):
            keep = flat[idx]
            flat[idx] = keep + step
            hi = fn()
            flat[idx] = keep - step
            lo = fn()
            flat[idx] = keep
            gf[idx] = (hi - lo) / (2.0 * step)
        grads.append(g)
    return grads


def adam_trace(
    x0: float,
    grads: list[float],
    peak_lr: float,
    warmup: int,
    beta1: float = 0.9,
    beta2: float = 0.98,
    eps: float = 1e-9,
    weight_decay: float = 0.0,
) -> list[float]:
    """Scalar Adam recurrence in plain python floats; returns param after each step."""
    import math

    x, m, v = x0, 0.0, 0.0
    out = []
    for step, g in enumerate(grads, start=1):
        lr = peak_lr * min(step / warmup, math.sqrt(warmup / step))
        g = g + weight_decay * x
        m = beta1 * m + (1 - beta1) * g
        v = beta2 * v + (1 - beta2) * g * g
        m_hat = m / (1 - beta1**step)
        v_hat = v / (1 - beta2**step)
        x = x - lr * m_hat / (math.sqrt(v_hat) + eps)
        out.append(x)
    return out
