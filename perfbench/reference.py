"""A fixed reference kernel that measures how fast the machine is right now.

The shared host this benchmark was written on changes speed by up to 1.8x
over tens of seconds to hours, for every kind of code at once (process CPU
time tracks wall time, so it is not preemption).  No statistic taken inside
one run removes drift that is slower than the run.  So each child runs this
kernel between its timed items, in a helper process of its own, and the
end-to-end times are scaled by
`REFERENCE_S / measured`: a time is reported as it would read on a machine
on which one reference block takes `REFERENCE_S` seconds.  A timed item is
scaled by the blocks run just before and just after it; after a long item
more blocks run, so the estimate is not a snapshot.

The kernel mixes the patterns the pipeline spends its time on: framing by
fancy indexing, windowed FFT and log magnitude, a Python loop of row adds
(adaptive pooling), im2col plus float32 GEMM, float64 GEMM, a memory-bound
pass, fresh pages and plain interpreter work.  Different parts of the
program slow down by different amounts, and on the machine where this was
written the whole mix tracked each workload better than any single part.
It uses only numpy and fixed inputs, so no change to `src/` can change it.
"""

from __future__ import annotations

import subprocess
import sys
import time

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

# About one block's time on the 2-CPU machine where this was written.  Only
# the scale of the reported numbers depends on it, not their spread.
REFERENCE_S = 0.3


def _inputs() -> dict:
    rng = np.random.default_rng(12345)
    return {
        "wave": rng.standard_normal(8000),
        "signal": rng.standard_normal((64, 4096)),
        "spectrum": rng.standard_normal((61, 513)),
        "image": rng.standard_normal((8, 8, 66, 66), dtype=np.float32),
        "kernel": rng.standard_normal((16, 72), dtype=np.float32),
        "a32": rng.standard_normal((320, 320), dtype=np.float32),
        "a64": rng.standard_normal((192, 192)),
        "stream": rng.standard_normal(800_000),
    }


def _pool_rows(mat: np.ndarray, n_out: int) -> np.ndarray:
    out = np.empty((n_out, mat.shape[1]))
    n_in = mat.shape[0]
    for i in range(n_out):
        start, end = i * n_in // n_out, -((-(i + 1) * n_in) // n_out)
        acc = mat[start].copy()
        for k in range(start + 1, end):
            acc += mat[k]
        out[i] = acc / (end - start)
    return out


def _round(x: dict) -> float:
    acc = 0.0
    padded = np.pad(x["wave"], 512, mode="reflect")
    idx = (np.arange(61) * 128)[:, None] + np.arange(1024)[None, :]
    for _ in range(2):  # framing, windowed FFT, log magnitude
        frames = padded[idx] * np.hanning(1024)[None, :]
        acc += float(np.log(np.maximum(np.abs(np.fft.rfft(frames, axis=1)), 1e-10))[0, 0])
    for _ in range(2):
        spec = np.log(np.abs(np.fft.rfft(x["signal"], axis=1)) + 1e-6)
        acc += float(spec[:, :2048].reshape(64, 128, 16).mean(axis=2)[0, 0])
    acc += float(_pool_rows(_pool_rows(x["spectrum"], 128).T, 129)[0, 0])  # adaptive pooling
    cols = sliding_window_view(x["image"], (3, 3), axis=(2, 3))  # im2col + conv GEMM
    cols = cols.transpose(0, 1, 4, 5, 2, 3).reshape(8, 72, 64 * 64)
    acc += float(np.matmul(x["kernel"], cols)[0, 0, 0])
    for _ in range(8):  # float32 and float64 GEMM
        acc += float((x["a32"] @ x["a32"])[0, 0]) + float((x["a64"] @ x["a64"])[0, 0])
    acc += float((x["stream"] * 1.5 + 1.0).sum())  # memory-bound pass
    fresh = np.empty(500_000)  # new pages, as large temporaries get
    fresh.fill(acc)
    acc += float(fresh[-1])
    total = 0
    for i in range(20000):  # interpreter
        total += i & 7
    return acc + total


def block(rounds: int = 8) -> float:
    """Wall time of one reference block; its inputs are made before the clock starts."""
    inputs = _inputs()
    t0 = time.perf_counter()
    for _ in range(rounds):
        _round(inputs)
    return time.perf_counter() - t0


def sample(min_s: float) -> float:
    """Mean time of one block over blocks run for at least `min_s` (one at least)."""
    times = [block()]
    while sum(times) < min_s:
        times.append(block())
    return sum(times) / len(times)


def serve() -> None:
    """Answer each line `min_s` on stdin with `sample(min_s)` until stdin closes."""
    block(3)  # first calls pay for FFT plans and page faults
    for line in sys.stdin:
        print(repr(sample(float(line))), flush=True)


class Reference:
    """The kernel in a process of its own, so its memory never counts in a
    workload's peak RSS.  Only one of the two processes runs at a time."""

    def __init__(self) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, __file__], stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True
        )

    def sample(self, min_s: float) -> float:
        self.proc.stdin.write(f"{min_s!r}\n")
        self.proc.stdin.flush()
        reply = self.proc.stdout.readline()
        if not reply:
            raise RuntimeError(f"reference process exited with code {self.proc.wait()}")
        return float(reply)

    def close(self) -> None:
        try:
            self.proc.stdin.close()
            self.proc.wait(timeout=10)
        finally:
            if self.proc.poll() is None:
                self.proc.kill()
                self.proc.wait()

    def __enter__(self) -> "Reference":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


if __name__ == "__main__":
    serve()
