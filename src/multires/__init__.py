"""Multi-resolution spectral front-end for binary speech classification.

The pipeline: multi-window/multi-hop STFT feature extraction, adaptive-pooling
alignment into a channel stack, a learnable per-resolution weighting block, a
small SE-residual classifier trained from scratch with Adam, a weight-gap
pruning/refinement workflow, and EER / min t-DCF scoring.  Everything runs on
plain numpy; no GPU or deep-learning framework is required.

Importing the package before numpy pins BLAS to one thread, unless
``OPENBLAS_NUM_THREADS`` or ``OMP_NUM_THREADS`` is already set: float64 GEMM
bits depend on the OpenBLAS thread count, so a fixed count keeps outputs
byte-identical whatever the CPU count, and one thread was as fast as two on
a 2-CPU machine. Nothing changes for a caller that imported numpy first.

Importing it also tells glibc's malloc to keep freed memory, so the arrays
one training or scoring step frees are the pages the next step writes: arrays
up to 32 MiB (glibc's 64-bit maximum ``M_MMAP_THRESHOLD``) come from the heap
instead of a fresh ``mmap`` each, and the heap is not trimmed below 1 GiB of
free memory (``M_TRIM_THRESHOLD``). A 4-row float32 step at the toy shape
faulted in about 2,950 fresh pages without it and at most 3 with it. The
cost is memory held: a process's resident size stays at its high-water mark
instead of shrinking between steps. Forked children inherit the setting
(`parallel` trims the free pages each child inherits). Without glibc's
``mallopt`` (macOS, Windows) or where it refuses (musl), nothing changes:
the same bits at the old speed.
"""

import ctypes as _ctypes
import os as _os
import sys as _sys

if "numpy" not in _sys.modules and not {"OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"} & _os.environ.keys():
    _os.environ["OPENBLAS_NUM_THREADS"] = "1"
    _os.environ["OMP_NUM_THREADS"] = "1"


def _keep_freed_pages() -> None:
    try:
        mallopt = _ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):  # no mallopt, or no C library to ask
        return
    mallopt.argtypes = (_ctypes.c_int, _ctypes.c_int)
    mallopt.restype = _ctypes.c_int
    if mallopt(-3, 32 << 20):  # M_MMAP_THRESHOLD; 0 where it is refused
        mallopt(-1, 1 << 30)  # M_TRIM_THRESHOLD


_keep_freed_pages()

__version__ = "0.1.0"
