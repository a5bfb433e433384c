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
"""

import os as _os
import sys as _sys

if "numpy" not in _sys.modules and not {"OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"} & _os.environ.keys():
    _os.environ["OPENBLAS_NUM_THREADS"] = "1"
    _os.environ["OMP_NUM_THREADS"] = "1"

__version__ = "0.1.0"
