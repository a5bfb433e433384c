"""Detection metrics: DET curve, equal error rate, minimum normalized t-DCF.

Scores follow the higher-is-more-bona-fide convention.  Every metric is a
function of the finite DET staircase swept over the distinct scores plus
-inf/+inf sentinels, which makes all of them directly checkable against
brute-force threshold oracles.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .signal_io import format_score, write_text

__all__ = [
    "TdcfParams",
    "det_points_from_scores",
    "eer_from_scores",
    "min_tdcf_from_scores",
    "write_det_csv",
]


@dataclass(frozen=True)
class TdcfParams:
    """Reduced two-coefficient t-DCF: (c1 * P_miss + c2 * P_fa) / min(c1, c2).

    c1 and c2 fold together the countermeasure costs, priors, and the ASV
    operating point; deriving them needs an evaluation plan we do not ship,
    so they are injected with neutral defaults of 1.
    """

    c1: float = 1.0
    c2: float = 1.0

    def __post_init__(self) -> None:
        for name in ("c1", "c2"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")


def _split_scores(scores: np.ndarray, labels: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    if scores.shape != labels.shape or scores.ndim != 1:
        raise ValueError("scores and labels must be matching 1-D arrays")
    if not np.all(np.isfinite(scores)):
        raise ValueError("scores must be finite")
    bona = np.sort(scores[labels == 1])
    spoof = np.sort(scores[labels == 0])
    if bona.size == 0 or spoof.size == 0:
        raise ValueError("need at least one bona fide and one spoof score")
    return bona, spoof


def det_points_from_scores(scores: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """(K, 3) float64 rows of threshold, P_miss, P_fa, thresholds ascending.

    P_miss = frac(bona < t), P_fa = frac(spoof >= t).
    """
    bona, spoof = _split_scores(scores, labels)
    thresholds = np.concatenate(([-np.inf], np.unique(np.concatenate((bona, spoof))), [np.inf]))
    p_miss = np.searchsorted(bona, thresholds, side="left") / bona.size
    p_fa = 1.0 - np.searchsorted(spoof, thresholds, side="left") / spoof.size
    return np.column_stack((thresholds, p_miss, p_fa))


def eer_from_scores(scores: np.ndarray, labels: np.ndarray) -> float:
    """EER at the P_miss = P_fa crossing, linearly interpolated between points."""
    _, p_miss, p_fa = det_points_from_scores(scores, labels).T
    d = p_miss - p_fa
    # d is -1 at -inf and +1 at +inf, so the first i with d >= 0 has i >= 1
    i = int(np.argmax(d >= 0.0))
    if d[i] == 0.0:
        return float(p_miss[i])
    t = -d[i - 1] / (d[i] - d[i - 1])
    return float(p_miss[i - 1] + t * (p_miss[i] - p_miss[i - 1]))


def min_tdcf_from_scores(scores: np.ndarray, labels: np.ndarray, params: TdcfParams) -> float:
    """Minimum over all DET thresholds of the normalized two-coefficient cost."""
    _, p_miss, p_fa = det_points_from_scores(scores, labels).T
    floor = min(params.c1, params.c2)
    return float(np.min((params.c1 * p_miss + params.c2 * p_fa) / floor))


def write_det_csv(points: np.ndarray, path: str | Path) -> None:
    """One ``threshold,p_miss,p_fa`` line per row of a DET array."""
    def fmt(x: float) -> str:
        return format_score(x) if np.isfinite(x) else str(x)  # sentinel rows print inf/-inf

    lines = ["threshold,p_miss,p_fa"] + [",".join(map(fmt, row)) for row in points.tolist()]
    write_text(path, "\n".join(lines) + "\n")


def summary_line(eer_value: float, tdcf_value: float) -> str:
    return f"eer={format_score(eer_value)} min_tdcf={format_score(tdcf_value)}"
