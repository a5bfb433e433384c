"""Detection metrics: DET points, equal error rate, minimum normalized t-DCF.

Scores follow the higher-is-more-bona-fide convention.  Every metric is a
function of the finite DET staircase swept over the distinct scores plus
-inf/+inf sentinels, which makes all of them directly checkable against
brute-force threshold oracles.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Iterable

import numpy as np

from .signal_io import format_score

__all__ = [
    "TdcfParams",
    "DetPoint",
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


@dataclass(frozen=True)
class DetPoint:
    threshold: float
    p_miss: float
    p_fa: float


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


def det_points_from_scores(scores: np.ndarray, labels: np.ndarray) -> list[DetPoint]:
    """Sweep thresholds ascending: P_miss = frac(bona < t), P_fa = frac(spoof >= t)."""
    bona, spoof = _split_scores(scores, labels)
    thresholds = np.concatenate(([-np.inf], np.unique(np.concatenate((bona, spoof))), [np.inf]))
    p_miss = np.searchsorted(bona, thresholds, side="left") / bona.size
    p_fa = 1.0 - np.searchsorted(spoof, thresholds, side="left") / spoof.size
    return [DetPoint(float(t), float(pm), float(pf)) for t, pm, pf in zip(thresholds, p_miss, p_fa)]


def eer_from_scores(scores: np.ndarray, labels: np.ndarray) -> float:
    """EER at the P_miss = P_fa crossing, linearly interpolated between points."""
    points = det_points_from_scores(scores, labels)
    prev = points[0]
    for pt in points:
        d = pt.p_miss - pt.p_fa
        if d == 0.0:
            return pt.p_miss
        if d > 0.0:
            d0 = prev.p_miss - prev.p_fa
            t = -d0 / (d - d0)
            return prev.p_miss + t * (pt.p_miss - prev.p_miss)
        prev = pt
    raise AssertionError("DET sweep never crossed P_miss = P_fa")  # unreachable: d=+1 at +inf


def min_tdcf_from_scores(scores: np.ndarray, labels: np.ndarray, params: TdcfParams) -> float:
    """Minimum over all DET thresholds of the normalized two-coefficient cost."""
    points = det_points_from_scores(scores, labels)
    floor = min(params.c1, params.c2)
    return min((params.c1 * pt.p_miss + params.c2 * pt.p_fa) / floor for pt in points)


def write_det_csv(points: Iterable[DetPoint], path: str | Path) -> None:
    def fmt(x: float) -> str:
        return format_score(x) if np.isfinite(x) else str(x)  # sentinel rows print inf/-inf

    lines = ["threshold,p_miss,p_fa"]
    for pt in points:
        lines.append(f"{fmt(pt.threshold)},{fmt(pt.p_miss)},{fmt(pt.p_fa)}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def summary_line(eer_value: float, tdcf_value: float) -> str:
    return f"eer={format_score(eer_value)} min_tdcf={format_score(tdcf_value)}"
