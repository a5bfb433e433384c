"""Resolution pruning: cut the ascending weight profile at its largest gap.

Mean learned weights are sorted ascending (stable, so ties keep the input
order); m* is the first index maximizing s[m+1] - s[m]; everything above the
gap is retained.  Note the count ambiguity: retaining above the gap keeps
M - m* resolutions, while a literal "last m*" reading keeps m*.  We follow
the gap-separation semantics and print both counts in the report.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .stft import ResolutionSpec


@dataclass(eq=False)
class PruneResult:
    resolutions: tuple[ResolutionSpec, ...]  # original order
    weights: np.ndarray  # aligned with resolutions
    cut_index: int  # m*, 1-based position of the element just below the gap
    retained: tuple[ResolutionSpec, ...]  # original-order subset above the gap
    discarded: tuple[ResolutionSpec, ...]

    def __post_init__(self) -> None:
        if not self.retained:
            raise AssertionError("retained set must be non-empty")
        if sorted(map(str, self.retained + self.discarded)) != sorted(map(str, self.resolutions)):
            raise AssertionError("retained/discarded do not partition the input resolutions")


def prune(weights: np.ndarray, resolutions: tuple[ResolutionSpec, ...]) -> PruneResult:
    """Partition resolutions by the largest adjacent gap in sorted weights."""
    resolutions = tuple(resolutions)
    weights = np.asarray(weights, dtype=np.float64)
    m = len(resolutions)
    if m < 2:
        raise ValueError("pruning needs at least 2 resolutions")
    if weights.shape != (m,):
        raise ValueError(f"expected {m} weights, got shape {weights.shape}")
    if not np.all(np.isfinite(weights)):
        raise ValueError("weights must be finite")
    order = np.argsort(weights, kind="stable")
    s = weights[order]
    gaps = s[1:] - s[:-1]
    cut = int(np.argmax(gaps)) + 1  # first maximizer wins; 1-based
    rank = np.empty(m, dtype=int)
    rank[order] = np.arange(m)
    retained = tuple(res for i, res in enumerate(resolutions) if rank[i] >= cut)
    discarded = tuple(res for i, res in enumerate(resolutions) if rank[i] < cut)
    return PruneResult(resolutions, weights, cut, retained, discarded)


def rank_weights(resolutions: tuple[ResolutionSpec, ...], weights: np.ndarray) -> list[tuple[ResolutionSpec, str]]:
    """(resolution, `window<TAB>hop<TAB>weight` line) pairs, heaviest first; ties keep input order."""
    ranked = [(resolutions[i], weights[i]) for i in np.argsort(-np.asarray(weights), kind="stable")]
    return [(res, f"{res.window_len}\t{res.hop_len}\t{w:.6f}") for res, w in ranked]


def format_report(result: PruneResult) -> str:
    """`rank_weights` lines with a retained/discarded column, then summary comments."""
    ranked = rank_weights(result.resolutions, result.weights)
    lines = [f"{line}\t{'retained' if res in result.retained else 'discarded'}" for res, line in ranked]
    m = len(result.resolutions)
    lines.append(f"# largest gap after sorted position {result.cut_index} (ascending, 1-based)")
    lines.append(
        f"# retained above the gap: {m - result.cut_index} of {m};"
        f" a literal 'last m*' reading would keep {result.cut_index}"
    )
    lines.append(f"# top mean weight: {ranked[0][0]} ({result.weights.max():.6f})")
    return "\n".join(lines) + "\n"
