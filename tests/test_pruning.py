import itertools

import numpy as np
import pytest

from multires.pruning import format_report, prune, rank_weights
from multires.stft import ResolutionSpec

from oracles import brute_prune


def _res(m):
    return tuple(ResolutionSpec(64 * (i + 1), 16) for i in range(m))


def test_worked_example_keeps_top_three():
    weights = np.array([0.05, 0.10, 0.55, 0.60, 0.65])
    res = _res(5)
    result = prune(weights, res)
    assert result.cut_index == 2  # largest gap between 0.10 and 0.55
    assert result.retained == res[2:]
    assert result.discarded == res[:2]


def test_shift_invariance():
    res = _res(5)
    base = prune(np.array([0.05, 0.10, 0.55, 0.60, 0.65]), res)
    shifted = prune(np.array([0.05, 0.10, 0.55, 0.60, 0.65]) + 0.3, res)
    assert shifted.retained == base.retained
    assert shifted.cut_index == base.cut_index


def test_matches_exhaustive_search_on_grid():
    # every weight profile from {0, 0.1, ..., 1.0}^M for M in {2, 3}
    grid = [round(0.1 * k, 1) for k in range(11)]
    for m in (2, 3):
        res = _res(m)
        for combo in itertools.product(grid, repeat=m):
            weights = np.array(combo)
            got = prune(weights, res)
            want = brute_prune(list(combo))
            assert sorted(res.index(r) for r in got.retained) == want, combo


def test_retention_preserves_input_order():
    res = _res(4)
    result = prune(np.array([0.9, 0.1, 0.8, 0.2]), res)
    assert result.retained == (res[0], res[2])
    assert result.discarded == (res[1], res[3])


def test_all_equal_weights_keep_all_but_first():
    # zero gaps everywhere: the first gap wins, cutting exactly one element
    res = _res(3)
    result = prune(np.array([0.4, 0.4, 0.4]), res)
    assert result.cut_index == 1
    assert len(result.retained) == 2


def test_validation():
    with pytest.raises(ValueError, match="at least 2"):
        prune(np.array([1.0]), _res(1))
    with pytest.raises(ValueError, match="finite"):
        prune(np.array([0.1, np.nan]), _res(2))
    with pytest.raises(ValueError, match="expected 2"):
        prune(np.array([0.1, 0.2, 0.3]), _res(2))


def test_report_layout():
    res = (ResolutionSpec(128, 32), ResolutionSpec(256, 64), ResolutionSpec(512, 128))
    result = prune(np.array([0.283866, 0.445875, 0.435033]), res)
    report = format_report(result)
    lines = report.splitlines()
    assert lines[0] == "256\t64\t0.445875\tretained"
    assert lines[1] == "512\t128\t0.435033\tretained"
    assert lines[2] == "128\t32\t0.283866\tdiscarded"
    assert lines[3] == "# largest gap after sorted position 1 (ascending, 1-based)"
    assert lines[4] == "# retained above the gap: 2 of 3; a literal 'last m*' reading would keep 1"
    assert lines[5] == "# top mean weight: 256/64 (0.445875)"
    assert report.endswith("\n")


def test_report_counts_reflect_both_readings():
    result = prune(np.array([0.05, 0.10, 0.55, 0.60, 0.65]), _res(5))
    report = format_report(result)
    assert "retained above the gap: 3 of 5" in report
    assert "would keep 2" in report


def test_rank_weights_heaviest_first_ties_in_input_order():
    res = _res(4)
    ranked = rank_weights(res, np.array([0.2, 0.7, 0.2, 0.7]))
    assert [r for r, _ in ranked] == [res[1], res[3], res[0], res[2]]
    assert ranked[0][1] == "128\t16\t0.700000"
