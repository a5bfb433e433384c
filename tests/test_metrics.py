import numpy as np
import pytest

from multires.metrics import (
    TdcfParams,
    det_points_from_scores,
    eer_from_scores,
    min_tdcf_from_scores,
    summary_line,
    write_det_csv,
)

from oracles import brute_eer, brute_min_tdcf, sweep_rates


def test_det_points_small_hand_case():
    # bona {1, 3}, spoof {0, 2}
    scores = np.array([1.0, 3.0, 0.0, 2.0])
    labels = np.array([1, 1, 0, 0])
    points = det_points_from_scores(scores, labels)
    assert points.shape == (6, 3) and points.dtype == np.float64
    assert points[:, 0].tolist() == [-np.inf, 0.0, 1.0, 2.0, 3.0, np.inf]
    assert [(p_miss, p_fa) for _, p_miss, p_fa in points.tolist()] == [
        (0.0, 1.0),
        (0.0, 1.0),
        (0.0, 0.5),
        (0.5, 0.5),
        (0.5, 0.0),
        (1.0, 0.0),
    ]


def test_det_points_match_counting_oracle():
    rng = np.random.default_rng(0)
    for _ in range(30):
        n = int(rng.integers(2, 15))
        scores = np.round(rng.standard_normal(n), 1)  # force ties
        labels = rng.integers(0, 2, n)
        if labels.min() == labels.max():
            labels[0] = 1 - labels[0]
        got = det_points_from_scores(scores, labels)
        want = sweep_rates(scores, labels)
        assert len(got) == len(want)
        for g, (t, pm, pf) in zip(got, want):
            assert g[0] == t
            assert g[1] == pytest.approx(pm, abs=1e-15)
            assert g[2] == pytest.approx(pf, abs=1e-15)


def test_eer_perfect_separation_is_zero():
    scores = np.array([-2.0, -1.5, 1.0, 2.0])
    labels = np.array([0, 0, 1, 1])
    assert eer_from_scores(scores, labels) == 0.0


def test_eer_total_confusion_is_half():
    scores = np.array([1.0, 2.0, 1.0, 2.0])
    labels = np.array([0, 0, 1, 1])
    assert eer_from_scores(scores, labels) == pytest.approx(0.5)


def test_eer_matches_brute_force_sweep():
    rng = np.random.default_rng(1)
    for _ in range(100):
        n = int(rng.integers(2, 13))
        scores = rng.standard_normal(n)
        labels = rng.integers(0, 2, n)
        if labels.min() == labels.max():
            labels[0] = 1 - labels[0]
        assert eer_from_scores(scores, labels) == pytest.approx(brute_eer(scores, labels), abs=1e-12)


def test_eer_invariant_under_monotone_transform():
    rng = np.random.default_rng(2)
    scores = rng.standard_normal(40)
    labels = rng.integers(0, 2, 40)
    labels[:2] = [0, 1]
    base = eer_from_scores(scores, labels)
    assert eer_from_scores(3.0 * scores + 7.0, labels) == pytest.approx(base, abs=1e-12)


def test_min_tdcf_matches_brute_force_and_is_normalized():
    rng = np.random.default_rng(3)
    params = TdcfParams(c1=0.7, c2=1.9)
    for _ in range(100):
        n = int(rng.integers(2, 13))
        scores = rng.standard_normal(n)
        labels = rng.integers(0, 2, n)
        if labels.min() == labels.max():
            labels[0] = 1 - labels[0]
        got = min_tdcf_from_scores(scores, labels, params)
        assert got == pytest.approx(brute_min_tdcf(scores, labels, 0.7, 1.9), abs=1e-12)
        assert 0.0 <= got <= 1.0 + 1e-12  # rejecting everything (or accepting everything) costs 1


def test_min_tdcf_zero_under_perfect_separation():
    scores = np.array([-1.0, 0.5, 2.0, 3.0])
    labels = np.array([0, 0, 1, 1])
    assert min_tdcf_from_scores(scores, labels, TdcfParams()) == 0.0


def test_tdcf_params_validation():
    with pytest.raises(ValueError, match="c2"):
        TdcfParams(c2=0.0)


def test_input_validation():
    with pytest.raises(ValueError, match="finite"):
        eer_from_scores(np.array([np.nan, 1.0]), np.array([0, 1]))
    with pytest.raises(ValueError, match="bona fide"):
        eer_from_scores(np.array([1.0, 2.0]), np.array([0, 0]))


def test_write_det_csv(tmp_path):
    points = np.array([[-np.inf, 0.0, 1.0], [0.5, 0.25, 0.5], [np.inf, 1.0, 0.0]])
    path = tmp_path / "det.csv"
    write_det_csv(points, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "threshold,p_miss,p_fa"
    assert lines[1] == "-inf,0.000000,1.000000"
    assert lines[2] == "0.500000,0.250000,0.500000"
    assert lines[3] == "inf,1.000000,0.000000"


def test_summary_line_format():
    assert summary_line(0.05, 0.125) == "eer=0.050000 min_tdcf=0.125000"
