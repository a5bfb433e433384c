"""Acceptance gate: nine end-to-end checks, one test (and one verdict line) each.

Criteria 1-6 and 9 verify the numerical kernels against independent
brute-force oracles at fixed tolerances; criteria 7-8 exercise the pinned
experiment of `configs/toy.cfg` (run twice, second run only to prove
byte-level determinism).
"""

from __future__ import annotations

import itertools
import time

import numpy as np

from multires.alignment import align_map
from multires.backend import BackendConfig
from multires.cache import FeatureCache, read_cache, write_cache
from multires.config import default_config, parse_config, serialize_config
from multires.metrics import TdcfParams, eer_from_scores, min_tdcf_from_scores
from multires.model import (
    init_model,
    load_checkpoint,
    model_backward,
    model_forward,
    model_params,
    named_params,
    save_checkpoint,
)
from multires.pruning import prune
from multires.signal_io import Waveform, read_wav, write_wav
from multires.stft import ResolutionSpec, hann_window, stft
from multires.trainer import TrainConfig, adam_step, init_optimizer, lr_at
from multires.pipeline import cache_path

from oracles import (
    adam_trace,
    brute_eer,
    brute_min_tdcf,
    brute_prune,
    central_difference,
    naive_dft_matrix,
    pool_1d,
    reflect_frames,
)
from helpers import array_rows, reduced


def _verdict(n: int, ok: bool, detail: str) -> None:
    print(f"criterion {n}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok


def test_criterion_1_stft_matches_naive_dft():
    start = time.monotonic()
    rng = np.random.default_rng(1001)
    windows = (512, 1724)
    hops = {512: 160, 1724: 130}
    dft = {ResolutionSpec(w, hops[w]).n_fft: None for w in windows}
    for n_fft in dft:
        dft[n_fft] = naive_dft_matrix(n_fft)
    worst = 0.0
    for _ in range(50):
        length = int(rng.integers(1025, 4097))  # >= n_fft/2 + 1 for reflect padding
        x = rng.standard_normal(length)
        for w in windows:
            res = ResolutionSpec(w, hops[w])
            got = stft(Waveform(x, 8000), res)
            frames = reflect_frames(x, hann_window(w), res.n_fft, res.hop_len)
            want = frames @ dft[res.n_fft].T
            assert got.shape == want.shape
            worst = max(worst, float(np.abs(got - want).max()))
    elapsed = time.monotonic() - start
    ok = worst <= 1e-9 and elapsed < 30.0
    _verdict(1, ok, f"50 signals x windows {windows}, max |err| {worst:.3e}, {elapsed:.1f}s")


def test_criterion_2_adaptive_pooling_matches_bin_formula():
    rng = np.random.default_rng(1002)
    exact = True
    for n_in, n_out in itertools.product(range(1, 13), repeat=2):
        col = rng.standard_normal((n_in, 1))
        got = align_map(col, n_out, 1)
        want = np.array(pool_1d(list(col[:, 0]), n_out))[:, None]
        exact &= bool((got == want).all())
        row = rng.standard_normal((1, n_in))
        got = align_map(row, 1, n_out)
        want = np.array(pool_1d(list(row[0]), n_out))[None, :]
        exact &= bool((got == want).all())
    ident = np.arange(30.0).reshape(5, 6)
    exact &= bool((align_map(ident, 5, 6) == ident).all())
    up = align_map(np.array([[1.0], [2.0], [3.0], [4.0]]), 8, 1)[:, 0]
    exact &= up.tolist() == [1.0, 1.0, 2.0, 2.0, 3.0, 3.0, 4.0, 4.0]
    _verdict(2, exact, "all (In, Out) <= 12 bitwise, identity, doubling example")


def test_criterion_3_end_to_end_gradient_check():
    start = time.monotonic()
    resolutions = (ResolutionSpec(128, 32), ResolutionSpec(256, 64), ResolutionSpec(512, 128))
    config = BackendConfig(stem_channels=4, stages=1, blocks_per_stage=1, se_reduction=4)
    model = init_model(resolutions, config, np.random.default_rng(1003))
    rng = np.random.default_rng(1004)
    x = rng.standard_normal((1, 3, 6, 6))
    logits, cache = model_forward(x, model)
    d_logits = rng.standard_normal(logits.shape)
    grads = reduced(*model_backward(cache, d_logits)[1])

    def loss():
        out, _ = model_forward(x, model)
        return float((out * d_logits).sum())

    numeric = central_difference(loss, model_params(model), step=1e-5)
    names = [name for name, _ in named_params(model.predictor, model.backend)]
    worst_rel = 0.0
    for name, a, n in zip(names, grads, numeric, strict=True):
        np.testing.assert_allclose(a, n, rtol=1e-4, atol=1e-7, err_msg=name)
        denom = np.maximum(np.abs(n), 1e-7 / 1e-4)
        worst_rel = max(worst_rel, float((np.abs(a - n) / denom).max()))
    elapsed = time.monotonic() - start
    n_params = sum(p.size for p in model_params(model))
    ok = elapsed < 60.0
    _verdict(3, ok, f"{n_params} parameters, worst rel err {worst_rel:.3e}, {elapsed:.1f}s")


def test_criterion_4_metric_oracles():
    rng = np.random.default_rng(1005)
    params = TdcfParams(c1=1.3, c2=0.6)
    worst = 0.0
    for _ in range(200):
        n = int(rng.integers(2, 13))
        scores = np.round(rng.standard_normal(n), 2)  # rounding forces ties
        labels = rng.integers(0, 2, n)
        if labels.min() == labels.max():
            labels[rng.integers(0, n)] = 1 - labels[0]
        e = eer_from_scores(scores, labels)
        t = min_tdcf_from_scores(scores, labels, params)
        worst = max(
            worst,
            abs(e - brute_eer(scores, labels)),
            abs(t - brute_min_tdcf(scores, labels, params.c1, params.c2)),
        )
        assert t <= 1.0 + 1e-12
    sep_scores = np.array([-3.0, -2.0, 1.0, 1.5])
    sep_labels = np.array([0, 0, 1, 1])
    zero_ok = (
        eer_from_scores(sep_scores, sep_labels) == 0.0
        and min_tdcf_from_scores(sep_scores, sep_labels, params) == 0.0
    )
    ok = worst <= 1e-12 and zero_ok
    _verdict(4, ok, f"200 score sets, max oracle gap {worst:.3e}, perfect separation -> 0")


def test_criterion_5_pruning_matches_exhaustive_gap_search():
    grid = [0.1 * k for k in range(11)]
    checked = 0
    agree = True
    for m in (2, 3, 4):
        res = tuple(ResolutionSpec(64 * (i + 1), 16) for i in range(m))
        for combo in itertools.product(grid, repeat=m):
            result = prune(np.array(combo), res)
            want = brute_prune(list(combo))
            agree &= sorted(res.index(r) for r in result.retained) == want
            checked += 1
    res5 = tuple(ResolutionSpec(64 * (i + 1), 16) for i in range(5))
    worked = prune(np.array([0.05, 0.10, 0.55, 0.60, 0.65]), res5)
    agree &= worked.retained == res5[2:]
    shifted = prune(np.array([0.05, 0.10, 0.55, 0.60, 0.65]) + 0.17, res5)
    agree &= shifted.retained == worked.retained
    _verdict(5, agree, f"{checked} grid profiles, worked example top-3, shift invariance")


def test_criterion_6_schedule_and_adam_trace():
    anchors = (
        lr_at(1000, 2e-3, 1000) == 2e-3
        and lr_at(250, 2e-3, 1000) == 0.25 * 2e-3
        and lr_at(4000, 2e-3, 1000) == 0.5 * 2e-3
    )
    grads = [0.5, -0.3, 0.2]
    worst = 0.0
    for wd in (0.0, 0.01):
        p = [np.array([1.2])]
        state = init_optimizer(p, TrainConfig(peak_lr=0.1, warmup_steps=2, weight_decay=wd))
        want = adam_trace(1.2, grads, 0.1, 2, weight_decay=wd)
        for g, expect in zip(grads, want):
            adam_step(p, [np.array([g])], state)
            worst = max(worst, abs(float(p[0][0]) - expect))
    ok = anchors and worst <= 1e-12
    _verdict(6, ok, f"warmup anchors exact, 3-step Adam trace gap {worst:.3e}")


def test_criterion_7_toy_experiment(toy_runs):
    run = toy_runs[0]
    report = run["eval_report"]
    elapsed = run["elapsed_s"]
    prune_report = (run["config"].checkpoint_dir / "prune_report.txt").read_text()
    top_line = next(l for l in prune_report.splitlines() if l.startswith("# top mean weight"))
    completes = (
        run["refined_checkpoint"].is_file()
        and (run["config"].checkpoint_dir / "train_log.refined.txt").is_file()
        and len(run["prune_result"].retained) >= 1
    )
    ok = report.eer <= 0.10 and elapsed <= 900.0 and completes
    _verdict(
        7,
        ok,
        f"eval EER {report.eer:.4f}, min t-DCF {report.min_tdcf:.4f}, "
        f"{elapsed:.0f}s wall, prune+retrain done; reported '{top_line}'",
    )


def test_criterion_8_byte_level_determinism(toy_runs):
    first, second = toy_runs
    cfg_a, cfg_b = first["config"], second["config"]
    identical = True
    compared = []
    for name in ("train_log.txt", "train_log.refined.txt", "prune_report.txt", "full.mrck", "refined.mrck"):
        a = (cfg_a.checkpoint_dir / name).read_bytes()
        b = (cfg_b.checkpoint_dir / name).read_bytes()
        identical &= a == b
        compared.append(name)
    for split in ("train", "dev", "eval"):
        identical &= cache_path(cfg_a, split).read_bytes() == cache_path(cfg_b, split).read_bytes()
        compared.append(f"{split} cache")
    _verdict(8, identical, f"re-run byte-identical across {len(compared)} artifacts")


def test_criterion_9_format_round_trips(tmp_path):
    ok = True
    # WAV: int16-grid samples survive exactly
    rng = np.random.default_rng(1009)
    wave = Waveform(rng.integers(-32768, 32768, 500) / 32768.0, 8000)
    write_wav(tmp_path / "a.wav", wave)
    back = read_wav(tmp_path / "a.wav")
    ok &= back.sample_rate == 8000 and bool((back.samples == wave.samples).all())

    # feature cache: float32 payload byte-exact
    res = (ResolutionSpec(128, 32), ResolutionSpec(256, 64))
    stacks = rng.standard_normal((3, 2, 4, 5)).astype(np.float32)
    cache = FeatureCache(res, array_rows(stacks), ("u0", "u1", "u2"), np.array([0, 1, 0], dtype=np.uint8))
    write_cache(cache, tmp_path / "c.mrfe")
    cback = read_cache(tmp_path / "c.mrfe")
    ok &= cback.ids == cache.ids and bool(
        (cback.stacks[:].view(np.uint32) == stacks.view(np.uint32)).all()
    )

    # checkpoint: float64 parameters byte-exact through save/load
    model = init_model(res, BackendConfig(stem_channels=4, stages=2, blocks_per_stage=1, se_reduction=2), np.random.default_rng(7))
    save_checkpoint(model, tmp_path / "m.mrck")
    mback = load_checkpoint(tmp_path / "m.mrck")
    ok &= all(
        bool((a == b).all()) for a, b in zip(model_params(model), model_params(mback))
    )

    # config: parse(serialize(config)) == config, twice over
    cfg = parse_config("corpus.duration_s = 2.5\ntrain.peak_lr = 0.0007\nalignment.target = 96x65\n")
    text = serialize_config(cfg)
    ok &= parse_config(text) == cfg and serialize_config(parse_config(text)) == text
    ok &= parse_config(serialize_config(default_config())) == default_config()
    _verdict(9, ok, "WAV, feature cache, checkpoint, config all round-trip")
