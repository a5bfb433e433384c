"""Shared fixtures: the toy experiment that acceptance criteria 7 and 8 check,
and a small extracted eval split for the tests of work split over processes.

The experiment is `configs/toy.cfg`, the file the README runs, with only its
three `paths.*` directories moved under a temporary root (`helpers.toy_config`):
400/100/200 one-second utterances at 8 kHz, three resolutions, a slim
backend, 4 epochs. It runs exactly twice per session: the first pass feeds
the end-to-end quality checks, the second exists only to prove byte-level
determinism against the first. `micro_eval` is the micro config with a
7-utterance eval split, generated and extracted once. Other shared setups
live in `helpers.py`.
"""

from __future__ import annotations

import time
from pathlib import Path

import pytest

from multires import pipeline

from helpers import micro_config, toy_config


def run_toy_pipeline(root: Path) -> dict:
    """gen-data -> extract -> train -> eval -> prune/retrain -> eval refined."""
    config = toy_config(root)
    start = time.monotonic()
    pipeline.run_gen_data(config)
    pipeline.run_extract(config)
    train_result, ckpt = pipeline.run_train(config)
    eval_report = pipeline.run_eval(config, ckpt)
    prune_result, refined_result, refined_ckpt = pipeline.run_prune(config, ckpt)
    refined_report = pipeline.run_eval(config, refined_ckpt)
    elapsed = time.monotonic() - start
    return {
        "root": root,
        "config": config,
        "elapsed_s": elapsed,
        "train_result": train_result,
        "checkpoint": ckpt,
        "eval_report": eval_report,
        "prune_result": prune_result,
        "refined_result": refined_result,
        "refined_checkpoint": refined_ckpt,
        "refined_report": refined_report,
    }


@pytest.fixture(scope="session")
def toy_runs(tmp_path_factory):
    first = run_toy_pipeline(tmp_path_factory.mktemp("toy_a"))
    second = run_toy_pipeline(tmp_path_factory.mktemp("toy_b"))
    return first, second


@pytest.fixture(scope="session")
def micro_eval(tmp_path_factory):
    """A 7-utterance eval split of the micro corpus, extracted and on disk."""
    config = micro_config(tmp_path_factory.mktemp("micro_eval"), **{"corpus.n_eval": "7"})
    pipeline.run_gen_data(config)
    pipeline.run_extract(config, ("eval",))
    return config
