import mmap
import os
import platform
import re
import signal
import threading
from pathlib import Path

import numpy as np
import pytest

from multires import parallel, pipeline
from multires.cache import CacheRows, FeatureCache, write_cache
from multires.signal_io import read_protocol, read_wav
from multires.stft import log_magnitude

from helpers import array_rows, counting_forks, fresh_run


def _shared_calls(n_items: int):
    """A work function that counts the runs of each item in memory a forked child shares.

    It returns its share and the id of the process that ran it.
    """
    seen = np.frombuffer(mmap.mmap(-1, max(n_items, 1)), dtype=np.uint8)[:n_items]
    calls = []

    def work(start, stop):
        calls.append((start, stop))
        seen[start:stop] += 1
        return start, stop, os.getpid()

    return work, calls, seen


def test_runner_forks_one_share_per_cpu(monkeypatch):
    # with 4 CPUs, 5 items go out as shares [0,1) here and [1,2), [2,3), [3,5)
    # in three children; each item runs exactly once, and each share's
    # result comes back in share order
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3})
    assert parallel.workers() == 4
    forks = counting_forks(monkeypatch)
    work, calls, seen = _shared_calls(5)
    results = parallel.run_shares(5, work)
    assert calls == [(0, 1)]
    assert len(forks) == 3
    assert results == [(0, 1, os.getpid()), (1, 2, forks[0]), (2, 3, forks[1]), (3, 5, forks[2])]
    assert seen.tolist() == [1] * 5
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_runner_forks_nothing_for_one_cpu_one_item_or_a_thread(monkeypatch):
    # a single worker runs every item here: on one CPU, for one item, and
    # while another Python thread is alive (a forked child would keep only
    # the forking thread)
    forks = counting_forks(monkeypatch)
    with monkeypatch.context() as patch:
        patch.setattr(os, "sched_getaffinity", lambda pid: {0})
        assert parallel.workers() == 1
        work, calls, _ = _shared_calls(4)
        assert parallel.run_shares(4, work) == [(0, 4, os.getpid())]
        assert calls == [(0, 4)]

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3})
    work, calls, _ = _shared_calls(1)
    assert parallel.run_shares(1, work) == [(0, 1, os.getpid())]
    assert calls == [(0, 1)]

    release = threading.Event()
    thread = threading.Thread(target=release.wait, args=(30,))
    thread.start()
    try:
        assert parallel.workers() == 1
        work, calls, _ = _shared_calls(4)
        parallel.run_shares(4, work)
        assert calls == [(0, 4)]
    finally:
        release.set()
        thread.join(timeout=30)
    assert not thread.is_alive()
    assert forks == []


def test_write_cache_bitwise_at_any_worker_count(micro_eval, tmp_path, monkeypatch):
    # shares of rows written by forked children give the bytes of one
    # process, also with more workers than CPUs or rows, for rows extracted
    # on demand and rows read from disk; an empty split forks nothing
    config = micro_eval
    sources = {
        "extracted": pipeline.extract_split(config, "eval"),
        "read": pipeline.load_split_cache(config, "eval"),
    }
    assert sources["read"].n_utterances == 7
    want = pipeline.cache_path(config, "eval").read_bytes()
    forks = counting_forks(monkeypatch)
    for name, cache in sources.items():
        for workers in (1, 2, 5):
            monkeypatch.setattr(parallel, "workers", lambda: workers)
            path = tmp_path / f"{name}{workers}.mrfe"
            write_cache(cache, path)
            assert path.read_bytes() == want, (name, workers)
            assert len(forks) == min(workers, 7) - 1
            forks.clear()
    empty = FeatureCache(config.resolutions, array_rows(np.zeros((0, 2, 4, 4))), (), np.zeros(0, dtype=np.uint8))
    write_cache(empty, tmp_path / "empty.mrfe")
    assert forks == []
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _poisoned_extract(config, monkeypatch, rows: tuple[int, ...]) -> FeatureCache:
    """The eval split, extracted with a NaN in one map of each utterance in `rows`."""
    entries = read_protocol(config.corpus_dir / "eval_protocol.tsv")
    bad = {config.corpus_dir / entries[row].path for row in rows}
    reading = []

    def read(path, **kwargs):
        reading[:] = [Path(path)]
        return read_wav(path, **kwargs)

    def poisoned(spectrum):
        out = log_magnitude(spectrum)
        if reading[0] in bad:
            out[0, 0] = np.nan
        return out

    monkeypatch.setattr(pipeline, "read_wav", read)
    monkeypatch.setattr(pipeline, "log_magnitude", poisoned)
    return pipeline.extract_split(config, "eval")


def test_extract_failure_raises_reaps_and_keeps_the_earlier_cache(micro_eval, tmp_path, monkeypatch):
    # a non-finite row in a child's share, in this process's own share or in
    # both raises the first failing row's error, as serially; a child that
    # dies without a word is reported too. No temp file is left, the cache
    # already at the path keeps its bytes, and no child is left unreaped
    config = micro_eval
    earlier = pipeline.cache_path(config, "eval").read_bytes()
    path = tmp_path / "eval.mrfe"
    path.write_bytes(earlier)
    ids = pipeline.load_split_cache(config, "eval").ids
    monkeypatch.setattr(parallel, "workers", lambda: 2)  # shares rows 0-2 and 3-6
    forks = counting_forks(monkeypatch)

    def check_failed(write, error, match):
        with pytest.raises(error, match=match):
            write()
        assert len(forks) == 1
        forks.clear()
        assert list(tmp_path.iterdir()) == [path]
        assert path.read_bytes() == earlier
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    message = "eval utterance {!r} has non-finite features".format
    for rows in ((5,), (1,), (1, 5), (5, 6)):
        with monkeypatch.context() as patch:
            cache = _poisoned_extract(config, patch, rows)
            check_failed(lambda: write_cache(cache, path), pipeline.PipelineError, re.escape(message(ids[rows[0]])))

    parent = os.getpid()
    extracted = pipeline.extract_split(config, "eval").stacks

    def killed(out, n):
        if n == 4 and os.getpid() != parent:
            os.kill(os.getpid(), signal.SIGKILL)
        out[...] = extracted[n : n + 1][0]

    cache = FeatureCache(config.resolutions, CacheRows(extracted.shape, killed), ids, np.zeros(7, dtype=np.uint8))
    check_failed(lambda: write_cache(cache, path), RuntimeError, "forked process .* ended with wait status")


def test_workers_answer_in_turn_and_are_reaped_on_every_exit(monkeypatch):
    # with 3 CPUs two workers are forked once; a round runs its first
    # request here and request i + 1 in worker i, and returns the answers in
    # request order, each process keeping its state between rounds. A round
    # raises the first failing request's error, a killed worker is named by
    # its wait status, and leaving the block, also by an exception, kills
    # and reaps every worker
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
    forks = counting_forks(monkeypatch)
    parent = os.getpid()
    seen = []

    def handle(request):
        seen.append(request)
        if request.startswith("fail"):
            raise ValueError(f"{request} after {seen[:-1]}")
        if request == "die" and os.getpid() != parent:
            os.kill(os.getpid(), signal.SIGKILL)
        return os.getpid(), len(seen)

    def reaped():
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    with parallel.Workers(handle, 3) as workers:
        assert len(workers) == len(forks) == 2
        assert workers.run(["a", "a", "a"]) == [(parent, 1)] + [(pid, 1) for pid in forks]
        assert workers.run(["b", "b"]) == [(parent, 2), (forks[0], 2)]
        assert workers.run(["c"]) == [(parent, 3)]
        # worker 0 has run a and b, worker 1 only a; the first failure wins
        with pytest.raises(ValueError, match=re.escape("fail1 after ['a', 'b']")):
            workers.run(["d", "fail1", "fail2"])
    assert seen == ["a", "b", "c", "d"]
    reaped()

    seen.clear()  # before the fork, so the next workers start empty too
    with parallel.Workers(handle, 3) as workers:
        with pytest.raises(ValueError, match=re.escape("fail2 after []")):
            workers.run(["a", "a", "fail2"])
    reaped()

    with pytest.raises(RuntimeError, match="forked process .* ended with wait status"):
        with parallel.Workers(handle, 3) as workers:
            workers.run(["a", "die", "a"])
    reaped()

    # this process fails first, mid-round or between rounds
    with pytest.raises(ValueError, match="fail0 after"):
        with parallel.Workers(handle, 3) as workers:
            workers.run(["fail0", "die", "a"])
    reaped()
    with pytest.raises(KeyError):
        with parallel.Workers(handle, 3) as workers:
            workers.run(["a", "a", "a"])
            raise KeyError("this process failed first")
    assert len(forks) == 10
    reaped()

    # no more processes than a round can use, this one included, nor than CPUs
    for processes, forked in ((2, 1), (1, 0), (9, 2)):
        with parallel.Workers(handle, processes) as workers:
            assert len(workers) == forked
    assert len(forks) == 13
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    seen.clear()
    with parallel.Workers(handle, 3) as workers:
        assert len(workers) == 0
        assert workers.run(["z"]) == [(parent, 1)]
    assert len(forks) == 13
    reaped()


# With glibc's malloc, `multires` keeps freed pages, so each step writes
# into the pages the last one freed. A step that faults in fresh pages
# takes 2,500 to 3,000 faults; a few dozen leave room for the interpreter.
GLIBC = pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="pages are kept by glibc's malloc only")
STEP_FAULTS = 50
STEP_FAULTS_SCRIPT = """
import json
import multires
from helpers import toy_step
step = toy_step()
print(json.dumps([step() for _ in range(5)]))
"""
# The caller runs its own steps before the fork, so the worker inherits
# freed pages to trim; then each round runs one step here and one in it.
WORKER_STEP_FAULTS_SCRIPT = """
import json
import os
import multires
from multires import parallel
from helpers import toy_step
step = toy_step()
[step() for _ in range(3)]
os.sched_getaffinity = lambda pid: {0, 1}
with parallel.Workers(lambda request: step(), 2) as workers:
    assert len(workers) == 1
    print(json.dumps([workers.run([None, None])[1] for _ in range(5)]))
"""


@GLIBC
def test_training_steps_reuse_freed_pages():
    # after two warm-up steps, a toy step in a fresh process reuses the pages
    faults = fresh_run(STEP_FAULTS_SCRIPT)
    assert max(faults[2:]) <= STEP_FAULTS, faults


@GLIBC
def test_worker_training_steps_reuse_freed_pages():
    # so does a forked `Workers` worker, which trimmed what it inherited,
    # measured in a fresh process: in a long-lived one the caller's heap
    # history moved the worker's readings
    faults = fresh_run(WORKER_STEP_FAULTS_SCRIPT)
    assert max(faults[2:]) <= STEP_FAULTS, faults
