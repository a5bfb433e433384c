"""Run one piece of work over a range of items on every CPU, by fork.

`run_shares(n, work)` cuts items ``0..n`` into one contiguous share per CPU
this process may run on (`workers`, at most one share per item) and calls
``work(start, stop)`` once per share. This process runs the first share
and a forked child each other one, so `work` writes its results where
every process sees them: a shared `mmap` (`trainer.score_cache`) or its own
byte range of an open file (`cache.write_cache`). The shares are the
serial ones cut at other points, so any result that depends only on its
item is the same at any process count.

A child reports a failure as its pickled exception on a pipe and leaves
with ``os._exit``, so it never flushes a buffer or runs a cleanup it
inherited from this process. Every child is reaped before `run_shares`
returns; if this process's own share fails, the children are killed
first. The error of the first failing share is raised, as it would be if
the shares ran one after another in one process.
"""

from __future__ import annotations

import os
import pickle
import signal
import threading
from typing import Callable

Work = Callable[[int, int], None]


def workers() -> int:
    """Processes `run_shares` may spread its items over: one per CPU it may use.

    One while other threads run, since a forked child keeps only the thread
    that forked (and Python 3.12+ warns about such a fork), and one where
    the OS cannot say which CPUs this process may run on.
    """
    if threading.active_count() > 1 or not hasattr(os, "sched_getaffinity"):
        return 1
    return len(os.sched_getaffinity(0))


def _fork_share(work: Work, start: int, stop: int) -> tuple[int, int]:
    """Fork a child that runs work(start, stop) and exits.

    Returns its pid and the read end of a pipe that carries the pickled
    exception if the child fails, and nothing if it succeeds.
    """
    read_fd, write_fd = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(read_fd)
        os.close(write_fd)
        raise
    if pid:
        os.close(write_fd)
        return pid, read_fd
    status = 1
    try:
        os.close(read_fd)
        work(start, stop)
        status = 0
    except BaseException as exc:
        try:
            payload = pickle.dumps(exc)
            pickle.loads(payload)
        except Exception:
            payload = pickle.dumps(RuntimeError(f"{type(exc).__name__}: {exc}"))
        try:
            with open(write_fd, "wb", closefd=False) as pipe:
                pipe.write(payload)
        except OSError:  # the parent stopped reading: it failed first and is killing its children
            pass
    finally:
        os._exit(status)


def _share_error(pid: int, payload: bytes, status: int) -> BaseException | None:
    """The exception a reaped child ended with, from its pipe and wait status, or None."""
    if payload:
        return pickle.loads(payload)
    if status:
        return RuntimeError(f"forked process {pid} ended with wait status {status}")
    return None


def run_shares(n_items: int, work: Work) -> None:
    """Call work(start, stop) over contiguous shares of items 0..n_items, one per worker.

    This process runs the first share, a forked child each other one.
    """
    count = min(workers(), n_items)
    if count <= 1:
        work(0, n_items)
        return
    bounds = [share * n_items // count for share in range(count + 1)]
    children: dict[int, int] = {}  # pid -> read end of its error pipe, until reaped
    try:
        for share in range(1, count):
            pid, read_fd = _fork_share(work, bounds[share], bounds[share + 1])
            children[pid] = read_fd
        work(0, bounds[1])
        errors = []
        for pid, read_fd in list(children.items()):
            with open(read_fd, "rb", closefd=False) as pipe:
                payload = pipe.read()
            _, status = os.waitpid(pid, 0)
            del children[pid]
            os.close(read_fd)
            errors.append(_share_error(pid, payload, status))
        failed = next((error for error in errors if error is not None), None)
        if failed is not None:
            raise failed
    finally:
        for pid, read_fd in children.items():
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            os.close(read_fd)
