"""Run work on every CPU, by fork: a range of items in shares, or a stream of requests.

`Workers(handle, processes)` forks, once, one process per CPU but this
one, and no more than `processes` - 1, for work that comes in rounds.
Each worker answers the requests this process sends it, one at a time,
with ``handle(request)``, and keeps what `handle` keeps between requests.
Requests and answers travel pickled on a pair of pipes per worker.
`trainer.train` forks them once per run and sends one request per
training step.

`run_shares(n, work)` rides on `Workers`: it cuts items ``0..n`` into one
contiguous share per CPU this process may run on (`workers`, at most one
share per item), asks worker i for share i + 1, runs the first share
itself, then waits for each worker's answer in share order. `work`
writes its results where every process sees them: a shared `mmap`
(`trainer.score_cache`), its own byte range of an open file
(`cache.write_cache`) or files of its own (`corpus.generate_corpus`).
The shares are the serial ones cut at other points, so any result that
depends only on its item is the same at any process count.

A worker first hands back to the OS the free heap pages it inherited
(glibc's ``malloc_trim``): `multires` tells malloc to keep freed pages, so
that each step reuses the last one's, and a worker that kept them would
pay a copy-on-write copy for memory that neither process uses. A worker
reports a failure as its pickled exception on its pipe and leaves with
``os._exit``, so it never flushes a buffer or runs a cleanup it inherited
from this process. `Workers.close` kills and reaps every worker, on any
way out of its ``with`` block, so no worker outlives `run_shares` or
`train`. The error of the first failing share is raised, as it would be
if the shares ran one after another in one process; a worker that ended
without one (killed, say, by the OS when memory ran out) raises
`ForkedProcessError`.
"""

from __future__ import annotations

import ctypes
import os
import pickle
import signal
import threading
from typing import BinaryIO, Callable

Work = Callable[[int, int], None]


class ForkedProcessError(RuntimeError):
    """A forked worker ended without reporting an error: killed, or exited early."""


def workers() -> int:
    """Processes the work may spread over: one per CPU this process may use.

    One while other threads run, since a forked child keeps only the thread
    that forked (and Python 3.12+ warns about such a fork), and one where
    the OS cannot say which CPUs this process may run on.
    """
    if threading.active_count() > 1 or not hasattr(os, "sched_getaffinity"):
        return 1
    return len(os.sched_getaffinity(0))


def _portable(exc: BaseException) -> BaseException:
    """exc if it survives a pickle round trip, else a RuntimeError naming it."""
    try:
        pickle.loads(pickle.dumps(exc))
        return exc
    except Exception:
        return RuntimeError(f"{type(exc).__name__}: {exc}")


def _trim_heap() -> None:
    """Return the heap's free pages to the OS, where the C library is glibc."""
    try:
        malloc_trim = ctypes.CDLL(None).malloc_trim
    except (AttributeError, OSError, TypeError):
        return
    malloc_trim.argtypes = (ctypes.c_size_t,)
    malloc_trim.restype = ctypes.c_int
    malloc_trim(0)


def run_shares(n_items: int, work: Work) -> None:
    """Call work(start, stop) over contiguous shares of items 0..n_items, one per worker.

    This process runs the first share, a `Workers` worker each other one.
    """
    count = max(1, min(workers(), n_items))
    bounds = [share * n_items // count for share in range(count + 1)]
    with Workers(lambda share: work(bounds[share], bounds[share + 1]), count) as pool:
        for i in range(len(pool)):
            pool.ask(i, i + 1)
        work(0, bounds[1])
        for i in range(len(pool)):
            pool.answer(i)


class Workers:
    """One forked process per CPU but this one, each answering requests with handle(request).

    At most `processes` - 1 are forked: `processes` counts the processes a
    round of work can use, this one included. ``ask(i, request)`` sends
    worker i a request, and ``answer(i)`` waits for its answer; a worker
    answers its requests in order. `answer` raises the exception `handle`
    failed with, or `ForkedProcessError` for a worker that ended without
    one. None is forked on one CPU or while another thread runs. Use it in
    a ``with`` block: `close` kills and reaps every worker, and a worker
    left without this process reads the end of its requests and exits.
    """

    def __init__(self, handle: Callable[[object], object], processes: int) -> None:
        self._pids: list[int] = []
        self._requests: list[BinaryIO] = []
        self._answers: list[BinaryIO] = []
        try:
            for _ in range(min(workers(), processes) - 1):
                self._fork(handle)
        except BaseException:
            self.close()
            raise

    def _fork(self, handle: Callable[[object], object]) -> None:
        """Fork one worker that answers each pickled request with handle(request)."""
        requests_r, requests_w = os.pipe()
        answers_r, answers_w = os.pipe()
        try:
            pid = os.fork()
        except OSError:
            for fd in (requests_r, requests_w, answers_r, answers_w):
                os.close(fd)
            raise
        if pid:
            os.close(requests_r)
            os.close(answers_w)
            self._pids.append(pid)
            self._requests.append(open(requests_w, "wb"))
            self._answers.append(open(answers_r, "rb"))
            return
        status = 1
        try:
            os.close(requests_w)
            os.close(answers_r)
            for pipe in self._requests + self._answers:  # the other workers' pipes
                pipe.close()
            _trim_heap()
            with open(requests_r, "rb") as requests, open(answers_w, "wb") as answers:
                try:
                    while True:
                        try:
                            request = pickle.load(requests)
                        except EOFError:  # this process closed the pipe, or is gone
                            break
                        pickle.dump((True, handle(request)), answers, pickle.HIGHEST_PROTOCOL)
                        answers.flush()
                    status = 0
                except BaseException as exc:
                    pickle.dump((False, _portable(exc)), answers)
        except OSError:  # this process stopped reading: it failed first and is killing its workers
            pass
        finally:
            os._exit(status)

    def __len__(self) -> int:
        return len(self._pids)

    def __enter__(self) -> Workers:
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def ask(self, index: int, request: object) -> None:
        try:
            pickle.dump(request, self._requests[index], pickle.HIGHEST_PROTOCOL)
            self._requests[index].flush()
        except BrokenPipeError:
            self.answer(index)  # the worker is gone: raise what it ended with
            raise

    def answer(self, index: int) -> object:
        try:
            ok, value = pickle.load(self._answers[index])
        except EOFError:
            pid, self._pids[index] = self._pids[index], 0
            _, status = os.waitpid(pid, 0)
            raise ForkedProcessError(f"forked process {pid} ended with wait status {status}") from None
        if not ok:
            raise value
        return value

    def close(self) -> None:
        """Kill and reap every worker and close its pipes."""
        for pid in self._pids:
            if pid:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
        for pipe in self._requests + self._answers:
            try:
                pipe.close()
            except OSError:  # a request left unread in the buffer of a killed worker's pipe
                pass
        self._pids, self._requests, self._answers = [], [], []
