"""Run work on every CPU, by fork: a range of items in shares, or a stream of requests.

`run_shares(n, work)` cuts items ``0..n`` into one contiguous share per CPU
this process may run on (`workers`, at most one share per item) and calls
``work(start, stop)`` once per share. This process runs the first share
and a forked child each other one, so `work` writes its results where
every process sees them: a shared `mmap` (`trainer.score_cache`) or its own
byte range of an open file (`cache.write_cache`). The shares are the
serial ones cut at other points, so any result that depends only on its
item is the same at any process count.

`Workers(handle, processes)` forks, once, one process per CPU but this
one, and no more than `processes` - 1, for work that comes in many rounds
(`trainer.train`, one round per training step, in as many shares as its
batch allows). Each worker answers the requests this process sends it,
one at a time, with ``handle(request)``, and keeps what `handle` keeps
between requests. Requests and answers travel pickled on a pair of pipes
per worker.

A child first hands back to the OS the free heap pages it inherited
(glibc's ``malloc_trim``): `multires` tells malloc to keep freed pages, so
that each step reuses the last one's, and a child that kept them would pay
a copy-on-write copy for memory that neither process uses. A child reports
a failure as its pickled exception on its pipe and leaves with
``os._exit``, so it never flushes a buffer or runs a cleanup it inherited
from this process. `run_shares` reaps every child before it returns; if
this process's own share fails, the children are killed first.
`Workers.close` kills and reaps every worker, on any way out of its
``with`` block. The error of the first failing share is raised, as it
would be if the shares ran one after another in one process; a child that
ended without one (killed, say, by the OS when memory ran out) raises
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
    """A forked child ended without reporting an error: killed, or exited early."""


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


def _fork(body: Callable[[BinaryIO], None], inherited: tuple[int, ...] = ()) -> tuple[int, int]:
    """Fork a child that runs body(pipe) and exits; returns its pid and the pipe's read end.

    `body` may write answers on `pipe`. If it fails, ``(False, exception)``
    follows them, pickled. The child first closes `inherited`, descriptors
    of this process's other children that it must not hold open, and trims
    the free heap pages it inherited.
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
        for fd in (read_fd, *inherited):
            os.close(fd)
        _trim_heap()
        with open(write_fd, "wb") as pipe:
            try:
                body(pipe)
                status = 0
            except BaseException as exc:
                pipe.write(pickle.dumps((False, _portable(exc))))
    except OSError:  # the parent stopped reading: it failed first and is killing its children
        pass
    finally:
        os._exit(status)


def _reap(pid: int) -> ForkedProcessError | None:
    """Wait for a child to end; the error it ended with, or None if it exited cleanly."""
    _, status = os.waitpid(pid, 0)
    return ForkedProcessError(f"forked process {pid} ended with wait status {status}") if status else None


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
            pid, read_fd = _fork(lambda pipe, a=bounds[share], b=bounds[share + 1]: work(a, b))
            children[pid] = read_fd
        work(0, bounds[1])
        errors = []
        for pid, read_fd in list(children.items()):
            with open(read_fd, "rb", closefd=False) as pipe:
                payload = pipe.read()
            ended = _reap(pid)
            del children[pid]
            os.close(read_fd)
            errors.append(pickle.loads(payload)[1] if payload else ended)
        failed = next((error for error in errors if error is not None), None)
        if failed is not None:
            raise failed
    finally:
        for pid, read_fd in children.items():
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            os.close(read_fd)


def _serve(handle: Callable[[object], object], requests_fd: int, answers: BinaryIO) -> None:
    """Answer each pickled request with handle(request), until the requests end."""
    with open(requests_fd, "rb") as requests:
        while True:
            try:
                request = pickle.load(requests)
            except EOFError:
                return
            pickle.dump((True, handle(request)), answers, pickle.HIGHEST_PROTOCOL)
            answers.flush()


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
                read_fd, write_fd = os.pipe()
                ours = (write_fd,) + tuple(f.fileno() for f in self._requests + self._answers)
                try:
                    pid, answers_fd = _fork(lambda pipe: _serve(handle, read_fd, pipe), ours)
                except BaseException:
                    os.close(write_fd)
                    raise
                finally:
                    os.close(read_fd)
                self._pids.append(pid)
                self._requests.append(open(write_fd, "wb"))
                self._answers.append(open(answers_fd, "rb"))
        except BaseException:
            self.close()
            raise

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
            raise _reap(pid) or ForkedProcessError(f"forked process {pid} ended early") from None
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
