"""Run independent pieces of work on every CPU this process may use.

:func:`_fork_map` calls a function on each independent work item (a
bootstrap replicate, a study block, or a fit ``estimate`` reads) and
returns the results in item order. Each worker runs one contiguous part
of the items: the calling process runs the first part itself and one
forked child per remaining part runs the others, each child sending back
its results, or the exception that stopped it, pickled through a pipe.
The callers' items draw from their own random substreams and never share
state, so the joined result is bit for bit the one a single process
computes, for any number of workers.

The loop runs in this process alone when only one CPU is available, on
platforms without ``os.fork``, and when called from a thread other than
the main one (forking from such a thread would copy a process whose
other threads stop mid-step). It also runs serially when called while
this process runs a forked map, or from inside a worker: only one level
forks, so the fits inside a study block never ask for more processes
than there are CPUs.
"""

from __future__ import annotations

import os
import pickle
import threading
from typing import Callable, Sequence, TypeVar

R = TypeVar("R")
T = TypeVar("T")

_forking = False  # set while this process runs a forked map; its workers inherit it


class WorkerTraceback(Exception):
    """The formatted traceback of an exception raised in a worker process.

    Set as the ``__cause__`` of the re-raised exception, since a pickled
    exception loses its own traceback.
    """


def _worker_count() -> int:
    """The CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity masks on this platform
        return os.cpu_count() or 1


def _fork_map(fn: Callable[[T], R], items: Sequence[T]) -> list[R]:
    """``fn`` of each item of ``items``, in item order.

    Each worker runs one contiguous part of the items. An exception from
    any item is raised here with its type and arguments; no child
    outlives the call.
    """
    global _forking

    def run(part: Sequence[T]) -> list[R]:
        return [fn(item) for item in part]
    workers = min(_worker_count(), len(items))
    if (_forking or workers <= 1 or not hasattr(os, "fork")
            or threading.current_thread() is not threading.main_thread()):
        return run(items)
    bounds = [len(items) * i // workers for i in range(workers + 1)]
    parts = [items[a:b] for a, b in zip(bounds, bounds[1:])]
    pending = []  # (pid, read end of its pipe) of every child not yet reaped
    _forking = True
    try:
        for part in parts[1:]:
            r, w = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(r)
                os.close(w)
                raise
            if pid == 0:
                _run_child(run, part, r, w)
            os.close(w)
            pending.append((pid, os.fdopen(r, "rb")))
        results = run(parts[0])
        while pending:
            pid, pipe = pending[0]
            # drain the pipe before waiting: a child blocks on a full pipe
            with pipe:
                data = pipe.read()
            _, status = os.waitpid(pid, 0)
            del pending[0]
            results += _child_result(pid, status, data)
        return results
    finally:
        _forking = False
        if pending:
            import signal  # only this path needs it; keeps the CLI's import lean
            for pid, pipe in pending:
                pipe.close()
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)


def _run_child(fn: Callable, part, r: int, w: int):
    """Run ``fn(part)`` in a forked child, send the outcome to ``w`` and exit."""
    code = 1
    try:
        os.close(r)
        try:
            outcome = (True, fn(part))
        except BaseException as exc:  # interrupts too: the parent raises them
            import traceback
            outcome = (False, (exc, traceback.format_exc()))
        with os.fdopen(w, "wb") as pipe:
            pickle.dump(outcome, pipe, protocol=pickle.HIGHEST_PROTOCOL)
        code = 0
    finally:
        # never return into the parent's stack, and run none of its exit handlers
        os._exit(code)


def _child_result(pid: int, status: int, data: bytes):
    code = os.waitstatus_to_exitcode(status)
    if code != 0 or not data:
        raise ChildProcessError(
            f"worker process {pid} ended without a result (exit code {code})"
        )
    ok, value = pickle.loads(data)
    if ok:
        return value
    exc, remote_traceback = value
    raise exc from WorkerTraceback(remote_traceback)
