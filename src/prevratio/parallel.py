"""Run the parts of a resampling loop on every CPU this process may use.

:func:`_fork_map` splits a sequence of independent work items into
contiguous parts, one per worker. The calling process runs the first
part itself and one forked child per remaining part runs the others;
each child sends back its result, or the exception that stopped it,
pickled through a pipe, and the results come back in the order of the
parts. The callers' items draw from their own random substreams and
never share state, so the joined result is bit for bit the one a single
process computes, for any number of workers.

The loop runs in this process alone when only one CPU is available, on
platforms without ``os.fork``, and when called from a thread other than
the main one (forking from such a thread would copy a process whose
other threads stop mid-step).
"""

from __future__ import annotations

import os
import pickle
import threading
from typing import Callable, Sequence, TypeVar

T = TypeVar("T")
S = TypeVar("S", bound=Sequence)


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


def _fork_map(fn: Callable[[S], T], items: S) -> list[T]:
    """``fn`` of each contiguous part of ``items``, one part per worker, in order.

    Every part is non-empty, and a single worker gets all of ``items`` as
    one part. An exception in any part is raised here with its type and
    arguments; no child outlives the call.
    """
    workers = min(_worker_count(), len(items))
    if (workers <= 1 or not hasattr(os, "fork")
            or threading.current_thread() is not threading.main_thread()):
        return [fn(items)]
    bounds = [len(items) * i // workers for i in range(workers + 1)]
    parts = [items[a:b] for a, b in zip(bounds, bounds[1:])]
    pending = []  # (pid, read end of its pipe) of every child not yet reaped
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
                _run_child(fn, part, r, w)
            os.close(w)
            pending.append((pid, os.fdopen(r, "rb")))
        results = [fn(parts[0])]
        while pending:
            pid, pipe = pending[0]
            # drain the pipe before waiting: a child blocks on a full pipe
            with pipe:
                data = pipe.read()
            _, status = os.waitpid(pid, 0)
            del pending[0]
            results.append(_child_result(pid, status, data))
        return results
    finally:
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
