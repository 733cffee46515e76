"""One map over independent units of work, forked across the usable cores.

A dataset build's slides, a forest's trees and a booster's class chains each
depend only on their own seed or class, so running them in other processes
and putting the results back in item order gives the serial loop's bytes.
The children inherit every input copy-on-write, so nothing is pickled on the
way in; each sends its results, or its error with the child's traceback
attached as a note, back through a pipe.

Python 3.12 and later warn (``DeprecationWarning``) when a process that runs
other threads, such as numpy's BLAS pool, forks.  The warning is issued in
the parent after the fork: under ``-W error::DeprecationWarning``,
``os.fork()`` still returns the child's pid (checked on 3.12.1), so no child
is lost to it.  The warning is not filtered here.
"""

import math
import os
import pickle
import signal
import traceback

from ..errors import WorkerError


def _cpu_max() -> str:
    """This process's cgroup v2 ``cpu.max``, "<quota> <period>" or
    "max <period>", or "" where there is none (no cgroup v2, or the root
    cgroup).  Ancestor cgroups' quotas are not read."""
    try:
        with open("/proc/self/cgroup") as fh:
            path = next(line[3:].strip() for line in fh if line.startswith("0::"))
        with open(f"/sys/fs/cgroup{path.rstrip('/')}/cpu.max") as fh:
            return fh.read()
    except (OSError, StopIteration):
        return ""


def _workers(n: int) -> int:
    """Processes for ``n`` units: one per core this process may run on, and
    no more than its cgroup's CPU quota rounds up to, at most one per unit."""
    cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    quota = _cpu_max().split()
    if len(quota) == 2 and quota[0] != "max":
        cores = min(cores, math.ceil(int(quota[0]) / int(quota[1])))
    return max(1, min(cores, n))


def fork_map(fn, n: int) -> list:
    """``[fn(0), ..., fn(n - 1)]``, computed by :func:`_workers` processes.

    Unit ``i`` belongs to share ``i % workers``.  The calling process runs
    share 0 and forks one child per other share; each runs its share in item
    order and stops at its first error.  The parent reads every child's pipe
    and reaps every child before it returns or raises, so no child outlives
    the call.  The error raised is the first in item order, which is the one
    the serial loop raises, since every share runs in order.  A child that
    ends without a result (it died, or its result or error does not pickle)
    raises :class:`WorkerError` naming the worker and its exit status, or the
    signal that killed it.  With one worker, or without ``os.fork``, the
    units run serially in this process.
    """
    workers = _workers(n)
    if workers <= 1 or not hasattr(os, "fork"):
        return [fn(i) for i in range(n)]
    children = []  # (worker, pid, read end of its pipe)
    try:
        for w in range(1, workers):
            read, write = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(read)
                os.close(write)
                raise
            if pid == 0:
                _child(fn, range(w, n, workers), read, write)
            os.close(write)
            children.append((w, pid, read))
        shares = [_run(fn, range(0, n, workers))]
        data = []
        for _, _, read in children:
            with os.fdopen(read, "rb", closefd=False) as pipe:
                data.append(pipe.read())
    finally:
        statuses = []
        for _, pid, read in children:
            os.close(read)
            statuses.append(os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]))
    for (w, pid, _), raw, status in zip(children, data, statuses):
        try:
            shares.append(pickle.loads(raw))
        except Exception:  # nothing written, or an error that does not unpickle
            signals = {s.value: s.name for s in signal.Signals}
            ended = (f"was killed by {signals.get(-status, f'signal {-status}')}" if status < 0
                     else f"exited with status {status}")
            shares.append(("error", w, WorkerError(
                f"worker {w} (pid {pid}) {ended} and returned no result: "
                "it died, or its result or error could not be pickled")))
    errors = [share for share in shares if share[0] == "error"]
    if errors:
        raise min(errors, key=lambda share: share[1])[2]
    results = [None] * n
    for w, (_, values) in enumerate(shares):
        results[w::workers] = values
    return results


def _run(fn, items: range) -> tuple:
    """``("ok", results)`` for a share, or ``("error", item, exc)`` at its first error."""
    results = []
    for i in items:
        try:
            results.append(fn(i))
        except Exception as exc:
            return "error", i, exc
    return "ok", results


def _child(fn, items: range, read: int, write: int) -> None:
    """Run a share in a forked child and write its pickled outcome to the
    pipe; an error carries the child's formatted traceback as a note, since
    pickling drops ``__traceback__``, and an outcome that does not pickle
    writes nothing.  The child leaves through ``os._exit``, so it never
    returns into the caller's stack or flushes the caller's buffers."""
    status = 1
    try:
        os.close(read)
        outcome = _run(fn, items)
        if outcome[0] == "error":
            exc = outcome[2]
            exc.add_note(f"In forked worker pid {os.getpid()}:\n"
                         + "".join(traceback.format_exception(exc)).rstrip())
        data = pickle.dumps(outcome)
        with os.fdopen(write, "wb") as pipe:
            pipe.write(data)
        status = 0
    finally:
        os._exit(status)
