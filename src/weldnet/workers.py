"""Independent tasks run at the same time on forked worker processes.

map_tasks(fn, tasks) returns [fn(*task) for task in tasks], in task order.
With n = min(tasks, CPUs in this process's affinity mask) above 1, it
forks n workers; worker w runs tasks w, w + n, ... on what it inherits
from the fork and pickles each result or exception back through its own
pipe once its tasks are done.  The caller reads the pipes to their ends,
one after another, before it reaps the workers, so that none waits on a
full pipe for longer than its turn; a worker leaves through
os._exit alone, running none of the caller's cleanup.  With one task or
one CPU, or without fork, the tasks run inline.  Results do not depend on
where a task ran; a failing map raises the first failing task's exception
in task order, and WorkerDied if a worker ended without its results.
"""

from __future__ import annotations

import os
import pickle

from .errors import WorkerDied


def usable_cpus() -> int:
    """CPUs this process may run on (1 where the platform does not say)."""
    affinity = getattr(os, "sched_getaffinity", None)
    return 1 if affinity is None else len(affinity(0))


def _work(fn, tasks, fd, reads) -> None:
    """A worker: (True, result) or (False, the exception raised) of each
    task, pickled into the pipe fd, then exit.  It first closes the read
    ends it inherited, so that a write fails once the caller closes its."""
    code = 1
    try:
        for read in reads:
            os.close(read)
        outs = []
        for task in tasks:
            try:
                outs.append((True, fn(*task)))
            except Exception as exc:
                outs.append((False, exc))
        with open(fd, "wb") as pipe:
            pickle.dump(outs, pipe, pickle.HIGHEST_PROTOCOL)
        code = 0
    finally:
        os._exit(code)


def map_tasks(fn, tasks) -> list:
    """fn(*task) for every task, in task order, on forked workers when
    there is more than one task and more than one usable CPU."""
    tasks = list(tasks)
    n = min(len(tasks), usable_cpus())
    if n <= 1 or not hasattr(os, "fork"):
        return [fn(*task) for task in tasks]

    pids, reads, data = [], [], []
    try:
        for w in range(n):
            read, write = os.pipe()
            reads.append(read)
            try:
                pid = os.fork()
                if pid == 0:
                    _work(fn, tasks[w::n], write, reads)
                pids.append(pid)
            finally:
                os.close(write)
        for read in reads:
            with open(read, "rb", closefd=False) as pipe:
                data.append(pipe.read())
    finally:
        for fd in reads:
            os.close(fd)
        statuses = [os.waitpid(pid, 0)[1] for pid in pids]
    if any(statuses):
        raise WorkerDied(f"a worker process died before returning its "
                         f"result (exit code {os.waitstatus_to_exitcode(max(statuses))})")
    outs = [None] * len(tasks)
    for w, pickled in enumerate(data):
        outs[w::n] = pickle.loads(pickled)
    for ok, value in outs:
        if not ok:
            raise value
    return [value for _, value in outs]
