"""Independent tasks run at the same time, one forked worker process per
usable CPU.

map_tasks(fn, tasks) returns [fn(*task) for task in tasks], in task order.
With more than one task and more than one CPU in this process's affinity
mask, the tasks run on a ProcessPoolExecutor of fork-started workers,
min(tasks, CPUs) of them, which it joins before it returns.  The workers
inherit fn and the tasks from the fork, so only task indices go to them
and only results (or the exception a task raised) come back, pickled.
Where fork is not available, or with one task or one CPU, the tasks run
inline.  No task of the package calls map_tasks itself: each command
makes its map_tasks calls one after another.  Each task computes what it
would compute inline, so results do not depend on where it ran; a failing
map raises the exception of the first failing task in task order, and
WorkerDied if a worker ended without handing back its result.
"""

from __future__ import annotations

import os

from .errors import WorkerDied

# In a worker: the (fn, tasks) of the map_tasks call that forked it.
_CALL = None


def usable_cpus() -> int:
    """CPUs this process may run on (1 where the platform does not say)."""
    affinity = getattr(os, "sched_getaffinity", None)
    return 1 if affinity is None else len(affinity(0))


def _inherit(fn, tasks) -> None:
    global _CALL
    _CALL = fn, tasks


def _run(i: int):
    fn, tasks = _CALL
    return fn(*tasks[i])


def map_tasks(fn, tasks) -> list:
    """fn(*task) for every task, in task order, on forked workers when
    there is more than one task and more than one usable CPU."""
    tasks = list(tasks)
    workers = min(len(tasks), usable_cpus())
    if workers > 1:
        import multiprocessing
        if "fork" not in multiprocessing.get_all_start_methods():
            workers = 1
    if workers <= 1:
        return [fn(*task) for task in tasks]

    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    try:
        # fork passes the initializer's arguments to the worker unpickled
        with ProcessPoolExecutor(
                workers, mp_context=multiprocessing.get_context("fork"),
                initializer=_inherit, initargs=(fn, tasks)) as pool:
            futures = [pool.submit(_run, i) for i in range(len(tasks))]
            return [future.result() for future in futures]
    except BrokenProcessPool as exc:
        raise WorkerDied(f"a worker process died before returning its "
                         f"result ({exc})") from exc
