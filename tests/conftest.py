import multiprocessing
import os

import pytest

from weldnet import workers


@pytest.fixture(params=[1, 2], ids=["1cpu", "2cpus"])
def cpus(request, monkeypatch):
    """The CPU count map_tasks sees: 1 runs tasks inline, 2 on workers."""
    monkeypatch.setattr(workers, "usable_cpus", lambda: request.param)
    return request.param


@pytest.fixture(autouse=True)
def no_leaked_processes():
    """Fail a test that leaves a child process behind: a worker that was
    not joined, or a raw fork that was not reaped."""
    yield
    children = multiprocessing.active_children()
    if children:
        for child in children:
            child.kill()
            child.join()
        pytest.fail(f"test left child processes running: {children}")
    unreaped = []
    while True:
        try:
            pid, status = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:  # no child left
            break
        if pid == 0:
            pytest.fail("test left a child process running")
        unreaped.append((pid, status))
    if unreaped:
        pytest.fail(f"test left ended child processes unreaped "
                    f"(pid, wait status): {unreaped}")
