import multiprocessing

import pytest


@pytest.fixture(autouse=True)
def no_leaked_processes():
    """Fail a test that leaves a child process running (a worker that was
    not joined, say)."""
    yield
    children = multiprocessing.active_children()
    if children:
        for child in children:
            child.kill()
            child.join()
        pytest.fail(f"test left child processes running: {children}")
