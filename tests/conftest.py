"""Suite-wide checks."""

import multiprocessing
import os
import threading

import pytest


@pytest.fixture(autouse=True)
def nothing_left_running():
    """Fail a test after which a child process or a thread it started
    still runs, or a child it forked is left unreaped."""
    before = set(threading.enumerate())
    yield
    left = multiprocessing.active_children()
    if left:
        pytest.fail(f"processes left running: {left}")
    # ``active_children`` sees only multiprocessing's children; this sees
    # every child, an ``os.fork`` one too, running or exited
    try:
        pid, _ = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        pass
    else:
        # pid 0: a child still runs; else the exited child just reaped
        pytest.fail(f"child processes left (os.waitpid gave pid {pid})")
    threads = [t for t in threading.enumerate() if t not in before]
    if threads:
        pytest.fail(f"threads left running: {threads}")
