"""Suite-wide checks."""

import multiprocessing
import threading

import pytest


@pytest.fixture(autouse=True)
def nothing_left_running():
    """Fail a test after which a child process or a thread it started
    still runs, such as a pool's workers or its handler threads."""
    before = set(threading.enumerate())
    yield
    left = multiprocessing.active_children()
    if left:
        pytest.fail(f"processes left running: {left}")
    threads = [t for t in threading.enumerate() if t not in before]
    if threads:
        pytest.fail(f"threads left running: {threads}")
