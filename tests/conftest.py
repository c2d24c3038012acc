"""Suite-wide checks."""

import multiprocessing

import pytest


@pytest.fixture(autouse=True)
def no_process_left_running():
    """Fail a test after which a child process it started still runs."""
    yield
    left = multiprocessing.active_children()
    if left:
        pytest.fail(f"processes left running: {left}")
