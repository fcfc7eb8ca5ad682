"""Suite-wide fixtures."""

import multiprocessing

import pytest


@pytest.fixture(autouse=True)
def no_process_left_behind():
    """Fail a test that leaves a child process running (a lane-1 helper, say);
    the process is stopped first, so later tests start clean."""
    yield
    left = multiprocessing.active_children()
    for process in left:
        process.terminate()
        process.join()
    if left:
        pytest.fail(f"processes left running after the test: {left}")
