"""The ``helper.Helper`` contract, forked and inline."""

import os
import signal
import time

import pytest

from molfusion import helper
from molfusion.data import DataError

paths = pytest.mark.parametrize("fork", [True, False], ids=["forked", "inline"])


def _work(message):
    kind, value = message
    if kind == "fail":
        raise DataError(f"cannot do {value}")
    if kind == "sleep":
        time.sleep(value)
    return kind, value


@paths
def test_replies_come_back_oldest_first_each_with_its_own_exception(monkeypatch, fork):
    if fork and not helper.FORK_HELPER:
        pytest.skip("the helper is forked on Linux")
    monkeypatch.setattr(helper, "FORK_HELPER", fork)
    with helper.Helper(_work) as lane1:
        assert (lane1.process is not None) == fork
        for message in [("echo", 1), ("fail", 2), ("echo", 3)]:
            lane1.send(message)
        assert lane1.reply() == ("echo", 1)
        with pytest.raises(DataError, match="cannot do 2"):
            lane1.reply()
        assert lane1.reply() == ("echo", 3)

        lane1.send(("sleep", 0.3))
        if fork:
            assert not lane1.ready()
            deadline = time.monotonic() + 30
            while not lane1.ready():
                assert time.monotonic() < deadline
                time.sleep(0.01)
        assert lane1.ready()
        assert lane1.reply() == ("sleep", 0.3)
    assert lane1.process is None


@pytest.mark.skipif(not helper.FORK_HELPER, reason="the helper is forked on Linux")
@pytest.mark.parametrize("call", ["send", "reply"])
def test_a_killed_helper_raises_lane_ended_naming_the_signal(call):
    """The pipe's EOF or reset becomes one error that says how lane 1 ended."""
    with helper.Helper(_work) as lane1:
        lane1.send(("sleep", 60))
        os.kill(lane1.process.pid, signal.SIGKILL)
        lane1.process.join(30)  # so that ``send`` meets a closed pipe
        with pytest.raises(helper.LaneEnded,
                           match="^lane 1 ended early: its process was killed by signal 9$"):
            lane1.send(("echo", 1)) if call == "send" else lane1.reply()
    assert lane1.process is None
