"""The lane-1 helper process that ``train``, ``featurize`` and ``predict`` share.

A ``Helper`` runs ``work(message)`` for each message it is sent. On Linux
it is a process forked when the ``with`` block is entered, so it sees the
caller's memory as it was then, copy-on-write; only the messages and the
replies are pickled to cross the pipe.
Elsewhere, or when the helper is never entered, ``work`` runs inline when
its reply is asked for, with the same arithmetic, so results never depend
on whether the helper ran.

Several messages may be sent before their replies are asked for; the
replies come back oldest first. An exception raised by ``work`` is raised
again by its own ``reply``, with the same type and message, and the replies
after it still arrive. A message sent while another is in flight must fit
in the pipe's buffer: a larger one could wait on the helper, which could
wait in turn to send a large reply. The helper ignores Ctrl-C (the caller
stops it) and has stopped by the time the ``with`` block is left, however
it is left.
"""

from __future__ import annotations

import pickle
import signal
import sys
from collections import deque
from typing import Any, Callable

# Forking shares the caller's memory without pickling it. Linux is where the
# fork start method is both available and safe under numpy.
FORK_HELPER = sys.platform.startswith("linux")
JOIN_TIMEOUT_S = 1.0  # a helper still busy after this is terminated


def sendable(exc: Exception) -> Exception:
    """``exc`` if it survives the pipe, else a RuntimeError that names it."""
    try:
        pickle.loads(pickle.dumps(exc))
        return exc
    except Exception:
        return RuntimeError(f"{type(exc).__name__} (not picklable): {exc}")


class Helper:
    """Runs ``work`` on each message sent, in a forked process or inline."""

    def __init__(self, work: Callable[[Any], Any]):
        self.work = work
        self.process = None
        self.conn = None
        self._inline = deque()  # messages whose work runs when their reply is asked for

    def __enter__(self) -> "Helper":
        if FORK_HELPER:
            import multiprocessing  # here, so that commands without a helper do not load it

            ctx = multiprocessing.get_context("fork")
            self.conn, child_conn = ctx.Pipe()
            # The fork child ends in os._exit, so it never flushes a file
            # buffer it inherited (the ``predict`` CSV, say).
            self.process = ctx.Process(target=self._serve, args=(child_conn,), daemon=True)
            self.process.start()
            child_conn.close()
        return self

    def __exit__(self, *exc_info) -> None:
        if self.process is None:
            return
        try:
            self.conn.send(None)
        except OSError:  # the helper is gone already
            pass
        self.conn.close()
        self.process.join(JOIN_TIMEOUT_S)
        if self.process.is_alive():
            self.process.terminate()
            self.process.join()
        self.process = None

    def send(self, message) -> None:
        """Queue ``work(message)``; ``message`` must not be None."""
        if self.process is not None:
            self.conn.send(message)
        else:
            self._inline.append(message)

    def ready(self) -> bool:
        """Whether ``reply`` would return without waiting for the helper."""
        return self.process is None or self.conn.poll()

    def reply(self):
        """The oldest reply not yet asked for; waits for it."""
        if self.process is None:
            return self.work(self._inline.popleft())
        reply = self.conn.recv()
        if isinstance(reply, Exception):
            raise reply
        return reply

    def _serve(self, conn) -> None:
        """The helper: run ``work`` on each message until None or end of file."""
        # Ctrl-C reaches the whole process group; the caller stops us.
        signal.signal(signal.SIGINT, signal.SIG_IGN)
        self.conn.close()  # the caller's end; the caller's exit must read as EOF here
        try:
            while (message := conn.recv()) is not None:
                try:
                    reply = self.work(message)
                except Exception as exc:
                    reply = sendable(exc)
                conn.send(reply)
        except (EOFError, OSError):  # the caller has gone
            pass
