"""The lane-1 helper process, and the row loop that ``train``, ``featurize``
and ``predict`` run on it.

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
it is left. If its process ends before it is stopped (the OOM killer, a
signal), ``send`` or ``reply`` raises ``LaneEnded``, which says how it ended.

``each_row`` parses SMILES strings in order, packs them into chunks and runs
each chunk's work on two lanes: this process and one ``Helper``.
"""

from __future__ import annotations

import pickle
import signal
import sys
from collections import deque
from contextlib import ExitStack
from typing import Any, Callable, Iterable, Iterator

from .chem import SmilesError, parse_smiles
from .model.batch import MAX_CHUNK_ATOMS, chunks

# Forking shares the caller's memory without pickling it. Linux is where the
# fork start method is both available and safe under numpy.
FORK_HELPER = sys.platform.startswith("linux")
JOIN_TIMEOUT_S = 1.0  # a helper still busy after this is terminated
# A chunk goes to lane 1 while fewer than this many of its chunks are in
# flight, so lane 1 always has its next chunk. A chunk within the atom cap
# pickles to a few KB, far below the pipe's buffer; one larger molecule goes
# only when none is in flight, so its send never waits on a large reply.
LANE1_IN_FLIGHT = 2
# Chunks that may wait to be yielded behind one on lane 1 before this process
# waits for it, so that a lagging lane 1 bounds the memory.
MAX_WAITING_CHUNKS = 32


def sendable(exc: Exception) -> Exception:
    """``exc`` if it survives the pipe, else a RuntimeError that names it."""
    try:
        pickle.loads(pickle.dumps(exc))
        return exc
    except Exception:
        return RuntimeError(f"{type(exc).__name__} (not picklable): {exc}")


class LaneEnded(Exception):
    """The helper's process ended before it was stopped."""


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
            self._pipe(self.conn.send, message)
        else:
            self._inline.append(message)

    def ready(self) -> bool:
        """Whether ``reply`` would return without waiting for the helper."""
        return self.process is None or self.conn.poll()

    def reply(self):
        """The oldest reply not yet asked for; waits for it."""
        if self.process is None:
            return self.work(self._inline.popleft())
        reply = self._pipe(self.conn.recv)
        if isinstance(reply, Exception):
            raise reply
        return reply

    def _pipe(self, call, *args):
        """``call(*args)``; a pipe that fails raises ``LaneEnded``, saying how."""
        try:
            return call(*args)
        except (EOFError, OSError) as exc:
            self.process.join(JOIN_TIMEOUT_S)
            code = self.process.exitcode
            how = ("is still running" if code is None else
                   f"was killed by signal {-code}" if code < 0 else f"exited with code {code}")
            raise LaneEnded(f"lane 1 ended early: its process {how}") from exc

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


def each_row(smiles_rows: Iterable[str], work: Callable[[list], list]) -> Iterator[tuple]:
    """``(smiles, parse error or None, result)`` per SMILES string, in order.
    The strings are parsed here and packed into chunks (an error row rides in
    its chunk with no atoms); ``work(graphs)``, one result per parsed graph
    of a chunk, runs on two lanes: here for chunk 0, then on lane 1 or here.
    The lowest-numbered failing chunk's exception is raised after the rows of
    every earlier chunk."""

    def parsed():
        for smiles in smiles_rows:
            try:
                yield smiles, parse_smiles(smiles), None
            except SmilesError as exc:
                yield smiles, None, exc

    def run(graphs):
        return work(graphs) if graphs else ()

    def outcome(get):
        """``get()``, or the exception it raised, as it would cross the pipe."""
        try:
            return get()
        except Exception as exc:
            return sendable(exc)

    def flush(drain=False):
        """Yields the rows of the held chunks, oldest first, up to the first
        one not done or failed. In between, collects lane 1's oldest reply
        while it is ready, while more than ``MAX_WAITING_CHUNKS`` chunks are
        held, or, with ``drain``, until none is in flight."""
        while True:
            while held and held[0][1] is not None and not isinstance(held[0][1], Exception):
                chunk, results = held.popleft()
                results = iter(results)
                for smiles, graph, error in chunk:
                    yield smiles, error, None if graph is None else next(results)
            if not sent or not (drain or lane1.ready() or len(held) > MAX_WAITING_CHUNKS):
                return
            sent.popleft()[1] = outcome(lane1.reply)

    lane1 = Helper(run)
    held = deque()  # [chunk, results or exception; None while on lane 1] per unyielded chunk
    sent = deque()  # the entries of ``held`` on lane 1, oldest first
    with ExitStack() as stack:  # stops lane 1 however the loop is left
        for k, chunk in enumerate(chunks(parsed(), lambda r: 0 if r[1] is None else r[1].n_atoms)):
            graphs = [g for _s, g, _e in chunk if g is not None]
            held.append(entry := [chunk, None])
            room = LANE1_IN_FLIGHT if sum(g.n_atoms for g in graphs) <= MAX_CHUNK_ATOMS else 1
            if k and len(sent) < room:
                if k == 1:  # forked here, so a one-chunk input forks nothing
                    stack.enter_context(lane1)
                lane1.send(graphs)
                sent.append(entry)
            else:
                entry[1] = outcome(lambda: run(graphs))
            yield from flush()
            # A chunk that fails here stops the loop; one that fails on lane 1
            # does once every chunk before it is yielded.
            if isinstance(entry[1], Exception) or (held and isinstance(held[0][1], Exception)):
                break
        yield from flush(drain=True)
    if held:  # the lowest-numbered failing chunk
        raise held[0][1]
