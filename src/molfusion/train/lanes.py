"""Two-lane data parallelism over the chunks of one optimizer batch.

Chunk k of a batch goes to lane k mod 2. Lane 0 runs in the training
process. Lane 1 runs in one helper process, forked once per ``train`` call
on Linux; elsewhere it runs inline after lane 0, with the same arithmetic.
The batch gradient is lane 0's sum plus lane 1's sum, added in that order.

The parameters live in one shared anonymous ``mmap``: Adam updates them in
place in the training process, and the helper reads the new values at the
next step. The helper writes lane 1's summed gradient into a second shared
buffer. The pipe carries only small messages (the lane-1 chunk lists, their
dropout seeds and the batch length; back, the losses or an exception), and
their order is what orders the two processes' reads and writes of the
buffers.

Each chunk draws its dropout masks from its own seed, so a chunk computes
the same bits in either lane, and results never depend on whether the
helper ran.
"""

from __future__ import annotations

import math
import mmap
import pickle
import signal
import sys

import numpy as np

from ..autodiff import tensor as T
from ..autodiff.rng import make_rng
from ..model.batch import MoleculeBatch
from .losses import masked_loss

# The helper is forked so that it shares the featurized molecules
# copy-on-write and the parameter mapping without pickling anything. Linux
# is where the fork start method is both available and safe under numpy.
FORK_HELPER = sys.platform.startswith("linux")
JOIN_TIMEOUT_S = 1.0  # a helper still busy after this is terminated


def _shared_like(arrays: list[np.ndarray]) -> list[np.ndarray]:
    """Zeroed views, shaped like ``arrays``, into one shared anonymous mmap."""
    sizes = [a.size for a in arrays]
    flat = np.frombuffer(mmap.mmap(-1, 8 * sum(sizes)), dtype=np.float64)
    ends = np.cumsum(sizes)
    return [flat[end - size : end].reshape(a.shape) for a, size, end in zip(arrays, sizes, ends)]


def _sendable(exc: Exception) -> Exception:
    """``exc`` if it survives the pipe, else a RuntimeError that names it."""
    try:
        pickle.loads(pickle.dumps(exc))
        return exc
    except Exception:
        return RuntimeError(f"lane-1 helper raised {type(exc).__name__}: {exc}")


class Lanes:
    """Runs each optimizer batch's chunks on the two lanes.

    A context manager: entering moves the parameters into shared memory and
    starts the helper; leaving stops it, so no process outlives the ``with``.
    The parameters stay views of the shared buffer until the caller loads
    private copies (``load_state_arrays``).
    """

    def __init__(self, model, mols, labels: np.ndarray, mask: np.ndarray):
        self.model, self.mols, self.labels, self.mask = model, mols, labels, mask
        self.tensors = list(model.params.tensors.values())
        self.helper = None
        self.conn = None

    def __enter__(self) -> "Lanes":
        for t, view in zip(self.tensors, _shared_like([t.data for t in self.tensors])):
            view[...] = t.data
            t.data = view  # the private array is freed here
        self.lane1_grads = _shared_like([t.data for t in self.tensors])
        if FORK_HELPER:
            import multiprocessing  # here, so that commands that never train do not load it

            ctx = multiprocessing.get_context("fork")
            self.conn, child_conn = ctx.Pipe()
            self.helper = ctx.Process(target=self._serve, args=(child_conn,), daemon=True)
            self.helper.start()
            child_conn.close()
        return self

    def __exit__(self, *exc_info) -> None:
        if self.helper is None:
            return
        try:
            self.conn.send(None)
        except OSError:  # the helper is gone already
            pass
        self.conn.close()
        self.helper.join(JOIN_TIMEOUT_S)
        if self.helper.is_alive():
            self.helper.terminate()
            self.helper.join()
        self.helper = None

    def step(self, chunk_lists: list[list[int]], seeds: list[int], n: int) -> list[float]:
        """Forward and backward of every chunk of a batch of ``n`` molecules.

        ``seeds[k]`` seeds chunk k's dropout. Leaves the batch gradient in
        each parameter's ``grad`` (zeros where no chunk reached it) and
        returns the chunk losses in chunk order; a chunk whose loss is not
        finite gets no backward.
        """
        lane1 = (chunk_lists[1::2], seeds[1::2], n)
        if self.helper is not None:
            self.conn.send(lane1)
        losses = [0.0] * len(chunk_lists)
        losses[0::2] = self._run(chunk_lists[0::2], seeds[0::2], n)
        if self.helper is not None:
            reply = self.conn.recv()
            if isinstance(reply, Exception):
                raise reply
        else:
            lane0_grads = [t.grad for t in self.tensors]
            reply = self._run_lane1(*lane1)
            for t, g in zip(self.tensors, lane0_grads):
                t.grad = g
        losses[1::2] = reply
        # Lane 0's sum plus lane 1's, summed in place in the shared buffer;
        # the helper writes it again only after the next step's message.
        for t, g in zip(self.tensors, self.lane1_grads):
            if t.grad is not None:
                g += t.grad
            t.grad = g
        return losses

    def _run(self, chunk_lists, seeds, n) -> list[float]:
        """The chunks' forwards and backwards, from zero gradients; their losses."""
        model = self.model
        model.params.zero_grad()
        losses = []
        for chunk, seed in zip(chunk_lists, seeds):
            out = model.forward(
                MoleculeBatch([self.mols[i] for i in chunk]), train=True, rng=make_rng(seed)
            )
            # A loss that overflows is reported by ``train`` as a data error,
            # not as numpy's warning.
            with np.errstate(over="ignore", invalid="ignore"):
                loss = masked_loss(out, self.labels[chunk], self.mask[chunk], model.config.task)
            losses.append(loss.item())
            if math.isfinite(losses[-1]):
                T.backward(T.mul(loss, T.Tensor(len(chunk) / n)))
        return losses

    def _run_lane1(self, chunk_lists, seeds, n) -> list[float]:
        """``_run``, with the summed gradient copied into the shared buffer."""
        losses = self._run(chunk_lists, seeds, n)
        for t, g in zip(self.tensors, self.lane1_grads):
            g[...] = 0.0 if t.grad is None else t.grad
        return losses

    def _serve(self, conn) -> None:
        """The helper: run lane-1 work until a stop message or end of file."""
        # Ctrl-C reaches the whole process group; the training process stops us.
        signal.signal(signal.SIGINT, signal.SIG_IGN)
        self.conn.close()  # the training process's end; its exit must read as EOF here
        try:
            while (work := conn.recv()) is not None:
                try:
                    reply = self._run_lane1(*work)
                except Exception as exc:
                    reply = _sendable(exc)
                conn.send(reply)
        except (EOFError, OSError):  # the training process has gone
            pass
