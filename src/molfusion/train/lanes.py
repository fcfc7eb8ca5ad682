"""Two-lane data parallelism over the chunks of one optimizer batch.

Chunk k of a batch goes to lane k mod 2. Lane 0 runs in the training
process. Lane 1 runs in one ``helper.Helper``, forked once per ``train``
call on Linux; elsewhere it runs inline after lane 0, with the same
arithmetic. The batch gradient is lane 0's sum plus lane 1's sum, added in
that order.

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

import numpy as np

from ..autodiff import tensor as T
from ..autodiff.rng import make_rng
from ..helper import Helper
from ..model.batch import MoleculeBatch
from .losses import masked_loss


def _shared_like(arrays: list[np.ndarray]) -> list[np.ndarray]:
    """Zeroed views, shaped like ``arrays``, into one shared anonymous mmap."""
    sizes = [a.size for a in arrays]
    flat = np.frombuffer(mmap.mmap(-1, 8 * sum(sizes)), dtype=np.float64)
    ends = np.cumsum(sizes)
    return [flat[end - size : end].reshape(a.shape) for a, size, end in zip(arrays, sizes, ends)]


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
        self.helper = Helper(lambda work: self._run_lane1(*work))

    def __enter__(self) -> "Lanes":
        for t, view in zip(self.tensors, _shared_like([t.data for t in self.tensors])):
            view[...] = t.data
            t.data = view  # the private array is freed here
        self.lane1_grads = _shared_like([t.data for t in self.tensors])
        self.helper.__enter__()
        return self

    def __exit__(self, *exc_info) -> None:
        self.helper.__exit__(*exc_info)

    def step(self, chunk_lists: list[list[int]], seeds: list[int], n: int) -> list[float]:
        """Forward and backward of every chunk of a batch of ``n`` molecules.

        ``seeds[k]`` seeds chunk k's dropout. Leaves the batch gradient in
        each parameter's ``grad`` (zeros where no chunk reached it) and
        returns the chunk losses in chunk order; a chunk whose loss is not
        finite gets no backward.
        """
        self.helper.send((chunk_lists[1::2], seeds[1::2], n))
        losses = [0.0] * len(chunk_lists)
        losses[0::2] = self._run(chunk_lists[0::2], seeds[0::2], n)
        # Inline, lane 1 runs here and leaves its own ``grad``s; lane 0's are
        # put back. Forked, the helper's ``grad``s stay in the helper.
        lane0_grads = [t.grad for t in self.tensors]
        losses[1::2] = self.helper.reply()
        for t, g in zip(self.tensors, lane0_grads):
            t.grad = g
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
