"""Two-lane data parallelism for the optimizer steps and evals of ``train``.

Chunk k of a batch goes to lane k mod 2. Lane 0 runs in the training
process. Lane 1 runs in the ``helper.Helper`` that ``Lanes`` is, forked once
per ``train`` call on Linux; elsewhere it runs inline after lane 0, with the
same arithmetic. Each lane's backwards add into its own gradient buffer in
place, and the batch gradient is lane 0's sum plus lane 1's. Adam steps the
first half of the flat parameter vector in lane 0 and the second half in
lane 1, each lane with the step count and moments of its own half, and an
eval runs the odd chunks in lane 1.

The parameters and the gradients live in ``optim.Adam``'s shared buffers:
one of parameters and one of gradients per lane. Each lane writes only its
own gradient buffer and its half of the parameter buffer. The pipe carries
only small messages (the lane-1 chunk lists, their dropout seeds, the batch
length and the lane, or the Adam range; back, the losses, the eval outputs
or an exception), and their order is what orders the two processes' reads
and writes of the buffers: lane 0 has lane 1's reply to each message before
it reads what lane 1 wrote or sends the next one.

Each chunk draws its dropout masks from its own seed, so a chunk computes
the same bits in either lane, and results never depend on whether the
helper ran.
"""

from __future__ import annotations

import math

import numpy as np

from ..autodiff import no_grad
from ..autodiff import tensor as T
from ..autodiff.rng import make_rng
from ..helper import Helper
from ..model.batch import MoleculeBatch
from .losses import masked_loss


class Lanes(Helper):
    """Runs each optimizer batch's chunks, Adam's steps and evals on the two
    lanes. A ``Helper`` whose work is a call of its own method named by the
    message's first item: entering forks lane 1, which shares the buffers of
    ``optimizer``, and leaving stops it, so no process outlives the ``with``.
    """

    def __init__(self, model, mols, labels: np.ndarray, mask: np.ndarray, optimizer):
        super().__init__(lambda message: getattr(self, message[0])(*message[1:]))
        self.model, self.mols, self.labels, self.mask = model, mols, labels, mask
        self.optimizer = optimizer

    def step(self, chunk_lists: list[list[int]], seeds: list[int], n: int) -> list[float]:
        """Forward and backward of every chunk of a batch of ``n`` molecules.

        ``seeds[k]`` seeds chunk k's dropout. Leaves each lane's sum of its
        chunks' gradients in its row of ``optimizer.grads`` (zeros where no
        chunk reached it), and returns the chunk losses in chunk order; a
        chunk whose loss is not finite gets no backward.
        """
        self.send(("_run", chunk_lists[1::2], seeds[1::2], n, 1))
        losses = [0.0] * len(chunk_lists)
        losses[0::2] = self._run(chunk_lists[0::2], seeds[0::2], n, 0)
        losses[1::2] = self.reply()
        return losses

    def adam_step(self) -> None:
        """An optimizer step: the first half of the elements here, the second
        in lane 1, done when this returns."""
        n = self.optimizer.params.size
        self.send(("_adam", n // 2, n))
        self.optimizer.step(0, n // 2)
        self.reply()

    def eval(self, chunk_lists: list[list[int]]) -> list[np.ndarray]:
        """The model's outputs on each chunk, the odd ones run in lane 1."""
        self.send(("_eval", chunk_lists[1::2]))
        outputs = [None] * len(chunk_lists)
        outputs[0::2] = self._eval(chunk_lists[0::2])
        outputs[1::2] = self.reply()
        return outputs

    def _run(self, chunk_lists, seeds, n, lane) -> list[float]:
        """The chunks' forwards and backwards into lane ``lane``'s gradient
        buffer, from zeros; their losses."""
        model = self.model
        self.optimizer.zero_grad(lane)
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

    def _adam(self, lo: int, hi: int) -> None:
        self.optimizer.step(lo, hi)

    def _eval(self, chunk_lists) -> list[np.ndarray]:
        """The model's outputs on each chunk, without a gradient tape."""
        with no_grad():
            return [self.model.forward(MoleculeBatch([self.mols[i] for i in chunk])).data
                    for chunk in chunk_lists]
