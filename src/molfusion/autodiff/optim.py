"""Adam with bias correction, over the parameters as one flat vector.

``Adam`` moves a store's parameters into views of one flat buffer, with one
gradient buffer per lane of the same layout beside it, all shared anonymous
``mmap``s that a forked process shares; backwards add into a lane's buffer in
place. ``step`` reads the gradient as lane 0's plus lane 1's and updates a
range of elements in blocks of ``BLOCK``, each computed in place in two
preallocated block-sized arrays that stay in cache. The arithmetic works
element by element, so steps split at any element give the same bits as
steps over the whole vector: ``train.lanes`` steps the first half in the
training process and the second half in lane 1.
"""

from __future__ import annotations

import mmap

import numpy as np

from .params import ParameterStore

BLOCK = 1 << 14  # elements per block (128 KB of float64)
BETA1, BETA2, EPS = 0.9, 0.999, 1e-8


def _shared_views(shapes: list[tuple[int, ...]]):
    """A zeroed flat float64 buffer in a shared anonymous mmap, and its
    consecutive views shaped ``shapes``."""
    sizes = [int(np.prod(shape)) for shape in shapes]
    flat = np.frombuffer(mmap.mmap(-1, 8 * sum(sizes)), dtype=np.float64)
    ends = np.cumsum(sizes, dtype=int)
    return flat, [flat[end - size : end].reshape(shape)
                  for shape, size, end in zip(shapes, sizes, ends)]


class Adam:
    """In-place Adam over a ParameterStore.

    Each of ``tensors`` has a view of the flat ``params`` as its ``data``.
    ``grads`` is ``[2, n]``, a gradient buffer per lane, with per-tensor views
    ``grad_views[lane]``; ``__init__`` calls ``zero_grad(0)``. ``step`` steps a
    range of elements with that range's own step count and moments,
    ``moments[lo, hi] = [steps, m, v]``, made on its first step; so each lane
    holds those of its own half only.
    """

    def __init__(self, store: ParameterStore, lr: float = 1e-3):
        self.lr = lr
        self.tensors = list(store.tensors.values())
        shapes = [t.shape for t in self.tensors]
        self.params, views = _shared_views(shapes)
        for t, view in zip(self.tensors, views):
            view[...] = t.data
            t.data = view  # the previous array is freed here
        grads, grad_views = _shared_views(shapes * 2)
        self.grads = grads.reshape(2, -1)
        self.grad_views = [grad_views[: len(shapes)], grad_views[len(shapes) :]]
        self.moments: dict[tuple[int, int], list] = {}
        # a block's two temporaries, so that ``step`` allocates nothing per block
        self._scratch = np.empty((2, min(BLOCK, self.params.size)))
        self.zero_grad(0)

    def zero_grad(self, lane: int) -> None:
        """Zero lane ``lane``'s buffer and make each ``grad`` its view there."""
        self.grads[lane].fill(0.0)
        for t, g in zip(self.tensors, self.grad_views[lane]):
            t.grad = g

    def step(self, lo: int = 0, hi: int | None = None) -> None:
        """One step on elements ``[lo, hi)``; ``hi`` None is the end."""
        hi = self.params.size if hi is None else hi
        if (lo, hi) not in self.moments:
            self.moments[lo, hi] = [0, np.zeros(hi - lo), np.zeros(hi - lo)]
        moments = self.moments[lo, hi]
        moments[0] += 1
        steps, m_all, v_all = moments
        m_scale = 1.0 - BETA1**steps
        v_scale = 1.0 - BETA2**steps
        for start in range(lo, hi, BLOCK):
            end = min(start + BLOCK, hi)
            m, v = m_all[start - lo : end - lo], v_all[start - lo : end - lo]
            a, b = self._scratch[:, : end - start]
            np.add(self.grads[0, start:end], self.grads[1, start:end], out=a)  # g
            m *= BETA1
            m += np.multiply(1.0 - BETA1, a, out=b)
            v *= BETA2
            np.multiply(1.0 - BETA2, a, out=b)
            b *= a
            v += b
            np.divide(m, m_scale, out=a)  # lr * m / m_scale
            a *= self.lr
            np.divide(v, v_scale, out=b)  # sqrt(v / v_scale) + eps
            np.sqrt(b, out=b)
            b += EPS
            a /= b
            self.params[start:end] -= a
