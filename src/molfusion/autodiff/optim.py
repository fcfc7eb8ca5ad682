"""Adam with bias correction, over the parameters as one flat vector.

``Adam`` moves a store's parameters into views of one flat buffer, with a
gradient buffer of the same layout beside it, both shared anonymous ``mmap``s
that a forked process shares. ``step`` updates a range of elements in blocks
of ``BLOCK``, so that a block's temporaries stay in cache. The arithmetic
works element by element, so steps split at any element give the same bits
as steps over the whole vector: ``train.lanes`` steps the first half in the
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
    """In-place Adam over a ParameterStore, consuming accumulated ``.grad``.

    ``params`` and ``grads`` are the flat buffers; each of ``tensors`` has a
    view of ``params`` as its ``data``. ``step`` copies into ``grads`` each
    ``.grad`` that is not already its view there (None as zeros) and steps a
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
        self.grads, self.grad_views = _shared_views(shapes)
        self.moments: dict[tuple[int, int], list] = {}

    def step(self, lo: int = 0, hi: int | None = None) -> None:
        """One step on elements ``[lo, hi)``; ``hi`` None is the end."""
        hi = self.params.size if hi is None else hi
        for t, g in zip(self.tensors, self.grad_views):
            if t.grad is not g:
                g[...] = 0.0 if t.grad is None else t.grad
        if (lo, hi) not in self.moments:
            self.moments[lo, hi] = [0, np.zeros(hi - lo), np.zeros(hi - lo)]
        moments = self.moments[lo, hi]
        moments[0] += 1
        steps, m_all, v_all = moments
        m_scale = 1.0 - BETA1**steps
        v_scale = 1.0 - BETA2**steps
        for start in range(lo, hi, BLOCK):
            end = min(start + BLOCK, hi)
            g = self.grads[start:end]
            m, v = m_all[start - lo : end - lo], v_all[start - lo : end - lo]
            m *= BETA1
            m += (1.0 - BETA1) * g
            v *= BETA2
            v += (1.0 - BETA2) * g * g
            self.params[start:end] -= self.lr * (m / m_scale) / (np.sqrt(v / v_scale) + EPS)
