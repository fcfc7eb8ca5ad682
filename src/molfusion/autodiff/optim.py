"""Adam with bias correction, over the parameters as one flat vector.

``Adam`` moves a store's parameters into views of one flat buffer, with a
gradient buffer of the same layout beside it, and updates a range of elements
in blocks of ``BLOCK``, so that a block's temporaries stay in cache. The
arithmetic works element by element, so a step split at any element gives the
same bits as one over the whole vector: ``train.lanes`` updates the first half
in the training process and the second half in lane 1.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .params import ParameterStore

BLOCK = 1 << 14  # elements per block (128 KB of float64)


def _flat_views(shapes: list[tuple[int, ...]], alloc: Callable[[int], np.ndarray]):
    """A flat buffer ``alloc(total size)`` and its consecutive views shaped ``shapes``."""
    sizes = [int(np.prod(shape)) for shape in shapes]
    flat = alloc(sum(sizes))
    ends = np.cumsum(sizes, dtype=int)
    return flat, [flat[end - size : end].reshape(shape)
                  for shape, size, end in zip(shapes, sizes, ends)]


class Adam:
    """In-place Adam over a ParameterStore, consuming accumulated ``.grad``.

    ``params`` and ``grads`` are the flat buffers (``pack``). ``step`` copies
    into ``grads`` each ``.grad`` that is not already its view there (None as
    zeros) and updates every element: all of them here, or, with ``lanes``
    set (``train.lanes.Lanes``), the first half here and the second half in
    lane 1. ``update`` keeps moments ``m`` and ``v`` for each range it is
    given, so each lane holds those of its own half only; they start at zero.
    """

    def __init__(self, store: ParameterStore, lr: float = 1e-3, beta1: float = 0.9,
                 beta2: float = 0.999, eps: float = 1e-8):
        self.store = store
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self.moments: dict[tuple[int, int], tuple[np.ndarray, np.ndarray]] = {}
        self.lanes = None
        self.pack(np.zeros)

    def pack(self, alloc: Callable[[int], np.ndarray]) -> None:
        """Move the parameters into one flat buffer from ``alloc``; zero ``grads``."""
        tensors = self.store.tensors.values()
        shapes = [t.shape for t in tensors]
        self.params, views = _flat_views(shapes, alloc)
        for t, view in zip(tensors, views):
            view[...] = t.data
            t.data = view  # the previous array is freed here
        self.grads, self.grad_views = _flat_views(shapes, alloc)

    def step(self) -> None:
        self.t += 1
        for t, g in zip(self.store.tensors.values(), self.grad_views):
            if t.grad is not g:
                g[...] = 0.0 if t.grad is None else t.grad
        if self.lanes is None:
            self.update(self.t, 0, self.params.size)
        else:
            self.lanes.adam_step()

    def update(self, t: int, lo: int, hi: int) -> None:
        """Step ``t`` on elements ``[lo, hi)``, with the moments of that range."""
        if (lo, hi) not in self.moments:
            self.moments[lo, hi] = (np.zeros(hi - lo), np.zeros(hi - lo))
        m_all, v_all = self.moments[lo, hi]
        m_scale = 1.0 - self.beta1**t
        v_scale = 1.0 - self.beta2**t
        for start in range(lo, hi, BLOCK):
            end = min(start + BLOCK, hi)
            g = self.grads[start:end]
            m, v = m_all[start - lo : end - lo], v_all[start - lo : end - lo]
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * g * g
            self.params[start:end] -= self.lr * (m / m_scale) / (np.sqrt(v / v_scale) + self.eps)
