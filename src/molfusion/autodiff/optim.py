"""Adam optimizer with bias correction."""

from __future__ import annotations

import numpy as np

from .params import ParameterStore


class Adam:
    """In-place Adam over a ParameterStore, consuming accumulated ``.grad``.

    A parameter without a gradient takes a zero gradient for the step. The
    moments ``m`` and ``v`` start at zero and, like the parameters, are
    updated in place.
    """

    def __init__(self, store: ParameterStore, lr: float = 1e-3, beta1: float = 0.9,
                 beta2: float = 0.999, eps: float = 1e-8):
        self.store = store
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self.m = {name: np.zeros_like(t.data) for name, t in store.tensors.items()}
        self.v = {name: np.zeros_like(t.data) for name, t in store.tensors.items()}

    def step(self) -> None:
        self.t += 1
        m_scale = 1.0 - self.beta1**self.t
        v_scale = 1.0 - self.beta2**self.t
        for name, t in self.store.tensors.items():
            g = t.grad if t.grad is not None else 0.0
            m, v = self.m[name], self.v[name]
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * g * g
            t.data -= self.lr * (m / m_scale) / (np.sqrt(v / v_scale) + self.eps)
