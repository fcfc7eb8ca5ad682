"""Named learnable parameters and their initialization."""

from __future__ import annotations

import numpy as np

from .tensor import Tensor


class ParameterStore:
    """Uniquely named parameter tensors, in registration order (``tensors``)."""

    def __init__(self):
        self.tensors: dict[str, Tensor] = {}

    def register(self, name: str, data: np.ndarray) -> Tensor:
        if name in self.tensors:
            raise ValueError(f"duplicate parameter name {name!r}")
        t = self.tensors[name] = Tensor(data, requires_grad=True)
        return t

    def count_values(self) -> int:
        return sum(t.size for t in self.tensors.values())

    def zero_grad(self) -> None:
        for t in self.tensors.values():
            t.zero_grad()

    def state_arrays(self) -> dict[str, np.ndarray]:
        return {name: t.data.copy() for name, t in self.tensors.items()}

    def load_state_arrays(self, state: dict[str, np.ndarray]) -> None:
        missing = [n for n in self.tensors if n not in state]
        extra = [n for n in state if n not in self.tensors]
        if missing or extra:
            raise KeyError(f"parameter mismatch: missing={missing}, unexpected={extra}")
        for name, arr in state.items():
            t = self.tensors[name]
            if t.data.shape != arr.shape:
                raise ValueError(
                    f"shape mismatch for {name}: have {t.data.shape}, got {arr.shape}"
                )
            t.data = np.asarray(arr, dtype=t.data.dtype).copy()


def uniform_fan_in(rng: np.random.Generator, shape: tuple[int, ...]) -> np.ndarray:
    """uniform(-1/sqrt(fan_in), +1/sqrt(fan_in)); fan_in is the input width."""
    bound = 1.0 / np.sqrt(shape[0])
    return rng.uniform(-bound, bound, size=shape)
