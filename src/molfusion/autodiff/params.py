"""Named learnable parameters and their initialization."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tensor import Tensor


@dataclass
class Parameter:
    name: str
    tensor: Tensor
    init_spec: str

    @property
    def data(self) -> np.ndarray:
        return self.tensor.data

    @property
    def grad(self):
        return self.tensor.grad


class ParameterStore:
    """Registry of uniquely named parameters, in registration order."""

    def __init__(self):
        self._params: dict[str, Parameter] = {}

    def register(self, name: str, data: np.ndarray, init_spec: str) -> Tensor:
        if name in self._params:
            raise ValueError(f"duplicate parameter name {name!r}")
        t = Tensor(data, requires_grad=True)
        self._params[name] = Parameter(name, t, init_spec)
        return t

    def __iter__(self):
        return iter(self._params.values())

    def __len__(self) -> int:
        return len(self._params)

    def __contains__(self, name: str) -> bool:
        return name in self._params

    def __getitem__(self, name: str) -> Parameter:
        return self._params[name]

    def names(self) -> list[str]:
        return list(self._params)

    def count_values(self) -> int:
        return sum(p.tensor.size for p in self._params.values())

    def zero_grad(self) -> None:
        for p in self._params.values():
            p.tensor.zero_grad()

    def state_arrays(self) -> dict[str, np.ndarray]:
        return {name: p.tensor.data.copy() for name, p in self._params.items()}

    def load_state_arrays(self, state: dict[str, np.ndarray]) -> None:
        missing = [n for n in self._params if n not in state]
        extra = [n for n in state if n not in self._params]
        if missing or extra:
            raise KeyError(f"parameter mismatch: missing={missing}, unexpected={extra}")
        for name, arr in state.items():
            t = self._params[name].tensor
            if t.data.shape != arr.shape:
                raise ValueError(
                    f"shape mismatch for {name}: have {t.data.shape}, got {arr.shape}"
                )
            t.data = np.asarray(arr, dtype=t.data.dtype).copy()


def uniform_fan_in(rng: np.random.Generator, shape: tuple[int, ...]) -> np.ndarray:
    """uniform(-1/sqrt(fan_in), +1/sqrt(fan_in)); fan_in is the input width."""
    bound = 1.0 / np.sqrt(shape[0])
    return rng.uniform(-bound, bound, size=shape)
