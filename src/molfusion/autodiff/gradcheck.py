"""Finite-difference verification of tape gradients."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .tensor import Tensor, backward


@dataclass
class GradCheckReport:
    max_rel_error: float
    n_checked: int
    failures: list[tuple[str, int, float, float, float]] = field(default_factory=list)
    per_tensor: dict[str, float] = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return not self.failures

    def summary(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        lines = [
            f"{status}: max relative error {self.max_rel_error:.3e} over {self.n_checked} coordinates"
        ]
        for name, idx, analytic, numeric, err in self.failures[:20]:
            lines.append(
                f"  {name}[{idx}]: analytic {analytic:.6e} vs numeric {numeric:.6e} (rel {err:.3e})"
            )
        if len(self.failures) > 20:
            lines.append(f"  ... {len(self.failures) - 20} more failures")
        return "\n".join(lines)


def grad_check(
    f: Callable[[], Tensor],
    tensors: dict[str, Tensor],
    rtol: float = 1e-5,
    atol: float = 1e-8,
    h: float = 1e-5,
    max_coords_per_tensor: int | None = None,
    rng: np.random.Generator | None = None,
) -> GradCheckReport:
    """Compare tape gradients of scalar ``f()`` with respect to each named
    tensor of ``tensors`` against central differences.

    ``f`` must be deterministic (dropout disabled) and recompute from the
    current tensor values. When ``max_coords_per_tensor`` is set, coordinates
    are subsampled per tensor (seeded by ``rng``); every tensor is always
    touched at least once. A coordinate passes when
    |analytic - numeric| <= atol + rtol * max(|analytic|, |numeric|).
    """
    for t in tensors.values():
        t.zero_grad()
    loss = f()
    backward(loss)
    analytic = {name: (t.grad.copy() if t.grad is not None else np.zeros_like(t.data))
                for name, t in tensors.items()}

    max_rel = 0.0
    n_checked = 0
    failures = []
    per_tensor: dict[str, float] = {}
    for name, t in tensors.items():
        flat = t.data.reshape(-1)
        coords = np.arange(flat.size)
        if max_coords_per_tensor is not None and flat.size > max_coords_per_tensor:
            rng_local = rng or np.random.default_rng(0)
            coords = rng_local.choice(flat.size, size=max_coords_per_tensor, replace=False)
            coords.sort()
        a_flat = analytic[name].reshape(-1)
        tensor_max = 0.0
        for idx in coords:
            original = flat[idx]
            flat[idx] = original + h
            f_plus = f().item()
            flat[idx] = original - h
            f_minus = f().item()
            flat[idx] = original
            numeric = (f_plus - f_minus) / (2.0 * h)
            analytic_val = a_flat[idx]
            diff = abs(analytic_val - numeric)
            scale = max(abs(analytic_val), abs(numeric))
            # below atol both sides count as zero (dead-unit comparisons)
            rel = diff / scale if scale > atol else 0.0
            tensor_max = max(tensor_max, rel)
            max_rel = max(max_rel, rel)
            n_checked += 1
            if diff > atol + rtol * scale:
                failures.append((name, int(idx), float(analytic_val), float(numeric), rel))
        per_tensor[name] = tensor_max
    return GradCheckReport(max_rel, n_checked, failures, per_tensor)
