"""Loss functions over masked multi-task labels."""

from __future__ import annotations

import numpy as np

from ..autodiff import tensor as T
from ..autodiff.tensor import Tensor


class AllMaskedError(ValueError):
    pass


def masked_loss(output: Tensor, labels: np.ndarray, mask: np.ndarray, task_type: str) -> Tensor:
    """Mean over molecules (rows) of each molecule's mean loss over its unmasked entries.

    Classification consumes raw logits through a numerically stable
    binary cross-entropy (softplus(x) - x*y); regression uses squared error.
    Masked positions contribute nothing, including to gradients. Every row
    needs at least one unmasked entry.
    """
    labels = np.asarray(labels, dtype=np.float64).reshape(output.shape)
    mask = np.asarray(mask, dtype=np.float64).reshape(output.shape)
    counts = mask.sum(axis=-1, keepdims=True)
    if not counts.all():
        raise AllMaskedError("no unmasked labels to compute a loss over")
    if task_type == "classification":
        per_entry = T.sub(T.softplus(output), T.mul(output, Tensor(labels)))
    elif task_type == "regression":
        diff = T.sub(output, Tensor(labels))
        per_entry = T.mul(diff, diff)
    else:
        raise ValueError(f"unknown task type {task_type!r}")
    return T.sum_(T.mul(per_entry, Tensor(mask / (counts * counts.size))))
