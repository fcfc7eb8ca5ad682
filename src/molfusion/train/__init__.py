"""Losses, metrics and the training protocol."""

from .loop import (
    SEED_MAX,
    NonFiniteLossError,
    TrainConfig,
    TrainResult,
    aggregate,
    evaluate_metric,
    prepare_inputs,
    train,
)
from .losses import AllMaskedError, masked_loss
from .metrics import EmptyError, SingleClassError, masked_rmse, rmse, roc_auc, roc_auc_multi

__all__ = [
    "AllMaskedError",
    "EmptyError",
    "NonFiniteLossError",
    "SEED_MAX",
    "SingleClassError",
    "TrainConfig",
    "TrainResult",
    "aggregate",
    "evaluate_metric",
    "masked_loss",
    "masked_rmse",
    "prepare_inputs",
    "rmse",
    "roc_auc",
    "roc_auc_multi",
    "train",
]
