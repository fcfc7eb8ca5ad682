"""Training loop, validation-based selection, mean and spread over seeds."""

from __future__ import annotations

import json
import logging
import math
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .. import Config, distinct_integers, integer, optional, real, setting
from ..autodiff.optim import Adam
from ..autodiff.rng import split_streams
from ..data import Dataset, DatasetSplit
from ..featurize import FeaturizeConfig, FeaturizedMolecule, featurize
from ..helper import each_row
from ..model.batch import chunks
from ..model.network import MlfgnnModel
from .lanes import Lanes
from .metrics import SingleClassError, masked_rmse, roc_auc_multi

log = logging.getLogger(__name__)

POSITIVE = real("> 0", lambda value: value > 0)
COUNT = integer(1, 10**5)  # epochs, molecules per step, epochs without progress
SEED_MAX = 2**16 - 1  # a seed is an integer in [0, SEED_MAX]


class NonFiniteLossError(FloatingPointError):
    pass


@dataclass
class TrainConfig(Config):
    epochs: int = setting(300, COUNT)
    lr: float = setting(1e-3, POSITIVE)
    batch_size: int = setting(32, COUNT)  # molecules per optimizer step
    seeds: tuple[int, ...] = setting((0,), distinct_integers(0, SEED_MAX))
    patience: int = setting(30, COUNT)
    target_train_rmse: float | None = setting(None, optional(POSITIVE))  # overfit-sanity early exit


@dataclass
class TrainResult:
    best_epoch: int
    valid_metric: float | None
    test_metric: float | None
    history: list[dict] = field(default_factory=list)
    state: dict = field(default_factory=dict)


def aggregate(per_seed: dict[str, float | None]) -> tuple[float | None, float]:
    """Mean and sample std of the seeds' defined metrics (mean None when none
    is defined, std 0.0 below two)."""
    values = [v for v in per_seed.values() if v is not None]
    mean = float(np.mean(values)) if values else None
    std = float(np.std(values, ddof=1)) if len(values) > 1 else 0.0
    return mean, std


def prepare_inputs(dataset: Dataset, featurize_config: FeaturizeConfig
                   ) -> list[FeaturizedMolecule]:
    """Every record featurized once, in dataset order, on the two lanes of
    ``helper.each_row``; a record that fails to parse raises its error."""
    mols = []
    for _smiles, error, mol in each_row(
            dataset.smiles, lambda graphs: [featurize(g, featurize_config) for g in graphs]):
        if error is not None:
            raise error
        mols.append(mol)
    return mols


def evaluate_metric(model, mols, labels, mask, indices, lanes: Lanes) -> float | None:
    """Validation/test metric over ``indices``: mean ROC-AUC for a
    classification model, pooled RMSE for a regression one. ``lanes`` is open,
    and the odd chunks run in lane 1.

    Returns None for an empty fold or a classification fold without both
    classes in any task (the metric is undefined there).
    """
    if not indices:
        return None
    chunk_lists = list(chunks(indices, lambda i: mols[i].n_atoms))
    preds = np.concatenate(lanes.eval(chunk_lists))
    sub_labels, sub_mask = labels[indices], mask[indices]
    if model.config.task == "classification":
        try:
            return roc_auc_multi(preds, sub_labels, sub_mask)
        except SingleClassError:
            log.warning("fold of %d records has a single class; metric undefined", len(indices))
            return None
    return masked_rmse(preds, sub_labels, sub_mask)


def _improved(candidate: float, best: float | None, task_type: str) -> bool:
    if best is None:
        return True
    return candidate > best if task_type == "classification" else candidate < best


def train(
    model: MlfgnnModel,
    mols: list[FeaturizedMolecule],
    labels: np.ndarray,
    mask: np.ndarray,
    split: DatasetSplit,
    config: TrainConfig,
    seed: int,
    log_path: str | Path | None = None,
) -> TrainResult:
    """Train with mini-batches, keep the best-validation parameters.

    Each epoch shuffles the training indices (seeded) and takes one optimizer
    step per ``batch_size`` molecules. A batch runs as a few packed chunks
    (``model.batch.chunks``), each with one forward and one backward and its
    own dropout seed, drawn in chunk order from the seed's dropout stream;
    ``lanes.Lanes`` splits them between this process and a helper, and the
    gradients add up to that of the mean per-molecule loss. Adam's step and
    the evals run on both lanes as well. Then the epoch scores the
    validation set. Training stops after ``patience`` non-improving epochs.
    The returned state is the best-validation snapshot (last epoch when the
    validation set is empty), already restored into the model.
    """
    task = model.config.task
    streams = split_streams(seed, ("shuffle", "dropout"))
    optimizer = Adam(model.params, lr=config.lr)
    best_metric: float | None = None
    best_epoch = 0
    best_state = model.state_arrays()
    non_improving = 0
    history: list[dict] = []
    with Lanes(model, mols, labels, mask, optimizer) as lanes, \
            (open(log_path, "w") if log_path else nullcontext()) as log_fh:
        for epoch in range(1, config.epochs + 1):
            order = streams["shuffle"].permutation(split.train).tolist()
            loss_sum = 0.0
            for start in range(0, len(order), config.batch_size):
                batch = order[start : start + config.batch_size]
                chunk_lists = list(chunks(batch, lambda i: mols[i].n_atoms))
                seeds = streams["dropout"].integers(2**63, size=len(chunk_lists)).tolist()
                losses = lanes.step(chunk_lists, seeds, len(batch))
                for chunk, value in zip(chunk_lists, losses):
                    if not math.isfinite(value):
                        raise NonFiniteLossError(
                            f"non-finite loss at epoch {epoch}, records {chunk}: {value}"
                        )
                    loss_sum += value * len(chunk)
                lanes.adam_step()
            train_loss = loss_sum / len(order) if order else float("nan")
            valid_metric = evaluate_metric(model, mols, labels, mask, split.valid, lanes)
            lambda_attn, lambda_adj = model.lambda_values()
            entry = {
                "epoch": epoch,
                "train_loss": train_loss,
                "valid_metric": valid_metric,
                "gate_alpha": model.gate_alpha(),
                "lambda_attn": lambda_attn,
                "lambda_adj": lambda_adj,
            }
            history.append(entry)
            if log_fh:
                log_fh.write(json.dumps(entry, sort_keys=True) + "\n")
            if valid_metric is None:
                best_epoch = epoch
                best_state = model.state_arrays()
            elif _improved(valid_metric, best_metric, task):
                best_metric = valid_metric
                best_epoch = epoch
                best_state = model.state_arrays()
                non_improving = 0
            else:
                non_improving += 1
                if non_improving >= config.patience:
                    log.info("seed %d: early stop at epoch %d", seed, epoch)
                    break
            if (
                config.target_train_rmse is not None
                and task == "regression"
                and math.sqrt(train_loss) < config.target_train_rmse
            ):
                log.info("seed %d: train RMSE target reached at epoch %d", seed, epoch)
                break
        model.load_state_arrays(best_state)  # into the shared buffer that lane 1 reads
        test_metric = evaluate_metric(model, mols, labels, mask, split.test, lanes)
    return TrainResult(
        best_epoch=best_epoch,
        valid_metric=best_metric,
        test_metric=test_metric,
        history=history,
        state=best_state,
    )
