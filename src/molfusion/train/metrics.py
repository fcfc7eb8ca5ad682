"""Evaluation metrics."""

from __future__ import annotations

import numpy as np


class SingleClassError(ValueError):
    pass


class EmptyError(ValueError):
    pass


def roc_auc(scores, labels) -> float:
    """Probability a random positive outranks a random negative, ties as 1/2.

    Rank-based: with average ranks r_i over all scores,
    AUC = (sum of positive ranks - P(P+1)/2) / (P*N).
    """
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    if scores.shape != labels.shape or scores.ndim != 1:
        raise ValueError(f"scores/labels must be matching 1-d arrays, got {scores.shape} vs {labels.shape}")
    n_pos = int((labels == 1).sum())
    n_neg = int((labels == 0).sum())
    if n_pos == 0 or n_neg == 0:
        raise SingleClassError(f"need both classes, got {n_pos} positives / {n_neg} negatives")
    # A run of equal scores ending at 1-based rank e, c long, averages e - (c - 1) / 2.
    _, which, counts = np.unique(scores, return_inverse=True, return_counts=True)
    ranks = (np.cumsum(counts) - (counts - 1) / 2.0)[which]
    pos_rank_sum = ranks[labels == 1].sum()
    return (pos_rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


def roc_auc_multi(scores: np.ndarray, labels: np.ndarray, mask: np.ndarray) -> float:
    """Mean of per-task AUCs over tasks where both classes are present."""
    scores, labels, mask = (np.asarray(a) for a in (scores, labels, mask))
    aucs = []
    for t in range(scores.shape[1]):
        live = mask[:, t].astype(bool)
        if live.sum() == 0:
            continue
        try:
            aucs.append(roc_auc(scores[live, t], labels[live, t]))
        except SingleClassError:
            continue
    if not aucs:
        raise SingleClassError("no task has both classes present")
    return float(np.mean(aucs))


def rmse(preds, labels) -> float:
    preds = np.asarray(preds, dtype=np.float64).reshape(-1)
    labels = np.asarray(labels, dtype=np.float64).reshape(-1)
    if preds.size == 0:
        raise EmptyError("rmse of empty input")
    if preds.shape != labels.shape:
        raise ValueError(f"length mismatch: {preds.shape} vs {labels.shape}")
    return float(np.sqrt(np.mean((preds - labels) ** 2)))


def masked_rmse(preds: np.ndarray, labels: np.ndarray, mask: np.ndarray) -> float:
    """RMSE pooled over all unmasked entries."""
    mask = np.asarray(mask).astype(bool)
    if mask.sum() == 0:
        raise EmptyError("rmse with empty mask")
    return rmse(np.asarray(preds)[mask], np.asarray(labels)[mask])
