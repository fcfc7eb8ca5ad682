"""Pharmacophore pair-distance fingerprint on the reduced atom labeling.

Atoms receive a set of pharmacophore labels; every labeled atom pair
increments the (label pair, shortest-path distance) slot with +-1 distance
smearing at weight 0.3. The histogram is one weighted ``np.bincount`` over
the smeared slots of all labeled pairs, with distances read from the
hop-distance matrix it is given. The "none" label exists only to fix the
pair-table layout (21 unordered pairs over 6 labels); it is never assigned,
so its slots stay zero.
"""

from __future__ import annotations

import numpy as np

from ..chem.graph import MolecularGraph

ERG_LABELS = ("donor", "acceptor", "positive", "negative", "aromatic", "none")
SMEAR_WEIGHT = 0.3
_SMEAR_OFFSETS = np.array([-1, 0, 1], dtype=np.int64)
_SMEAR_WEIGHTS = np.array([SMEAR_WEIGHT, 1.0, SMEAR_WEIGHT])

_PAIRS = [
    (i, j) for i in range(len(ERG_LABELS)) for j in range(i, len(ERG_LABELS))
]
# _PAIR_TABLE[i, j]: row of the unordered label pair (i, j) in the pair table
_PAIR_TABLE = np.array(
    [[_PAIRS.index((min(i, j), max(i, j))) for j in range(len(ERG_LABELS))]
     for i in range(len(ERG_LABELS))],
    dtype=np.int64,
)

N_LABEL_PAIRS = len(_PAIRS)  # 21


def atom_labels(graph: MolecularGraph, idx: int) -> list[int]:
    """Label indices for one atom; an atom may carry several labels."""
    a = graph.atoms[idx]
    labels = []
    if a.is_h_donor:
        labels.append(0)
    if a.is_h_acceptor:
        labels.append(1)
    if a.formal_charge > 0:
        labels.append(2)
    if a.formal_charge < 0:
        labels.append(3)
    hydrophobic_aromatic = a.is_aromatic or (
        a.element == "C"
        and a.degree >= 1
        and all(graph.atoms[n].element == "C" for n in graph.neighbors(idx))
    )
    if hydrophobic_aromatic:
        labels.append(4)
    return labels


def erg_fingerprint(graph: MolecularGraph, distances: np.ndarray, max_path: int) -> np.ndarray:
    """``distances``: ``hop_distances(graph, limit)``, exact for any limit >= max_path."""
    atoms, labels = [], []  # one entry per (atom, label), by atom then label
    for i in range(graph.n_atoms):
        for label in atom_labels(graph, i):
            atoms.append(i)
            labels.append(label)
    atoms = np.array(atoms, dtype=np.int64)
    labels = np.array(labels, dtype=np.int64)
    dist = distances[atoms[:, None], atoms]
    # each atom pair once; pairs beyond max_path (or disconnected) are ignored
    p, q = np.nonzero((atoms[:, None] < atoms) & (dist >= 1) & (dist <= max_path))
    # weights accumulate in (atom, atom, label, label, smear) order, so the
    # float sums are those of the pair-by-pair loop, bit for bit
    order = np.lexsort((labels[q], labels[p], atoms[q], atoms[p]))
    p, q = p[order], q[order]
    smeared = dist[p, q][:, None] + _SMEAR_OFFSETS
    slots = (_PAIR_TABLE[labels[p], labels[q]] * max_path - 1)[:, None] + smeared
    weights = np.broadcast_to(_SMEAR_WEIGHTS, smeared.shape)
    inside = (smeared >= 1) & (smeared <= max_path)
    hist = np.bincount(slots[inside], weights[inside], minlength=N_LABEL_PAIRS * max_path)
    return hist.astype(np.float64, copy=False)  # bincount of nothing is int64


def erg_length(max_path: int) -> int:
    return N_LABEL_PAIRS * max_path
