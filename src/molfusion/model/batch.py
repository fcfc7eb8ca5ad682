"""Molecules packed into one graph per forward pass.

A ``MoleculeBatch`` joins B featurized molecules the way PyTorch Geometric
mini-batches graphs (Fey & Lenssen 2019): the atom rows are concatenated,
the edge indices are offset into them, and a graph-id vector names the
molecule of each row. The message-passing layers and the readout run on
those flat rows. The two attention blocks run on padded per-molecule rows
instead, as in MAT (Maziarka et al. 2020): a ``Padding`` gathers the flat
rows into ``[B, width]`` slots and its additive key mask keeps each
molecule's attention on its own slots.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Sequence, TypeVar

import numpy as np

from ..autodiff import tensor as T
from ..autodiff.tensor import ShapeMismatchError, Tensor
from ..featurize.features import FeaturizedMolecule

# Atoms per packed forward pass. Attention is quadratic in the padded width
# and a batch's tape holds every intermediate until backward, so packs are
# capped by atoms, not by molecule count.
MAX_CHUNK_ATOMS = 64

_MASKED = -1e30  # added to the scores of padding slots; exp() of it is exactly 0

Item = TypeVar("Item")


class EmptyMoleculeError(ValueError):
    pass


def chunks(items: Iterable[Item], n_atoms: Callable[[Item], int]) -> Iterator[list[Item]]:
    """Runs of consecutive items whose atom total stays at or below
    ``MAX_CHUNK_ATOMS``; an item above the cap forms a run of its own."""
    run: list[Item] = []
    total = 0
    for item in items:
        size = n_atoms(item)
        if run and total + size > MAX_CHUNK_ATOMS:
            yield run
            run, total = [], 0
        run.append(item)
        total += size
    if run:
        yield run


@dataclass(frozen=True)
class Padding:
    """Padded per-molecule slots over a set of flat rows."""

    index: np.ndarray  # [B, width] source row of each slot; a padding slot repeats a real row
    mask: Tensor  # [B, 1, 1, width], 0 on real slots and _MASKED on padding slots


class MoleculeBatch:
    """B molecules as one disjoint-union graph, plus the padded attention layout."""

    def __init__(self, mols: Sequence[FeaturizedMolecule]):
        if not mols:
            raise ValueError("a batch needs at least one molecule")
        sizes = np.array([m.n_atoms for m in mols], dtype=np.int64)
        if sizes.min() < 1:
            raise EmptyMoleculeError("molecule has no atoms")
        widths = sorted({m.fingerprint.shape for m in mols})
        if len(widths) > 1:
            raise ShapeMismatchError("fingerprint", *widths)
        starts = np.cumsum(sizes) - sizes
        self.size = len(mols)
        self.n_atoms = int(sizes.sum())
        self.atom_features = np.concatenate([m.atom_features for m in mols])
        self.src = np.concatenate([m.src + s for m, s in zip(mols, starts)])
        self.dst = np.concatenate([m.dst + s for m, s in zip(mols, starts)])
        self.bond_features = np.concatenate([m.bond_features for m in mols])
        self.graph_ids = np.repeat(np.arange(self.size), sizes)
        self.fingerprints = np.stack([m.fingerprint for m in mols])

        n_max = int(sizes.max())
        slot = np.arange(n_max)
        real = slot[None, :] < sizes[:, None]  # [B, n_max]
        index = starts[:, None] + np.where(real, slot, 0)
        scores = np.where(real, 0.0, _MASKED)
        # Transformer slots over the atom rows; cross-attention slots over the
        # token rows [virtual node of each molecule; atom rows], virtual first.
        self.atoms = Padding(index, Tensor(scores[:, None, None, :]))
        self.tokens = Padding(
            np.concatenate([np.arange(self.size)[:, None], self.size + index], axis=1),
            Tensor(np.pad(scores, ((0, 0), (1, 0)))[:, None, None, :]),
        )
        self._real_slots = np.flatnonzero(real)  # atom rows in the flattened [B * n_max] slots
        self.adjacency = np.zeros((self.size, 1, n_max, n_max))  # padded, broadcast over heads
        for b, m in enumerate(mols):
            self.adjacency[b, 0, : m.n_atoms, : m.n_atoms] = m.adjacency_normalized

    def pad_atoms(self, rows: Tensor) -> Tensor:
        """Flat atom rows [N, d] as padded slots [B, n_max, d]."""
        return T.gather_rows(rows, self.atoms.index)

    def unpad_atoms(self, slots: Tensor) -> Tensor:
        """Padded slots [B, n_max, d] back to the flat atom rows [N, d]."""
        return T.gather_rows(T.reshape(slots, (-1, slots.shape[-1])), self._real_slots)
