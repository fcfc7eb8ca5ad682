"""Molecules packed into one graph per forward pass.

A ``MoleculeBatch`` joins B featurized molecules the way PyTorch Geometric
mini-batches graphs (Fey & Lenssen 2019): the atom rows are concatenated,
the edge indices are offset into them, and a graph-id vector names the
molecule of each row. Every layer runs on those joined rows. The two
attention blocks score all query/key pairs of the batch and add a
block-diagonal mask that shuts out the pairs of different molecules, so
each molecule attends only over its own rows.
"""

from __future__ import annotations

from typing import Callable, Iterable, Iterator, Sequence, TypeVar

import numpy as np

from ..autodiff.tensor import ShapeMismatchError
from ..featurize.features import FeaturizedMolecule, normalized_adjacency

# Atoms per packed forward pass. Attention scores all N^2 query/key pairs of
# the joined rows, masked ones included, and a batch's tape holds every
# intermediate until backward, so packs are capped by atoms, not by molecule
# count. On small molecules a full pack scores about 5x the pairs that padded
# per-molecule slots would (N^2 against B * n_max^2), but at N <= 64 the
# per-op overhead of the tape dominates and the extra pairs cost no time
# that shows.
MAX_CHUNK_ATOMS = 64

_MASKED = -1e30  # added to the scores of another molecule's keys; exp() of it is exactly 0

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


class MoleculeBatch:
    """B molecules as one disjoint-union graph with its attention masks."""

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

        same = self.graph_ids[:, None] == self.graph_ids[None, :]
        # Additive masks over the joined atom rows, and over the token rows
        # [virtual node of each molecule; atom rows] that the fingerprint
        # rows attend to: 0 within a molecule, _MASKED across molecules.
        self.atom_mask = np.where(same, 0.0, _MASKED)  # [N, N]
        token_ids = np.concatenate([np.arange(self.size), self.graph_ids])
        self.token_mask = np.where(  # [B, B + N]
            np.arange(self.size)[:, None] == token_ids[None, :], 0.0, _MASKED
        )
        # Block diagonal: the joined edge list never links two molecules.
        self.adjacency = normalized_adjacency(self.n_atoms, self.src, self.dst)
