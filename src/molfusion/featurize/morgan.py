"""Circular neighborhood-hashing fingerprint.

Each atom starts from a hash of its local invariants, and
``chem.graph.refine`` rehashes it for ``radius`` rounds together with the
sorted (bond order, neighbor code) pairs; the same refinement keys scaffolds.
An atom emits a new identifier at radius r only while its r-ball is still
growing, that is while r does not exceed its eccentricity, read from the
hop-distance matrix it is given (once the neighborhood stops expanding the
environment subgraph repeats and is not re-emitted). Every emitted identifier
folds into its molecule's bit vector by modulo. A call takes a chunk of
molecules and the chunk's block-diagonal matrix, and shares one memo of
hashed payloads across the chunk. Hashing uses blake2b truncated to 64
bits, so bit patterns are stable across runs and platforms.
"""

from __future__ import annotations

import struct
from typing import Sequence

import numpy as np

from ..chem.graph import Atom, MolecularGraph, refine, takes_chunks


def _invariants(a: Atom) -> bytes:
    return a.element.encode() + struct.pack(
        "<iii??", a.degree, a.formal_charge, a.implicit_hs, a.in_ring, a.is_aromatic
    )


@takes_chunks
def environment_codes(
    graphs: Sequence[MolecularGraph], distances: np.ndarray, radius: int
) -> list[list[tuple[int, int, int]]]:
    """Each molecule's emitted (atom, radius, code) triples after the
    ball-growth cutoff, atoms numbered within their molecule."""
    # exact on a matrix cut at radius hops or more: min(radius, eccentricity) is unchanged
    eccentricity = distances.max(axis=1, initial=0).tolist()
    memo: dict[bytes, int] = {}
    emitted = []
    start = 0
    for graph in graphs:
        rounds = refine(graph, list(map(_invariants, graph.atoms)), radius, memo)
        emitted.append([
            (i, r, rounds[r][i])
            for i, ecc in enumerate(eccentricity[start : start + graph.n_atoms])
            for r in range(min(radius, ecc) + 1)
        ])
        start += graph.n_atoms
    return emitted


@takes_chunks
def morgan_fingerprint(
    graphs: Sequence[MolecularGraph], distances: np.ndarray, radius: int, n_bits: int
) -> np.ndarray:
    """``[len(graphs), n_bits]`` bits, one row per molecule."""
    out = np.zeros(len(graphs) * n_bits, dtype=np.float64)
    out[[k * n_bits + code % n_bits
         for k, emitted in enumerate(environment_codes(graphs, distances, radius))
         for _atom, _r, code in emitted]] = 1.0
    return out.reshape(len(graphs), n_bits)
