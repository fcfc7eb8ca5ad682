"""Circular neighborhood-hashing fingerprint.

Each atom starts from a hash of its local invariants, and
``chem.graph.refine`` rehashes it for ``radius`` rounds together with the
sorted (bond order, neighbor code) pairs; the same refinement keys scaffolds.
An atom emits a new identifier at radius r only while its r-ball is still
growing, that is while r does not exceed its eccentricity, read from the
hop-distance matrix it is given (once the neighborhood stops expanding the
environment subgraph repeats and is not re-emitted). Every emitted identifier
folds into the bit vector by modulo. Hashing uses blake2b truncated to 64
bits, so bit patterns are stable across runs and platforms.
"""

from __future__ import annotations

import struct

import numpy as np

from ..chem.graph import Atom, MolecularGraph, refine


def _invariants(a: Atom) -> bytes:
    return a.element.encode() + struct.pack(
        "<iii??", a.degree, a.formal_charge, a.implicit_hs, a.in_ring, a.is_aromatic
    )


def environment_codes(
    graph: MolecularGraph, distances: np.ndarray, radius: int
) -> list[tuple[int, int, int]]:
    """Emitted (atom, radius, code) triples after the ball-growth cutoff."""
    rounds = refine(graph, list(map(_invariants, graph.atoms)), radius)
    # exact on a matrix cut at radius hops or more: min(radius, eccentricity) is unchanged
    eccentricity = distances.max(axis=1, initial=0).tolist()
    return [
        (i, r, rounds[r][i])
        for i, ecc in enumerate(eccentricity)
        for r in range(min(radius, ecc) + 1)
    ]


def morgan_fingerprint(
    graph: MolecularGraph, distances: np.ndarray, radius: int, n_bits: int
) -> np.ndarray:
    out = np.zeros(n_bits, dtype=np.float64)
    out[[code % n_bits for _atom, _r, code in environment_codes(graph, distances, radius)]] = 1.0
    return out
