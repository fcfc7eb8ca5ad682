"""Circular neighborhood-hashing fingerprint.

Each atom starts from a hash of its local invariants, and
``chem.graph.refine`` rehashes it for ``radius`` rounds together with the
sorted (bond order, neighbor code) pairs; the same refinement keys scaffolds.
An atom emits a new identifier at radius r only while its r-ball is still
growing, that is while r does not exceed its eccentricity, read from the
graph's all-pairs distance matrix (once the neighborhood stops expanding the
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


def environment_codes(graph: MolecularGraph, radius: int) -> list[tuple[int, int, int]]:
    """Emitted (atom, radius, code) triples after the ball-growth cutoff."""
    rounds = refine(graph, list(map(_invariants, graph.atoms)), radius)
    # exact on a matrix cut at radius hops or more: min(radius, eccentricity) is unchanged
    eccentricity = graph.distance_matrix(radius).max(axis=1, initial=0).tolist()
    return [
        (i, r, rounds[r][i])
        for i, ecc in enumerate(eccentricity)
        for r in range(min(radius, ecc) + 1)
    ]


def morgan_fingerprint(graph: MolecularGraph, radius: int = 2, n_bits: int = 2048) -> np.ndarray:
    if radius < 0:
        raise ValueError("radius must be >= 0")
    if n_bits < 64:
        raise ValueError("n_bits must be >= 64")
    out = np.zeros(n_bits, dtype=np.float64)
    out[[code % n_bits for _atom, _r, code in environment_codes(graph, radius)]] = 1.0
    return out
