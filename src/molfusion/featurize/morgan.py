"""Circular neighborhood-hashing fingerprint.

Iterative neighborhood hashing: each atom starts from a 64-bit hash of its
local invariants, then each round rehashes the atom code together with the
sorted (bond order, neighbor code) pairs. An atom emits a new identifier at
radius r only while its r-ball is still growing, that is while r does not
exceed its eccentricity, read from the graph's all-pairs distance matrix
(once the neighborhood stops expanding the environment subgraph repeats and
is not re-emitted). Every emitted identifier folds into the bit vector by
modulo. Hashing uses blake2b truncated to 64 bits, so bit patterns are
stable across runs and platforms; each distinct payload of a molecule is
hashed once.
"""

from __future__ import annotations

import struct

import numpy as np

from ..chem.graph import MolecularGraph, _h64

_ORDER_CODE = {"single": 1, "double": 2, "triple": 3, "aromatic": 4}


def _invariants(graph: MolecularGraph, idx: int) -> bytes:
    a = graph.atoms[idx]
    return a.element.encode() + struct.pack(
        "<iii??", a.degree, a.formal_charge, a.implicit_hs, a.in_ring, a.is_aromatic
    )


def wl_codes(graph: MolecularGraph, radius: int) -> list[list[int]]:
    """Per-round refinement codes; rounds[r][v] hashes the radius-r view of v."""
    memo: dict[bytes, int] = {}

    def code(payload: bytes) -> int:
        c = memo.get(payload)
        if c is None:
            c = memo[payload] = _h64(payload)
        return c

    bonds = [
        [(_ORDER_CODE[b.order.value], b.other(i)) for b in graph.bonds_of(i)]
        for i in range(graph.n_atoms)
    ]
    rounds = [[code(_invariants(graph, i)) for i in range(graph.n_atoms)]]
    for _ in range(radius):
        prev = rounds[-1]
        nxt = []
        for i, pairs in enumerate(bonds):
            flat = [x for pair in sorted((oc, prev[j]) for oc, j in pairs) for x in pair]
            nxt.append(code(struct.pack("<Q" + "IQ" * len(pairs), prev[i], *flat)))
        rounds.append(nxt)
    return rounds


def environment_codes(graph: MolecularGraph, radius: int) -> list[tuple[int, int, int]]:
    """Emitted (atom, radius, code) triples after the ball-growth cutoff."""
    rounds = wl_codes(graph, radius)
    eccentricity = graph.distance_matrix().max(axis=1, initial=0).tolist()
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
