"""Circular neighborhood-hashing fingerprint.

Iterative neighborhood hashing: each atom starts from a 64-bit hash of its
local invariants, then each round rehashes the atom code together with the
sorted (bond order, neighbor code) pairs. An atom emits a new identifier at
radius r only while its r-ball is still growing (once the neighborhood
stops expanding the environment subgraph repeats and is not re-emitted).
Every emitted identifier folds into the bit vector by modulo. Hashing uses
blake2b truncated to 64 bits, so bit patterns are stable across runs and
platforms.
"""

from __future__ import annotations

import struct

import numpy as np

from ..chem.graph import MolecularGraph, _h64

_ORDER_CODE = {"single": 1, "double": 2, "triple": 3, "aromatic": 4}


def initial_atom_code(graph: MolecularGraph, idx: int) -> int:
    a = graph.atoms[idx]
    payload = a.element.encode() + struct.pack(
        "<iii??", a.degree, a.formal_charge, a.implicit_hs, a.in_ring, a.is_aromatic
    )
    return _h64(payload)


def wl_codes(graph: MolecularGraph, radius: int) -> list[list[int]]:
    """Per-round refinement codes; rounds[r][v] hashes the radius-r view of v."""
    codes = [initial_atom_code(graph, i) for i in range(graph.n_atoms)]
    rounds = [codes]
    for _ in range(radius):
        prev = rounds[-1]
        nxt = []
        for i in range(graph.n_atoms):
            pairs = sorted(
                (_ORDER_CODE[b.order.value], prev[b.other(i)]) for b in graph.bonds_of(i)
            )
            payload = struct.pack("<Q", prev[i]) + b"".join(
                struct.pack("<IQ", oc, pc) for oc, pc in pairs
            )
            nxt.append(_h64(payload))
        rounds.append(nxt)
    return rounds


def environment_codes(graph: MolecularGraph, radius: int) -> list[tuple[int, int, int]]:
    """Emitted (atom, radius, code) triples after the ball-growth cutoff."""
    rounds = wl_codes(graph, radius)
    out = []
    for i in range(graph.n_atoms):
        ecc = max(d for d in graph.shortest_path_lengths(i) if d >= 0)
        for r in range(min(radius, ecc) + 1):
            out.append((i, r, rounds[r][i]))
    return out


def morgan_fingerprint(graph: MolecularGraph, radius: int = 2, n_bits: int = 2048) -> np.ndarray:
    if radius < 0:
        raise ValueError("radius must be >= 0")
    if n_bits < 64:
        raise ValueError("n_bits must be >= 64")
    out = np.zeros(n_bits, dtype=np.float64)
    for _atom, _r, code in environment_codes(graph, radius):
        out[code % n_bits] = 1.0
    return out
