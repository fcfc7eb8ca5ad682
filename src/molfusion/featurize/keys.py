"""Substructure key fingerprint from a fixed predicate table.

The key table ships as a versioned text file (keys_table.txt); bit k is set
when predicate k holds on the molecule. The table length is configurable by
pointing at a different file, so a richer key set can be dropped in.
"""

from __future__ import annotations

from importlib import resources
from pathlib import Path

import numpy as np

from ..chem.graph import BondOrder, MolecularGraph

_HALOGENS = ("F", "Cl", "Br", "I")


class KeyTable:
    def __init__(self, entries: list[tuple[str, tuple[str, ...], str]]):
        self.entries = entries

    def __len__(self) -> int:
        return len(self.entries)

    @classmethod
    def load(cls, path: str | Path | None = None) -> "KeyTable":
        if path is None:
            text = resources.files("molfusion.featurize").joinpath("keys_table.txt").read_text(
                "utf-8"
            )
        else:
            text = Path(path).read_text("utf-8")
        entries = []
        for line in text.splitlines():
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            idx, predicate, args, description = line.split("|", 3)
            if int(idx) != len(entries):
                raise ValueError(f"key table indices out of order at {idx}")
            entries.append((predicate, tuple(args.split(",")), description))
        return cls(entries)


_DEFAULT_TABLE: KeyTable | None = None


def default_key_table() -> KeyTable:
    global _DEFAULT_TABLE
    if _DEFAULT_TABLE is None:
        _DEFAULT_TABLE = KeyTable.load()
    return _DEFAULT_TABLE


class _MoleculeStats:
    """Counts evaluated once per molecule, shared by all predicates."""

    def __init__(self, g: MolecularGraph):
        self.element_counts: dict[str, int] = {}
        for a in g.atoms:
            self.element_counts[a.element] = self.element_counts.get(a.element, 0) + 1
        self.n_heavy = g.n_atoms
        self.halogens = sum(self.element_counts.get(h, 0) for h in _HALOGENS)
        self.hetero = sum(c for sym, c in self.element_counts.items() if sym != "C")
        self.pos = sum(1 for a in g.atoms if a.formal_charge > 0)
        self.neg = sum(1 for a in g.atoms if a.formal_charge < 0)
        self.aromatic_atoms = sum(1 for a in g.atoms if a.is_aromatic)
        self.donors = sum(1 for a in g.atoms if a.is_h_donor)
        self.acceptors = sum(1 for a in g.atoms if a.is_h_acceptor)
        self.acidic = sum(1 for a in g.atoms if a.is_acidic)
        self.basic = sum(1 for a in g.atoms if a.is_basic)
        self.degrees = [a.degree for a in g.atoms]

        self.rings = g.rings
        self.ring_sizes = [len(r) for r in g.rings]
        self.aromatic_rings = [
            r for r in g.rings if all(g.atoms[i].is_aromatic for i in r)
        ]
        self.ring_elements = [{g.atoms[i].element for i in r} for r in g.rings]

        self.bond_pairs: dict[tuple[str, str, str], int] = {}
        self.double_bonds = 0
        for b in g.bonds:
            e1, e2 = sorted((g.atoms[b.u].element, g.atoms[b.v].element))
            key = (e1, b.order.value, e2)
            self.bond_pairs[key] = self.bond_pairs.get(key, 0) + 1
            if b.order is BondOrder.DOUBLE:
                self.double_bonds += 1

    def pair_count(self, s1: str, order: str, s2: str) -> int:
        e1, e2 = sorted((s1, s2))
        return self.bond_pairs.get((e1, order, e2), 0)


def _evaluate(predicate: str, args: tuple[str, ...], st: _MoleculeStats) -> bool:
    if predicate == "element_ge":
        return st.element_counts.get(args[0], 0) >= int(args[1])
    if predicate == "halogen_ge":
        return st.halogens >= int(args[0])
    if predicate == "hetero_ge":
        return st.hetero >= int(args[0])
    if predicate == "heavy_ge":
        return st.n_heavy >= int(args[0])
    if predicate == "degree_count_ge":
        d, k = int(args[0]), int(args[1])
        return sum(1 for deg in st.degrees if deg >= d) >= k
    if predicate == "charge_pos_ge":
        return st.pos >= int(args[0])
    if predicate == "charge_neg_ge":
        return st.neg >= int(args[0])
    if predicate == "charged_ge":
        return st.pos + st.neg >= int(args[0])
    if predicate == "ring_ge":
        return len(st.rings) >= int(args[0])
    if predicate == "ring_size_ge":
        s, k = int(args[0]), int(args[1])
        return sum(1 for size in st.ring_sizes if size == s) >= k
    if predicate == "aromatic_ring_ge":
        return len(st.aromatic_rings) >= int(args[0])
    if predicate == "aromatic_ring_size_ge":
        s, k = int(args[0]), int(args[1])
        return sum(1 for r in st.aromatic_rings if len(r) == s) >= k
    if predicate == "nonaromatic_ring_ge":
        return len(st.rings) - len(st.aromatic_rings) >= int(args[0])
    if predicate == "hetero_ring_ge":
        sym, k = args[0], int(args[1])
        return sum(1 for els in st.ring_elements if sym in els) >= k
    if predicate == "aromatic_atoms_ge":
        return st.aromatic_atoms >= int(args[0])
    if predicate == "donor_ge":
        return st.donors >= int(args[0])
    if predicate == "acceptor_ge":
        return st.acceptors >= int(args[0])
    if predicate == "acidic_ge":
        return st.acidic >= int(args[0])
    if predicate == "basic_ge":
        return st.basic >= int(args[0])
    if predicate == "bond_pair":
        return st.pair_count(args[0], args[1], args[2]) >= 1
    if predicate == "bond_pair_ge":
        return st.pair_count(args[0], args[1], args[2]) >= int(args[3])
    if predicate == "double_bonds_ge":
        return st.double_bonds >= int(args[0])
    raise ValueError(f"unknown key predicate {predicate!r}")


def substructure_key_fingerprint(
    graph: MolecularGraph, table: KeyTable | None = None
) -> np.ndarray:
    """Evaluate the key table; returns a {0,1} float vector of len(table)."""
    table = table or default_key_table()
    stats = _MoleculeStats(graph)
    out = np.zeros(len(table), dtype=np.float64)
    for k, (predicate, args, _desc) in enumerate(table.entries):
        if _evaluate(predicate, args, stats):
            out[k] = 1.0
    return out
