"""Substructure key fingerprint from a fixed predicate table.

The key table ships as a versioned text file (keys_table.txt); bit k is set
when predicate k holds on the molecule.
"""

from __future__ import annotations

import functools
from importlib import resources
from typing import Callable

import numpy as np

from ..chem.graph import BondOrder, MolecularGraph

_HALOGENS = ("F", "Cl", "Br", "I")


class KeyTable:
    """The shipped key predicates, read from ``keys_table.txt`` in index order:
    ``entries`` holds each key's ``(predicate, args, description)`` as written."""

    def __init__(self):
        text = resources.files(__package__).joinpath("keys_table.txt").read_text("utf-8")
        rows = [line.split("|", 3) for line in map(str.strip, text.splitlines())
                if line and not line.startswith("#")]
        self.entries = [(predicate, tuple(args.split(",")), description)
                        for _index, predicate, args, description in rows]
        self._tests = [_compile(predicate, args) for predicate, args, _desc in self.entries]

    def __len__(self) -> int:
        return len(self.entries)


@functools.cache
def default_key_table() -> KeyTable:
    return KeyTable()


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


# Predicate -> (argument kinds, test on the molecule's stats). Kind "s" is a
# symbol or bond order passed as written, "i" an integer count or size.
_PREDICATES: dict[str, tuple[str, Callable[..., bool]]] = {
    "element_ge": ("si", lambda st, sym, k: st.element_counts.get(sym, 0) >= k),
    "halogen_ge": ("i", lambda st, k: st.halogens >= k),
    "hetero_ge": ("i", lambda st, k: st.hetero >= k),
    "heavy_ge": ("i", lambda st, k: st.n_heavy >= k),
    "degree_count_ge": ("ii", lambda st, d, k: sum(1 for deg in st.degrees if deg >= d) >= k),
    "charge_pos_ge": ("i", lambda st, k: st.pos >= k),
    "charge_neg_ge": ("i", lambda st, k: st.neg >= k),
    "charged_ge": ("i", lambda st, k: st.pos + st.neg >= k),
    "ring_ge": ("i", lambda st, k: len(st.rings) >= k),
    "ring_size_ge": ("ii", lambda st, s, k: sum(1 for size in st.ring_sizes if size == s) >= k),
    "aromatic_ring_ge": ("i", lambda st, k: len(st.aromatic_rings) >= k),
    "aromatic_ring_size_ge": (
        "ii", lambda st, s, k: sum(1 for r in st.aromatic_rings if len(r) == s) >= k
    ),
    "nonaromatic_ring_ge": ("i", lambda st, k: len(st.rings) - len(st.aromatic_rings) >= k),
    "hetero_ring_ge": (
        "si", lambda st, sym, k: sum(1 for els in st.ring_elements if sym in els) >= k
    ),
    "aromatic_atoms_ge": ("i", lambda st, k: st.aromatic_atoms >= k),
    "donor_ge": ("i", lambda st, k: st.donors >= k),
    "acceptor_ge": ("i", lambda st, k: st.acceptors >= k),
    "acidic_ge": ("i", lambda st, k: st.acidic >= k),
    "basic_ge": ("i", lambda st, k: st.basic >= k),
    "bond_pair": ("sss", lambda st, s1, order, s2: st.pair_count(s1, order, s2) >= 1),
    "bond_pair_ge": ("sssi", lambda st, s1, order, s2, k: st.pair_count(s1, order, s2) >= k),
    "double_bonds_ge": ("i", lambda st, k: st.double_bonds >= k),
}


def _compile(predicate: str, args: tuple[str, ...]):
    """The predicate's test and its arguments, each count as an integer."""
    kinds, test = _PREDICATES[predicate]
    return test, tuple(int(arg) if kind == "i" else arg
                       for kind, arg in zip(kinds, args, strict=True))


def substructure_key_fingerprint(graph: MolecularGraph) -> np.ndarray:
    """Evaluate the key table; returns a {0,1} float vector of len(table)."""
    table = default_key_table()
    stats = _MoleculeStats(graph)
    out = np.zeros(len(table), dtype=np.float64)
    for k, (test, args) in enumerate(table._tests):
        if test(stats, *args):
            out[k] = 1.0
    return out
