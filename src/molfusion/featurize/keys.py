"""Substructure key fingerprint from a fixed predicate table.

The key table ships as a versioned text file (keys_table.txt); bit k is set
when predicate k holds on the molecule. Every predicate reads "a count of the
molecule >= a threshold", so the table compiles to one count name and one
threshold per key, and a molecule is counted once for all keys.
"""

from __future__ import annotations

import functools
import operator
from collections import Counter
from importlib import resources
from itertools import repeat

import numpy as np

from ..chem.graph import BondOrder, MolecularGraph

_HALOGENS = ("F", "Cl", "Br", "I")

# Each predicate's arguments by kind: "s" a symbol or bond order and "i" an
# integer, both naming the count, then "k" the threshold; ``bond_pair`` has
# none and reads a count of at least 1. The count's name is the predicate
# without "_ge", followed by its naming arguments (see ``_counts``).
_ARGUMENTS = {
    "element_ge": "sk",
    "hetero_ring_ge": "sk",
    "degree_count_ge": "ik",
    "ring_size_ge": "ik",
    "aromatic_ring_size_ge": "ik",
    "bond_pair": "sss",
    "bond_pair_ge": "sssk",
    **dict.fromkeys((
        "halogen_ge", "hetero_ge", "heavy_ge", "charge_pos_ge", "charge_neg_ge", "charged_ge",
        "ring_ge", "aromatic_ring_ge", "nonaromatic_ring_ge", "aromatic_atoms_ge", "donor_ge",
        "acceptor_ge", "acidic_ge", "basic_ge", "double_bonds_ge",
    ), "k"),
}


class KeyTable:
    """The shipped key predicates, read from ``keys_table.txt`` in index order:
    ``entries`` holds each key's ``(predicate, args, description)`` as written.
    Key k reads ``counts[names[index[k]]] >= thresholds[k]``; an unknown
    predicate or a wrong number or kind of arguments fails here."""

    def __init__(self):
        text = resources.files(__package__).joinpath("keys_table.txt").read_text("utf-8")
        rows = [line.split("|", 3) for line in map(str.strip, text.splitlines())
                if line and not line.startswith("#")]
        self.entries = [(predicate, tuple(args.split(",")), description)
                        for _index, predicate, args, description in rows]
        slots: dict[tuple, int] = {}
        index, thresholds = [], []
        for predicate, args, _desc in self.entries:
            kinds = _ARGUMENTS[predicate]
            values = [int(arg) if kind in "ik" else arg
                      for kind, arg in zip(kinds, args, strict=True)]
            thresholds.append(values.pop() if kinds.endswith("k") else 1)
            if predicate.startswith("bond_pair"):  # either element order names one count
                values = [min(values[0], values[2]), values[1], max(values[0], values[2])]
            index.append(slots.setdefault((predicate.removesuffix("_ge"), *values), len(slots)))
        self.names = list(slots)
        self.index = np.array(index, dtype=np.int64)
        self.thresholds = np.array(thresholds, dtype=np.int64)

    def __len__(self) -> int:
        return len(self.entries)


@functools.cache
def default_key_table() -> KeyTable:
    return KeyTable()


_ATOM_COUNTED = operator.attrgetter(
    "element", "formal_charge", "degree",
    "is_aromatic", "is_h_donor", "is_h_acceptor", "is_acidic", "is_basic",
)
_FLAG_COUNTS = [("aromatic_atoms",), ("donor",), ("acceptor",), ("acidic",), ("basic",)]


def _counts(g: MolecularGraph) -> Counter:
    """Every count a key can read, by name; a name that is absent counts 0."""
    counts = Counter({("heavy",): g.n_atoms, ("ring",): len(g.rings)})
    for (element, charge, degree, *flags), n in Counter(map(_ATOM_COUNTED, g.atoms)).items():
        counts["element", element] += n
        if element in _HALOGENS:
            counts["halogen",] += n
        if element != "C":
            counts["hetero",] += n
        if charge:
            counts["charge_pos" if charge > 0 else "charge_neg",] += n
            counts["charged",] += n
        for d in range(degree + 1):
            counts["degree_count", d] += n
        for name, flag in zip(_FLAG_COUNTS, flags):
            if flag:
                counts[name] += n
    atoms = g.atoms
    for ring in g.rings:
        size = len(ring)
        counts["ring_size", size] += 1
        if all(atoms[i].is_aromatic for i in ring):
            counts["aromatic_ring",] += 1
            counts["aromatic_ring_size", size] += 1
        else:
            counts["nonaromatic_ring",] += 1
        for element in {atoms[i].element for i in ring}:
            counts["hetero_ring", element] += 1
    pairs = Counter((atoms[b.u].element, b.order, atoms[b.v].element) for b in g.bonds)
    for (e1, order, e2), n in pairs.items():
        counts["bond_pair", min(e1, e2), order.value, max(e1, e2)] += n
        if order is BondOrder.DOUBLE:
            counts["double_bonds",] += n
    return counts


def substructure_key_fingerprint(graph: MolecularGraph) -> np.ndarray:
    """Evaluate the key table; returns a {0,1} float vector of len(table)."""
    table = default_key_table()
    counts = _counts(graph)
    vector = np.fromiter(map(counts.get, table.names, repeat(0)), np.int64, len(table.names))
    return (vector[table.index] >= table.thresholds).astype(np.float64)
