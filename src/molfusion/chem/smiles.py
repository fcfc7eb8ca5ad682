"""SMILES parsing into annotated molecular graphs.

Supported grammar: the organic subset (B C N O P S F Cl Br I), aromatic
lowercase atoms, bracket atoms with isotope/chirality/H-count/charge/class,
ring-closure digits and %nn, branches, bond symbols ``- = # :`` plus the
directional pair ``/ \\`` (read as single bonds feeding minimal double-bond
E/Z perception). Multi-fragment input keeps the largest fragment by default.
"""

from __future__ import annotations

import logging

from .elements import AROMATIC_SYMBOLS, ELEMENTS, ORGANIC_SUBSET
from .errors import (
    EmptyInputError,
    SmilesError,
    UnbalancedParenError,
    UnclosedRingError,
    UnknownElementError,
)
from .graph import Atom, Bond, BondOrder, Chirality, MolecularGraph
from .perception import annotate

log = logging.getLogger(__name__)

_BOND_CHARS = {
    "-": BondOrder.SINGLE,
    "=": BondOrder.DOUBLE,
    "#": BondOrder.TRIPLE,
    ":": BondOrder.AROMATIC,
    "/": BondOrder.SINGLE,
    "\\": BondOrder.SINGLE,
}
_DIRECTIONS = {"/": 1, "\\": -1}

# Atoms written without brackets: symbol -> (element, aromatic). The only
# two-character keys are Br and Cl, whose first characters are keys too.
_ORGANIC_ATOMS = {sym: (sym, False) for sym in ORGANIC_SUBSET}
_ORGANIC_ATOMS.update({sym: (sym.upper(), True) for sym in "bcnops"})

_ATOM_START = ("element symbol", "aromatic symbol", "'['")


class _RawBond:
    __slots__ = ("u", "v", "order", "direction")

    def __init__(self, u, v, order, direction):
        self.u = u
        self.v = v
        self.order = order  # None means "default": aromatic-or-single
        self.direction = direction  # sign is relative to written u -> v order


def parse_smiles(s: str) -> MolecularGraph:
    """Parse a SMILES string into a fully annotated MolecularGraph.

    Dot-separated input keeps the biggest fragment by heavy-atom count
    (logging a warning).
    """
    if not s:
        raise EmptyInputError("empty SMILES input", 0, _ATOM_START)
    if not s.isascii():
        raise SmilesError("SMILES must be ASCII", 0)
    atoms, raw_bonds, saw_dot = _scan(s)
    if not atoms:
        raise EmptyInputError("no atoms in input", 0, _ATOM_START)
    atoms, raw_bonds = _fold_explicit_hydrogens(atoms, raw_bonds)
    if not atoms:
        raise SmilesError("molecule has no heavy atoms", 0)
    if saw_dot:
        atoms, raw_bonds = _keep_largest_fragment(atoms, raw_bonds, s)
    graph = _build_graph(atoms, raw_bonds)
    annotate(graph)
    _perceive_double_bond_stereo(graph, raw_bonds)
    return graph


def _scan(s: str):
    """Single pass over the string producing atoms and raw bonds."""
    atoms: list[Atom] = []
    bonds: list[_RawBond] = []
    prev: int | None = None
    pending: BondOrder | None = None  # the bond symbol read since the last atom
    direction = 0  # +1 after '/', -1 after '\\'
    branch_stack: list[int] = []
    open_rings: dict[int, tuple[int, BondOrder | None, int, int]] = {}
    saw_dot = False
    i, n = 0, len(s)

    def close_ring(num: int, pos: int) -> None:
        if prev is None:
            raise SmilesError("ring closure before any atom", pos, _ATOM_START)
        if num in open_rings:
            o_atom, o_order, o_direction, _pos = open_rings.pop(num)
            if o_atom == prev:
                raise SmilesError(f"ring bond {num} closes on its own atom", pos)
            order, bond_direction = pending, direction
            if o_order is not None:
                if order is not None and o_order is not order:
                    raise SmilesError(f"conflicting bond orders on ring closure {num}", pos)
                order = o_order
                bond_direction = bond_direction or -o_direction
            bonds.append(_RawBond(o_atom, prev, order, bond_direction))
        else:
            open_rings[num] = (prev, pending, direction, pos)

    while i < n:
        ch = s[i]
        if ch in _ORGANIC_ATOMS:
            sym = s[i : i + 2]
            if sym not in _ORGANIC_ATOMS:
                sym = ch
            element, aromatic = _ORGANIC_ATOMS[sym]
            atom = Atom(element, is_aromatic=aromatic)
            i += len(sym)
        elif ch == "[":
            atom, i = _parse_bracket(s, i)
        else:
            if ch == "(":
                if prev is None:
                    raise SmilesError("branch before any atom", i, _ATOM_START)
                branch_stack.append((prev, len(atoms)))
            elif ch == ")":
                if not branch_stack:
                    raise UnbalancedParenError("')' without matching '('", i)
                if pending is not None:
                    raise SmilesError("bond symbol before ')'", i, _ATOM_START)
                prev, n_before = branch_stack.pop()
                if len(atoms) == n_before:
                    raise SmilesError("empty branch", i, _ATOM_START + ("bond symbol",))
            elif ch in _BOND_CHARS:
                if prev is None:
                    raise SmilesError("bond symbol without an atom before it", i, _ATOM_START)
                if pending is not None:
                    raise SmilesError("two bond symbols in a row", i, _ATOM_START)
                pending = _BOND_CHARS[ch]
                direction = _DIRECTIONS.get(ch, 0)
            elif ch == ".":
                if pending is not None:
                    raise SmilesError("bond symbol before '.'", i, _ATOM_START)
                prev = None
                saw_dot = True
            elif ch.isdigit():
                close_ring(int(ch), i)
                pending, direction = None, 0
            elif ch == "%":
                if i + 2 >= n or not (s[i + 1].isdigit() and s[i + 2].isdigit()):
                    raise SmilesError("'%' needs two digits", i, ("two-digit ring number",))
                close_ring(int(s[i + 1 : i + 3]), i)
                pending, direction = None, 0
                i += 2
            else:
                raise SmilesError(
                    f"unexpected character {ch!r}",
                    i,
                    _ATOM_START + ("bond symbol", "ring digit", "'('", "')'"),
                )
            i += 1
            continue
        if prev is not None:
            bonds.append(_RawBond(prev, len(atoms), pending, direction))
        prev = len(atoms)
        atoms.append(atom)
        pending, direction = None, 0

    if branch_stack:
        raise UnbalancedParenError("'(' never closed", n)
    if open_rings:
        nums = ", ".join(str(k) for k in sorted(open_rings))
        first_pos = min(pos for *_, pos in open_rings.values())
        raise UnclosedRingError(f"ring bond(s) {nums} never closed", first_pos)
    if pending is not None:
        raise SmilesError("dangling bond symbol at end of input", n - 1, _ATOM_START)
    return atoms, bonds, saw_dot


def _parse_bracket(s: str, start: int) -> tuple[Atom, int]:
    """Parse one bracket atom starting at '['; returns (atom, next index)."""
    i = start + 1
    n = len(s)

    def eof_error():
        return SmilesError("unterminated bracket atom", start, ("']'",))

    # Optional isotope number (accepted, not stored).
    while i < n and s[i].isdigit():
        i += 1
    if i >= n:
        raise eof_error()

    aromatic = False
    element = None
    for sym in AROMATIC_SYMBOLS:
        if s.startswith(sym, i):
            element = sym.capitalize() if len(sym) == 2 else sym.upper()
            aromatic = True
            i += len(sym)
            break
    if element is None:
        if not s[i].isalpha() or not s[i].isupper():
            raise UnknownElementError(f"expected element symbol at {s[i]!r}", i, ("element",))
        # Nothing after the symbol starts with a lowercase letter, so one
        # that follows belongs to the symbol: [Co] names cobalt, not C.
        element = s[i]
        i += 1
        if i < n and s[i].isalpha() and s[i].islower():
            element += s[i]
            i += 1
    if element not in ELEMENTS:
        raise UnknownElementError(f"unknown element {element!r}", i - len(element))

    chirality = Chirality.NONE
    if i < n and s[i] == "@":
        i += 1
        if i < n and s[i] == "@":
            chirality = Chirality.TETRAHEDRAL_CW
            i += 1
        elif s[i : i + 2] in ("TH", "AL", "SP", "TB", "OH") and i + 2 < n and s[i + 2].isdigit():
            # Named classes like @TH1/@AL2/@SP3: recorded as "other".
            i += 2
            while i < n and s[i].isdigit():
                i += 1
            chirality = Chirality.OTHER
        else:
            chirality = Chirality.TETRAHEDRAL_CCW

    explicit_hs = 0
    if i < n and s[i] == "H":
        i += 1
        count = 1
        if i < n and s[i].isdigit():
            count = 0
            while i < n and s[i].isdigit():
                count = count * 10 + int(s[i])
                i += 1
        explicit_hs = count

    charge = 0
    if i < n and s[i] in "+-":
        sign = 1 if s[i] == "+" else -1
        symbol = s[i]
        i += 1
        magnitude = 1
        if i < n and s[i].isdigit():
            magnitude = 0
            while i < n and s[i].isdigit():
                magnitude = magnitude * 10 + int(s[i])
                i += 1
        else:
            while i < n and s[i] == symbol:
                magnitude += 1
                i += 1
        charge = sign * magnitude
        if abs(charge) > 4:
            raise SmilesError(f"formal charge {charge} outside [-4, 4]", i - 1)

    if i < n and s[i] == ":":
        i += 1
        if i >= n or not s[i].isdigit():
            raise SmilesError("atom class ':' needs digits", i)
        while i < n and s[i].isdigit():
            i += 1

    if i >= n or s[i] != "]":
        raise eof_error()
    return (
        Atom(
            element=element,
            formal_charge=charge,
            explicit_hs=explicit_hs,
            is_aromatic=aromatic,
            chirality=chirality,
            bracket=True,
        ),
        i + 1,
    )


def _fold_explicit_hydrogens(atoms, bonds):
    """Fold bracket [H] atoms into the neighbor's explicit-H count."""
    h_idx = {i for i, a in enumerate(atoms) if a.element == "H"}
    if not h_idx:
        return atoms, bonds
    folded_into: dict[int, int] = {}
    kept_bonds = []
    for b in bonds:
        hu, hv = b.u in h_idx, b.v in h_idx
        if hu and hv:
            raise SmilesError("hydrogen-hydrogen bond unsupported")
        if hu or hv:
            h, heavy = (b.u, b.v) if hu else (b.v, b.u)
            if b.order not in (None, BondOrder.SINGLE) or h in folded_into:
                raise SmilesError("explicit hydrogen must have one single bond")
            folded_into[h] = heavy
            continue
        kept_bonds.append(b)
    for h in h_idx:
        if h not in folded_into:
            raise SmilesError("isolated explicit hydrogen atom")
        atoms[folded_into[h]].explicit_hs += 1 + atoms[h].explicit_hs
    remap = {}
    new_atoms = []
    for i, a in enumerate(atoms):
        if i in h_idx:
            continue
        remap[i] = len(new_atoms)
        new_atoms.append(a)
    for b in kept_bonds:
        b.u, b.v = remap[b.u], remap[b.v]
    return new_atoms, kept_bonds


def _keep_largest_fragment(atoms, bonds, source: str):
    """Keep the fragment with the most heavy atoms (first wins on ties)."""
    n = len(atoms)
    adj = [[] for _ in range(n)]
    for b in bonds:
        adj[b.u].append(b.v)
        adj[b.v].append(b.u)
    comp = [-1] * n
    comps: list[list[int]] = []
    for start in range(n):
        if comp[start] >= 0:
            continue
        cid = len(comps)
        stack, members = [start], []
        comp[start] = cid
        while stack:
            a = stack.pop()
            members.append(a)
            for nbr in adj[a]:
                if comp[nbr] < 0:
                    comp[nbr] = cid
                    stack.append(nbr)
        comps.append(sorted(members))
    if len(comps) == 1:
        return atoms, bonds
    best = max(range(len(comps)), key=lambda c: (len(comps[c]), -c))
    log.warning(
        "multi-fragment SMILES %r: keeping largest fragment (%d of %d atoms)",
        source,
        len(comps[best]),
        n,
    )
    keep = comps[best]
    remap = {old: new for new, old in enumerate(keep)}
    new_atoms = [atoms[old] for old in keep]
    new_bonds = []
    for b in bonds:
        if b.u in remap:
            b.u, b.v = remap[b.u], remap[b.v]
            new_bonds.append(b)
    return new_atoms, new_bonds


def _build_graph(atoms, raw_bonds) -> MolecularGraph:
    bonds = []
    for rb in raw_bonds:
        order = rb.order
        if order is None:
            both_aromatic = atoms[rb.u].is_aromatic and atoms[rb.v].is_aromatic
            order = BondOrder.AROMATIC if both_aromatic else BondOrder.SINGLE
        elif order is BondOrder.AROMATIC:
            if not (atoms[rb.u].is_aromatic and atoms[rb.v].is_aromatic):
                raise SmilesError("':' bond requires two aromatic atoms")
        bonds.append(Bond(rb.u, rb.v, order))
    try:
        return MolecularGraph(atoms, bonds)
    except ValueError as exc:  # a ring closure repeating a bond, as in C1C1
        raise SmilesError(str(exc)) from exc


def _perceive_double_bond_stereo(graph: MolecularGraph, raw_bonds) -> None:
    """Set E/Z stereo codes on double bonds flanked by directional bonds.

    ``F/C=C/F`` is E (trans), ``F/C=C\\F`` is Z (cis): equal written-direction
    signs across the double bond mean opposite sides.
    """
    directional: dict[tuple[int, int], int] = {}
    for rb in raw_bonds:
        if rb.direction:
            directional[(rb.u, rb.v)] = rb.direction
            directional[(rb.v, rb.u)] = -rb.direction
    if not directional:
        return
    from .graph import STEREO_E, STEREO_Z

    for bond in graph.bonds:
        if bond.order is not BondOrder.DOUBLE:
            continue
        u_dir = next(
            (directional[(a, bond.u)] for a in graph.neighbors(bond.u)
             if a != bond.v and (a, bond.u) in directional),
            0,
        )
        v_dir = next(
            (directional[(bond.v, a)] for a in graph.neighbors(bond.v)
             if a != bond.u and (bond.v, a) in directional),
            0,
        )
        if u_dir and v_dir:
            bond.stereo = STEREO_E if u_dir == v_dir else STEREO_Z
