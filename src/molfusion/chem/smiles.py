"""SMILES parsing into annotated molecular graphs.

Supported grammar: the organic subset (B C N O P S F Cl Br I), aromatic
lowercase atoms, bracket atoms with isotope/chirality/H-count/charge/class,
ring-closure digits and %nn, branches, bond symbols ``- = # :`` plus the
directional pair ``/ \\`` (read as single bonds feeding minimal double-bond
E/Z perception). Multi-fragment input keeps the largest fragment.
"""

from __future__ import annotations

import logging
import re
from collections import Counter

from .elements import AROMATIC_SYMBOLS, ELEMENTS, ORGANIC_SUBSET
from .errors import (
    EmptyInputError,
    SmilesError,
    UnbalancedParenError,
    UnclosedRingError,
    UnknownElementError,
)
from .graph import (
    MAX_HS,
    STEREO_E,
    STEREO_Z,
    Atom,
    Bond,
    BondOrder,
    Chirality,
    MolecularGraph,
)
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
_SINGLE, _AROMATIC = BondOrder.SINGLE, BondOrder.AROMATIC

# Atoms written without brackets: symbol -> (element, aromatic). The only
# two-character keys are Br and Cl, whose first characters are keys too.
_ORGANIC_ATOMS = {sym: (sym, False) for sym in ORGANIC_SUBSET}
_ORGANIC_ATOMS.update({sym: (sym.upper(), True) for sym in "bcnops"})

_ATOM_START = ("element symbol", "aromatic symbol", "'['")


def parse_smiles(s: str) -> MolecularGraph:
    """Parse a SMILES string into a fully annotated MolecularGraph.

    Dot-separated input keeps the biggest fragment by heavy-atom count
    (logging a warning).
    """
    if not s:
        raise EmptyInputError("empty SMILES input", 0, _ATOM_START)
    if not s.isascii():
        raise SmilesError("SMILES must be ASCII", 0)
    atoms, bonds, directions = _scan(s)
    if not atoms:
        raise EmptyInputError("no atoms in input", 0, _ATOM_START)
    atoms, bonds, directions = _heavy_atoms(atoms, bonds, directions, s)
    if ":" in s:  # only a ':' bond can be aromatic with a non-aromatic end
        for bond in bonds:
            if bond.order is _AROMATIC and not (
                atoms[bond.u].is_aromatic and atoms[bond.v].is_aromatic
            ):
                raise SmilesError("':' bond requires two aromatic atoms")
    try:
        graph = MolecularGraph(atoms, bonds)
    except ValueError as exc:  # a ring closure repeating a bond, as in C1C1
        raise SmilesError(str(exc)) from exc
    annotate(graph)
    if any(directions):
        _perceive_double_bond_stereo(graph, directions)
    return graph


def _scan(s: str):
    """Single pass over the string producing the atoms, the bonds and each
    bond's written direction (+1 after '/', -1 after '\\', else 0; the sign
    is relative to the bond's u -> v order). A bond written without a symbol
    is aromatic between two aromatic atoms and single otherwise."""
    atoms: list[Atom] = []
    bonds: list[Bond] = []
    directions: list[int] = []
    prev: int | None = None
    pending: BondOrder | None = None  # the bond symbol read since the last atom
    direction = 0
    branch_stack: list[int] = []
    open_rings: dict[int, tuple[int, BondOrder | None, int, int]] = {}
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
            if order is None:
                both = atoms[o_atom].is_aromatic and atoms[prev].is_aromatic
                order = _AROMATIC if both else _SINGLE
            bonds.append(Bond(o_atom, prev, order))
            directions.append(bond_direction)
        else:
            open_rings[num] = (prev, pending, direction, pos)

    while i < n:
        ch = s[i]
        if ch in _ORGANIC_ATOMS:
            sym = s[i : i + 2]
            if sym not in _ORGANIC_ATOMS:
                sym = ch
            element, aromatic = _ORGANIC_ATOMS[sym]
            # Positional arguments (charge 0, no explicit H): this is the
            # parse's most made object, and keywords cost about a third more.
            atom = Atom(element, 0, 0, aromatic)
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
        k = len(atoms)
        if prev is not None:
            if pending is None:
                pending = _AROMATIC if atom.is_aromatic and atoms[prev].is_aromatic else _SINGLE
            bonds.append(Bond(prev, k, pending))
            directions.append(direction)
        prev = k
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
    return atoms, bonds, directions


# A bracket atom, every part optional so that a malformed one matches as far
# as it is well formed: isotope, symbol (aromatic ones first, as written),
# chirality (@, @@, or a named class such as @TH1), H count, charge, class.
# No part after the symbol starts with a lowercase letter, so one that follows
# an uppercase letter belongs to the symbol: [Co] names cobalt, not C.
_BRACKET = re.compile(
    rf"""\[ (?P<isotope>[0-9]*)
    (?P<symbol>{"|".join(AROMATIC_SYMBOLS)}|[A-Z][a-z]?)?
    (?P<chirality>@(?:@|(?:TH|AL|SP|TB|OH)[0-9]+)?)?
    (?:H(?P<hs>[0-9]*))?
    (?P<charge>\+(?:[0-9]+|\+*)|-(?:[0-9]+|-*))?
    (?P<atom_class>:[0-9]*)?
    (?P<close>])?""",
    re.VERBOSE,
)
_CHIRALITY = {None: Chirality.NONE, "@": Chirality.TETRAHEDRAL_CCW, "@@": Chirality.TETRAHEDRAL_CW}


def _digits(text: str) -> str:
    """A count's digits without leading zeros, so that a count of any length
    is compared by its length before ``int`` reads it."""
    return text.lstrip("0") or "0"


def _parse_bracket(s: str, start: int) -> tuple[Atom, int]:
    """Parse one bracket atom starting at '['; returns (atom, next index).
    The first part that is not well formed names the error."""
    m = _BRACKET.match(s, start)
    symbol, hs_text, charge_text = m["symbol"], m["hs"], m["charge"]
    if symbol is None:
        at = m.end("isotope")
        if at == len(s):
            raise SmilesError("unterminated bracket atom", start, ("']'",))
        raise UnknownElementError(f"expected element symbol at {s[at]!r}", at, ("element",))
    element = symbol.capitalize()
    if element not in ELEMENTS:
        raise UnknownElementError(f"unknown element {element!r}", m.start("symbol"))
    explicit_hs = 0
    if hs_text is not None:
        hs = _digits(hs_text or "1")
        if len(hs) > len(str(MAX_HS)) or int(hs) > MAX_HS:
            raise SmilesError(f"H count {hs} above {MAX_HS}", m.end("hs") - 1)
        explicit_hs = int(hs)
    charge = 0
    if charge_text:
        magnitude = charge_text[1:]
        magnitude = _digits(magnitude if magnitude.isdigit() else str(len(charge_text)))
        sign = "-" if charge_text[0] == "-" else ""
        if len(magnitude) > 1 or magnitude > "4":
            raise SmilesError(
                f"formal charge {sign}{magnitude} outside [-4, 4]", m.end("charge") - 1
            )
        charge = int(sign + magnitude)
    if m["atom_class"] == ":":
        raise SmilesError("atom class ':' needs digits", m.end("atom_class"))
    if not m["close"]:
        raise SmilesError("unterminated bracket atom", start, ("']'",))
    atom = Atom(
        element=element,
        formal_charge=charge,
        explicit_hs=explicit_hs,
        is_aromatic=symbol[0].islower(),
        chirality=_CHIRALITY.get(m["chirality"], Chirality.OTHER),
        bracket=True,
    )
    return atom, m.end()


def _heavy_atoms(atoms, bonds, directions, source: str):
    """Fold each bracket [H] into its neighbour's explicit-H count; keep the
    fragment with the most heavy atoms (the first of equal ones, with a
    warning); number the kept atoms from 0 in written order. Input with
    neither comes back as it is; ``directions`` stays aligned with the bonds."""
    is_h = [a.element == "H" for a in atoms]
    if not ("." in source or any(is_h)):
        return atoms, bonds, directions
    fragment = list(range(len(atoms)))  # union-find parents

    def root(a: int) -> int:
        while fragment[a] != a:
            fragment[a] = a = fragment[fragment[a]]
        return a

    folded_into: dict[int, int] = {}
    kept = []  # (bond, direction) of the bonds between heavy atoms
    for b, direction in zip(bonds, directions):
        hu, hv = is_h[b.u], is_h[b.v]
        if hu and hv:
            raise SmilesError("hydrogen-hydrogen bond unsupported")
        if hu or hv:
            h, heavy = (b.u, b.v) if hu else (b.v, b.u)
            if b.order is not _SINGLE or h in folded_into:
                raise SmilesError("explicit hydrogen must have one single bond")
            folded_into[h] = heavy
            continue
        kept.append((b, direction))
        fragment[root(b.u)] = root(b.v)
    if len(folded_into) < sum(is_h):
        raise SmilesError("isolated explicit hydrogen atom")
    for h, heavy in folded_into.items():
        atom = atoms[heavy]
        atom.explicit_hs += 1 + atoms[h].explicit_hs
        if atom.explicit_hs > MAX_HS:
            raise SmilesError(f"H count {atom.explicit_hs} above {MAX_HS}")
    keep = [i for i, flag in enumerate(is_h) if not flag]
    roots = [root(i) for i in keep]
    sizes = Counter(roots)  # in order of each fragment's first atom
    if len(sizes) > 1:
        best = max(sizes, key=sizes.get)
        log.warning(
            "multi-fragment SMILES %r: keeping largest fragment (%d of %d atoms)",
            source,
            sizes[best],
            len(keep),
        )
        keep = [i for i, r in zip(keep, roots) if r == best]
    remap = {old: new for new, old in enumerate(keep)}
    kept = [(b, direction) for b, direction in kept if b.u in remap]
    for b, _direction in kept:
        b.u, b.v = remap[b.u], remap[b.v]
    return [atoms[i] for i in keep], [b for b, _ in kept], [d for _, d in kept]


def _perceive_double_bond_stereo(graph: MolecularGraph, directions: list[int]) -> None:
    """Set E/Z stereo codes on double bonds flanked by directional bonds;
    ``directions[k]`` is the written direction of ``graph.bonds[k]``.

    ``F/C=C/F`` is E (trans), ``F/C=C\\F`` is Z (cis): equal written-direction
    signs across the double bond mean opposite sides.
    """
    directional: dict[tuple[int, int], int] = {}
    for bond, direction in zip(graph.bonds, directions):
        if direction:
            directional[(bond.u, bond.v)] = direction
            directional[(bond.v, bond.u)] = -direction
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
