"""Chemical perception: rings, valence, hybridization, conjugation, flags.

Everything here is deterministic rule evaluation over the parsed graph. The
pharmacophore site flags follow fixed rules:

- acceptor: N or O with formal charge <= 0;
- donor: N or O with at least one attached hydrogen;
- acidic: an oxygen in a C/S/P-centred motif that pairs at least one
  double-bonded O with at least one single-bonded O carrying an H or a
  negative charge; every motif oxygen is flagged;
- basic: a neutral, non-aromatic sp2 or sp3 N, not itself double-bonded to
  O, with no neighbouring carbon double-bonded to O or S (amides and
  nitro-like groups excluded).
"""

from __future__ import annotations

from .elements import ELEMENTS
from .errors import ValenceViolationError
from .graph import Bond, BondOrder, Hybridization, MolecularGraph

_STERIC_TO_HYB = {
    2: Hybridization.SP,
    3: Hybridization.SP2,
    4: Hybridization.SP3,
    5: Hybridization.SP3D,
    6: Hybridization.SP3D2,
}

# Positive charge on these elements raises the maximum allowed bond valence
# (ammonium-style cations).
_CATION_EXPANDABLE = frozenset({"N", "O", "P", "S", "As", "Se", "Te"})

_ACCEPTOR_ELEMENTS = frozenset({"N", "O"})
_DONOR_ELEMENTS = frozenset({"N", "O"})
_LONE_PAIR_ELEMENTS = frozenset({"N", "O", "S"})
_ACID_CENTERS = frozenset({"C", "S", "P"})
_BASIC_HYBRIDIZATIONS = frozenset({Hybridization.SP2, Hybridization.SP3})


def annotate(graph: MolecularGraph) -> MolecularGraph:
    """Populate every derived annotation on atoms and bonds, in place."""
    graph.rings = perceive_rings(graph)
    _mark_ring_membership(graph)
    _assign_valence(graph)
    _assign_conjugation(graph)
    _assign_pharmacophore_flags(graph)
    return graph


def perceive_rings(graph: MolecularGraph) -> list[list[int]]:
    """Smallest set of smallest rings as ordered atom cycles.

    Candidate cycles are the fundamental cycles of a spanning forest plus the
    shortest cycle through every bond of a fundamental cycle that shares a
    bond with another one; a greedy pass keeps the smallest candidates that
    are independent over GF(2) edge space, stopping at the circuit rank
    |E| - |V| + components, which is the number of fundamental cycles.

    Two kinds of bond need no search. A bond on no fundamental cycle is a
    bridge and lies on no cycle at all. A fundamental cycle C that shares no
    bond with another fundamental cycle is the only cycle through each of its
    bonds: any cycle Z is the GF(2) sum of the fundamental cycles of its
    non-tree bonds, so a bond of C in Z puts C in that sum; no other summand
    has a bond of C, so Z contains every bond of C, and a simple cycle that
    contains another one equals it. The search would offer C again, which
    changes nothing, so skipping it is exact. When every fundamental cycle is
    such, the candidates are just the fundamental cycles, which are
    independent, and all of them are kept.
    """
    fundamental = _fundamental_cycles(graph)
    target = len(fundamental)
    if not target:
        return []

    bit: dict[tuple[int, int], int] = {}
    for k, bond in enumerate(graph.bonds):
        bit[bond.u, bond.v] = bit[bond.v, bond.u] = 1 << k

    def edge_mask(cycle: list[int]) -> int:
        mask = bit[cycle[-1], cycle[0]]
        for a, b in zip(cycle, cycle[1:]):
            mask |= bit[a, b]
        return mask

    # Each fundamental cycle has its own non-tree bond, so the masks differ.
    candidates = {edge_mask(cycle): cycle for cycle in fundamental}
    seen = shared = 0
    for mask in candidates:
        shared |= seen & mask
        seen |= mask
    fused = 0  # the bonds of fundamental cycles that share a bond
    for mask in candidates:
        if mask & shared:
            fused |= mask
    while fused:
        low = fused & -fused
        fused ^= low
        # A mask fixes its cycle up to rotation and direction, which
        # _rotate_cycle removes, so the first cycle offered for it stays.
        cycle = _shortest_cycle_through(graph, graph.bonds[low.bit_length() - 1])
        candidates.setdefault(edge_mask(cycle), cycle)

    ordered = sorted(candidates.items(), key=lambda kv: (len(kv[1]), sorted(kv[1])))
    if len(ordered) == target:
        chosen = [cycle for _mask, cycle in ordered]
    else:
        basis: list[int] = []  # row-reduced masks
        chosen = []
        for mask, cycle in ordered:
            reduced = mask
            for row in basis:
                reduced = min(reduced, reduced ^ row)
            if reduced:
                basis.append(reduced)
                basis.sort(reverse=True)
                chosen.append(cycle)
                if len(chosen) == target:
                    break
    return [_rotate_cycle(c) for c in chosen]


def _rotate_cycle(cycle: list[int]) -> list[int]:
    """Start the cycle at its smallest atom, smaller neighbor second."""
    k = cycle.index(min(cycle))
    rotated = cycle[k:] + cycle[:k]
    if len(rotated) > 2 and rotated[-1] < rotated[1]:
        rotated = [rotated[0]] + rotated[:0:-1]
    return rotated


def _fundamental_cycles(graph: MolecularGraph) -> list[list[int]]:
    """The cycle that each non-tree bond of a breadth-first spanning forest
    closes, in bond order."""
    n = graph.n_atoms
    parent = [-1] * n
    parent_bond: list[Bond | None] = [None] * n
    depth = [-1] * n
    for root in range(n):
        if depth[root] >= 0:
            continue
        depth[root] = 0
        queue = [root]
        for a in queue:  # grows while read: breadth-first order
            d = depth[a] + 1
            for bond in graph.bonds_of(a):
                b = bond.v if bond.u == a else bond.u
                if depth[b] < 0:
                    depth[b] = d
                    parent[b] = a
                    parent_bond[b] = bond
                    queue.append(b)
    cycles = []
    for bond in graph.bonds:
        u, v = bond.u, bond.v
        if parent_bond[u] is bond or parent_bond[v] is bond:
            continue
        path_u, path_v = [u], [v]
        while depth[path_u[-1]] > depth[path_v[-1]]:
            path_u.append(parent[path_u[-1]])
        while depth[path_v[-1]] > depth[path_u[-1]]:
            path_v.append(parent[path_v[-1]])
        while path_u[-1] != path_v[-1]:
            path_u.append(parent[path_u[-1]])
            path_v.append(parent[path_v[-1]])
        cycles.append(path_u + path_v[-2::-1])
    return cycles


def _shortest_cycle_through(graph: MolecularGraph, bond: Bond) -> list[int] | None:
    """Shortest path between endpoints avoiding the bond itself, plus the bond."""
    u, v = bond.u, bond.v
    prev = {u: None}
    queue = [u]
    for a in queue:  # grows while read: breadth-first order
        for b in graph.bonds_of(a):
            if b is bond:
                continue
            nbr = b.v if b.u == a else b.u
            if nbr in prev:
                continue
            prev[nbr] = a
            if nbr == v:
                path = [v]
                while path[-1] != u:
                    path.append(prev[path[-1]])
                return path
            queue.append(nbr)
    return None


def _mark_ring_membership(graph: MolecularGraph) -> None:
    """Ring flags and smallest ring sizes, from one pass over the ring edges.

    Aromatic bonds survive only inside rings whose atoms are all aromatic;
    any other aromatic bond becomes single.
    """
    atoms = graph.atoms
    ring_edges: set[tuple[int, int]] = set()
    aromatic_ring_edges: set[tuple[int, int]] = set()
    smallest: dict[int, int] = {}
    for ring in graph.rings:
        size = len(ring)
        edges = {(a, b) if a < b else (b, a) for a, b in zip(ring, ring[1:] + ring[:1])}
        ring_edges |= edges
        if all(atoms[a].is_aromatic for a in ring):
            aromatic_ring_edges |= edges
        for a in ring:
            if smallest.get(a, size) >= size:
                smallest[a] = size
    for i, atom in enumerate(atoms):
        size = smallest.get(i, 0)
        atom.in_ring = size > 0
        atom.min_ring_size = size
    for bond in graph.bonds:
        u, v = bond.u, bond.v
        key = (u, v) if u < v else (v, u)
        bond.in_ring = key in ring_edges
        if bond.order is BondOrder.AROMATIC and key not in aromatic_ring_edges:
            bond.order = BondOrder.SINGLE


def _assign_valence(graph: MolecularGraph) -> None:
    """Degrees, implicit hydrogen counts, valence violation checks,
    hybridization and mass, in one pass over the atoms.

    Aromatic bonds count 1.5, summed then rounded to nearest (ties to even,
    so three fused aromatic bonds give 4). When that total overshoots the
    element's maximum valence the atom is a lone-pair ring donor
    (pyrrole-type N, furan O, ...) and its aromatic bonds recount at 1.0.
    Implicit H fills the smallest non-violating default valence after
    subtracting explicit H and |charge|. A bracket atom gets none: it carries
    exactly the H it writes (OpenSMILES), so ``[CH2]`` is a radical.

    Aromatic atoms are sp2. Any other atom's hybridization follows its
    steric number (bonds + hydrogens + lone pairs), with the lone pairs
    counted from the valence electrons left after bonding and charge.
    """
    twice = [0] * graph.n_atoms  # twice each atom's bond valence: integers
    for bond in graph.bonds:
        t = bond.order.twice_valence
        twice[bond.u] += t
        twice[bond.v] += t
    for i, atom in enumerate(graph.atoms):
        bonds = graph.bonds_of(i)
        atom.degree = len(bonds)
        atom.mass, valences, electrons = ELEMENTS[atom.element]
        charge = atom.formal_charge
        bond_sum = round(twice[i] / 2)
        implicit_hs = 0
        if valences:
            most = valences[-1]
            if charge > 0 and atom.element in _CATION_EXPANDABLE:
                most += charge
            if bond_sum > most and atom.is_aromatic:
                aromatic = sum(b.order is BondOrder.AROMATIC for b in bonds)
                bond_sum = round((twice[i] - aromatic) / 2)
            if bond_sum > most:
                raise ValenceViolationError(
                    f"atom {i} ({atom.element}) has bond valence {bond_sum}, maximum is {most}"
                )
            load = bond_sum + atom.explicit_hs + abs(charge)
            for valence in valences:  # the smallest that holds the load, else the largest
                if valence >= load:
                    implicit_hs = 0 if atom.bracket else valence - load
                    break
        atom.implicit_hs = implicit_hs
        if atom.is_aromatic:
            atom.hybridization = Hybridization.SP2
        elif electrons is None:
            atom.hybridization = Hybridization.OTHER
        else:
            hs = atom.explicit_hs + implicit_hs
            lone_pairs = max(0, electrons - charge - bond_sum - hs) // 2
            steric = atom.degree + hs + lone_pairs
            atom.hybridization = _STERIC_TO_HYB.get(steric, Hybridization.OTHER)


def _assign_conjugation(graph: MolecularGraph) -> None:
    """Mark conjugated bonds.

    A pi bond (double/triple) is conjugated when another pi bond or a
    lone-pair donor (neutral/anionic N, O, S) sits adjacent; a single bond is
    conjugated when both sides offer pi or a lone pair and at least one side
    has a real pi bond. Aromatic bonds are always conjugated.
    """
    single, aromatic = BondOrder.SINGLE, BondOrder.AROMATIC
    has_pi = [False] * graph.n_atoms
    for bond in graph.bonds:
        if bond.order is not single:
            has_pi[bond.u] = has_pi[bond.v] = True
    donor = [a.element in _LONE_PAIR_ELEMENTS and a.formal_charge <= 0 for a in graph.atoms]

    def adjacent_pi_or_donor(i: int, skip: Bond) -> bool:
        return any(
            b is not skip and (b.order is not single or donor[b.v if b.u == i else b.u])
            for b in graph.bonds_of(i)
        )

    for bond in graph.bonds:
        u, v = bond.u, bond.v
        if bond.order is aromatic:
            bond.is_conjugated = True
        elif bond.order is not single:
            bond.is_conjugated = adjacent_pi_or_donor(u, bond) or adjacent_pi_or_donor(v, bond)
        else:
            bond.is_conjugated = (
                (has_pi[u] or has_pi[v])
                and (has_pi[u] or donor[u])
                and (has_pi[v] or donor[v])
            )


def _assign_pharmacophore_flags(graph: MolecularGraph) -> None:
    atoms = graph.atoms

    def double_bonded_to(i: int, elements: tuple[str, ...]) -> bool:
        return any(
            b.order is BondOrder.DOUBLE and atoms[b.v if b.u == i else b.u].element in elements
            for b in graph.bonds_of(i)
        )

    def is_basic(i: int, atom) -> bool:
        return (
            not atom.is_aromatic
            and atom.hybridization in _BASIC_HYBRIDIZATIONS
            and atom.formal_charge == 0
            and not double_bonded_to(i, ("O",))
            and not any(
                atoms[nbr].element == "C" and double_bonded_to(nbr, ("O", "S"))
                for nbr in graph.neighbors(i)
            )
        )

    for i, atom in enumerate(atoms):
        element = atom.element
        atom.is_h_acceptor = element in _ACCEPTOR_ELEMENTS and atom.formal_charge <= 0
        atom.is_h_donor = element in _DONOR_ELEMENTS and atom.total_hs >= 1
        atom.is_acidic = False
        atom.is_basic = element == "N" and is_basic(i, atom)

    # An acid motif's centre has a double-bonded O, so only those centres
    # are looked at.
    centers = set()
    for bond in graph.bonds:
        if bond.order is BondOrder.DOUBLE:
            u, v = atoms[bond.u], atoms[bond.v]
            if u.element == "O" and v.element in _ACID_CENTERS:
                centers.add(bond.v)
            elif v.element == "O" and u.element in _ACID_CENTERS:
                centers.add(bond.u)
    for center in centers:
        double_os, single_os = [], []
        for b in graph.bonds_of(center):
            nbr = atoms[b.v if b.u == center else b.u]
            if nbr.element != "O":
                continue
            if b.order is BondOrder.DOUBLE:
                double_os.append(nbr)
            elif b.order is BondOrder.SINGLE and (nbr.total_hs >= 1 or nbr.formal_charge < 0):
                single_os.append(nbr)
        if single_os:
            for o in double_os + single_os:
                o.is_acidic = True
