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
# Enum members bound once: reading one off its class is slow on a per-atom path.
_SP2, _OTHER_HYB = Hybridization.SP2, Hybridization.OTHER

# Positive charge on these elements raises the maximum allowed bond valence
# (ammonium-style cations).
_CATION_EXPANDABLE = frozenset({"N", "O", "P", "S", "As", "Se", "Te"})

_ACCEPTOR_ELEMENTS = frozenset({"N", "O"})
_DONOR_ELEMENTS = frozenset({"N", "O"})
_LONE_PAIR_ELEMENTS = frozenset({"N", "O", "S"})
_ACID_CENTERS = frozenset({"C", "S", "P"})
_BASIC_HYBRIDIZATIONS = frozenset({Hybridization.SP2, Hybridization.SP3})
_SINGLE, _DOUBLE, _AROMATIC = BondOrder.SINGLE, BondOrder.DOUBLE, BondOrder.AROMATIC


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
    masks: list[int] = []
    fundamental = _fundamental_cycles(graph, masks)
    target = len(fundamental)
    if not target:
        return []

    # Each fundamental cycle has its own non-tree bond, so the masks differ.
    candidates = dict(zip(masks, fundamental))
    seen = shared = 0
    for mask in masks:
        shared |= seen & mask
        seen |= mask
    fused = 0  # the bonds of fundamental cycles that share a bond
    for mask in masks:
        if mask & shared:
            fused |= mask
    if fused:
        # A cycle is the sum of the fundamental cycles of its non-tree bonds
        # (see above), so its mask is the XOR of theirs. A fundamental
        # cycle's non-tree bond joins its first and last atoms.
        closing: dict[tuple[int, int], int] = {}
        for cycle, mask in zip(fundamental, masks):
            closing[cycle[0], cycle[-1]] = closing[cycle[-1], cycle[0]] = mask
    while fused:
        low = fused & -fused
        fused ^= low
        # A mask fixes its cycle up to rotation and direction, which
        # _rotate_cycle removes, so the first cycle offered for it stays.
        cycle = _shortest_cycle_through(graph, graph.bonds[low.bit_length() - 1])
        mask = closing.get((cycle[-1], cycle[0]), 0)
        for pair in zip(cycle, cycle[1:]):
            mask ^= closing.get(pair, 0)
        candidates.setdefault(mask, cycle)

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


def _fundamental_cycles(
    graph: MolecularGraph, masks: list[int] | None = None
) -> list[list[int]]:
    """The cycle that each non-tree bond of a breadth-first spanning forest
    closes, in bond order. Given ``masks``, appends each cycle's bond mask to
    it: bit k stands for ``graph.bonds[k]``."""
    adjacency = graph._adjacency
    n = len(adjacency)
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
            for bond in adjacency[a]:
                b = bond.v if bond.u == a else bond.u
                if depth[b] < 0:
                    depth[b] = d
                    parent[b] = a
                    parent_bond[b] = bond
                    queue.append(b)
    up_bit = [0] * n  # the bit of the tree bond from each atom to its parent
    closing = []  # (bit, u, v) of each non-tree bond
    for k, bond in enumerate(graph.bonds):
        u, v = bond.u, bond.v
        if parent_bond[u] is bond:
            up_bit[u] = 1 << k
        elif parent_bond[v] is bond:
            up_bit[v] = 1 << k
        else:
            closing.append((1 << k, u, v))
    cycles = []
    for bit, u, v in closing:
        path_u, path_v = [u], [v]
        while depth[path_u[-1]] > depth[path_v[-1]]:
            path_u.append(parent[path_u[-1]])
        while depth[path_v[-1]] > depth[path_u[-1]]:
            path_v.append(parent[path_v[-1]])
        while path_u[-1] != path_v[-1]:
            path_u.append(parent[path_u[-1]])
            path_v.append(parent[path_v[-1]])
        cycles.append(path_u + path_v[-2::-1])
        if masks is not None:
            # Every path atom below the meeting atom reaches it by its tree bond.
            for a in path_u[:-1] + path_v[:-1]:
                bit |= up_bit[a]
            masks.append(bit)
    return cycles


def _shortest_cycle_through(graph: MolecularGraph, bond: Bond) -> list[int] | None:
    """Shortest path between endpoints avoiding the bond itself, plus the bond."""
    adjacency = graph._adjacency
    u, v = bond.u, bond.v
    prev = {u: None}
    queue = [u]
    for a in queue:  # grows while read: breadth-first order
        for b in adjacency[a]:
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
    """Ring flags and smallest ring sizes, walking each ring's bonds through
    the adjacency lists.

    Aromatic bonds survive only inside rings whose atoms are all aromatic:
    every aromatic bond becomes single, and those bonds get their order back.
    """
    atoms, adjacency = graph.atoms, graph._adjacency
    smallest = [0] * len(atoms)
    for bond in graph.bonds:
        bond.in_ring = False
    kept = []  # the aromatic bonds of rings of aromatic atoms
    for ring in graph.rings:
        size = len(ring)
        aromatic = all(atoms[a].is_aromatic for a in ring)
        before = ring[-1]
        for a in ring:
            if not smallest[a] or smallest[a] > size:
                smallest[a] = size
            for bond in adjacency[a]:
                if bond.u == before or bond.v == before:
                    bond.in_ring = True
                    if aromatic and bond.order is _AROMATIC:
                        kept.append(bond)
                    break
            before = a
    for atom, size in zip(atoms, smallest):
        atom.in_ring = size > 0
        atom.min_ring_size = size
    for bond in graph.bonds:
        if bond.order is _AROMATIC:
            bond.order = _SINGLE
    for bond in kept:
        bond.order = _AROMATIC


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
    for i, (atom, bonds) in enumerate(zip(graph.atoms, graph._adjacency)):
        atom.degree = degree = len(bonds)
        element = atom.element
        atom.mass, valences, electrons = ELEMENTS[element]
        charge = atom.formal_charge
        t = twice[i]
        bond_sum = round(t / 2)
        implicit_hs = 0
        if valences:
            most = valences[-1]
            if charge > 0 and element in _CATION_EXPANDABLE:
                most += charge
            if bond_sum > most and atom.is_aromatic:
                aromatic = sum(b.order is _AROMATIC for b in bonds)
                bond_sum = round((t - aromatic) / 2)
            if bond_sum > most:
                raise ValenceViolationError(
                    f"atom {i} ({element}) has bond valence {bond_sum}, maximum is {most}"
                )
            load = bond_sum + atom.explicit_hs + abs(charge)
            for valence in valences:  # the smallest that holds the load, else the largest
                if valence >= load:
                    implicit_hs = 0 if atom.bracket else valence - load
                    break
        atom.implicit_hs = implicit_hs
        if atom.is_aromatic:
            atom.hybridization = _SP2
        elif electrons is None:
            atom.hybridization = _OTHER_HYB
        else:
            hs = atom.explicit_hs + implicit_hs
            unshared = electrons - charge - bond_sum - hs
            lone_pairs = unshared // 2 if unshared > 0 else 0
            atom.hybridization = _STERIC_TO_HYB.get(degree + hs + lone_pairs, _OTHER_HYB)


def _assign_conjugation(graph: MolecularGraph) -> None:
    """Mark conjugated bonds.

    A pi bond (double/triple) is conjugated when another pi bond or a
    lone-pair donor (neutral/anionic N, O, S) sits adjacent; a single bond is
    conjugated when both sides offer pi or a lone pair and at least one side
    has a real pi bond. Aromatic bonds are always conjugated.
    """
    adjacency = graph._adjacency
    has_pi = [False] * graph.n_atoms
    for bond in graph.bonds:
        if bond.order is not _SINGLE:
            has_pi[bond.u] = has_pi[bond.v] = True
    donor = [a.element in _LONE_PAIR_ELEMENTS and a.formal_charge <= 0 for a in graph.atoms]

    def adjacent_pi_or_donor(i: int, skip: Bond) -> bool:
        return any(
            b is not skip and (b.order is not _SINGLE or donor[b.v if b.u == i else b.u])
            for b in adjacency[i]
        )

    for bond in graph.bonds:
        u, v = bond.u, bond.v
        if bond.order is _AROMATIC:
            bond.is_conjugated = True
        elif bond.order is not _SINGLE:
            bond.is_conjugated = adjacent_pi_or_donor(u, bond) or adjacent_pi_or_donor(v, bond)
        else:
            bond.is_conjugated = (
                (has_pi[u] or has_pi[v])
                and (has_pi[u] or donor[u])
                and (has_pi[v] or donor[v])
            )


def _assign_pharmacophore_flags(graph: MolecularGraph) -> None:
    atoms, adjacency = graph.atoms, graph._adjacency

    def double_bonded_to(i: int, elements: tuple[str, ...]) -> bool:
        return any(
            b.order is _DOUBLE and atoms[b.v if b.u == i else b.u].element in elements
            for b in adjacency[i]
        )

    def is_basic(i: int, atom) -> bool:
        return (
            not atom.is_aromatic
            and atom.hybridization in _BASIC_HYBRIDIZATIONS
            and atom.formal_charge == 0
            and not double_bonded_to(i, ("O",))
            and not any(
                atoms[nbr].element == "C" and double_bonded_to(nbr, ("O", "S"))
                for nbr in (b.v if b.u == i else b.u for b in adjacency[i])
            )
        )

    for i, atom in enumerate(atoms):
        element = atom.element
        atom.is_h_acceptor = element in _ACCEPTOR_ELEMENTS and atom.formal_charge <= 0
        atom.is_h_donor = element in _DONOR_ELEMENTS and atom.explicit_hs + atom.implicit_hs >= 1
        atom.is_acidic = False
        atom.is_basic = element == "N" and is_basic(i, atom)

    # An acid motif's centre has a double-bonded O, so only those centres
    # are looked at.
    centers = set()
    for bond in graph.bonds:
        if bond.order is _DOUBLE:
            u, v = atoms[bond.u], atoms[bond.v]
            if u.element == "O" and v.element in _ACID_CENTERS:
                centers.add(bond.v)
            elif v.element == "O" and u.element in _ACID_CENTERS:
                centers.add(bond.u)
    for center in centers:
        double_os, single_os = [], []
        for b in adjacency[center]:
            nbr = atoms[b.v if b.u == center else b.u]
            if nbr.element != "O":
                continue
            if b.order is _DOUBLE:
                double_os.append(nbr)
            elif b.order is _SINGLE and (nbr.total_hs >= 1 or nbr.formal_charge < 0):
                single_os.append(nbr)
        if single_os:
            for o in double_os + single_os:
                o.is_acidic = True
