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

from .elements import atomic_mass, default_valences, is_known_element, valence_electrons
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
_ACID_CENTERS = frozenset({"C", "S", "P"})
_BASIC_HYBRIDIZATIONS = frozenset({Hybridization.SP2, Hybridization.SP3})


def annotate(graph: MolecularGraph) -> MolecularGraph:
    """Populate every derived annotation on atoms and bonds, in place."""
    graph.rings = perceive_rings(graph)
    _mark_ring_membership(graph)
    _assign_valence(graph)
    _assign_hybridization(graph)
    _assign_conjugation(graph)
    _assign_pharmacophore_flags(graph)
    for atom in graph.atoms:
        atom.mass = atomic_mass(atom.element)
    return graph


def perceive_rings(graph: MolecularGraph) -> list[list[int]]:
    """Smallest set of smallest rings as ordered atom cycles.

    Candidate cycles are the fundamental cycles of a spanning forest plus the
    shortest cycle through every bond that lies on one of them (any other
    bond is a bridge and lies on no cycle); a greedy pass keeps the smallest
    candidates that are independent over GF(2) edge space, stopping at the
    circuit rank |E| - |V| + components, which is the number of fundamental
    cycles.
    """
    fundamental = _fundamental_cycles(graph)
    target = len(fundamental)
    if not target:
        return []

    bond_index = {b.key: i for i, b in enumerate(graph.bonds)}

    def edge_mask(cycle: list[int]) -> int:
        mask = 0
        for i, a in enumerate(cycle):
            b = cycle[(i + 1) % len(cycle)]
            mask |= 1 << bond_index[(a, b) if a < b else (b, a)]
        return mask

    candidates: dict[int, list[int]] = {}

    def offer(cycle: list[int]) -> int:
        mask = edge_mask(cycle)
        if mask not in candidates or len(cycle) < len(candidates[mask]):
            candidates[mask] = cycle
        return mask

    # A bond on no fundamental cycle lies on no cycle at all (a bridge).
    on_cycle = 0
    for cycle in fundamental:
        on_cycle |= offer(cycle)
    for k, bond in enumerate(graph.bonds):
        if on_cycle >> k & 1:
            offer(_shortest_cycle_through(graph, bond))

    ordered = sorted(
        candidates.items(), key=lambda kv: (len(kv[1]), _canonical_cycle(kv[1]))
    )
    basis: list[int] = []  # row-reduced masks
    chosen: list[list[int]] = []
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
    chosen.sort(key=lambda c: (len(c), _canonical_cycle(c)))
    return [_rotate_cycle(c) for c in chosen]


def _canonical_cycle(cycle: list[int]) -> tuple[int, ...]:
    return tuple(sorted(cycle))


def _rotate_cycle(cycle: list[int]) -> list[int]:
    """Start the cycle at its smallest atom, smaller neighbor second."""
    k = cycle.index(min(cycle))
    rotated = cycle[k:] + cycle[:k]
    if len(rotated) > 2 and rotated[-1] < rotated[1]:
        rotated = [rotated[0]] + rotated[:0:-1]
    return rotated


def _fundamental_cycles(graph: MolecularGraph) -> list[list[int]]:
    parent = [-1] * graph.n_atoms
    depth = [-1] * graph.n_atoms
    tree_edges: set[tuple[int, int]] = set()
    for root in range(graph.n_atoms):
        if depth[root] >= 0:
            continue
        depth[root] = 0
        queue = [root]
        while queue:
            nxt = []
            for a in queue:
                for b in graph.neighbors(a):
                    if depth[b] < 0:
                        depth[b] = depth[a] + 1
                        parent[b] = a
                        tree_edges.add((a, b) if a < b else (b, a))
                        nxt.append(b)
            queue = nxt
    cycles = []
    for bond in graph.bonds:
        if bond.key in tree_edges:
            continue
        u, v = bond.u, bond.v
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
    while queue and v not in prev:
        nxt = []
        for a in queue:
            for b in graph.bonds_of(a):
                if b is bond:
                    continue
                nbr = b.other(a)
                if nbr not in prev:
                    prev[nbr] = a
                    nxt.append(nbr)
        queue = nxt
    if v not in prev:
        return None
    path = [v]
    while path[-1] != u:
        path.append(prev[path[-1]])
    return path


def _mark_ring_membership(graph: MolecularGraph) -> None:
    """Ring flags and smallest ring sizes, from one pass over the ring edges.

    Aromatic bonds survive only inside rings whose atoms are all aromatic;
    any other aromatic bond becomes single.
    """
    ring_edges: set[tuple[int, int]] = set()
    aromatic_ring_edges: set[tuple[int, int]] = set()
    smallest: dict[int, int] = {}
    for ring in graph.rings:
        aromatic = all(graph.atoms[a].is_aromatic for a in ring)
        for i, a in enumerate(ring):
            b = ring[(i + 1) % len(ring)]
            key = (a, b) if a < b else (b, a)
            ring_edges.add(key)
            if aromatic:
                aromatic_ring_edges.add(key)
            smallest[a] = min(smallest.get(a, len(ring)), len(ring))
    for atom in graph.atoms:
        atom.in_ring = atom.index in smallest
        atom.min_ring_size = smallest.get(atom.index, 0)
    for bond in graph.bonds:
        bond.in_ring = bond.key in ring_edges
        if bond.order is BondOrder.AROMATIC and bond.key not in aromatic_ring_edges:
            bond.order = BondOrder.SINGLE


def _assign_valence(graph: MolecularGraph) -> None:
    """Implicit hydrogen counts and valence violation checks.

    Aromatic bonds count 1.5, summed then rounded to nearest (ties to even,
    so three fused aromatic bonds give 4). When that total overshoots the
    element's maximum valence the atom is a lone-pair ring donor
    (pyrrole-type N, furan O, ...) and its aromatic bonds recount at 1.0.
    Implicit H fills the smallest non-violating default valence after
    subtracting explicit H and |charge|.
    """
    for atom in graph.atoms:
        atom.degree = len(graph.bonds_of(atom.index))
        bonds = graph.bonds_of(atom.index)
        bond_sum = round(sum(b.order.valence for b in bonds))
        valences = default_valences(atom.element)
        if not valences:
            atom.implicit_hs = 0
            atom.bond_order_sum = bond_sum
            continue
        allowance = (
            atom.formal_charge
            if atom.formal_charge > 0 and atom.element in _CATION_EXPANDABLE
            else 0
        )
        if bond_sum > max(valences) + allowance and atom.is_aromatic:
            bond_sum = round(
                sum(1.0 if b.order is BondOrder.AROMATIC else b.order.valence for b in bonds)
            )
        if bond_sum > max(valences) + allowance:
            raise ValenceViolationError(
                f"atom {atom.index} ({atom.element}) has bond valence {bond_sum}, "
                f"maximum is {max(valences) + allowance}"
            )
        atom.bond_order_sum = bond_sum
        load = bond_sum + atom.explicit_hs + abs(atom.formal_charge)
        chosen = next((v for v in valences if v >= load), max(valences))
        atom.implicit_hs = max(0, chosen - load)


def _assign_hybridization(graph: MolecularGraph) -> None:
    for atom in graph.atoms:
        if atom.is_aromatic:
            atom.hybridization = Hybridization.SP2
            continue
        ve = valence_electrons(atom.element) if is_known_element(atom.element) else None
        if ve is None:
            atom.hybridization = Hybridization.OTHER
            continue
        bonding_electrons = atom.bond_order_sum + atom.total_hs
        lone_pairs = max(0, ve - atom.formal_charge - bonding_electrons) // 2
        steric = atom.degree + atom.total_hs + lone_pairs
        atom.hybridization = _STERIC_TO_HYB.get(steric, Hybridization.OTHER)


def _assign_conjugation(graph: MolecularGraph) -> None:
    """Mark conjugated bonds.

    A pi bond (double/triple) is conjugated when another pi bond or a
    lone-pair donor (neutral/anionic N, O, S) sits adjacent; a single bond is
    conjugated when both sides offer pi or a lone pair and at least one side
    has a real pi bond. Aromatic bonds are always conjugated.
    """
    pi_count = [0] * graph.n_atoms
    for bond in graph.bonds:
        if bond.order in (BondOrder.DOUBLE, BondOrder.TRIPLE, BondOrder.AROMATIC):
            pi_count[bond.u] += 1
            pi_count[bond.v] += 1

    def lp_donor(i: int) -> bool:
        a = graph.atoms[i]
        return a.element in ("N", "O", "S") and a.formal_charge <= 0

    def adjacent_pi_or_donor(i: int, skip: Bond) -> bool:
        for b in graph.bonds_of(i):
            if b is skip:
                continue
            if b.order in (BondOrder.DOUBLE, BondOrder.TRIPLE, BondOrder.AROMATIC):
                return True
            if lp_donor(b.other(i)):
                return True
        return False

    for bond in graph.bonds:
        if bond.order is BondOrder.AROMATIC:
            bond.is_conjugated = True
        elif bond.order in (BondOrder.DOUBLE, BondOrder.TRIPLE):
            bond.is_conjugated = adjacent_pi_or_donor(bond.u, bond) or adjacent_pi_or_donor(
                bond.v, bond
            )
        else:
            side_u = pi_count[bond.u] > 0 or lp_donor(bond.u)
            side_v = pi_count[bond.v] > 0 or lp_donor(bond.v)
            bond.is_conjugated = (
                side_u and side_v and (pi_count[bond.u] > 0 or pi_count[bond.v] > 0)
            )


def _assign_pharmacophore_flags(graph: MolecularGraph) -> None:
    for atom in graph.atoms:
        atom.is_h_acceptor = atom.element in _ACCEPTOR_ELEMENTS and atom.formal_charge <= 0
        atom.is_h_donor = atom.element in _DONOR_ELEMENTS and atom.total_hs >= 1
        atom.is_acidic = False

    for center in graph.atoms:
        if center.element not in _ACID_CENTERS:
            continue
        double_os, single_os = [], []
        for b in graph.bonds_of(center.index):
            nbr = graph.atoms[b.other(center.index)]
            if nbr.element != "O":
                continue
            if b.order is BondOrder.DOUBLE:
                double_os.append(nbr)
            elif b.order is BondOrder.SINGLE and (nbr.total_hs >= 1 or nbr.formal_charge < 0):
                single_os.append(nbr)
        if double_os and single_os:
            for o in double_os + single_os:
                o.is_acidic = True

    def neighbor_carbonyl(i: int) -> bool:
        for nbr in graph.neighbors(i):
            if graph.atoms[nbr].element != "C":
                continue
            for b in graph.bonds_of(nbr):
                if b.order is BondOrder.DOUBLE and graph.atoms[b.other(nbr)].element in ("O", "S"):
                    return True
        return False

    for atom in graph.atoms:
        atom.is_basic = (
            atom.element == "N"
            and not atom.is_aromatic
            and atom.hybridization in _BASIC_HYBRIDIZATIONS
            and atom.formal_charge == 0
            and not any(
                b.order is BondOrder.DOUBLE and graph.atoms[b.other(atom.index)].element == "O"
                for b in graph.bonds_of(atom.index)
            )
            and not neighbor_carbonyl(atom.index)
        )
