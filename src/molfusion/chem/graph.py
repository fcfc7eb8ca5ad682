"""Molecular graph containers: atoms, bonds and their derived annotations."""

from __future__ import annotations

import functools
import hashlib
import operator
import struct
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Iterable, Sequence

import numpy as np


class Chirality(Enum):
    NONE = "none"
    TETRAHEDRAL_CW = "tetrahedral_cw"
    TETRAHEDRAL_CCW = "tetrahedral_ccw"
    OTHER = "other"


class BondOrder(Enum):
    SINGLE = "single"
    DOUBLE = "double"
    TRIPLE = "triple"
    AROMATIC = "aromatic"

    def __init__(self, value: str):
        # Twice the bond's contribution to valence (aromatic counts 1.5), so
        # that valence sums are integers, and the 1-4 code that neighbourhood
        # hashing packs. Plain attributes: enum members hash in Python, so a
        # dict keyed by them is slow on the parse path.
        self.twice_valence, self.code = {
            "single": (2, 1), "double": (4, 2), "triple": (6, 3), "aromatic": (3, 4)
        }[value]


class Hybridization(Enum):
    SP = "sp"
    SP2 = "sp2"
    SP3 = "sp3"
    SP3D = "sp3d"
    SP3D2 = "sp3d2"
    OTHER = "other"


# Bond stereo codes (6-slot one-hot in bond features):
# 0 none, 1 any, 2 Z, 3 E, 4 cis, 5 trans. Only 0, 2 and 3 are produced by
# the parser's minimal double-bond perception.
STEREO_NONE = 0
STEREO_Z = 2
STEREO_E = 3

# The most hydrogens an atom may carry: graph_hash packs the count as "<i".
MAX_HS = 2**31 - 1


@dataclass
class Atom:
    element: str
    formal_charge: int = 0
    explicit_hs: int = 0
    is_aromatic: bool = False
    chirality: Chirality = Chirality.NONE
    bracket: bool = False  # written in brackets: carries only the H it writes
    # Derived annotations, populated by perception.annotate().
    degree: int = 0
    implicit_hs: int = 0
    hybridization: Hybridization = Hybridization.OTHER
    in_ring: bool = False
    min_ring_size: int = 0  # 0 when not in a ring
    is_h_donor: bool = False
    is_h_acceptor: bool = False
    is_acidic: bool = False
    is_basic: bool = False
    mass: float = 0.0

    @property
    def total_hs(self) -> int:
        return self.explicit_hs + self.implicit_hs


@dataclass
class Bond:
    u: int
    v: int
    order: BondOrder
    stereo: int = STEREO_NONE
    in_ring: bool = False
    is_conjugated: bool = False

    def other(self, idx: int) -> int:
        return self.v if idx == self.u else self.u

    @property
    def key(self) -> tuple[int, int]:
        return (self.u, self.v) if self.u < self.v else (self.v, self.u)


class MolecularGraph:
    """Heavy-atom molecular graph with perceived annotations.

    Atoms are indexed 0..n-1; at most one bond per atom pair. ``rings`` holds
    the smallest set of smallest rings as ordered atom-index cycles. The bond
    topology is fixed once the graph is built.

    A graph pickles as one row of field values per atom and per bond, beside
    its other attributes (``rings``, and any a caller set); unpickled, its
    ``bonds_of`` lists hold the objects of ``bonds`` in bond order, as built.
    """

    def __init__(self, atoms: Sequence[Atom], bonds: Sequence[Bond]):
        self.atoms: list[Atom] = list(atoms)
        self.bonds: list[Bond] = list(bonds)
        self.rings: list[list[int]] = []
        self._link()

    def _link(self) -> None:
        """Each atom's bonds, in bond order. A self-bond, or a bond between
        atoms that an earlier bond already joins, raises ``ValueError``."""
        adjacency: list[list[Bond]] = [[] for _ in self.atoms]
        for bond in self.bonds:
            u, v = bond.u, bond.v
            if u == v:
                raise ValueError(f"self-bond on atom {u}")
            # v's list, not u's: a written chain bonds each atom to one that
            # is already there, so v's list is most often still empty.
            for earlier in adjacency[v]:
                if earlier.u == u or earlier.v == u:
                    raise ValueError(f"duplicate bond between atoms {min(u, v), max(u, v)}")
            adjacency[u].append(bond)
            adjacency[v].append(bond)
        self._adjacency = adjacency

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        del state["_adjacency"]
        state["atoms"] = list(map(_ATOM_ROW, self.atoms))
        state["bonds"] = list(map(_BOND_ROW, self.bonds))
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self.atoms = [Atom(*row) for row in state["atoms"]]
        self.bonds = [Bond(*row) for row in state["bonds"]]
        self._link()

    @property
    def n_atoms(self) -> int:
        return len(self.atoms)

    @property
    def n_bonds(self) -> int:
        return len(self.bonds)

    def bonds_of(self, idx: int) -> list[Bond]:
        return self._adjacency[idx]

    def neighbors(self, idx: int) -> list[int]:
        return [b.other(idx) for b in self._adjacency[idx]]

    def graph_hash(self) -> str:
        """Canonical-by-refinement hash; equal for isomorphic parses.

        ``refine`` runs on parse invariants (element, charge, total Hs,
        aromatic) until a round does not raise the number of distinct codes;
        its last codes (sorted), ``n_atoms`` and ``n_bonds`` are digested. The
        stop is exact: each round refines the last one's partition of the
        atoms, a stable partition stays stable, and the stopping round is an
        isomorphism invariant, so the hash separates no fewer graphs than
        ``n_atoms`` rounds would. "Does not grow" also ends the loop should a
        64-bit collision ever shrink the count. The cost is O(n * rounds);
        rounds grow with the diameter of a chain of rings (198 for 100
        para-linked benzenes). Collisions between non-isomorphic molecules
        are possible in principle but not observed at this scale.
        """
        invariants = [
            a.element.encode() + struct.pack("<ii?", a.formal_charge, a.total_hs, a.is_aromatic)
            for a in self.atoms
        ]
        codes = sorted(refine(self, invariants)[-1])
        digest = hashlib.blake2b(struct.pack(f"<{len(codes)}Q", *codes), digest_size=16)
        digest.update(struct.pack("<II", self.n_atoms, self.n_bonds))
        return digest.hexdigest()


_ATOM_ROW = operator.attrgetter(*Atom.__dataclass_fields__)
_BOND_ROW = operator.attrgetter(*Bond.__dataclass_fields__)


def refine(
    graph: MolecularGraph,
    invariants: Sequence[bytes],
    rounds: int | None = None,
    memo: dict[bytes, int] | None = None,
) -> list[list[int]]:
    """Iterated neighbourhood hashing (Morgan 1965; ECFP): every round's codes.

    Round 0 holds the 64-bit blake2b hash of each atom's invariant bytes. Each
    later round hashes an atom's code (``"<Q"``) with its sorted (bond-order
    code, neighbour code) pairs (``"IQ"`` each), so ``out[r][v]`` codes the
    radius-r view of atom v. Each distinct payload is hashed once per call.
    Runs ``rounds`` rounds or, when None, until a round does not raise the
    number of distinct codes (see ``MolecularGraph.graph_hash``). A caller
    that refines several graphs may share ``memo``, the payload-to-code
    table, across the calls: a code is a pure function of its payload.
    """
    if memo is None:
        memo = {}

    def code(payload: bytes) -> int:
        c = memo.get(payload)
        if c is None:
            c = memo[payload] = int.from_bytes(
                hashlib.blake2b(payload, digest_size=8).digest(), "little"
            )
        return c

    bonds = [[(b.order.code, b.other(i)) for b in graph.bonds_of(i)] for i in range(graph.n_atoms)]
    packers = {d: struct.Struct("<Q" + "IQ" * d).pack for d in set(map(len, bonds))}
    pack = [packers[len(pairs)] for pairs in bonds]
    out = [list(map(code, invariants))]
    while rounds is None or len(out) <= rounds:
        prev = out[-1]
        nxt = []
        for i, pairs in enumerate(bonds):
            flat = [prev[i]]
            for pair in sorted([(oc, prev[j]) for oc, j in pairs]):
                flat += pair
            nxt.append(code(pack[i](*flat)))
        out.append(nxt)
        if rounds is None and len(set(nxt)) <= len(set(prev)):
            break
    return out


def takes_chunks(per_chunk: Callable) -> Callable:
    """Lets ``per_chunk(graphs, *args)``, which returns one row per graph of
    a chunk, take a lone graph too: a chunk of one, whose row it returns."""

    @functools.wraps(per_chunk)
    def call(graphs, *args):
        if isinstance(graphs, MolecularGraph):
            return per_chunk([graphs], *args)[0]
        return per_chunk(graphs, *args)

    return call


def hop_distances(
    graphs: MolecularGraph | Sequence[MolecularGraph], limit: int | None = None
) -> np.ndarray:
    """All-pairs hop distances over the joined graphs of a chunk (or of one
    graph), ``[N, N]`` int64 and read-only, where N counts the atoms of all
    the graphs and atom i of graph m is row ``i`` plus the atoms of the graphs
    before m. The matrix is block-diagonal: -1 across molecules and wherever
    unreachable. Given ``limit``, the search stops after ``limit`` hops, and
    a pair farther apart reads -1 as well.

    Breadth-first search from every source at once, one level per round.
    The frontier is a flat array of ``source * width + atom`` keys into the
    distance matrix, which has a padding column ``N`` that counts as visited.
    ``step[a]`` holds the key offsets from atom ``a`` to its neighbours, padded
    with the offset to column ``N``. A level adds the offsets to every key,
    keeps the unvisited keys and sorts them to drop repeats. Each (source,
    atom) pair of a molecule enters the frontier once, so the search is
    O(N * E) in one round of numpy calls per level of the deepest molecule,
    paid once per chunk; the matrix itself is O(N^2), so a caller keeps its
    chunks small (``model.batch.chunks``).
    """
    if isinstance(graphs, MolecularGraph):
        graphs = [graphs]
    n = sum(graph.n_atoms for graph in graphs)
    width = n + 1
    depth = max((len(bonds) for graph in graphs for bonds in graph._adjacency), default=0)
    offsets = []  # step, row by row
    start = 0
    for graph in graphs:
        for a, bonds in enumerate(graph._adjacency):
            offsets += [b.other(a) - a for b in bonds]
            offsets += [n - start - a] * (depth - len(bonds))
        start += graph.n_atoms
    step = np.array(offsets, dtype=np.int64).reshape(n, depth)
    dist = np.full(n * width, -1, dtype=np.int64)
    dist[n::width] = 0  # the padding column
    keys = np.arange(n, dtype=np.int64) * (width + 1)  # (s, s) pairs
    dist[keys] = 0
    level = 0
    while keys.size and level != limit:
        level += 1
        reached = (keys[:, None] + step[keys % width]).ravel()
        reached = reached[dist[reached] < 0]
        reached.sort()
        first = np.ones(reached.size, dtype=bool)
        np.not_equal(reached[1:], reached[:-1], out=first[1:])
        keys = reached[first]
        dist[keys] = level
    out = dist.reshape(n, width)[:, :n]
    out.flags.writeable = False
    return out


def induced_subgraph(g: MolecularGraph, keep: Iterable[int]) -> MolecularGraph:
    """Subgraph on ``keep`` (order preserved), bonds restricted to kept atoms."""
    keep = list(keep)
    remap = {old: new for new, old in enumerate(keep)}
    atoms = [Atom(*_ATOM_ROW(g.atoms[old])) for old in keep]
    bonds = [
        Bond(remap[b.u], remap[b.v], b.order, b.stereo)
        for b in g.bonds
        if b.u in remap and b.v in remap
    ]
    return MolecularGraph(atoms, bonds)
