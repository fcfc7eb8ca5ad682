"""Ring-system scaffolds for scaffold-based dataset splitting."""

from __future__ import annotations

from .graph import MolecularGraph, induced_subgraph
from .perception import annotate

EMPTY_SCAFFOLD_HASH = "empty-scaffold"


def murcko_scaffold(graph: MolecularGraph) -> MolecularGraph:
    """Bemis-Murcko scaffold: prune non-ring atoms of degree <= 1 until fixed.

    Ring systems and the linkers between them survive; an acyclic molecule
    collapses to the empty scaffold. Pruning pops leaves from a worklist over
    degree counts, in linear time: degrees only fall, so an atom is queued at
    most once, and the fixed point does not depend on the popping order.
    """
    degree = [len(graph.bonds_of(i)) for i in range(graph.n_atoms)]
    leaves = [i for i, a in enumerate(graph.atoms) if not a.in_ring and degree[i] <= 1]
    kept = [True] * graph.n_atoms
    while leaves:
        idx = leaves.pop()
        kept[idx] = False
        for nbr in graph.neighbors(idx):
            degree[nbr] -= 1
            if degree[nbr] == 1 and not graph.atoms[nbr].in_ring:
                leaves.append(nbr)
    keep = [i for i, k in enumerate(kept) if k]
    scaffold = induced_subgraph(graph, keep)
    # A bracket atom that lost a side chain no longer writes all its H, so it
    # takes implicit H for the pruned bonds, as RDKit's MurckoDecompose lets
    # such an atom do: C[C@@H]1CCCCC1 and CC1CCCCC1 share one scaffold.
    for new, old in enumerate(keep):
        if degree[old] < len(graph.bonds_of(old)):
            scaffold.atoms[new].bracket = False
    if scaffold.n_atoms:
        annotate(scaffold)
    return scaffold


def scaffold_hash(graph: MolecularGraph) -> str:
    """Canonical hash of the molecule's scaffold.

    All acyclic molecules share one bucket so that scaffold splits group them
    deterministically. The key is ``graph_hash``, a ``refine`` run to a
    stable partition.
    """
    scaffold = murcko_scaffold(graph)
    if scaffold.n_atoms == 0:
        return EMPTY_SCAFFOLD_HASH
    return scaffold.graph_hash()
