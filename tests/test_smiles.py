"""Parser, perception and scaffold tests."""

import dataclasses
import hashlib
import json
import pickle
import re
import struct
from enum import Enum
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from molfusion.chem import graph as graph_module
from molfusion.chem import scaffold as scaffold_module
from molfusion.chem import (
    EMPTY_SCAFFOLD_HASH,
    Atom,
    Bond,
    BondOrder,
    Chirality,
    EmptyInputError,
    Hybridization,
    MolecularGraph,
    SmilesError,
    UnbalancedParenError,
    UnclosedRingError,
    UnknownElementError,
    ValenceViolationError,
    annotate,
    murcko_scaffold,
    parse_smiles,
    perceive_rings,
    scaffold_hash,
)
from molfusion.chem.graph import hop_distances, induced_subgraph, refine
from molfusion.chem.perception import _fundamental_cycles, _shortest_cycle_through
from molfusion.cli import random_molecule_graph

import corpus_util


def atoms_of(g, element):
    return [a for a in g.atoms if a.element == element]


class TestBasicParsing:
    def test_ethanol(self):
        g = parse_smiles("CCO")
        assert [a.element for a in g.atoms] == ["C", "C", "O"]
        assert g.n_bonds == 2
        assert all(b.order is BondOrder.SINGLE for b in g.bonds)
        assert g.atoms[0].implicit_hs == 3
        assert g.atoms[1].implicit_hs == 2
        assert g.atoms[2].implicit_hs == 1

    def test_benzene(self):
        g = parse_smiles("c1ccccc1")
        assert g.n_atoms == 6
        assert all(a.is_aromatic for a in g.atoms)
        assert all(b.order is BondOrder.AROMATIC for b in g.bonds)
        assert all(a.implicit_hs == 1 for a in g.atoms)
        assert len(g.rings) == 1 and len(g.rings[0]) == 6

    def test_acetic_acid_flags(self):
        g = parse_smiles("CC(=O)O")
        oxygens = atoms_of(g, "O")
        carbonyl = [a for a in oxygens if a.degree == 1 and a.total_hs == 0]
        assert len(carbonyl) == 1
        assert all(a.is_acidic for a in oxygens)

    def test_bond_orders(self):
        g = parse_smiles("C=C")
        assert g.bonds[0].order is BondOrder.DOUBLE
        g = parse_smiles("C#N")
        assert g.bonds[0].order is BondOrder.TRIPLE

    def test_branches(self):
        g = parse_smiles("CC(C)(C)C")
        center = g.atoms[1]
        assert center.degree == 4 and center.implicit_hs == 0

    def test_charges_and_explicit_h(self):
        g = parse_smiles("[NH4+]")
        assert g.atoms[0].formal_charge == 1
        assert g.atoms[0].explicit_hs == 4
        assert g.atoms[0].implicit_hs == 0
        g = parse_smiles("CC(=O)[O-]")
        o_minus = [a for a in g.atoms if a.formal_charge == -1]
        assert len(o_minus) == 1 and o_minus[0].total_hs == 0

    def test_chirality(self):
        g = parse_smiles("N[C@@H](C)C(=O)O")
        assert g.atoms[1].chirality is Chirality.TETRAHEDRAL_CW
        g = parse_smiles("N[C@H](C)C(=O)O")
        assert g.atoms[1].chirality is Chirality.TETRAHEDRAL_CCW

    def test_directional_bonds_set_double_bond_stereo(self):
        from molfusion.chem.graph import STEREO_E, STEREO_Z

        trans = parse_smiles("F/C=C/F")
        double = [b for b in trans.bonds if b.order is BondOrder.DOUBLE][0]
        assert double.stereo == STEREO_E
        cis = parse_smiles("F/C=C\\F")
        double = [b for b in cis.bonds if b.order is BondOrder.DOUBLE][0]
        assert double.stereo == STEREO_Z

    def test_two_digit_ring_closure(self):
        g = parse_smiles("C%10CCCCC%10")
        assert len(g.rings) == 1 and len(g.rings[0]) == 6

    def test_multi_fragment_keeps_largest(self):
        g = parse_smiles("CC(=O)[O-].[Na+]")
        assert g.n_atoms == 4
        assert not atoms_of(g, "Na")

    def test_explicit_hydrogen_folding(self):
        g = parse_smiles("[H]OC([H])([H])O[H]")
        assert g.n_atoms == 3
        center = g.atoms[1]
        assert center.element == "C" and center.explicit_hs == 2


class TestErrors:
    def test_unclosed_ring(self):
        with pytest.raises(UnclosedRingError):
            parse_smiles("C1CC")

    def test_unbalanced_paren(self):
        with pytest.raises(UnbalancedParenError):
            parse_smiles("CC(C")
        with pytest.raises(UnbalancedParenError):
            parse_smiles("CC)C")

    def test_unknown_element(self):
        with pytest.raises(UnknownElementError):
            parse_smiles("[Xx]")

    def test_valence_violation(self):
        with pytest.raises(ValenceViolationError):
            parse_smiles("O(C)(C)C")
        with pytest.raises(ValenceViolationError):
            parse_smiles("CC(C)(C)(C)C")

    def test_empty_input(self):
        with pytest.raises(EmptyInputError):
            parse_smiles("")

    def test_error_reports_offset(self):
        with pytest.raises(SmilesError) as exc_info:
            parse_smiles("CC$C")
        assert exc_info.value.offset == 2
        assert exc_info.value.expected

    def test_dangling_bond(self):
        with pytest.raises(SmilesError):
            parse_smiles("CC=")

    @pytest.mark.parametrize("smiles", ["C1C1", "C12CC12", "SCCCc01ccccc01"])
    def test_ring_closure_repeating_a_bond(self, smiles):
        with pytest.raises(SmilesError, match="duplicate bond"):
            parse_smiles(smiles)

    def test_aromatic_bond_needs_aromatic_atoms(self):
        with pytest.raises(SmilesError):
            parse_smiles("C:C")

    @pytest.mark.parametrize("smiles, offset, message", [
        ("=C", 0, "bond symbol without an atom before it"),
        ("#N", 0, "bond symbol without an atom before it"),
        ("-C", 0, "bond symbol without an atom before it"),
        ("/C", 0, "bond symbol without an atom before it"),
        ("C.=C", 2, "bond symbol without an atom before it"),
        ("C(=)C", 3, "bond symbol before ')'"),
        ("C=.C", 2, "bond symbol before '.'"),
        ("C()C", 2, "empty branch"),
        ("C(.)C", 3, "empty branch"),
    ])
    def test_a_bond_symbol_sits_between_two_atoms(self, smiles, offset, message):
        """A bond symbol with no atom on one side, or a branch with no atom,
        is an error at its byte offset, not a bond that is dropped or moved."""
        with pytest.raises(SmilesError, match=f"^{re.escape(message)}") as exc_info:
            parse_smiles(smiles)
        assert exc_info.value.offset == offset
        assert "element symbol" in exc_info.value.expected

    @pytest.mark.parametrize("smiles", ["[Co]", "[He]", "[Be]", "[Os]", "[Kr]", "[Ni+2]",
                                        "[Xe]", "[Ar]", "C[Xx]"])
    def test_unknown_two_letter_bracket_symbol_is_named(self, smiles):
        with pytest.raises(UnknownElementError) as exc_info:
            parse_smiles(smiles)
        symbol = smiles[smiles.index("[") + 1:][:2]
        assert str(exc_info.value).startswith(f"unknown element {symbol!r}")
        assert exc_info.value.offset == smiles.index("[") + 1

    def test_non_ascii_input(self):
        with pytest.raises(SmilesError, match="must be ASCII") as exc_info:
            parse_smiles("C\u00e9")
        assert exc_info.value.offset == 0

    def test_conflicting_ring_bond_orders(self):
        with pytest.raises(SmilesError, match="conflicting bond orders on ring closure 1"):
            parse_smiles("C=1CC-1")


class TestBracketAtoms:
    """Bracket-atom grammar: symbol, charge, chirality class, H count, atom class."""

    @pytest.mark.parametrize("smiles, element, charge, explicit_hs, aromatic", [
        ("[Cl-]", "Cl", -1, 0, False),
        ("[Na+]", "Na", 1, 0, False),
        ("[se]1cccc1", "Se", 0, 0, True),
        ("[nH]1cccc1", "N", 0, 1, True),
        ("[NH4+]", "N", 1, 4, False),
        ("[13CH4]", "C", 0, 4, False),
        ("[Fe+2]", "Fe", 2, 0, False),
        ("[Fe++]", "Fe", 2, 0, False),
        ("[O--]", "O", -2, 0, False),
    ])
    def test_symbol_charge_and_hs(self, smiles, element, charge, explicit_hs, aromatic):
        atom = parse_smiles(smiles).atoms[0]
        assert (atom.element, atom.formal_charge, atom.explicit_hs, atom.is_aromatic) == (
            element, charge, explicit_hs, aromatic)

    @pytest.mark.parametrize("smiles", ["[N+5]", "[N+++++]", "[O-5]"])
    def test_charge_out_of_range(self, smiles):
        with pytest.raises(SmilesError, match=r"formal charge [-]?5 outside \[-4, 4\]"):
            parse_smiles(smiles)

    @pytest.mark.parametrize("smiles, index, total_hs", [
        ("[N]", 0, 0),
        ("[C]", 0, 0),
        ("[O-]", 0, 0),
        ("[CH3]", 0, 3),
        ("C[CH]C", 1, 1),
        ("[C]([H])[H]", 0, 2),
        ("[NH4+]", 0, 4),
        ("[nH]1cccc1", 0, 1),
        ("[13CH4]", 0, 4),
        ("CC(=O)[O-]", 3, 0),
        ("N[C@@H](C)C(=O)O", 1, 1),
    ])
    def test_carries_exactly_the_hs_it_writes(self, smiles, index, total_hs):
        atom = parse_smiles(smiles).atoms[index]
        assert atom.bracket and atom.implicit_hs == 0 and atom.total_hs == total_hs

    def test_organic_subset_atoms_fill_their_valence(self):
        g = parse_smiles("C[CH]C")
        assert [(a.bracket, a.total_hs) for a in g.atoms] == [(False, 3), (True, 1), (False, 3)]

    def test_scaffold_keeps_the_bracket_flag(self):
        scaffold = murcko_scaffold(parse_smiles("CC1CC[C]CC1"))  # re-annotated
        assert scaffold.n_atoms == 6
        assert scaffold.atoms[3].bracket and scaffold.atoms[3].total_hs == 0

    @pytest.mark.parametrize("smiles, plain", [
        ("C[C@@H]1CCCCC1", "CC1CCCCC1"),  # ring stereocentre
        ("c1ccccc1[C@@H](C)c1ccccc1", "c1ccccc1C(C)c1ccccc1"),  # linker stereocentre
        ("C[C]1CCCCC1", "CC1CCCCC1"),  # bracket radical that lost its methyl
        ("O=[S]1CCCC1", "O=S1CCCC1"),  # pruned double bond
    ])
    def test_scaffold_fills_a_bracket_atom_that_lost_a_side_chain(self, smiles, plain):
        assert scaffold_hash(parse_smiles(smiles)) == scaffold_hash(parse_smiles(plain))

    @pytest.mark.parametrize("smiles, flags", [
        ("C[n+]1ccccc1", [False, False, False, False, False, False]),
        ("C[N+]1(C)CC[CH]CC1", [False, False, False, True, False, False]),
    ])
    def test_scaffold_drops_the_flag_only_where_a_side_chain_went(self, smiles, flags):
        scaffold = murcko_scaffold(parse_smiles(smiles))
        assert [a.bracket for a in scaffold.atoms] == flags

    def test_atom_class_is_read_and_dropped(self):
        g = parse_smiles("[CH3:1]C")
        assert g.n_atoms == 2 and g.atoms[0].explicit_hs == 3

    def test_atom_class_needs_digits(self):
        with pytest.raises(SmilesError, match="atom class ':' needs digits") as exc_info:
            parse_smiles("[CH3:]C")
        assert exc_info.value.offset == 5

    def test_named_chirality_class_reads_other(self):
        g = parse_smiles("[C@TH1](F)(Cl)Br")
        assert g.atoms[0].chirality is Chirality.OTHER

    def test_counts_of_over_4300_digits_are_read(self):
        """``int`` refuses a string of over 4300 digits; an H count or a
        charge written with that many still reads."""
        atom = parse_smiles("[NH" + "0" * 5000 + "4+" + "0" * 5000 + "1]").atoms[0]
        assert (atom.explicit_hs, atom.formal_charge) == (4, 1)

    def test_a_charge_of_thousands_of_digits_is_a_smiles_error(self):
        """The charge is named as written, without making a number of it to
        print: ``int`` refuses to print one of over 4300 digits."""
        smiles = "[C+" + "9" * 5000 + "]"
        with pytest.raises(SmilesError, match=r"^formal charge 9{5000} outside \[-4, 4\]") as exc:
            parse_smiles(smiles)
        assert exc.value.offset == len(smiles) - 2

    @pytest.mark.parametrize("smiles, offset", [
        ("C1CC[CH9999999999]C1", 16),
        ("[CH2147483648]", 12),
        ("[NH0000" + "9" * 5000 + "]", 5006),
    ], ids=["ring-atom", "one-past", "5000-digits"])
    def test_an_h_count_beyond_what_graph_hash_packs_is_a_smiles_error(self, smiles, offset):
        with pytest.raises(SmilesError, match="^H count [0-9]+ above 2147483647") as exc:
            parse_smiles(smiles)
        assert exc.value.offset == offset

    def test_the_largest_h_count_parses_and_hashes(self):
        g = parse_smiles("C1CC[CH2147483647]C1")
        assert g.atoms[3].total_hs == 2**31 - 1 and g.graph_hash()

    def test_folded_hydrogens_past_the_bound_are_a_smiles_error(self):
        with pytest.raises(SmilesError, match="^H count 2147483648 above 2147483647"):
            parse_smiles("[H][CH2147483646][H]")

    @pytest.mark.parametrize("smiles, message", [
        ("[H][H]", "hydrogen-hydrogen bond unsupported"),
        ("C=[H]", "explicit hydrogen must have one single bond"),
        ("[H]", "isolated explicit hydrogen atom"),
    ])
    def test_explicit_hydrogen_errors(self, smiles, message):
        with pytest.raises(SmilesError, match=message):
            parse_smiles(smiles)


class TestRings:
    def test_cyclopropane(self):
        g = parse_smiles("C1CC1")
        assert len(g.rings) == 1 and len(g.rings[0]) == 3

    def test_acyclic(self):
        assert parse_smiles("CCO").rings == []

    def test_rank_of_a_disconnected_graph(self):
        # Two triangles, a square and a lone atom: four components, three rings.
        ring_bonds = [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3),
                      (6, 7), (7, 8), (8, 9), (9, 6)]
        g = MolecularGraph([Atom("C") for _ in range(11)],
                           [Bond(u, v, BondOrder.SINGLE) for u, v in ring_bonds])
        annotate(g)
        assert corpus_util.n_components(g) == 4
        assert len(g.rings) == g.n_bonds - g.n_atoms + corpus_util.n_components(g) == 3
        assert sorted(len(r) for r in g.rings) == [3, 3, 4]

    def test_fused_pair_matches_bruteforce_oracle(self):
        # Oracle: enumerate all simple cycles, pick the smallest independent
        # basis; |rings| must equal |E| - |V| + components.
        g = parse_smiles("C1CC2CCC12")
        assert g.n_bonds - g.n_atoms + 1 == 2
        oracle_sizes = _oracle_min_cycle_basis_sizes(g)
        assert sorted(len(r) for r in g.rings) == oracle_sizes == [4, 4]

    @pytest.mark.parametrize(
        "smiles",
        ["c1ccc2ccccc2c1", "C1CC2CCC12", "c1ccc2[nH]ccc2c1", "C1CC1C1CC1",
         "C1CC12CC2", "c1ccc(cc1)c1ccccc1", "C1CCC2(CC1)CCCC2"],
    )
    def test_ring_count_identity(self, smiles):
        g = parse_smiles(smiles)
        assert len(g.rings) == g.n_bonds - g.n_atoms + 1

    @pytest.mark.parametrize("smiles", ["C1CC2CCC12", "c1ccc2ccccc2c1", "C1CC12CC2"])
    def test_ring_sizes_match_oracle(self, smiles):
        g = parse_smiles(smiles)
        assert sorted(len(r) for r in g.rings) == _oracle_min_cycle_basis_sizes(g)

    def test_only_bonds_on_fundamental_cycles_have_a_cycle(self):
        """perceive_rings looks for a cycle only through the bonds that lie on
        a fundamental cycle; every other bond (a bridge) has none to find."""
        graphs = [g for _s, g in corpus_util.frozen_corpus_graphs()]
        graphs += [random_molecule_graph(n, seed=n) for n in range(1, 81)]
        skipped = 0
        for g in graphs:
            on_cycle = {
                frozenset(edge) for c in _fundamental_cycles(g) for edge in zip(c, c[1:] + c[:1])
            }
            for bond in g.bonds:
                cycle = _shortest_cycle_through(g, bond)
                if frozenset((bond.u, bond.v)) in on_cycle:
                    assert cycle is not None
                else:
                    assert cycle is None
                    skipped += 1
        assert skipped > 0

    def test_ring_membership_consistency(self):
        g = parse_smiles("Cc1ccccc1")
        ring_atoms = set(g.rings[0])
        for i, a in enumerate(g.atoms):
            assert a.in_ring == (i in ring_atoms)
        for b in g.bonds:
            in_listed_ring = any(
                b.u in r and b.v in r and _adjacent_in_cycle(r, b.u, b.v) for r in g.rings
            )
            assert b.in_ring == in_listed_ring


# -- ring perception against the search it replaced --------------------------


def _reference_perceive_rings(graph: MolecularGraph) -> list[list[int]]:
    """``perceive_rings`` as it was before it skipped the cycles that share
    no bond with another one: a shortest-cycle search through every bond of
    every fundamental cycle. Kept as the reference of the faster one."""
    fundamental = _reference_fundamental_cycles(graph)
    target = len(fundamental)
    if not target:
        return []

    bond_index = {b.key: i for i, b in enumerate(graph.bonds)}

    def edge_mask(cycle):
        mask = 0
        for i, a in enumerate(cycle):
            b = cycle[(i + 1) % len(cycle)]
            mask |= 1 << bond_index[(a, b) if a < b else (b, a)]
        return mask

    candidates = {}

    def offer(cycle):
        mask = edge_mask(cycle)
        if mask not in candidates or len(cycle) < len(candidates[mask]):
            candidates[mask] = cycle
        return mask

    on_cycle = 0
    for cycle in fundamental:
        on_cycle |= offer(cycle)
    for k, bond in enumerate(graph.bonds):
        if on_cycle >> k & 1:
            offer(_reference_shortest_cycle_through(graph, bond))

    ordered = sorted(candidates.items(), key=lambda kv: (len(kv[1]), tuple(sorted(kv[1]))))
    basis, chosen = [], []
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
    chosen.sort(key=lambda c: (len(c), tuple(sorted(c))))
    rotated = []
    for cycle in chosen:
        k = cycle.index(min(cycle))
        c = cycle[k:] + cycle[:k]
        if len(c) > 2 and c[-1] < c[1]:
            c = [c[0]] + c[:0:-1]
        rotated.append(c)
    return rotated


def _reference_fundamental_cycles(graph):
    parent = [-1] * graph.n_atoms
    depth = [-1] * graph.n_atoms
    tree_edges = set()
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
        path_u, path_v = [bond.u], [bond.v]
        while depth[path_u[-1]] > depth[path_v[-1]]:
            path_u.append(parent[path_u[-1]])
        while depth[path_v[-1]] > depth[path_u[-1]]:
            path_v.append(parent[path_v[-1]])
        while path_u[-1] != path_v[-1]:
            path_u.append(parent[path_u[-1]])
            path_v.append(parent[path_v[-1]])
        cycles.append(path_u + path_v[-2::-1])
    return cycles


def _reference_shortest_cycle_through(graph, bond):
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
    path = [v]
    while path[-1] != u:
        path.append(prev[path[-1]])
    return path


@st.composite
def ring_systems(draw):
    """Bond lists of one to three components, each grown from one atom by
    pieces hung on an atom already there: a chain, a ring through one atom
    (isolated on a chain atom, spiro on a ring atom) or a path between two
    atoms (fused when they are bonded, bridged when not). Atom labels, bond
    order and bond direction are shuffled."""
    edges, n = set(), 0

    def path(a, b, length):
        nonlocal n
        nodes = [a, *range(n, n + length - 1), b]
        n += length - 1
        edges.update(zip(nodes, nodes[1:]))

    for _ in range(draw(st.integers(1, 3))):
        start, n = n, n + 1
        for _ in range(draw(st.integers(0, 6))):
            kind = draw(st.sampled_from(["chain", "ring", "ear"]))
            a = draw(st.integers(start, n - 1))
            if kind == "chain":  # ends in a new atom
                length = draw(st.integers(1, 3))
                path(a, n + length - 1, length)
                n += 1
            elif kind == "ring":
                path(a, a, draw(st.integers(3, 8)))
            else:
                b = draw(st.integers(start, n - 1))
                if b == a:
                    continue
                bonded = (a, b) in edges or (b, a) in edges
                path(a, b, draw(st.integers(2 if bonded else 1, 6)))
    perm = draw(st.permutations(range(n)))
    bonds = [(perm[u], perm[v]) for u, v in sorted(edges)]
    bonds = draw(st.permutations(bonds))
    flips = draw(st.lists(st.booleans(), min_size=len(bonds), max_size=len(bonds)))
    return n, [(v, u) if flip else (u, v) for (u, v), flip in zip(bonds, flips)]


class TestRingReference:
    @given(system=ring_systems())
    @settings(max_examples=400, deadline=None)
    def test_rings_equal_the_full_search(self, system):
        n, bonds = system
        g = MolecularGraph([Atom("C") for _ in range(n)],
                           [Bond(u, v, BondOrder.SINGLE) for u, v in bonds])
        rings = perceive_rings(g)
        assert rings == _reference_perceive_rings(g)
        assert len(rings) == g.n_bonds - g.n_atoms + corpus_util.n_components(g)

    @pytest.mark.parametrize("smiles", [
        "C1CC2CCC12", "C1CC12CC2", "C12C3C4C1C5C2C3C45", "C1CC2CCC1C2", "C1CC1CCC1CC1",
        "C1C2CC3CC1CC(C2)C3", "c1ccc2cc3ccccc3cc2c1",
    ])
    def test_fused_bridged_and_spiro_cases(self, smiles):
        g = parse_smiles(smiles)
        assert g.rings == _reference_perceive_rings(g)


def _annotation_rows(g: MolecularGraph) -> list:
    """Every atom field, every bond field and every ring, enums as values."""
    def plain(x):
        return x.value if isinstance(x, Enum) else x

    rows = [[plain(getattr(a, f.name)) for f in dataclasses.fields(Atom)] for a in g.atoms]
    rows += [[plain(getattr(b, f.name)) for f in dataclasses.fields(Bond)] for b in g.bonds]
    rows.append(g.rings)
    return rows


def test_corpus_annotations_are_pinned():
    """One digest of every annotation of build_corpus(1786): any change to an
    atom field, a bond field or a ring of any corpus molecule fails here. First
    pinned before the parse was made faster. Re-pinned when ``Atom`` dropped
    ``index`` and ``bond_order_sum`` and gained ``bracket``: the rows without
    those three fields digest to 9bbf7d2c...176da7 both before and after."""
    digest = hashlib.sha256()
    for smiles in corpus_util.build_corpus(1786):
        digest.update(json.dumps(_annotation_rows(parse_smiles(smiles))).encode())
    assert digest.hexdigest() == (
        "09b37a12a0b6263ba858e8bf55eb29dcddd2b720331f249f64a3049228ece5f4")


def _golden_strings() -> list[str]:
    """About 20k seeded strings: every corpus line, dot-joins of corpus
    molecules with hydrogen and ion fragments, corpus lines with 1-3
    one-character edits, and bracket atoms built from their parts or from
    random characters."""
    rng = np.random.default_rng(31)
    corpus = (corpus_util.BENCHMARKS / "corpus.smi").read_text().split()

    def pick(options):
        return options[rng.integers(len(options))]

    ions = ["[H]", "[H+]", "[HH]", "[Na+]", "[Cl-]"]
    joins = []
    for _ in range(4000):
        parts = [pick(corpus) for _ in range(rng.integers(1, 3))]
        parts += [pick(ions) for _ in range(rng.integers(0, 3))]
        parts = ["[H]" + p if rng.random() < 0.3 else p for p in parts]
        joins.append(".".join(parts[k] for k in rng.permutation(len(parts))))
    alphabet = "CNOSPFIBrlcnospH()[]=#-+@/\\.%:*$0123456789 "
    edited = []
    for _ in range(10000):
        s = pick(corpus)
        for _ in range(rng.integers(1, 4)):
            at, ch, kind = rng.integers(len(s) + 1), pick(alphabet), rng.integers(3)
            s = (s[:at] + ch + s[at:], s[:at] + s[at + 1:], s[:at] + ch + s[at + 1:])[kind]
        edited.append(s)
    bracket_parts = [
        ["", "13", "2", "0", "123"],
        ["C", "c", "N", "n", "O", "o", "s", "se", "as", "te", "Cl", "Co", "Xx", "H", "Hg",
         "Na", "Fe", "b", "p", "x", "", "sn", "@"],
        ["", "@", "@@", "@TH1", "@TH", "@SP12", "@@TH2", "@OH"],
        ["", "H", "H0", "H2", "H4", "H12"],
        ["", "+", "-", "++", "--", "+2", "-3", "+5", "+++++", "+0", "+-", "-05"],
        ["", ":", ":1", ":12"],
        ["]", "]", "]", "", "x]"],
    ]
    brackets = []
    for k in range(4000):
        if k % 2:
            atom = "[" + "".join(pick(options) for options in bracket_parts)
        else:
            atom = "[" + "".join(pick("[]0123456789@HTALSPcnosepCNOSFlrgu+-:")
                                 for _ in range(rng.integers(0, 8)))
        brackets.append(pick(["{}", "C{}C", "{}1CC1", "c1cc{}cc1", "{}([H])", "[H]{}.C"]
                             ).format(atom))
    return corpus + joins + edited + brackets


def test_parse_outcomes_are_pinned(caplog):
    """One digest of what parsing each of ``_golden_strings()`` gives: every
    annotation row of a graph with the warnings it logged, or the class,
    message, offset and expected tokens of a ``SmilesError``. Pinned before the
    bracket-atom pattern and the single renumbering pass replaced the
    character walk and the two passes."""
    digest = hashlib.sha256()
    for smiles in _golden_strings():
        caplog.clear()
        try:
            outcome = _annotation_rows(parse_smiles(smiles))
        except SmilesError as exc:
            outcome = [type(exc).__name__, str(exc), exc.offset, list(exc.expected)]
        outcome.append([record.getMessage() for record in caplog.records])
        digest.update(json.dumps(outcome).encode())
    assert digest.hexdigest() == (
        "3eea96d6fe215d1e4911e8f967833bce8a0471cf4f75071e66d32ac698d79fdc")


def test_annotate_on_an_annotated_copy_gives_the_parse_rows():
    """``annotate`` sets every derived field whatever the graph holds: a copy
    of a parsed graph carries the parse's fields, stale for a re-annotation,
    as the graphs that ``murcko_scaffold`` annotates do."""
    smiles = [s for s, _g in corpus_util.frozen_corpus_graphs()]
    smiles += corpus_util.screen_large_smiles(1)
    for s in smiles:
        g = parse_smiles(s)
        copy = induced_subgraph(g, range(g.n_atoms))
        assert _annotation_rows(annotate(copy)) == _annotation_rows(g), s


class TestGraphBonds:
    """``MolecularGraph``'s own bond errors: a parse reaches the repeated pair
    only through a ring closure (``C1C1``) and never writes a self-bond."""

    def test_a_self_bond(self):
        with pytest.raises(ValueError, match=r"^self-bond on atom 0$"):
            MolecularGraph([Atom("C"), Atom("C")], [Bond(0, 1, BondOrder.SINGLE),
                                                    Bond(0, 0, BondOrder.SINGLE)])

    @pytest.mark.parametrize("first, second", [((0, 1), (0, 1)), ((0, 1), (1, 0)),
                                               ((1, 0), (0, 1)), ((1, 0), (1, 0))])
    def test_a_pair_bonded_twice(self, first, second):
        bonds = [Bond(*first, BondOrder.SINGLE), Bond(1, 2, BondOrder.SINGLE),
                 Bond(*second, BondOrder.DOUBLE)]
        with pytest.raises(ValueError, match=r"^duplicate bond between atoms \(0, 1\)$"):
            MolecularGraph([Atom("C") for _ in range(3)], bonds)


class TestGraphPickle:
    @pytest.mark.parametrize("smiles", [
        "CC(=O)[O-].[Na+]", "F/C=C/F", "[C@@H](N)(O)C(=O)O", "c1ccc2[nH]ccc2c1",
        "C1CC2CCC12", "OS(=O)(=O)c1ccccc1", "C",
    ])
    def test_round_trip_keeps_every_field_ring_and_attribute(self, smiles):
        g = parse_smiles(smiles)
        g.note = {"doomed": ("cannot featurize", 0.5)}  # an attribute a caller set
        h = pickle.loads(pickle.dumps(g))
        assert _annotation_rows(h) == _annotation_rows(g)
        assert h.atoms == g.atoms and h.bonds == g.bonds and h.rings == g.rings
        assert h.note == g.note
        assert np.array_equal(hop_distances(h), hop_distances(g))
        position = {id(b): k for k, b in enumerate(h.bonds)}
        for i in range(g.n_atoms):
            assert [position[id(b)] for b in h.bonds_of(i)] == [
                g.bonds.index(b) for b in g.bonds_of(i)]

    def test_graphs_in_one_message_keep_their_own_state(self):
        graphs = [parse_smiles(s) for s in corpus_util.build_corpus(60)]
        again = pickle.loads(pickle.dumps(graphs))
        assert [_annotation_rows(h) for h in again] == [_annotation_rows(g) for g in graphs]

    def test_long_chain_pickles_compactly(self):
        chain = parse_smiles("C" * 1600)
        assert len(pickle.dumps([chain])) < 100_000


def _adjacent_in_cycle(cycle, u, v):
    n = len(cycle)
    for i in range(n):
        a, b = cycle[i], cycle[(i + 1) % n]
        if {a, b} == {u, v}:
            return True
    return False


def _oracle_min_cycle_basis_sizes(g: MolecularGraph) -> list[int]:
    """All simple cycles by DFS, then greedy smallest independent basis."""
    cycles = []
    n = g.n_atoms
    bond_idx = {b.key: i for i, b in enumerate(g.bonds)}

    def dfs(start, current, path, visited):
        for nbr in g.neighbors(current):
            if nbr == start and len(path) >= 3:
                cycles.append(list(path))
            elif nbr not in visited and nbr > start:
                visited.add(nbr)
                path.append(nbr)
                dfs(start, nbr, path, visited)
                path.pop()
                visited.remove(nbr)

    for s in range(n):
        dfs(s, s, [s], {s})
    unique = {}
    for c in cycles:
        mask = 0
        for i in range(len(c)):
            a, b = c[i], c[(i + 1) % len(c)]
            mask |= 1 << bond_idx[(a, b) if a < b else (b, a)]
        unique.setdefault(mask, c)
    target = g.n_bonds - n + corpus_util.n_components(g)
    basis, chosen = [], []
    for mask, c in sorted(unique.items(), key=lambda kv: (len(kv[1]), sorted(kv[1]))):
        reduced = mask
        for row in basis:
            reduced = min(reduced, reduced ^ row)
        if reduced:
            basis.append(reduced)
            basis.sort(reverse=True)
            chosen.append(c)
            if len(chosen) == target:
                break
    return sorted(len(c) for c in chosen)


class TestScaffold:
    def test_toluene_reduces_to_benzene(self):
        scaffold = murcko_scaffold(parse_smiles("Cc1ccccc1"))
        assert scaffold.n_atoms == 6
        assert scaffold_hash(parse_smiles("Cc1ccccc1")) == scaffold_hash(parse_smiles("c1ccccc1"))

    def test_benzene_fixed_point(self):
        g = parse_smiles("c1ccccc1")
        assert murcko_scaffold(g).n_atoms == 6

    def test_acyclic_empty(self):
        assert murcko_scaffold(parse_smiles("CCO")).n_atoms == 0
        assert scaffold_hash(parse_smiles("CCO")) == scaffold_hash(parse_smiles("CCCCN"))

    def test_idempotent(self):
        g = parse_smiles("CCc1ccc(CC(=O)O)cc1")
        once = murcko_scaffold(g)
        twice = murcko_scaffold(once)
        assert once.graph_hash() == twice.graph_hash()

    def test_linker_kept(self):
        scaffold = murcko_scaffold(parse_smiles("c1ccccc1CCc1ccccc1"))
        assert scaffold.n_atoms == 14  # two rings + 2-carbon linker


def _h64(*chunks: bytes) -> int:
    h = hashlib.blake2b(digest_size=8)
    for chunk in chunks:
        h.update(chunk)
    return struct.unpack("<Q", h.digest())[0]


def reference_graph_hash(g) -> str:
    """Oracle: the refinement hash run for ``n_atoms`` rounds, bond orders
    packed by name and a constant 0 among the atom invariants."""
    codes = [
        _h64(a.element.encode(), struct.pack("<iii?", a.formal_charge, a.total_hs, 0, a.is_aromatic))
        for a in g.atoms
    ]
    for _ in range(max(1, g.n_atoms)):
        nxt = []
        for i in range(g.n_atoms):
            nbrs = sorted((b.order.value, codes[b.other(i)]) for b in g.bonds_of(i))
            payload = struct.pack("<Q", codes[i]) + b"".join(
                o.encode() + struct.pack("<Q", c) for o, c in nbrs
            )
            nxt.append(_h64(payload))
        codes = nxt
    digest = hashlib.blake2b(digest_size=16)
    for c in sorted(codes):
        digest.update(struct.pack("<Q", c))
    digest.update(struct.pack("<II", g.n_atoms, g.n_bonds))
    return digest.hexdigest()


def reference_murcko_keep(g) -> list[int]:
    """Oracle: full passes over the kept atoms until one prunes nothing."""
    keep = set(range(g.n_atoms))
    changed = True
    while changed:
        changed = False
        for idx in sorted(keep):
            if g.atoms[idx].in_ring:
                continue
            if sum(1 for nbr in g.neighbors(idx) if nbr in keep) <= 1:
                keep.remove(idx)
                changed = True
    return sorted(keep)


def reference_scaffold_hash(g) -> str:
    keep = reference_murcko_keep(g)
    if not keep:
        return EMPTY_SCAFFOLD_HASH
    scaffold = induced_subgraph(g, keep)
    annotate(scaffold)
    return reference_graph_hash(scaffold)


def _partition(keys) -> list[list[int]]:
    groups: dict[str, list[int]] = {}
    for i, key in enumerate(keys):
        groups.setdefault(key, []).append(i)
    return sorted(groups.values())


def _ring_plus_chains(chains: list[int], linker: int | None) -> str:
    """A ring with a ``chains[i]``-carbon chain on atom i and, unless
    ``linker`` is None, a ``linker``-carbon bridge to a benzene."""
    ring = "".join(
        "C" + ("1" if i in (0, len(chains) - 1) else "") + (f"({'C' * c})" if c else "")
        for i, c in enumerate(chains)
    )
    return ring if linker is None else ring + "C" * linker + "c1ccccc1"


class TestRefinement:
    def test_scaffold_partition_matches_reference_on_corpus(self):
        graphs = [parse_smiles(s) for s in corpus_util.build_corpus(1786)]
        assert _partition(map(scaffold_hash, graphs)) == _partition(
            map(reference_scaffold_hash, graphs)
        )

    @given(
        st.one_of(
            st.builds(random_molecule_graph, st.integers(1, 40), st.integers(0, 2**32 - 1)),
            st.builds(
                lambda chains, linker: parse_smiles(_ring_plus_chains(chains, linker)),
                st.lists(st.integers(0, 6), min_size=3, max_size=8),
                st.none() | st.integers(0, 6),
            ),
        )
    )
    @settings(max_examples=150, deadline=None)
    def test_queue_pruning_keeps_the_reference_atoms(self, g):
        with mock.patch.object(scaffold_module, "induced_subgraph", wraps=induced_subgraph) as spy:
            murcko_scaffold(g)
        assert spy.call_args.args[1] == reference_murcko_keep(g)

    def test_polyphenyl_hash_survives_relabel(self):
        g = parse_smiles(corpus_util.polyphenyl_smiles(100))
        n = g.n_atoms
        expected = g.graph_hash()
        for perm in (list(reversed(range(n))), np.random.default_rng(0).permutation(n).tolist()):
            assert corpus_util.relabel(g, perm).graph_hash() == expected

    def test_polyphenyl_settles_far_below_n_atoms_rounds(self):
        g = parse_smiles(corpus_util.polyphenyl_smiles(100))
        taken = []

        def counting_refine(graph, invariants, rounds=None):
            out = refine(graph, invariants, rounds)
            taken.append(len(out) - 1)
            return out

        with mock.patch.object(graph_module, "refine", counting_refine):
            g.graph_hash()
        assert g.n_atoms == 600 and taken == [198]

    def test_murcko_prunes_a_long_chain_in_one_read_per_atom(self):
        g = parse_smiles(corpus_util.ring_with_chain_smiles(800))
        reads = []
        neighbors = g.neighbors
        g.neighbors = lambda idx: reads.append(idx) or neighbors(idx)
        assert murcko_scaffold(g).n_atoms == 6
        assert len(reads) <= g.n_atoms


class TestInvariants:
    def test_atom_order_insensitivity(self):
        pairs = [("CCO", "OCC"), ("c1ccccc1C", "Cc1ccccc1"), ("CC(=O)O", "OC(C)=O")]
        for a, b in pairs:
            assert parse_smiles(a).graph_hash() == parse_smiles(b).graph_hash()

    def test_different_molecules_different_hash(self):
        assert parse_smiles("CCO").graph_hash() != parse_smiles("COC").graph_hash()

    def test_corpus_invariants(self):
        for smiles in corpus_util.build_corpus(200):
            g = parse_smiles(smiles)
            assert len(g.rings) == g.n_bonds - g.n_atoms + corpus_util.n_components(g)
            for i, a in enumerate(g.atoms):
                assert a.implicit_hs >= 0
                assert -4 <= a.formal_charge <= 4
                assert a.degree == len(g.bonds_of(i))
            for b in g.bonds:
                if b.order is BondOrder.AROMATIC:
                    assert g.atoms[b.u].is_aromatic and g.atoms[b.v].is_aromatic

    def test_degree_matches_bonds_after_relabel(self):
        g = parse_smiles("CC(=O)Nc1ccccc1")
        perm = list(reversed(range(g.n_atoms)))
        h = corpus_util.relabel(g, perm)
        assert h.graph_hash() == g.graph_hash()

    @given(st.text(alphabet=st.characters(min_codepoint=33, max_codepoint=126), min_size=1, max_size=12))
    @settings(max_examples=300, deadline=None)
    def test_arbitrary_ascii_never_crashes_unexpectedly(self, s):
        try:
            g = parse_smiles(s)
            assert g.n_atoms >= 1
        except SmilesError:
            pass


class TestHybridization:
    @pytest.mark.parametrize(
        "smiles,index,expected",
        [
            ("C", 0, Hybridization.SP3),
            ("C=C", 0, Hybridization.SP2),
            ("C#C", 0, Hybridization.SP),
            ("c1ccccc1", 0, Hybridization.SP2),
            ("CO", 1, Hybridization.SP3),
            ("CC#N", 2, Hybridization.SP),
            ("CC(=O)C", 2, Hybridization.SP2),
        ],
    )
    def test_cases(self, smiles, index, expected):
        assert parse_smiles(smiles).atoms[index].hybridization is expected

    def test_basic_and_amide(self):
        amine = parse_smiles("CCN")
        assert amine.atoms[2].is_basic
        amide = parse_smiles("CC(=O)NC")
        n = [a for a in amide.atoms if a.element == "N"][0]
        assert not n.is_basic
        pyridine = parse_smiles("c1ccncc1")
        n = [a for a in pyridine.atoms if a.element == "N"][0]
        assert not n.is_basic  # aromatic N excluded by the rule table
