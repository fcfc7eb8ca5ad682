"""Feature tensor and fingerprint tests, with brute-force oracles."""

import hashlib
import itertools
import pickle

import numpy as np
import pytest

from molfusion.chem import Atom, Bond, BondOrder, MolecularGraph, parse_smiles
from molfusion.chem.graph import hop_distances
from molfusion.cli import random_molecule_graph
from molfusion.featurize import (
    ATOM_FEATURE_DIM,
    BOND_FEATURE_DIM,
    FeaturizeConfig,
    default_key_table,
    environment_codes,
    erg_fingerprint,
    erg_length,
    featurize,
    featurize_atoms,
    featurize_bonds,
    morgan_fingerprint,
    normalized_adjacency,
    substructure_key_fingerprint,
)
from molfusion.featurize import features
from molfusion.featurize.erg import N_LABEL_PAIRS, SMEAR_WEIGHT, atom_labels

import corpus_util

# one-hot blocks as (start, stop) column ranges of the atom row
ONE_HOT_BLOCKS = [(0, 16), (16, 22), (24, 30), (31, 36), (36, 40), (46, 53)]


class TestAtomFeatures:
    def test_widths(self):
        g = parse_smiles("CC(=O)Nc1ccccc1")
        feats = featurize_atoms(g)
        assert feats.shape == (g.n_atoms, 57)

    def test_ethanol_oxygen_row(self):
        g = parse_smiles("CCO")
        row = featurize_atoms(g)[2]
        assert row[2] == 1.0  # symbol O
        assert row[16 + 1] == 1.0  # degree 1
        assert row[31 + 1] == 1.0  # one hydrogen
        assert row[53] == 1.0 and row[54] == 1.0  # acceptor + donor
        assert row[40] == 0.0 and np.all(row[41:45] == 0.0)  # no ring slots

    def test_benzene_carbon_row(self):
        g = parse_smiles("c1ccccc1")
        row = featurize_atoms(g)[0]
        assert row[30] == 1.0  # aromatic
        assert row[24 + 1] == 1.0  # sp2
        assert row[40] == 1.0  # ring flag
        assert row[44] == 1.0  # six-ring slot

    def test_one_hot_blocks_have_at_most_one(self):
        for smiles in corpus_util.build_corpus(150):
            feats = featurize_atoms(parse_smiles(smiles))
            for start, stop in ONE_HOT_BLOCKS:
                block = feats[:, start:stop]
                assert np.all(block.sum(axis=1) <= 1.0)
                assert set(np.unique(block)) <= {0.0, 1.0}
            assert np.all(np.isfinite(feats))

    def test_mass_scaled(self):
        g = parse_smiles("CBr")
        feats = featurize_atoms(g)
        assert feats[1][45] == pytest.approx(79.904 / 100.0)

    def test_reserved_symbol_slots_stay_zero(self):
        for smiles in ["CCO", "c1ccccc1", "[Na+].CC"]:
            feats = featurize_atoms(parse_smiles(smiles))
            assert np.all(feats[:, 13:16] == 0.0)

    def test_other_element_bucket(self):
        g = parse_smiles("C[Se]C")  # non-aromatic Se lands in "other"
        feats = featurize_atoms(g)
        assert feats[1][7] == 1.0  # Se is a named label
        g = parse_smiles("CP(C)C")
        feats = featurize_atoms(g)
        assert feats[1][12] == 1.0  # P is not listed: "other" slot

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(3)
        for smiles in corpus_util.build_corpus(40):
            g = parse_smiles(smiles)
            perm = rng.permutation(g.n_atoms).tolist()
            feats = featurize_atoms(g)
            feats_perm = featurize_atoms(corpus_util.relabel(g, perm))
            for i in range(g.n_atoms):
                assert np.array_equal(feats[i], feats_perm[perm[i]])


def _bond_rows(g):
    src, dst, feats = featurize_bonds(g)
    return {(int(u), int(v)): vec for u, v, vec in zip(src, dst, feats)}


class TestBondFeatures:
    def test_width_and_exists(self):
        g = parse_smiles("CC(=O)OC1CC1")
        src, dst, feats = featurize_bonds(g)
        assert feats.shape == (2 * g.n_bonds, BOND_FEATURE_DIM)
        assert (feats[:, 0] == 1.0).all()
        edges = list(zip(src.tolist(), dst.tolist()))
        assert edges == sorted({(b.u, b.v) for b in g.bonds} | {(b.v, b.u) for b in g.bonds})

    def test_symmetry(self):
        feats = _bond_rows(parse_smiles("CC(=O)O"))
        for (u, v), vec in feats.items():
            assert np.array_equal(vec, feats[(v, u)])

    def test_benzene_bond(self):
        vec = _bond_rows(parse_smiles("c1ccccc1"))[(0, 1)]
        assert vec[4] == 1.0  # aromatic slot
        assert vec[6] == 1.0  # ring slot
        assert vec[5] == 1.0  # conjugated

    def test_ethanol_bond(self):
        vec = _bond_rows(parse_smiles("CCO"))[(1, 2)]
        assert vec[1] == 1.0  # single
        assert vec[5] == 0.0  # not conjugated
        assert vec[7] == 1.0  # stereo code 0


class TestAdjacency:
    """``normalized_adjacency`` on edge lists that hold each bond both ways."""

    def test_single_atom(self):
        none = np.zeros(0, dtype=np.int64)
        assert np.array_equal(normalized_adjacency(1, none, none), [[1.0]])

    def test_two_atoms(self):
        adj = normalized_adjacency(2, np.array([0, 1]), np.array([1, 0]))
        assert np.array_equal(adj, [[0.5, 0.5], [0.5, 0.5]])

    def test_chain(self):
        adj = normalized_adjacency(3, np.array([0, 1, 1, 2]), np.array([1, 0, 2, 1]))
        assert np.allclose(adj[1], [1 / 3, 1 / 3, 1 / 3])
        assert np.array_equal(adj[0], [0.5, 0.5, 0.0])

    def test_rows_sum_to_one(self):
        for smiles in corpus_util.build_corpus(100):
            g = parse_smiles(smiles)
            src, dst, _feats = featurize_bonds(g)
            adj = normalized_adjacency(g.n_atoms, src, dst)
            assert np.allclose(adj.sum(axis=1), 1.0, atol=1e-12)


def _bfs_distances(g, root):
    """Hop distances from ``root`` by a plain per-source BFS (-1 if unreachable)."""
    dist = [-1] * g.n_atoms
    dist[root] = 0
    queue = [root]
    while queue:
        nxt = []
        for a in queue:
            for nbr in g.neighbors(a):
                if dist[nbr] < 0:
                    dist[nbr] = dist[a] + 1
                    nxt.append(nbr)
        queue = nxt
    return dist


class TestDistanceMatrix:
    @staticmethod
    def _check(g):
        """The BFS oracle, in full and, for every limit from 0 to one past the
        diameter, with the pairs farther apart than the limit at -1."""
        expected = [_bfs_distances(g, i) for i in range(g.n_atoms)]
        got = hop_distances(g)
        assert got.dtype == np.int64 and got.shape == (g.n_atoms, g.n_atoms)
        assert got.tolist() == expected
        expected = np.array(expected, dtype=np.int64)
        for limit in range(expected.max() + 2):
            got = hop_distances(g, limit)
            assert got.dtype == np.int64
            assert np.array_equal(got, np.where(expected > limit, -1, expected)), limit

    def test_frozen_corpus(self):
        for _smiles, g in corpus_util.frozen_corpus_graphs():
            self._check(g)

    def test_random_graphs(self):
        for n in range(1, 81):
            self._check(random_molecule_graph(n, seed=n))

    def test_two_components(self):
        atoms = [Atom("C") for _ in range(5)]
        g = MolecularGraph(atoms, [Bond(0, 1, BondOrder.SINGLE), Bond(1, 2, BondOrder.SINGLE),
                                   Bond(3, 4, BondOrder.SINGLE)])
        self._check(g)
        assert hop_distances(g).tolist() == [
            [0, 1, 2, -1, -1],
            [1, 0, 1, -1, -1],
            [2, 1, 0, -1, -1],
            [-1, -1, -1, 0, 1],
            [-1, -1, -1, 1, 0],
        ]

    def test_long_alkane_closed_form(self):
        g = parse_smiles("C" * 600)
        i = np.arange(600)
        hops = np.abs(i[:, None] - i)
        assert np.array_equal(hop_distances(g), hops)
        assert np.array_equal(hop_distances(g, 15), np.where(hops > 15, -1, hops))

    def test_read_only(self):
        g = parse_smiles("c1ccccc1CCO")
        for d in (hop_distances(g), hop_distances(g, 2)):
            with pytest.raises(ValueError):
                d[0, 1] = 5

    def test_fingerprints_exact_on_a_cut_matrix(self):
        """Morgan and ErG given the matrix cut at their own limits give what
        they give on the full matrix of a 1600-atom chain."""
        g = parse_smiles("C" * 1600)
        full = hop_distances(g)
        for radius in (0, 2, 5):
            cut = hop_distances(g, radius)
            assert cut.max() == radius
            assert np.array_equal(morgan_fingerprint(g, cut, radius, 2048),
                                  morgan_fingerprint(g, full, radius, 2048))
        for max_path in (1, 15):
            cut = hop_distances(g, max_path)
            assert cut.max() == max_path
            assert np.array_equal(erg_fingerprint(g, cut, max_path),
                                  erg_fingerprint(g, full, max_path))


def _oracle_environment_key(g, root, radius):
    """Canonical form of the radius-ball around root, by permutation search.

    Atoms keep their whole-molecule invariants; the root is pinned first, all
    other orderings are tried and the lexicographically smallest encoding
    wins. Independent of the iterative-hashing implementation.
    """
    dist = _bfs_distances(g, root)
    ball = [i for i in range(g.n_atoms) if 0 <= dist[i] <= radius]
    label = {
        i: (
            g.atoms[i].element,
            g.atoms[i].degree,
            g.atoms[i].formal_charge,
            g.atoms[i].implicit_hs,
            g.atoms[i].in_ring,
            g.atoms[i].is_aromatic,
        )
        for i in ball
    }
    ball_set = set(ball)
    edges = [
        (b.u, b.v, b.order.value)
        for b in g.bonds
        if b.u in ball_set and b.v in ball_set
    ]
    others = [i for i in ball if i != root]
    best = None
    for perm in itertools.permutations(others):
        order = [root, *perm]
        pos = {atom: k for k, atom in enumerate(order)}
        enc = (
            tuple(label[a] for a in order),
            tuple(sorted((min(pos[u], pos[v]), max(pos[u], pos[v]), o) for u, v, o in edges)),
        )
        if best is None or enc < best:
            best = enc
    return best


def _morgan(g, radius=2, n_bits=2048):
    """Morgan bits over the full hop-distance matrix, radius 2 and 2048 bits
    unless given."""
    return morgan_fingerprint(g, hop_distances(g), radius, n_bits)


class TestMorgan:
    def test_methane_single_bit(self):
        assert int(_morgan(parse_smiles("C")).sum()) == 1

    def test_order_insensitive(self):
        assert np.array_equal(_morgan(parse_smiles("CCO")), _morgan(parse_smiles("OCC")))

    def test_ether_vs_ethanol_differ_at_radius_1(self):
        f_ether = _morgan(parse_smiles("COC"), 1)
        f_ethanol = _morgan(parse_smiles("CCO"), 1)
        assert not np.array_equal(f_ether, f_ethanol)

    def test_isomorphism_invariance(self):
        rng = np.random.default_rng(11)
        for smiles in corpus_util.build_corpus(60):
            g = parse_smiles(smiles)
            perm = rng.permutation(g.n_atoms).tolist()
            assert np.array_equal(_morgan(g), _morgan(corpus_util.relabel(g, perm)))

    def test_environment_partition_matches_bruteforce(self):
        """Emitted ids partition (atom, radius) exactly like canonical balls."""
        small = [s for s in corpus_util.build_corpus(300) if parse_smiles(s).n_atoms <= 8]
        assert len(small) >= 30
        radius = 2
        for smiles in small:
            g = parse_smiles(smiles)
            emitted = environment_codes(g, hop_distances(g), radius)
            impl_groups = {}
            oracle_groups = {}
            for atom, r, code in emitted:
                impl_groups.setdefault(code, set()).add((atom, r))
                oracle_groups.setdefault(
                    (r, _oracle_environment_key(g, atom, r)), set()
                ).add((atom, r))
            assert sorted(impl_groups.values(), key=sorted) == sorted(
                oracle_groups.values(), key=sorted
            ), smiles
            bits = _morgan(g, radius)
            assert set(np.nonzero(bits)[0]) == {code % 2048 for _, _, code in emitted}


class TestKeys:
    def test_table_size(self):
        """The shipped table numbers its 160 keys in order, so bit k is line k."""
        from importlib import resources

        text = resources.files("molfusion.featurize").joinpath("keys_table.txt").read_text("utf-8")
        rows = [line for line in text.splitlines() if line.strip() and not line.startswith("#")]
        assert [row.split("|")[0] for row in rows] == [str(k) for k in range(160)]
        assert len(default_key_table()) == 160

    def test_benzene(self):
        fp = substructure_key_fingerprint(parse_smiles("c1ccccc1"))
        table = default_key_table()
        six_ring = next(
            i for i, (p, a, _d) in enumerate(table.entries) if p == "ring_size_ge" and a == ("6", "1")
        )
        n_one = next(
            i for i, (p, a, _d) in enumerate(table.entries) if p == "element_ge" and a == ("N", "1")
        )
        assert fp[six_ring] == 1.0
        assert fp[n_one] == 0.0

    def test_methane_no_ring_keys(self):
        fp = substructure_key_fingerprint(parse_smiles("C"))
        table = default_key_table()
        ring_keys = [
            i
            for i, (p, _a, _d) in enumerate(table.entries)
            if p in ("ring_ge", "ring_size_ge", "aromatic_ring_ge", "aromatic_ring_size_ge",
                     "nonaromatic_ring_ge", "hetero_ring_ge")
        ]
        assert all(fp[i] == 0.0 for i in ring_keys)

    def test_caffeine(self):
        fp = substructure_key_fingerprint(parse_smiles("Cn1c(=O)c2c(ncn2C)n(C)c1=O"))
        table = default_key_table()
        two_rings = next(
            i for i, (p, a, _d) in enumerate(table.entries) if p == "ring_ge" and a == ("2",)
        )
        three_n = next(
            i for i, (p, a, _d) in enumerate(table.entries) if p == "element_ge" and a == ("N", "3")
        )
        assert fp[two_rings] == 1.0
        assert fp[three_n] == 1.0

    def test_values_are_bits(self):
        for smiles in corpus_util.build_corpus(80):
            fp = substructure_key_fingerprint(parse_smiles(smiles))
            assert set(np.unique(fp)) <= {0.0, 1.0}

    def test_descriptions_available(self):
        assert "nitrogen" in default_key_table().entries[8][2]

    HAND_BUILT = (
        "C[N+](C)(C)CC(=O)[O-]", "[NH3+]CCC([O-])=O", "[O-][n+]1ccccc1",  # charged
        "FC(F)(F)c1ccc(Cl)cc1Br", "ICC(Cl)CBr", "Fc1c(F)c(F)c(F)c(F)c1F",  # halogenated
        "c1ccc2ccccc2c1", "c1ccc2[nH]ccc2c1", "C1CC2CCC1C2", "c1ccc2c(c1)CCCC2",  # fused
        "CS(=O)(=O)N", "CC(=S)N", "O=C1CCC(=O)N1", "CS(C)=O", "S=C=S", "C1CCS(=O)(=O)C1",
    )

    def test_matches_count_oracle(self):
        """Each key against a count taken straight from atoms, bonds and rings."""
        graphs = [g for _s, g in corpus_util.frozen_corpus_graphs()]
        graphs += [random_molecule_graph(n, seed=n) for n in range(1, 81)]
        graphs += [parse_smiles(s) for s in self.HAND_BUILT]
        entries = default_key_table().entries
        fired = set()
        for g in graphs:
            want = [_key_oracle(g, predicate, args) for predicate, args, _desc in entries]
            got = substructure_key_fingerprint(g)
            assert got.tolist() == [float(bit) for bit in want]
            fired |= {entries[k][0] for k, bit in enumerate(want) if bit}
        assert fired == {predicate for predicate, _args, _desc in entries}

    @pytest.mark.parametrize("line", [
        "0|element_gt|C,1|not a predicate",
        "0|element_ge|C|no threshold",
        "0|element_ge|C,two|threshold not an integer",
        "0|ring_size_ge|six,1|size not an integer",
        "0|bond_pair|C,single|an element short",
        "0|element_ge|C,1",
    ])
    def test_bad_line_fails_on_load(self, line, tmp_path, monkeypatch):
        from molfusion.featurize import keys

        (tmp_path / "keys_table.txt").write_text(f"# a table\n{line}\n", "utf-8")
        monkeypatch.setattr(keys.resources, "files", lambda _package: tmp_path)
        with pytest.raises((KeyError, ValueError)):
            keys.KeyTable()


def _key_oracle(g, predicate, args):
    """Whether one key holds, by a brute-force count of what it names."""
    atoms, rings = g.atoms, g.rings

    def n_atoms(test):
        return sum(1 for a in atoms if test(a))

    def n_rings(test):
        return sum(1 for r in rings if test(r, all(atoms[i].is_aromatic for i in r)))

    def n_bonds(s1, order, s2):
        return sum(1 for b in g.bonds if b.order.value == order
                   and sorted((atoms[b.u].element, atoms[b.v].element)) == sorted((s1, s2)))

    count = {
        "element_ge": lambda sym: n_atoms(lambda a: a.element == sym),
        "halogen_ge": lambda: n_atoms(lambda a: a.element in ("F", "Cl", "Br", "I")),
        "hetero_ge": lambda: n_atoms(lambda a: a.element != "C"),
        "heavy_ge": lambda: len(atoms),
        "degree_count_ge": lambda d: sum(len(g.neighbors(i)) >= int(d) for i in range(len(atoms))),
        "charge_pos_ge": lambda: n_atoms(lambda a: a.formal_charge > 0),
        "charge_neg_ge": lambda: n_atoms(lambda a: a.formal_charge < 0),
        "charged_ge": lambda: n_atoms(lambda a: a.formal_charge != 0),
        "ring_ge": lambda: len(rings),
        "ring_size_ge": lambda s: n_rings(lambda r, _aro: len(r) == int(s)),
        "aromatic_ring_ge": lambda: n_rings(lambda _r, aro: aro),
        "aromatic_ring_size_ge": lambda s: n_rings(lambda r, aro: aro and len(r) == int(s)),
        "nonaromatic_ring_ge": lambda: n_rings(lambda _r, aro: not aro),
        "hetero_ring_ge": lambda sym: n_rings(
            lambda r, _aro: any(atoms[i].element == sym for i in r)),
        "aromatic_atoms_ge": lambda: n_atoms(lambda a: a.is_aromatic),
        "donor_ge": lambda: n_atoms(lambda a: a.is_h_donor),
        "acceptor_ge": lambda: n_atoms(lambda a: a.is_h_acceptor),
        "acidic_ge": lambda: n_atoms(lambda a: a.is_acidic),
        "basic_ge": lambda: n_atoms(lambda a: a.is_basic),
        "bond_pair_ge": n_bonds,
        "double_bonds_ge": lambda: sum(1 for b in g.bonds if b.order is BondOrder.DOUBLE),
    }
    if predicate == "bond_pair":  # a bond of that kind exists
        return n_bonds(*args) >= 1
    return count[predicate](*args[:-1]) >= int(args[-1])



def _erg_loop_oracle(g, max_path):
    """The pair-by-pair ErG loop: per-atom BFS, +-1 smear added slot by slot."""
    out = np.zeros(N_LABEL_PAIRS * max_path, dtype=np.float64)
    pair_row = {p: k for k, p in enumerate((i, j) for i in range(6) for j in range(i, 6))}
    labeled = [(i, atom_labels(g, i)) for i in range(g.n_atoms)]
    labeled = [(i, ls) for i, ls in labeled if ls]
    for ai, (i, labels_i) in enumerate(labeled):
        dist = _bfs_distances(g, i)
        for j, labels_j in labeled[ai + 1:]:
            d = dist[j]
            if d < 1 or d > max_path:
                continue
            for li in labels_i:
                for lj in labels_j:
                    base = pair_row[(min(li, lj), max(li, lj))] * max_path
                    for smear, weight in ((d - 1, SMEAR_WEIGHT), (d, 1.0), (d + 1, SMEAR_WEIGHT)):
                        if 1 <= smear <= max_path:
                            out[base + smear - 1] += weight
    return out


def _erg(g, max_path=15):
    """ErG values over the full hop-distance matrix, to 15 hops unless given."""
    return erg_fingerprint(g, hop_distances(g), max_path)


class TestErg:
    @pytest.mark.parametrize("max_path", [1, 5, 15])
    def test_matches_loop_oracle(self, max_path):
        """Same sums in the same order as the loop, so equal to the last bit."""
        graphs = [g for _s, g in corpus_util.frozen_corpus_graphs()]
        graphs += [parse_smiles(s) for s in corpus_util.screen_large_smiles(1)]
        for g in graphs:
            got = _erg(g, max_path)
            assert got.dtype == np.float64
            assert np.array_equal(got, _erg_loop_oracle(g, max_path))

    def test_no_labeled_atoms(self):
        # halogens carry no pharmacophore label; the carbon has non-C neighbors
        assert not _erg(parse_smiles("ClC(Cl)Cl")).any()

    def test_smearing_pattern(self):
        # every populated row peaks at one distance with 0.3-weighted wings
        fp = _erg(parse_smiles("NCCO"), max_path=10)
        rows = fp.reshape(21, 10)
        populated = rows[np.nonzero(rows.sum(axis=1))[0]]
        assert len(populated) > 0
        for row in populated:
            d = int(np.argmax(row))
            peak = row[d]
            assert peak >= 1.0
            assert row[d - 1] == pytest.approx(0.3 * peak)
            if d + 1 < 10:
                assert row[d + 1] == pytest.approx(0.3 * peak)
            others = [k for k in range(10) if abs(k - d) > 1]
            assert not row[others].any()

    def test_ethanolamine_donor_acceptor_distance_3(self):
        fp = _erg(parse_smiles("NCCO")).reshape(21, 15)
        # labels: donor=0, acceptor=1; pair (0,1) is row 1 in the 21-pair table
        assert fp[1][3 - 1] >= 1.0

    def test_length(self):
        assert erg_length(15) == 315
        assert _erg(parse_smiles("NCCO")).shape == (315,)

    def test_counts_nonnegative(self):
        for smiles in corpus_util.build_corpus(60):
            assert (_erg(parse_smiles(smiles)) >= 0).all()


# sha256 over the packed Morgan (radius 2, 2048 bits) and key bits of each
# molecule in order, recorded before the fingerprints read the distance matrix.
GOLDEN_BITS = {
    "corpus": "c90ba2992459a3c6b2b9c8eee2a0fbbbe546b3d795ee1a7adc3430ed30470663",
    1: "d83efba1ac118a44c53d6bba47696e1b2723b8611c1310a4a4ffde34514421c4",
    2: "6e2fe402a25ad8d64bb084c78b59099a2a67e1e24d1562dec0e80c39b7859d37",
    3: "8d4634c2072285a9af0dfe51b611d070742ef90c867273e6ec93ddc1a51e3946",
    4: "0b9030d1a2ee47086bd32e25c703ccdb9d528f07444bf3ae886eda3fdc28dabc",
    5: "d44b87c8e72a63fa8bc22606287deb44444fcb5fcf21bd791d4839032eacd81f",
}


@pytest.mark.parametrize("source", list(GOLDEN_BITS))
def test_morgan_and_key_bits_golden(source):
    if source == "corpus":
        graphs = [g for _s, g in corpus_util.frozen_corpus_graphs()]
    else:  # the screen-large benchmark molecules of this seed
        graphs = [parse_smiles(s) for s in corpus_util.screen_large_smiles(source)]
    digest = hashlib.sha256()
    for g in graphs:
        digest.update(np.packbits(_morgan(g).astype(bool)).tobytes())
        digest.update(np.packbits(substructure_key_fingerprint(g).astype(bool)).tobytes())
    assert digest.hexdigest() == GOLDEN_BITS[source]


# sha256 over each molecule's ErG values (max_path 15) and its default
# featurize output: atom rows, bond rows, src, dst, fingerprint cols and values.
# Recorded before the BFS stopped at the deepest distance the fingerprints read.
GOLDEN_FEATURES = {
    "corpus": "169ad79c0b271a3fc61796ecd7d325e714845383fbd4ce1b1c3063fd921b2b6b",
    1: "72013f0846b93a2c68e2efa1a0d5dbdac6811e2cbe45142013a3ab308c46617c",
    2: "940f6c660a244b6c455773723e8e2c3d807fe224b75ea1391620d92abfab95cb",
    3: "36cc7b5f4050a1d71daf7d29c1393c5c085d71ece8b400a76a5db9cec41653a2",
    4: "57e3f598015e4c7b5521cb3c1b92654f45b9a1b757299bdea9e2b8af43faae26",
    5: "0ee5a3d9fc2b6634d302212e572856d3189171a48335ff5835bf1163c7383329",
}


@pytest.mark.parametrize("source", list(GOLDEN_FEATURES))
def test_featurize_golden(source):
    if source == "corpus":
        graphs = [g for _s, g in corpus_util.frozen_corpus_graphs()]
    else:  # the screen-large benchmark molecules of this seed
        graphs = [parse_smiles(s) for s in corpus_util.screen_large_smiles(source)]
    digest = hashlib.sha256()
    for g in graphs:
        mol = featurize(g, FeaturizeConfig())
        for array in (_erg(g), mol.atom_features, mol.bond_features, mol.src,
                      mol.dst, mol.fingerprint_cols, mol.fingerprint_values):
            digest.update(np.ascontiguousarray(array).tobytes())
    assert digest.hexdigest() == GOLDEN_FEATURES[source]


class TestAssembly:
    def test_default_lengths(self):
        config = FeaturizeConfig()
        assert config.fingerprint_length == 2048 + 160 + 315 == 2523

    def test_concat_order(self):
        g = parse_smiles("CCO")
        config = FeaturizeConfig()
        mol = featurize(g, config)
        morgan = _morgan(g, config.morgan_radius, config.morgan_bits)
        fingerprint = corpus_util.dense_fingerprint(mol)
        assert np.array_equal(fingerprint[:2048], morgan)
        assert fingerprint.shape == (2523,)

    def test_component_subsets(self):
        config = FeaturizeConfig(components=("morgan",))
        mol = featurize(parse_smiles("CCO"), config)
        assert corpus_util.dense_fingerprint(mol).shape == (2048,)

    @pytest.mark.parametrize("components", [("morgan", "keys", "erg"), ("keys",), ()])
    def test_sparse_form_holds_exactly_the_nonzeros(self, components):
        """The columns are the sorted nonzero columns of the concatenated
        components (brute force, per component), and the values are theirs."""
        config = FeaturizeConfig(components=components)
        for smiles in corpus_util.build_corpus(60):
            g = parse_smiles(smiles)
            mol = featurize(g, config)
            parts = {"morgan": lambda: _morgan(g, config.morgan_radius, config.morgan_bits),
                     "keys": lambda: substructure_key_fingerprint(g),
                     "erg": lambda: _erg(g, config.erg_max_path)}
            dense = np.concatenate([parts[c]() for c in components] or [np.zeros(0)])
            assert mol.fingerprint_width == len(dense) == config.fingerprint_length
            assert mol.fingerprint_cols.dtype == np.int64
            assert mol.fingerprint_cols.tolist() == [i for i, v in enumerate(dense) if v != 0]
            assert mol.fingerprint_values.tolist() == [v for v in dense if v != 0]

    @pytest.mark.parametrize("components, radius, max_path, limit", [
        (("morgan", "keys", "erg"), 2, 15, 15),
        (("morgan", "keys", "erg"), 16, 3, 16),
        (("morgan",), 4, 15, 4),
        (("erg",), 2, 40, 40),
        (("keys",), 2, 15, None),
    ])
    def test_one_hop_distance_search_per_molecule(
        self, monkeypatch, components, radius, max_path, limit
    ):
        """Morgan and ErG share one search, as deep as the deeper of them
        reads; keys alone need none."""
        calls = []

        def counted(graph, limit=None):
            calls.append(limit)
            return hop_distances(graph, limit)

        monkeypatch.setattr(features, "hop_distances", counted)
        config = FeaturizeConfig(
            morgan_radius=radius, erg_max_path=max_path, components=components
        )
        smiles = corpus_util.build_corpus(20)
        for s in smiles:
            featurize(parse_smiles(s), config)
        assert calls == ([] if limit is None else [limit] * len(smiles))

    def test_featurized_molecules_pickle_small(self):
        """A forked lane sends featurized molecules back pickled. The mean over
        build_corpus(300) was 25.4 KB with dense 2523-wide fingerprint rows,
        and is 6.0 KB with the sparse form."""
        config = FeaturizeConfig()
        mols = [featurize(parse_smiles(s), config) for s in corpus_util.build_corpus(300)]
        assert np.mean([len(pickle.dumps(m)) for m in mols]) < 8000

    def test_directed_edges(self):
        mol = featurize(parse_smiles("CCO"), FeaturizeConfig())
        src, dst, feats = mol.src, mol.dst, mol.bond_features
        assert len(src) == 4  # 2 bonds, both directions
        assert feats.shape == (4, 13)
        assert sorted(zip(src.tolist(), dst.tolist())) == [(0, 1), (1, 0), (1, 2), (2, 1)]

    def test_unknown_component_rejected(self):
        with pytest.raises(ValueError):
            FeaturizeConfig(components=("morgan", "maccs"))
