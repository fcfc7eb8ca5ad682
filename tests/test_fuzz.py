"""Fuzzing parse -> featurize -> predict with generated graphs and mutated SMILES.

Only ``SmilesError`` may come out of the parser, nothing at all out of
featurize or the model, and every fingerprint and prediction is finite.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from molfusion.chem import SmilesError, parse_smiles
from molfusion.cli import random_molecule_graph
from molfusion.featurize import FeaturizeConfig, featurize
from molfusion.model import ModelConfig, MlfgnnModel, MoleculeBatch

import corpus_util

FEATURIZE = FeaturizeConfig()
MODEL = MlfgnnModel(ModelConfig(fingerprint_dim=FEATURIZE.fingerprint_length), seed=3)
CORPUS = (corpus_util.BENCHMARKS / "corpus.smi").read_text().split()
# SMILES syntax plus characters it has no use for
ALPHABET = "CNOSPFIBrlcnospH()[]=#-+@/\\.%:*$0123456789 "

EDITS = st.lists(
    st.tuples(
        st.sampled_from(("insert", "delete", "replace")),
        st.integers(0, 200),
        st.sampled_from(ALPHABET),
    ),
    min_size=1,
    max_size=4,
)


def _featurize_and_predict(graphs):
    mols = [featurize(g, FEATURIZE) for g in graphs]
    for g, mol in zip(graphs, mols):
        assert mol.fingerprint.shape == (FEATURIZE.fingerprint_length,)
        assert np.isfinite(mol.fingerprint).all()
        assert np.isfinite(mol.atom_features).all()
        dist = g.distance_matrix()
        assert np.array_equal(dist, dist.T) and not dist.diagonal().any()
    preds = MODEL.predict_batch(MoleculeBatch(mols))
    assert preds.shape == (len(mols), 1)
    assert np.isfinite(preds).all()


@given(st.lists(st.tuples(st.integers(1, 120), st.integers(0, 2**32 - 1)), min_size=1, max_size=3))
@settings(max_examples=25, deadline=None)
def test_random_graphs_featurize_and_predict(specs):
    graphs = [random_molecule_graph(n, seed) for n, seed in specs]
    for (n, _seed), g in zip(specs, graphs):
        assert g.n_atoms == n and corpus_util.n_components(g) == 1
    _featurize_and_predict(graphs)


@given(st.integers(0, len(CORPUS) - 1), EDITS)
@settings(max_examples=150, deadline=None)
def test_mutated_corpus_smiles(index, edits):
    chars = list(CORPUS[index])
    for op, pos, char in edits:
        pos %= len(chars) + 1
        if op == "insert":
            chars.insert(pos, char)
        elif pos < len(chars):
            if op == "delete":
                del chars[pos]
            else:
                chars[pos] = char
    try:
        graph = parse_smiles("".join(chars))
    except SmilesError:
        return
    _featurize_and_predict([graph])
