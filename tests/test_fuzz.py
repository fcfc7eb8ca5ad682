"""Fuzzing parse -> featurize -> predict with generated graphs and mutated
SMILES, and the config check with generated config values.

Only ``SmilesError`` may come out of the parser, nothing at all out of
featurize or the model, and every fingerprint and prediction is finite. A
config value ends in a config error naming its field, or passes.
"""

import contextlib
import io
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from molfusion.chem import SmilesError, parse_smiles
from molfusion.cli import main, random_molecule_graph
from molfusion.featurize import FeaturizeConfig, featurize
from molfusion.model import ModelConfig, MlfgnnModel, MoleculeBatch
from molfusion.train import TrainConfig

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


SECTIONS = {"model": ModelConfig, "train": TrainConfig, "featurize": FeaturizeConfig}
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 70) | st.integers(-(10**400), 10**400)
    | st.floats() | st.text(max_size=12)
    | st.sampled_from(["none", "no_fingerprint", "gat_only", "classification", "morgan", "erg"]),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4), inner,
                                                                max_size=3),
    max_leaves=6,
)
KEYS = st.sampled_from(
    [(name, key) for name, cls in SECTIONS.items() for key in cls.field_table()]
) | st.tuples(st.sampled_from(list(SECTIONS)), st.text(max_size=8))


@pytest.fixture(scope="module")
def config_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("config_fuzz")


@given(KEYS, JSON_VALUES)
@settings(max_examples=300, deadline=None)
def test_train_config_value_is_a_config_error_or_reaches_the_data(config_dir, section_key, value):
    """``train`` with one generated value in its config file, naming a data
    file that does not exist: a value that passes stops at the data read, so
    nothing is trained."""
    section, key = section_key
    config, data, out = config_dir / "config.json", config_dir / "missing.csv", config_dir / "run"
    config.write_text(json.dumps({section: {key: value}}))
    stderr = io.StringIO()
    with contextlib.redirect_stderr(stderr), contextlib.redirect_stdout(io.StringIO()):
        code = main(["train", "--config", str(config), "--data", str(data), "--task", "reg",
                     "--out", str(out)])
    err = stderr.getvalue()
    assert err.count("\n") == 1, err
    if code == 1:
        assert err.startswith("config error: ") and (key in err or repr(key) in err), err
    else:
        missing = f"data error: [Errno 2] No such file or directory: {str(data)!r}\n"
        assert (code, err) == (2, missing)
    assert not out.exists()
