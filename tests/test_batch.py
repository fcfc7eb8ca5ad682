"""Packed molecules against one molecule at a time: the batched path's gate."""

import numpy as np
import pytest

import molfusion.autodiff as ad
from molfusion.autodiff import Tensor, backward, grad_check, make_rng
from molfusion.chem import parse_smiles
from molfusion.featurize import FeaturizeConfig, featurize
from molfusion.model import MAX_CHUNK_ATOMS, ModelConfig, MlfgnnModel, MoleculeBatch, chunks

import corpus_util

FEATURIZE = FeaturizeConfig()
# A 1-atom molecule with no bonds, two small rings, a chain, and a 70-atom
# molecule that is over the chunk cap and so forms a chunk of its own.
SMILES = ["C", "C1CC1", "c1ccccc1O", "CCN(C)C(=O)O", "c1ccc(cc1)C" * 10]
VARIANTS = {
    "default": {},
    "gat_only": {"ablation": "gat_only"},
    "transformer_only": {"ablation": "transformer_only"},
    "no_fingerprint": {"ablation": "no_fingerprint"},
}


@pytest.fixture(scope="module")
def mols():
    return [featurize(parse_smiles(s), FEATURIZE) for s in SMILES]


def dropout_free(**overrides):
    return ModelConfig(fingerprint_dim=FEATURIZE.fingerprint_length, dropout_gat=0.0,
                       dropout_ffn=0.0, dropout_attn=0.0, **overrides)


def outputs_and_grads(model, packs, weights):
    """Forward each pack, one backward each of sum(out * weights); the outputs
    stacked in order and every parameter's accumulated gradient."""
    for t in model.params.tensors.values():
        t.zero_grad()
    outs, row = [], 0
    for pack in packs:
        out = model.forward(MoleculeBatch(pack))
        w = Tensor(weights[row : row + len(pack)])
        backward(ad.sum_(ad.mul(out, w)))
        outs.append(out.data)
        row += len(pack)
    grads = {name: t.grad.copy() for name, t in model.params.tensors.items()}
    return np.concatenate(outs), grads


def assert_close(got, want, what):
    scale = max(float(np.abs(want).max()), 1e-300)
    assert float(np.abs(got - want).max()) <= 1e-12 * scale, what


def test_chunks_cap_the_atom_total(mols):
    runs = list(chunks(range(len(mols)), lambda i: mols[i].n_atoms))
    assert runs == [[0, 1, 2, 3], [4]]
    assert mols[4].n_atoms > MAX_CHUNK_ATOMS
    assert list(chunks([], len)) == []
    assert list(chunks([40, 24, 1, 64, 70, 3], lambda n: n)) == [[40, 24], [1], [64], [70], [3]]


def test_pack_layout(mols):
    batch = MoleculeBatch(mols[:3])
    sizes = [m.n_atoms for m in mols[:3]]
    assert batch.size == 3 and batch.n_atoms == sum(sizes)
    assert batch.graph_ids.tolist() == [0] + [1] * 3 + [2] * 7
    assert batch.src.tolist() == [*(mols[1].src + 1), *(mols[2].src + 4)]
    ids = batch.graph_ids
    same = ids[:, None] == ids[None, :]
    assert batch.atom_mask.shape == (11, 11)
    assert np.array_equal(batch.atom_mask == 0.0, same)
    assert (batch.atom_mask[~same] == -1e30).all()
    # token rows: the 3 virtual nodes, then the 11 atom rows
    token_ids = np.concatenate([np.arange(3), ids])
    assert batch.token_mask.shape == (3, 14)
    assert np.array_equal(batch.token_mask == 0.0, np.arange(3)[:, None] == token_ids)
    assert batch.adjacency.shape == (11, 11)
    assert not batch.adjacency[~same].any()
    for b, mol in enumerate(mols[:3]):
        rows = np.flatnonzero(ids == b)
        assert np.array_equal(batch.adjacency[np.ix_(rows, rows)],
                              MoleculeBatch([mol]).adjacency)
    assert not MoleculeBatch(mols[1:2]).atom_mask.any()  # one molecule: nothing masked


def test_fingerprint_block_is_the_dense_rows_on_their_active_columns():
    """On every chunk of 300 corpus molecules, the batch's columns are the
    sorted columns that some dense row has nonzero, and its block is the dense
    rows on those columns, byte for byte."""
    mols = [featurize(g, FEATURIZE) for _s, g in corpus_util.frozen_corpus_graphs()[:300]]
    for run in chunks(mols, lambda m: m.n_atoms):
        batch = MoleculeBatch(run)
        dense = np.stack([corpus_util.dense_fingerprint(m) for m in run])
        assert batch.fingerprint_width == dense.shape[1]
        assert batch.fingerprint_cols.tolist() == np.flatnonzero(dense.any(axis=0)).tolist()
        assert batch.fingerprint_block.tobytes() == dense[:, batch.fingerprint_cols].tobytes()


def _oracle_adjacency(graph):
    """D^-1 (A + I) by a loop over the bonds."""
    adj = np.eye(graph.n_atoms)
    for b in graph.bonds:
        adj[b.u, b.v] = 1.0
        adj[b.v, b.u] = 1.0
    return adj / adj.sum(axis=1, keepdims=True)


def test_adjacency_equals_the_per_bond_oracle_on_every_corpus_chunk():
    """Built once from the joined edge list, the batch prior is byte for byte
    the block diagonal of the per-molecule oracles."""
    graphs = [g for _s, g in corpus_util.frozen_corpus_graphs()]
    mols = [featurize(g, FeaturizeConfig(components=())) for g in graphs]
    for run in chunks(range(len(mols)), lambda i: mols[i].n_atoms):
        sizes = [graphs[i].n_atoms for i in run]
        want = np.zeros((sum(sizes), sum(sizes)))
        for i, start, size in zip(run, np.cumsum(sizes) - sizes, sizes):
            want[start : start + size, start : start + size] = _oracle_adjacency(graphs[i])
        assert MoleculeBatch([mols[i] for i in run]).adjacency.tobytes() == want.tobytes(), run


@pytest.mark.parametrize("variant", sorted(VARIANTS))
def test_packed_outputs_and_gradients_match_one_at_a_time(mols, variant):
    model = MlfgnnModel(dropout_free(**VARIANTS[variant]), seed=5)
    weights = make_rng(1).standard_normal((len(mols), 1))
    single, single_grads = outputs_and_grads(model, [[m] for m in mols], weights)
    packs = [[mols[i] for i in run] for run in chunks(range(len(mols)),
                                                      lambda i: mols[i].n_atoms)]
    packed, packed_grads = outputs_and_grads(model, packs, weights)
    assert_close(packed, single, "outputs")
    assert set(packed_grads) == set(model.params.tensors)
    for name, grad in packed_grads.items():
        assert np.abs(single_grads[name]).max() > 0, name
        assert_close(grad, single_grads[name], name)


@pytest.mark.parametrize("variant", sorted(VARIANTS))
def test_one_atom_chunk_matches_one_at_a_time(variant):
    """A chunk of 1-atom molecules has no edge at all, so the GAT layers run
    on an empty edge list and the edge embedding gets a zero gradient."""
    tiny = [featurize(parse_smiles(s), FEATURIZE) for s in ("C", "O", "N")]
    assert MoleculeBatch(tiny).src.size == 0
    model = MlfgnnModel(dropout_free(**VARIANTS[variant]), seed=9)
    weights = make_rng(3).standard_normal((len(tiny), 1))
    single, single_grads = outputs_and_grads(model, [[m] for m in tiny], weights)
    packed, packed_grads = outputs_and_grads(model, [tiny], weights)
    assert_close(packed, single, "outputs")
    assert set(packed_grads) == set(model.params.tensors)
    for name, grad in packed_grads.items():
        assert_close(grad, single_grads[name], name)
    if model.config.has_gat:
        assert not packed_grads["edge_init.w"].any()


@pytest.mark.parametrize("variant", ["default", "gat_only", "transformer_only"])
def test_permuting_a_chunk_permutes_the_outputs(mols, variant):
    model = MlfgnnModel(dropout_free(**VARIANTS[variant]), seed=6)
    chunk = mols[:4]
    out = model.forward(MoleculeBatch(chunk)).data
    for perm in ([3, 2, 1, 0], [1, 3, 0, 2]):
        permuted = model.forward(MoleculeBatch([chunk[i] for i in perm])).data
        assert_close(permuted, out[perm], str(perm))


def test_eval_predictions_match_per_molecule(mols):
    model = MlfgnnModel(ModelConfig(fingerprint_dim=FEATURIZE.fingerprint_length,
                                    task="classification", n_tasks=2), seed=7)
    packed = model.predict_batch(MoleculeBatch(mols))
    assert packed.shape == (len(mols), 2)
    assert_close(packed, np.stack([model.predict(m) for m in mols]), "predict")


def gradcheck_small_pack(smiles, seed):
    """Finite differences against the tape on a pack of ``smiles`` in a small model."""
    small = FeaturizeConfig(morgan_bits=64, erg_max_path=5)
    config = ModelConfig(
        transformer_layers=2, heads=2, hidden_dim=8, gat_out_dim=6,
        fingerprint_embed_dim=8, fingerprint_dim=small.fingerprint_length,
    )
    model = MlfgnnModel(config, seed=seed)
    batch = MoleculeBatch([featurize(parse_smiles(s), small) for s in smiles])

    def f():
        out = model.forward(batch)
        return ad.sum_(ad.mul(out, out))

    report = grad_check(f, model.params.tensors, rtol=1e-3, atol=1e-6, max_coords_per_tensor=3,
                        rng=make_rng(0))
    assert report.passed, report.summary()
    assert set(report.per_tensor) == set(model.params.tensors)
    return batch


def test_gradcheck_two_molecule_pack():
    batch = gradcheck_small_pack(("CC(=O)CN", "C1CC1"), seed=12)
    assert (batch.atom_mask != 0.0).any()  # the pack masks cross-molecule pairs


def test_gradcheck_one_atom_pack():
    batch = gradcheck_small_pack(("C", "O", "N"), seed=13)
    assert batch.src.size == 0


def test_trace_needs_a_batch_of_one(mols):
    model = MlfgnnModel(dropout_free(), seed=0)
    with pytest.raises(ValueError, match="batch of one"):
        model.forward(MoleculeBatch(mols[:2]), trace={})


def test_train_step_gradient_is_the_mean_per_molecule_gradient(mols, monkeypatch):
    """One optimizer batch of all five molecules, which runs as at least two
    chunks (the 70-atom one is alone), against per-molecule backward passes
    scaled by 1/len(batch)."""
    from molfusion.autodiff import Adam
    from molfusion.data import DatasetSplit
    from molfusion.train import TrainConfig, loop, masked_loss

    labels = np.array([[0.5, np.nan], [1.0, 2.0], [np.nan, -1.0], [0.0, 0.3], [2.0, 1.0]])
    mask = ~np.isnan(labels)
    labels = np.nan_to_num(labels)
    config = dropout_free(n_tasks=2)
    steps = []

    class Recording(Adam):
        def step(self, lo=0, hi=None):
            if lo == 0:  # lane 0's half, so one record per optimizer step
                steps.append([a + b for a, b in zip(*self.grad_views)])
            super().step(lo, hi)

    monkeypatch.setattr(loop, "Adam", Recording)
    split = DatasetSplit(list(range(5)), [], [], "random", 0)
    result = loop.train(MlfgnnModel(config, seed=8), mols, labels, mask, split,
                        TrainConfig(epochs=1, batch_size=5), seed=0)

    reference = MlfgnnModel(config, seed=8)
    losses = []
    for i, mol in enumerate(mols):
        out = reference.forward(MoleculeBatch([mol]))
        loss = masked_loss(out, labels[i], mask[i], "regression")
        losses.append(loss.item())
        backward(ad.mul(loss, Tensor(1.0 / len(mols))))
    assert len(steps) == 1
    for got, (name, t) in zip(steps[0], reference.params.tensors.items()):
        assert_close(got, t.grad, name)
    assert result.history[0]["train_loss"] == pytest.approx(np.mean(losses), rel=1e-12)
