"""Architecture tests: layer semantics, boundary identities, oracles."""

import math

import numpy as np
import pytest

import molfusion.autodiff as ad
from molfusion.autodiff import Tensor, backward, grad_check, make_rng
from molfusion.autodiff.params import ParameterStore
from molfusion.chem import parse_smiles
from molfusion.featurize import FeaturizeConfig, featurize
from molfusion.model import ConfigError, ModelConfig, MlfgnnModel
from molfusion.model.batch import MoleculeBatch
from molfusion.model.config import LEAKY_SLOPE
from molfusion.model.layers import (
    AttentiveGru,
    CrossAttention,
    DynamicTanh,
    GruCell,
)
from molfusion.model import EmptyMoleculeError

import corpus_util

SMALL_FEATURIZE = FeaturizeConfig(morgan_bits=64, erg_max_path=5)


def small_config(**overrides):
    base = dict(
        transformer_layers=2,
        heads=2,
        head_dim=4,
        hidden_dim=8,
        gat_out_dim=6,
        gat_layers=2,
        fingerprint_embed_dim=8,
        fingerprint_dim=SMALL_FEATURIZE.fingerprint_length,
        dropout_gat=0.1,
        dropout_ffn=0.1,
        dropout_attn=0.1,
    )
    base.update(overrides)
    return ModelConfig(**base)


def featurized(smiles):
    return featurize(parse_smiles(smiles), SMALL_FEATURIZE)


class TestGruCell:
    def test_zero_weights_halve_state(self):
        store = ParameterStore()
        gru = GruCell(store, make_rng(0), "gru", 3, 3)
        for t in store.tensors.values():
            t.data[:] = 0.0
        h = Tensor(np.array([[1.0, -2.0, 4.0]]))
        c = Tensor(np.array([[5.0, 5.0, 5.0]]))
        out = gru(c, h)
        assert np.allclose(out.data, 0.5 * h.data)

    def test_saturated_update_gate_keeps_state(self):
        store = ParameterStore()
        gru = GruCell(store, make_rng(1), "gru", 3, 3)
        store.tensors["gru.b_z"].data[:] = -50.0  # z -> 0 keeps previous state
        h = Tensor(np.array([[0.3, -0.7, 1.1]]))
        out = gru(h, h)
        assert np.allclose(out.data, h.data, atol=1e-12)

    def test_gradients_through_both_arguments(self):
        store = ParameterStore()
        gru = GruCell(store, make_rng(2), "gru", 3, 3)
        rng = make_rng(3)
        c = Tensor(rng.standard_normal((2, 3)), requires_grad=True)
        h = Tensor(rng.standard_normal((2, 3)), requires_grad=True)
        tensors = {"c": c, "h": h, **store.tensors}
        report = grad_check(lambda: ad.sum_(ad.mul(gru(c, h), gru(c, h))), tensors)
        assert report.passed, report.summary()


class TestSegmentSoftmax:
    def test_singleton_is_one(self):
        scores = Tensor(np.array([[3.7]]))
        out = ad.segment_softmax(scores, np.array([0]), 1)
        assert out.data[0, 0] == pytest.approx(1.0)

    def test_rows_sum_to_one_per_segment(self):
        rng = make_rng(0)
        scores = Tensor(rng.standard_normal((7, 1)))
        seg = np.array([0, 0, 0, 1, 1, 2, 2])
        out = ad.segment_softmax(scores, seg, 3)
        for s in range(3):
            assert out.data[seg == s, 0].sum() == pytest.approx(1.0, abs=1e-12)


class TestGatLayer:
    """``AttentiveGru`` as a GAT layer: atoms are the centers, directed edges
    (keyed by ``src``) the members."""

    def test_single_neighbor_attention_is_one(self):
        store = ParameterStore()
        layer = AttentiveGru(store, make_rng(0), "gat", 4)
        states = Tensor(make_rng(1).standard_normal((2, 4)))
        reps = ad.gather_rows(states, np.array([1, 0]))
        _, attn = layer(states, reps, np.array([0, 1]))
        assert attn.data[:, 0].tolist() == pytest.approx([1.0, 1.0])

    def test_identical_neighbors_split_evenly(self):
        store = ParameterStore()
        layer = AttentiveGru(store, make_rng(0), "gat", 4)
        base = make_rng(2).standard_normal(4)
        states = Tensor(np.stack([base * 0.3, base, base]))  # atoms 1,2 identical
        src = np.array([0, 0, 1, 2])
        dst = np.array([1, 2, 0, 0])
        reps = ad.gather_rows(states, dst)
        _, attn = layer(states, reps, src)
        assert attn.data[:2, 0].tolist() == pytest.approx([0.5, 0.5])

    def test_matches_naive_edge_loop(self):
        """Vectorized layer equals a per-edge python reimplementation."""
        store = ParameterStore()
        dim = 5
        layer = AttentiveGru(store, make_rng(7), "gat", dim)
        rng = make_rng(8)
        # 4-atom star: center 0 bonded to 1, 2, 3
        src = np.array([0, 0, 0, 1, 2, 3])
        states_np = rng.standard_normal((4, dim))
        reps_np = rng.standard_normal((len(src), dim))
        out, _ = layer(Tensor(states_np), Tensor(reps_np), src)

        naive = _naive_attentive_gru(layer, states_np, reps_np, src)
        assert np.abs(out.data - naive).max() < 1e-10

    def test_isolated_node_keeps_gru_of_zero_context(self):
        store = ParameterStore()
        layer = AttentiveGru(store, make_rng(0), "gat", 4)
        states_np = make_rng(1).standard_normal((3, 4))
        # node 2 isolated
        src, dst = np.array([0, 1]), np.array([1, 0])
        reps = ad.gather_rows(Tensor(states_np), dst)
        out, _ = layer(Tensor(states_np), reps, src)
        zero_ctx = ad.elu(Tensor(np.zeros((1, 4))))
        expected = layer.gru(zero_ctx, Tensor(states_np[2:3])).data
        assert np.allclose(out.data[2], expected[0], atol=1e-12)

    def test_dropout_acts_on_the_weights_not_the_returned_attention(self):
        store = ParameterStore()
        layer = AttentiveGru(store, make_rng(0), "gat", 4)
        states = Tensor(make_rng(1).standard_normal((4, 4)))
        src, dst = np.array([0, 0, 0, 1, 2, 3]), np.array([1, 2, 3, 0, 0, 0])
        reps = ad.gather_rows(states, dst)
        out, attn = layer(states, reps, src)
        dropped, dropped_attn = layer(states, reps, src, 0.5, True, make_rng(2))
        assert np.array_equal(dropped_attn.data, attn.data)
        assert not np.array_equal(dropped.data, out.data)


def _naive_attentive_gru(layer, centers, members, ids):
    """A per-member python loop over one ``AttentiveGru`` update."""
    attn_w = layer.attn_w.data
    agg_w = layer.agg_w.data

    def leaky(x):
        return x if x > 0 else LEAKY_SLOPE * x

    def sigmoid(x):
        return 1.0 / (1.0 + np.exp(-x))

    scores = [
        leaky(float(np.concatenate([centers[ids[e]], members[e]]) @ attn_w[:, 0]))
        for e in range(len(ids))
    ]
    new_centers = np.zeros_like(centers)
    for v in range(len(centers)):
        rows = [e for e in range(len(ids)) if ids[e] == v]
        ctx = np.zeros(centers.shape[1])
        if rows:
            mx = max(scores[e] for e in rows)
            weights = np.array([math.exp(scores[e] - mx) for e in rows])
            weights /= weights.sum()
            for w, e in zip(weights, rows):
                ctx += w * (members[e] @ agg_w)
        ctx = np.where(ctx > 0, ctx, np.expm1(np.minimum(ctx, 0)))
        xh = np.concatenate([ctx, centers[v]])
        z = sigmoid(xh @ layer.gru.w_z.data[:, :] + layer.gru.b_z.data[0])
        r = sigmoid(xh @ layer.gru.w_r.data[:, :] + layer.gru.b_r.data[0])
        cand = np.tanh(
            np.concatenate([ctx, r * centers[v]]) @ layer.gru.w_n.data + layer.gru.b_n.data[0]
        )
        new_centers[v] = (1 - z) * centers[v] + z * cand
    return new_centers


class TestTransformerBoundaries:
    def _setup(self, smiles="CCO", seed=4):
        config = small_config()
        model = MlfgnnModel(config, seed=seed)
        mol = featurized(smiles)
        return model, mol

    def test_adjacency_only_head_equals_adjacency_times_values(self):
        model, mol = self._setup()
        rng = make_rng(0)
        for layer in model.transformer_stack:  # assert per layer
            layer.lambda_attn.data[:] = 0.0
            layer.lambda_adj.data[:] = 1.0
            h = Tensor(rng.standard_normal((mol.n_atoms, model.config.hidden_dim)))
            batch = MoleculeBatch([mol])
            out = layer.attend(h, batch)
            v = (h.data @ layer.w_v.data)
            d_k = model.config.head_dim
            for i in range(layer.heads):
                cols = slice(i * d_k, (i + 1) * d_k)
                expected = batch.adjacency @ v[:, cols]
                assert np.array_equal(out.data[:, cols], expected)

    def test_no_adjacency_reduces_to_plain_attention(self):
        model, mol = self._setup()
        rng = make_rng(1)
        for layer in model.transformer_stack:
            layer.lambda_attn.data[:] = 1.0
            layer.lambda_adj.data[:] = 0.0
            h = Tensor(rng.standard_normal((mol.n_atoms, model.config.hidden_dim)))
            batch = MoleculeBatch([mol])
            out = layer.attend(h, batch)
            q, k, v = (h.data @ w.data for w in (layer.w_q, layer.w_k, layer.w_v))
            d_k = model.config.head_dim
            for i in range(layer.heads):
                cols = slice(i * d_k, (i + 1) * d_k)
                logits = q[:, cols] @ k[:, cols].T / math.sqrt(d_k)
                e = np.exp(logits - logits.max(axis=1, keepdims=True))
                soft = e / e.sum(axis=1, keepdims=True)
                assert np.allclose(out.data[:, cols], soft @ v[:, cols], atol=1e-14)

    def test_single_node_softmax_degenerates(self):
        model, mol = self._setup("C")
        layer = model.transformer_stack[0]
        rng = make_rng(2)
        h = Tensor(rng.standard_normal((1, model.config.hidden_dim)))
        trace = []
        batch = MoleculeBatch([mol])
        out = layer.attend(h, batch, trace)
        lam_a = layer.lambda_attn.data[0, 0]
        lam_b = layer.lambda_adj.data[0, 0]
        v = h.data @ layer.w_v.data
        assert len(trace[0]) == layer.heads
        for head in trace[0]:
            assert head == pytest.approx(1.0)
        assert np.allclose(out.data, (lam_a + lam_b) * v)

    def test_attention_rows_sum_to_one(self):
        model, mol = self._setup("CC(=O)Nc1ccccc1")
        trace = {}
        model.forward(MoleculeBatch([mol]), trace=trace)
        for layer_heads in trace["transformer_attention"]:
            for head in layer_heads:
                assert np.allclose(head.sum(axis=1), 1.0, atol=1e-12)


class TestDynamicTanh:
    def test_identity_parameters_equal_tanh(self):
        store = ParameterStore()
        dyt = DynamicTanh(store, make_rng(0), "dyt", 4)
        store.tensors["dyt.alpha"].data[:] = 1.0
        x = Tensor(make_rng(1).standard_normal((3, 4)))
        assert np.array_equal(dyt(x).data, np.tanh(x.data))

    def test_zero_at_zero(self):
        store = ParameterStore()
        dyt = DynamicTanh(store, make_rng(0), "dyt", 2)
        assert np.all(dyt(Tensor(np.zeros((1, 2)))).data == 0.0)

    def test_saturation(self):
        store = ParameterStore()
        dyt = DynamicTanh(store, make_rng(0), "dyt", 2)
        store.tensors["dyt.gamma"].data[:] = np.array([[2.0, 3.0]])
        store.tensors["dyt.beta"].data[:] = np.array([[0.5, -0.5]])
        out = dyt(Tensor(np.full((1, 2), 1e9)))
        assert np.allclose(out.data, [[2.5, 2.5]])

    def test_reference_value(self):
        store = ParameterStore()
        dyt = DynamicTanh(store, make_rng(0), "dyt", 1)
        store.tensors["dyt.alpha"].data[:] = 1.0
        assert dyt(Tensor([[1.0]])).data[0, 0] == pytest.approx(0.7615941559557649)


class TestMixture:
    def test_gate_boundaries_exact(self):
        """A gate pre-activation of +inf or -inf gives alpha exactly 1 or 0."""
        config = small_config()
        model = MlfgnnModel(config, seed=0)
        mol = featurized("CC(=O)O")
        mix = model.mixture
        saved = mix.gate.data.copy()
        trace = {}
        mix.gate.data[...] = np.inf
        model.forward(MoleculeBatch([mol]), trace=trace)
        assert trace["gate_alpha"] == 1.0

        # a saturated gate reproduces the pure streams bitwise
        rng = make_rng(5)
        gat_out = [Tensor(rng.standard_normal((3, config.gat_out_dim))) for _ in range(2)]
        trans_out = Tensor(rng.standard_normal((3, config.hidden_dim)))
        pure_local = mix.local_stream(gat_out)
        assert np.array_equal(mix(gat_out, trans_out).data, pure_local.data)
        mix.gate.data[...] = -np.inf
        assert np.array_equal(mix(gat_out, trans_out).data, ad.gelu(trans_out).data)
        mix.gate.data[...] = saved

    def test_logged_alpha_is_the_forward_alpha(self):
        """``gate_alpha()``, which the training log records, is bitwise the
        alpha that the forward pass mixed with."""
        model = MlfgnnModel(small_config(), seed=0)
        model.mixture.gate.data[...] = -3.0
        trace = {}
        model.forward(MoleculeBatch([featurized("CC(=O)O")]), trace=trace)
        assert model.gate_alpha() == trace["gate_alpha"] == 0.04742587317756679

    def test_identical_layer_outputs_mean_is_identity(self):
        config = small_config()
        model = MlfgnnModel(config, seed=1)
        rng = make_rng(6)
        h = Tensor(rng.standard_normal((4, config.gat_out_dim)))
        single = model.mixture.local_stream([h])
        doubled = model.mixture.local_stream([h, h])
        assert np.allclose(single.data, doubled.data, atol=1e-15)


def readout(model, states, graph_ids, n_graphs):
    """The model's supernode readout of [N, dim] node states, as ``forward``
    runs it: (molecule vectors, attention over the atoms)."""
    anchor = ad.segment_sum(states, graph_ids, n_graphs)
    return model.readout(anchor, states, graph_ids)


class TestReadout:
    """``AttentiveGru`` as the supernode readout: each molecule's anchor is
    the center, its atoms the members."""

    def test_single_atom_weight_one(self):
        config = small_config()
        model = MlfgnnModel(config, seed=0)
        states = Tensor(make_rng(0).standard_normal((1, config.hidden_dim)))
        _, attn = readout(model, states, np.zeros(1, np.int64), 1)
        assert attn.data[0, 0] == pytest.approx(1.0)

    def test_identical_embeddings_split_evenly(self):
        config = small_config()
        model = MlfgnnModel(config, seed=0)
        row = make_rng(1).standard_normal(config.hidden_dim)
        _, attn = readout(model, Tensor(np.stack([row, row])), np.zeros(2, np.int64), 1)
        assert np.allclose(attn.data[:, 0], [0.5, 0.5])

    def test_permutation_invariant(self):
        config = small_config()
        model = MlfgnnModel(config, seed=0)
        rng = make_rng(2)
        states = rng.standard_normal((5, config.hidden_dim))
        perm = rng.permutation(5)
        one_graph = np.zeros(5, np.int64)
        out1, _ = readout(model, Tensor(states), one_graph, 1)
        out2, _ = readout(model, Tensor(states[perm]), one_graph, 1)
        assert np.allclose(out1.data, out2.data, atol=1e-12)

    def test_attention_sums_to_one_tight(self):
        config = small_config()
        model = MlfgnnModel(config, seed=0)
        for seed in range(5):
            states = Tensor(make_rng(seed).standard_normal((7, config.hidden_dim)))
            _, attn = readout(model, states, np.zeros(7, np.int64), 1)
            assert abs(attn.data.sum() - 1.0) <= 1e-12

    def test_matches_naive_atom_loop(self):
        """Two molecules of 3 and 2 atoms against the per-member loop."""
        config = small_config()
        model = MlfgnnModel(config, seed=0)
        states = make_rng(3).standard_normal((5, config.hidden_dim))
        graph_ids = np.array([0, 0, 0, 1, 1])
        out, _ = readout(model, Tensor(states), graph_ids, 2)
        anchor = np.stack([states[:3].sum(axis=0), states[3:].sum(axis=0)])
        naive = _naive_attentive_gru(model.readout, anchor, states, graph_ids)
        assert np.abs(out.data - naive).max() < 1e-10


class TestPredict:
    def test_large_negative_logit_gives_zero_without_a_warning(self):
        """Probabilities come from the forward's overflow-free sigmoid; under
        the suite's ``filterwarnings = ["error"]`` an overflow would raise."""
        model = MlfgnnModel(small_config(task="classification"), seed=0)
        model.out2.w.data[...] = 0.0
        model.out2.b.data[...] = -1000.0
        probs = model.predict_batch(MoleculeBatch([featurized("CCO"), featurized("CN")]))
        assert probs.tolist() == [[0.0], [0.0]]

    def test_regression_outputs_are_the_forward_outputs(self):
        model = MlfgnnModel(small_config(), seed=0)
        batch = MoleculeBatch([featurized("CCO"), featurized("c1ccccc1")])
        assert np.array_equal(model.predict_batch(batch), model.forward(batch).data)


class TestInitialization:
    def test_documented_starting_values(self):
        model = MlfgnnModel(small_config(), seed=0)
        assert model.gate_alpha() == 0.5  # zero pre-activation
        lam_attn, lam_adj = model.lambda_values()
        assert lam_attn == [0.5, 0.5] and lam_adj == [0.5, 0.5]
        for layer in model.transformer_stack:
            assert layer.norm1.alpha.data[0, 0] == 0.5
            assert np.all(layer.norm1.gamma.data == 1.0)
            assert np.all(layer.norm1.beta.data == 0.0)
        for name, t in model.params.tensors.items():
            last = name.rsplit(".", 1)[1]
            if last == "b" or last.startswith("b_"):
                assert not t.data.any(), name
            if last == "w" or last.startswith("w_") or last.endswith("_w"):  # uniform_fan_in
                assert np.abs(t.data).max() <= 1.0 / np.sqrt(t.shape[0]), name


class TestMultiHeadAttention:
    """The fused attention op against a plain per-head loop over column blocks."""

    @staticmethod
    def oracle(q, k, v, heads, weight_of):
        d_k = q.shape[1] // heads
        outs = []
        for i in range(heads):
            cols = slice(i * d_k, (i + 1) * d_k)
            logits = q[:, cols] @ k[:, cols].T / math.sqrt(d_k)
            e = np.exp(logits - logits.max(axis=1, keepdims=True))
            outs.append(weight_of(e / e.sum(axis=1, keepdims=True)) @ v[:, cols])
        return np.concatenate(outs, axis=1)

    @pytest.mark.parametrize("heads", [1, 2, 4])
    @pytest.mark.parametrize("m,n", [(1, 5), (3, 1), (4, 4)], ids=["query", "one-atom", "self"])
    def test_matches_per_head_loop(self, heads, m, n):
        rng = make_rng(10 * heads + m + n)
        width = 3 * heads
        q = Tensor(rng.standard_normal((m, width)), requires_grad=True)
        k = Tensor(rng.standard_normal((n, width)), requires_grad=True)
        v = Tensor(rng.standard_normal((n, width)), requires_grad=True)
        prior = rng.uniform(size=(m, n))
        no_mask = np.zeros((m, n))
        plain = ad.attention(q, k, v, heads, no_mask)
        assert plain.shape == (m, width)
        assert np.allclose(plain.data, self.oracle(q.data, k.data, v.data, heads, lambda w: w),
                           rtol=1e-12, atol=1e-14)

        lam_attn, lam_adj = Tensor([[0.3]]), Tensor([[0.7]])
        mixed = ad.attention(q, k, v, heads, no_mask, lam_attn, lam_adj, prior)
        expected = self.oracle(q.data, k.data, v.data, heads, lambda w: 0.3 * w + 0.7 * prior)
        assert np.allclose(mixed.data, expected, rtol=1e-12, atol=1e-14)
        w = Tensor(rng.standard_normal((m, width)))
        report = grad_check(
            lambda: ad.sum_(ad.mul(ad.attention(q, k, v, heads, no_mask, lam_attn, lam_adj,
                                                prior), w)),
            {"q": q, "k": k, "v": v}, rtol=1e-5, atol=1e-8,
        )
        assert report.passed, report.summary()

    @pytest.mark.parametrize("heads", [1, 2])
    def test_padded_batch_matches_each_molecule(self, heads):
        """Molecules of 1, 4 and 2 rows joined into 7 rows under a block-diagonal mask."""
        rng = make_rng(heads)
        width, sizes = 3 * heads, [1, 4, 2]
        q, k, v = (rng.standard_normal((sum(sizes), width)) for _ in range(3))
        graph_ids = np.repeat(np.arange(len(sizes)), sizes)
        same = graph_ids[:, None] == graph_ids[None, :]
        mask = np.where(same, 0.0, -1e30)
        prior = rng.uniform(size=same.shape) * same

        out = ad.attention(Tensor(q), Tensor(k), Tensor(v), heads, mask, Tensor([[0.3]]),
                           Tensor([[0.7]]), prior)
        assert out.shape == (sum(sizes), width)
        for b in range(len(sizes)):
            rows = np.flatnonzero(graph_ids == b)
            block = np.ix_(rows, rows)
            expected = self.oracle(q[rows], k[rows], v[rows], heads,
                                   lambda w: 0.3 * w + 0.7 * prior[block])
            assert np.allclose(out.data[rows], expected, rtol=1e-12, atol=1e-14)


class TestCrossAttention:
    def test_weights_sum_to_one_with_virtual_token(self):
        config = small_config()
        model = MlfgnnModel(config, seed=0)
        mol = featurized("C")
        trace = {}
        model.forward(MoleculeBatch([mol]), trace=trace)
        for head in trace["cross_attention"]:
            assert len(head) == 2  # virtual node + 1 atom
            assert head.sum() == pytest.approx(1.0, abs=1e-12)

    def test_identical_keys_give_token_value(self):
        store = ParameterStore()
        attn = CrossAttention(store, make_rng(0), "xattn", 6, 8, 2)
        rng = make_rng(1)
        fp = Tensor(rng.standard_normal((1, 6)))
        token = rng.standard_normal(8)
        virtual = Tensor(token[None, :])
        nodes = Tensor(np.tile(token, (3, 1)))
        out = attn(fp, virtual, nodes, np.zeros((1, 4)))
        v = token[None, :] @ attn.w_v.data
        expected = v @ attn.out.w.data + attn.out.b.data
        assert np.allclose(out.data, expected, atol=1e-12)

    def test_gradient_reaches_both_branches(self):
        config = small_config()
        model = MlfgnnModel(config, seed=0)
        mol = featurized("CCO")
        out = model.forward(MoleculeBatch([mol]))
        backward(ad.sum_(ad.mul(out, out)))
        fp_grad = model.params.tensors["fingerprint_mlp.lin1.w"].grad
        graph_grad = model.params.tensors["node_init.w"].grad
        assert fp_grad is not None and np.abs(fp_grad).max() > 0
        assert graph_grad is not None and np.abs(graph_grad).max() > 0


class TestNodeAndEdgeInit:
    def test_single_atom_has_state_and_no_edge_contexts(self):
        model = MlfgnnModel(small_config(), seed=0)
        mol = featurized("C")
        src, dst, feats = mol.src, mol.dst, mol.bond_features
        assert len(src) == 0 and feats.shape == (0, 13)
        assert model.forward(MoleculeBatch([mol])).shape == (1, 1)

    def test_zero_weights_give_zero_states(self):
        model = MlfgnnModel(small_config(), seed=0)
        model.params.tensors["node_init.w"].data[:] = 0.0
        mol = featurized("CCO")
        h0 = ad.relu(model.node_init(Tensor(mol.atom_features)))
        assert not h0.data.any()

    def test_edge_context_direction_sensitive(self):
        # for (u -> v) vs (v -> u) the neighbor features differ when atoms do
        model = MlfgnnModel(small_config(), seed=1)
        mol = featurized("CO")
        src, dst, feats = mol.src, mol.dst, mol.bond_features
        edge_in = ad.concat([ad.gather_rows(Tensor(mol.atom_features), dst), Tensor(feats)], axis=1)
        ctx = ad.relu(model.edge_init(edge_in)).data
        forward_idx = next(k for k in range(len(src)) if (src[k], dst[k]) == (0, 1))
        backward_idx = next(k for k in range(len(src)) if (src[k], dst[k]) == (1, 0))
        assert not np.array_equal(ctx[forward_idx], ctx[backward_idx])


class TestFingerprintEmbed:
    def test_zero_input_zero_biases_zero_output(self):
        config = small_config()
        model = MlfgnnModel(config, seed=0)  # biases init to zero
        zero = Tensor(np.zeros((1, config.fingerprint_dim)))
        out = model.fingerprint_mlp(zero)
        assert np.all(out.data == 0.0)

    def test_output_width(self):
        config = small_config()
        model = MlfgnnModel(config, seed=0)
        u = Tensor(make_rng(0).random((1, config.fingerprint_dim)))
        assert model.fingerprint_mlp(u).shape == (1, config.fingerprint_embed_dim)


class TestForwardContract:
    def test_output_length_matches_tasks(self):
        for n_tasks in (1, 3):
            config = small_config(n_tasks=n_tasks, task="classification")
            model = MlfgnnModel(config, seed=0)
            out = model.forward(MoleculeBatch([featurized("CCN")]))
            assert out.shape == (1, n_tasks)

    def test_eval_forward_bit_identical(self):
        model = MlfgnnModel(small_config(), seed=0)
        mol = featurized("Cc1ccccc1O")
        a = model.forward(MoleculeBatch([mol])).data
        b = model.forward(MoleculeBatch([mol])).data
        assert np.array_equal(a, b)

    def test_empty_molecule_rejected(self):
        from molfusion.featurize.features import FeaturizedMolecule

        empty = FeaturizedMolecule(
            atom_features=np.zeros((0, 57)),
            src=np.zeros(0, dtype=np.int64),
            dst=np.zeros(0, dtype=np.int64),
            bond_features=np.zeros((0, 13)),
            fingerprint=np.zeros(SMALL_FEATURIZE.fingerprint_length),
        )
        model = MlfgnnModel(small_config(), seed=0)
        with pytest.raises(EmptyMoleculeError):
            model.forward(MoleculeBatch([empty]))

    def test_permutation_invariance(self):
        model = MlfgnnModel(small_config(), seed=3)
        rng = make_rng(4)
        for smiles in corpus_util.build_corpus(25):
            graph = parse_smiles(smiles)
            mol = featurize(graph, SMALL_FEATURIZE)
            perm = rng.permutation(graph.n_atoms).tolist()
            mol_perm = featurize(corpus_util.relabel(graph, perm), SMALL_FEATURIZE)
            delta = np.abs(model.forward(MoleculeBatch([mol])).data
                           - model.forward(MoleculeBatch([mol_perm])).data).max()
            assert delta < 1e-9, f"{smiles}: {delta}"

    def test_dropout_train_mode_changes_output(self):
        model = MlfgnnModel(small_config(), seed=0)
        mol = featurized("CCO")
        eval_out = model.forward(MoleculeBatch([mol])).data
        train_out = model.forward(MoleculeBatch([mol]), train=True, rng=make_rng(9)).data
        assert not np.array_equal(eval_out, train_out)

    def test_train_mode_needs_rng(self):
        model = MlfgnnModel(small_config(), seed=0)
        with pytest.raises(ValueError):
            model.forward(MoleculeBatch([featurized("CC")]), train=True)

    def test_fingerprint_width_checked(self):
        model = MlfgnnModel(small_config(), seed=0)
        bad = featurize(parse_smiles("CC"), FeaturizeConfig(morgan_bits=128, erg_max_path=5))
        with pytest.raises(ad.ShapeMismatchError):
            model.forward(MoleculeBatch([bad]))


class TestAblations:
    @pytest.mark.parametrize("ablation", ["gat_only", "transformer_only", "no_fingerprint"])
    def test_runs_and_counts_match(self, ablation):
        config = small_config(ablation=ablation)
        model = MlfgnnModel(config, seed=0)
        assert config.parameter_count() == model.params.count_values()
        out = model.forward(MoleculeBatch([featurized("CC(=O)Nc1ccccc1")]))
        assert out.shape == (1, 1)

    def test_gat_only_has_no_transformer_parameters(self):
        model = MlfgnnModel(small_config(ablation="gat_only"), seed=0)
        assert not any(name.startswith("transformer.") for name in list(model.params.tensors))

    def test_transformer_only_has_no_gat_parameters(self):
        model = MlfgnnModel(small_config(ablation="transformer_only"), seed=0)
        assert not any(name.startswith("gat.") for name in list(model.params.tensors))
        assert not any(name.startswith("edge_init") for name in list(model.params.tensors))

    def test_no_fingerprint_drops_cross_attention(self):
        model = MlfgnnModel(small_config(ablation="no_fingerprint"), seed=0)
        names = list(model.params.tensors)
        assert not any(name.startswith("fingerprint_mlp") for name in names)
        assert not any(name.startswith("cross_attention") for name in names)



class TestParameterCount:
    @pytest.mark.parametrize(
        "overrides",
        [
            {},
            {"transformer_layers": 3, "gat_layers": 1},
            {"heads": 4, "head_dim": 2},
            {"transformer_layers": 1},
            {"gat_out_dim": 10, "fingerprint_embed_dim": 5},
            {"n_tasks": 12, "task": "classification"},
            {"ablation": "gat_only"},
            {"ablation": "transformer_only"},
            {"ablation": "no_fingerprint"},
        ],
    )
    def test_closed_form_matches_walk(self, overrides):
        config = small_config(**overrides)
        model = MlfgnnModel(config, seed=0)
        assert config.parameter_count() == model.params.count_values()

    def test_default_parameter_names_unchanged(self):
        """Checkpoints store tensors by these names, in this order."""
        gru = [f"gru.{k}" for k in ("w_z", "b_z", "w_r", "b_r", "w_n", "b_n")]
        attentive_gru = ["attn_w", "agg_w", *gru]
        linear = ["w", "b"]
        norms = [f"{n}.{k}" for n in ("norm1", "norm2") for k in ("alpha", "gamma", "beta")]
        transformer = ["w_q", "w_k", "w_v", "out.w", "out.b", "lambda_attn", "lambda_adj",
                       *norms, "ffn1.w", "ffn1.b", "ffn2.w", "ffn2.b"]
        two_linears = ["lin1.w", "lin1.b", "lin2.w", "lin2.b"]
        expected = [
            *(f"node_init.{k}" for k in linear),
            *(f"edge_init.{k}" for k in linear),
            *(f"gat.layer{i}.{k}" for i in range(2) for k in attentive_gru),
            *(f"transformer.adapter.{k}" for k in linear),
            *(f"transformer.layer{i}.{k}" for i in range(2) for k in transformer),
            "mixture.local.w", "mixture.local.b", "mixture.gate",
            *(f"readout.{k}" for k in attentive_gru),
            *(f"fingerprint_mlp.{k}" for k in two_linears),
            *(f"cross_attention.{k}" for k in ("w_q", "w_k", "w_v", "out.w", "out.b")),
            *(f"output_mlp.{k}" for k in two_linears),
        ]
        model = MlfgnnModel(ModelConfig(), seed=0)
        assert list(model.params.tensors) == expected
        shapes = {"attn_w": (128, 1), "agg_w": (64, 64), **{k: (128, 64) for k in gru[::2]},
                  **{k: (1, 64) for k in gru[1::2]}}
        for prefix in ("gat.layer0", "gat.layer1", "readout"):
            for k, shape in shapes.items():
                assert model.params.tensors[f"{prefix}.{k}"].shape == shape, (prefix, k)

    def test_unique_parameter_paths(self):
        model = MlfgnnModel(small_config(), seed=0)
        names = list(model.params.tensors)
        assert len(names) == len(set(names))

    def test_config_validation_reports_all_problems(self):
        with pytest.raises(ConfigError) as err:
            ModelConfig(hidden_dim=7, heads=2, head_dim=4, dropout_gat=1.5)
        message = str(err.value)
        assert "hidden_dim" in message and "dropout_gat" in message


class TestFullModelGradient:
    def test_five_atom_molecule_all_groups(self):
        config = small_config()
        model = MlfgnnModel(config, seed=11)
        graph = parse_smiles("CC(=O)CN")
        assert graph.n_atoms == 5
        mol = featurize(graph, SMALL_FEATURIZE)

        def f():
            out = model.forward(MoleculeBatch([mol]))
            return ad.sum_(ad.mul(out, out))

        report = grad_check(
            f, model.params.tensors, rtol=1e-3, atol=1e-6, max_coords_per_tensor=3, rng=make_rng(0)
        )
        assert report.passed, report.summary()
        assert set(report.per_tensor) == set(list(model.params.tensors))


class TestTapeOps:
    """Tape nodes per training forward: the fused blocks keep the count down,
    and every op records through ``autodiff.tensor._make``, where the
    benchmark tracer counts tape ops."""

    FUSED = ("linear", "dyt", "gru_cell", "segment_softmax", "attention")

    def test_train_forward_of_a_corpus_chunk(self, monkeypatch):
        from collections import Counter

        from molfusion.autodiff import tensor
        from molfusion.model.batch import chunks

        config = FeaturizeConfig()
        graphs = [g for _smiles, g in corpus_util.frozen_corpus_graphs()[:40]]
        chunk = next(chunks([featurize(g, config) for g in graphs], lambda m: m.n_atoms))
        assert (len(chunk), sum(m.n_atoms for m in chunk)) == (17, 63)
        model = MlfgnnModel(ModelConfig(fingerprint_dim=config.fingerprint_length), seed=0)
        ops = Counter()
        make = tensor._make

        def counted(data, parents, backward_fn, op):
            ops[op] += 1
            return make(data, parents, backward_fn, op)

        monkeypatch.setattr(tensor, "_make", counted)
        out = model.forward(MoleculeBatch(chunk), train=True, rng=make_rng(0))
        assert out.op_name == "linear" and out.requires_grad
        assert sum(ops.values()) == 94
        assert {op: ops[op] for op in self.FUSED} == {
            "linear": 15, "dyt": 4, "gru_cell": 3, "segment_softmax": 3, "attention": 3,
        }
