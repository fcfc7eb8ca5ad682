"""The full predictor: fingerprint branch, two graph streams, fusion, output."""

from __future__ import annotations

import numpy as np

from ..autodiff import tensor as T
from ..autodiff.params import ParameterStore
from ..autodiff.rng import make_rng
from ..autodiff.tensor import Tensor
from ..featurize.features import ATOM_FEATURE_DIM, BOND_FEATURE_DIM
from .batch import MoleculeBatch
from .config import ModelConfig
from .layers import (
    AttentiveGru,
    CrossAttention,
    FingerprintMlp,
    Linear,
    MixedInformation,
    TransformerLayer,
)


class MlfgnnModel:
    """Multi-level fusion predictor over featurized molecules.

    Pipeline: atom features project to initial node states; a transformer
    stack (adjacency-biased self-attention) builds the global stream while a
    bond-aware neighbor-attention stack builds the local stream; a learned
    gate mixes them per node; a virtual-supernode readout pools to a molecule
    vector; the fingerprint embedding cross-attends over graph tokens and the
    concatenated representation feeds the output MLP. Ablations drop whole
    branches (and their parameters) via ``config.ablation``.
    """

    def __init__(self, config: ModelConfig, seed: int = 0):
        self.config = config
        self.params = ParameterStore()
        rng = make_rng(seed)
        store = self.params
        c = config
        d, g = c.hidden_dim, c.gat_out_dim
        self.node_init = Linear(store, rng, "node_init", ATOM_FEATURE_DIM, g)
        if c.has_gat:
            self.edge_init = Linear(
                store, rng, "edge_init", ATOM_FEATURE_DIM + BOND_FEATURE_DIM, g
            )
            self.gat_stack = [
                AttentiveGru(store, rng, f"gat.layer{i}", g) for i in range(c.gat_layers)
            ]
        else:
            self.edge_init = None
            self.gat_stack = []
        if c.has_transformer:
            self.adapter = Linear(store, rng, "transformer.adapter", g, d)
            self.transformer_stack = [
                TransformerLayer(store, rng, f"transformer.layer{i}", d, c.heads)
                for i in range(c.transformer_layers)
            ]
        else:
            self.adapter = None
            self.transformer_stack = []
        self.mixture = MixedInformation(store, rng, "mixture", g, d, c.has_gat, c.has_gate)
        self.readout = AttentiveGru(store, rng, "readout", d)
        if c.has_fingerprint:
            self.fingerprint_mlp = FingerprintMlp(
                store, rng, "fingerprint_mlp", c.fingerprint_dim, c.fingerprint_embed_dim,
                c.dropout_ffn,
            )
            self.cross_attention = CrossAttention(
                store, rng, "cross_attention", c.fingerprint_embed_dim, d, c.heads
            )
            mlp_in = 2 * d + c.fingerprint_embed_dim
        else:
            self.fingerprint_mlp = None
            self.cross_attention = None
            mlp_in = d
        self.out1 = Linear(store, rng, "output_mlp.lin1", mlp_in, d)
        self.out2 = Linear(store, rng, "output_mlp.lin2", d, c.n_tasks)
        if self.params.count_values() != c.parameter_count():
            raise RuntimeError(
                f"parameter walk ({self.params.count_values()}) disagrees with the "
                f"closed-form count ({c.parameter_count()})"
            )

    # -- forward -----------------------------------------------------------

    def forward(self, batch: MoleculeBatch, train: bool = False,
                rng: np.random.Generator | None = None, trace: dict | None = None) -> Tensor:
        """Predict [B, n_tasks] for a packed batch (one molecule is a batch of
        one); raw logits for classification tasks.

        ``rng`` drives dropout and is required when ``train`` is true;
        ``trace``, when given, collects the attention maps and gate values of
        a batch of one.
        """
        c = self.config
        if train and rng is None:
            raise ValueError("training forward needs an rng for dropout")
        if trace is not None and batch.size != 1:
            raise ValueError("trace needs a batch of one molecule")
        atom_feats = Tensor(batch.atom_features)
        h0 = T.relu(self.node_init(atom_feats))  # [N, g]

        fp_embed = None
        if c.has_fingerprint:
            width = batch.fingerprints.shape[1]
            if width != c.fingerprint_dim:
                raise T.ShapeMismatchError("fingerprint", (width,), (c.fingerprint_dim,))
            fp_embed = self.fingerprint_mlp(Tensor(batch.fingerprints), train=train, rng=rng)

        transformer_out = None
        if c.has_transformer:
            if trace is not None:
                trace.setdefault("transformer_attention", [])
            x = self.adapter(h0)
            for layer in self.transformer_stack:
                x = layer(
                    x, batch, c.dropout_attn, c.dropout_ffn, train, rng,
                    trace["transformer_attention"] if trace is not None else None,
                )
            transformer_out = x

        gat_outputs = None
        if c.has_gat:
            if trace is not None:
                trace.setdefault("gat_attention", [])
            src, dst = batch.src, batch.dst
            edge_in = T.concat(
                [T.gather_rows(atom_feats, dst), Tensor(batch.bond_features)], axis=1
            )
            edge_ctx = T.relu(self.edge_init(edge_in))  # [E, g]
            states = h0
            gat_outputs = []
            for i, layer in enumerate(self.gat_stack):
                members = edge_ctx if i == 0 else T.gather_rows(states, dst)
                states, attn = layer(states, members, src, c.dropout_gat, train, rng)
                if trace is not None:
                    dense = np.zeros((batch.n_atoms, batch.n_atoms))
                    dense[src, dst] = attn.data[:, 0]
                    trace["gat_attention"].append(dense)
                gat_outputs.append(states)

        mixed = self.mixture(gat_outputs, transformer_out, trace)
        # Supernode readout: each molecule's anchor, the sum of its node
        # states, attends over those states.
        anchor = T.segment_sum(mixed, batch.graph_ids, batch.size)
        molecule_vec, attn = self.readout(anchor, mixed, batch.graph_ids)
        if trace is not None:
            trace["readout_attention"] = attn.data[:, 0].copy()

        if c.has_fingerprint:
            fused = self.cross_attention(fp_embed, molecule_vec, mixed, batch.token_mask, trace)
            representation = T.concat([fused, molecule_vec, fp_embed], axis=1)
        else:
            representation = molecule_vec
        hidden = T.relu(self.out1(representation))
        return self.out2(T.dropout(hidden, c.dropout_ffn, rng, train))

    def predict_batch(self, batch: MoleculeBatch) -> np.ndarray:
        """Eval-mode predictions [B, n_tasks], no tape; sigmoid applied for classification."""
        with T.no_grad():
            out = self.forward(batch).data
        if self.config.task == "classification":
            return T._sigmoid_np(out)
        return out

    def predict(self, mol) -> np.ndarray:
        """Eval-mode prediction [n_tasks] for one featurized molecule."""
        return self.predict_batch(MoleculeBatch([mol]))[0]

    # -- introspection helpers ----------------------------------------------

    def gate_alpha(self) -> float | None:
        if self.mixture.gate is None:
            return None
        return float(T._sigmoid_np(self.mixture.gate.data)[0, 0])  # the forward's alpha

    def lambda_values(self) -> tuple[list[float], list[float]]:
        attn = [float(l.lambda_attn.data[0, 0]) for l in self.transformer_stack]
        adj = [float(l.lambda_adj.data[0, 0]) for l in self.transformer_stack]
        return attn, adj

    def state_arrays(self) -> dict[str, np.ndarray]:
        return self.params.state_arrays()

    def load_state_arrays(self, state: dict[str, np.ndarray]) -> None:
        self.params.load_state_arrays(state)
