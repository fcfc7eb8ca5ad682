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

    def __init__(
        self, config: ModelConfig, seed: int = 0, state: dict[str, np.ndarray] | None = None
    ):
        """Weights drawn from ``seed``; or, given ``state`` (the arrays of a
        checkpoint), every parameter takes its value there and nothing is
        drawn. A ``state`` whose names or shapes do not match raises as
        ``load_state_arrays`` does."""
        self.config = config
        self.params = ParameterStore()
        rng = None if state is not None else make_rng(seed)
        store = self.params
        c = config
        d, g = c.hidden_dim, c.gat_out_dim
        self.node_init = Linear(store, rng, "node_init", ATOM_FEATURE_DIM, g)
        if c.has_gat:
            self.edge_init = Linear(
                store, rng, "edge_init", ATOM_FEATURE_DIM + BOND_FEATURE_DIM, g
            )
            self.gat_stack = [
                AttentiveGru(store, rng, f"gat.layer{i}", g, c.dropout_gat)
                for i in range(c.gat_layers)
            ]
        else:
            self.edge_init = None
            self.gat_stack = []
        if c.has_transformer:
            self.adapter = Linear(store, rng, "transformer.adapter", g, d)
            self.transformer_stack = [
                TransformerLayer(store, rng, f"transformer.layer{i}", d, c.heads,
                                 c.dropout_attn, c.dropout_ffn)
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
        if state is not None:
            self.load_state_arrays(state)

    # -- forward -----------------------------------------------------------

    def forward(self, batch: MoleculeBatch, train: bool = False,
                rng: np.random.Generator | None = None, trace: dict | None = None) -> Tensor:
        """Predict [B, n_tasks] for a packed batch (one molecule is a batch of
        one); raw logits for classification tasks.

        ``train`` picks dropout, drawn from ``rng``, which it then requires;
        in eval every block gets no ``rng`` and drops nothing. ``trace``, when
        given, needs a batch of one and gets every key each time, an ablated
        branch's as an empty list:

        - ``transformer_attention``: per layer, the per-head [N, N] weights;
        - ``gat_attention``: per layer, the dense [N, N] weights of edge
          src -> dst at [src, dst];
        - ``gate_alpha``: the mixture's alpha, a float;
        - ``readout_attention``: the [N] readout weights;
        - ``cross_attention``: per head, the fingerprint query's [1 + N]
          weights over the virtual node and the atoms.
        """
        c = self.config
        if train and rng is None:
            raise ValueError("training forward needs an rng for dropout")
        if trace is not None and batch.size != 1:
            raise ValueError("trace needs a batch of one molecule")
        rng = rng if train else None
        atom_feats = Tensor(batch.atom_features)
        h0 = T.relu(self.node_init(atom_feats))  # [N, g]

        fp_embed = None
        if c.has_fingerprint:
            width = batch.fingerprint_width
            if width != c.fingerprint_dim:
                raise T.ShapeMismatchError("fingerprint", (width,), (c.fingerprint_dim,))
            fp_embed = self.fingerprint_mlp(batch.fingerprint_block, batch.fingerprint_cols, rng)

        transformer_out, transformer_maps = None, []
        if c.has_transformer:
            x = self.adapter(h0)
            for layer in self.transformer_stack:
                x, p = layer(x, batch, rng)
                transformer_maps.append(p)
            transformer_out = x

        gat_outputs, gat_maps = None, []
        if c.has_gat:
            src, dst = batch.src, batch.dst
            edge_in = T.concat(
                [T.gather_rows(atom_feats, dst), Tensor(batch.bond_features)], axis=1
            )
            edge_ctx = T.relu(self.edge_init(edge_in))  # [E, g]
            states = h0
            gat_outputs = []
            for i, layer in enumerate(self.gat_stack):
                members = edge_ctx if i == 0 else T.gather_rows(states, dst)
                states, attn = layer(states, members, src, rng)
                gat_maps.append(attn)
                gat_outputs.append(states)

        mixed, alpha = self.mixture(gat_outputs, transformer_out)
        # Supernode readout: each molecule's anchor, the sum of its node
        # states, attends over those states.
        anchor = T.segment_sum(mixed, batch.graph_ids, batch.size)
        molecule_vec, readout_attn = self.readout(anchor, mixed, batch.graph_ids)

        cross_heads = []
        if c.has_fingerprint:
            fused, p = self.cross_attention(fp_embed, molecule_vec, mixed, batch.token_mask)
            cross_heads = p[:, 0]  # the first molecule's query row, per head
            representation = T.concat([fused, molecule_vec, fp_embed], axis=1)
        else:
            representation = molecule_vec
        hidden = T.relu(self.out1(representation))
        out = self.out2(T.dropout(hidden, c.dropout_ffn, rng))
        if trace is not None:
            trace.update(
                transformer_attention=[list(heads) for heads in transformer_maps],
                gat_attention=[_dense(attn, batch) for attn in gat_maps],
                gate_alpha=alpha,
                readout_attention=readout_attn.data[:, 0],
                cross_attention=list(cross_heads),
            )
        return out

    def predict_batch(self, batch: MoleculeBatch, trace: dict | None = None) -> np.ndarray:
        """Eval-mode predictions [B, n_tasks], no tape: raw values for
        regression, sigmoid probabilities for classification. ``trace`` is
        ``forward``'s."""
        with T.no_grad():
            out = self.forward(batch, trace=trace).data
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


def _dense(attn: Tensor, batch: MoleculeBatch) -> np.ndarray:
    """Per-edge [E, 1] attention as an [N, N] matrix, edge src -> dst at [src, dst]."""
    dense = np.zeros((batch.n_atoms, batch.n_atoms))
    dense[batch.src, batch.dst] = attn.data[:, 0]
    return dense
