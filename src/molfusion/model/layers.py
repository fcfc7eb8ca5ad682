"""Building blocks of the fused graph network."""

from __future__ import annotations

import numpy as np

from ..autodiff import params as P
from ..autodiff import tensor as T
from ..autodiff.tensor import Tensor
from .config import FFN_MULT, LEAKY_SLOPE


def _register_matrix(store, rng, prefix, in_dim, out_dim):
    """A uniform fan-in weight drawn from ``rng``; with no ``rng``, an unset
    one that a checkpoint's values fill (``MlfgnnModel``'s ``state``)."""
    shape = (in_dim, out_dim)
    return store.register(prefix, np.empty(shape) if rng is None else P.uniform_fan_in(rng, shape))


class Linear:
    def __init__(self, store, rng, prefix, in_dim, out_dim):
        self.w = _register_matrix(store, rng, f"{prefix}.w", in_dim, out_dim)
        self.b = store.register(f"{prefix}.b", np.zeros((1, out_dim)))

    def __call__(self, x: Tensor) -> Tensor:
        return T.linear(x, self.w, self.b)


class GruCell:
    """Standard gated recurrent cell over row-stacked states (``T.gru_cell``).

    z = sigmoid(W_z [x || h] + b_z); r = sigmoid(W_r [x || h] + b_r);
    cand = tanh(W_n [x || r*h] + b_n); h' = (1-z)*h + z*cand.
    """

    def __init__(self, store, rng, prefix, in_dim, hidden_dim):
        rows = in_dim + hidden_dim  # [x || h]
        self.w_z = _register_matrix(store, rng, f"{prefix}.w_z", rows, hidden_dim)
        self.b_z = store.register(f"{prefix}.b_z", np.zeros((1, hidden_dim)))
        self.w_r = _register_matrix(store, rng, f"{prefix}.w_r", rows, hidden_dim)
        self.b_r = store.register(f"{prefix}.b_r", np.zeros((1, hidden_dim)))
        self.w_n = _register_matrix(store, rng, f"{prefix}.w_n", rows, hidden_dim)
        self.b_n = store.register(f"{prefix}.b_n", np.zeros((1, hidden_dim)))

    def __call__(self, x: Tensor, h: Tensor) -> Tensor:
        return T.gru_cell(x, h, self.w_z, self.b_z, self.w_r, self.b_r, self.w_n, self.b_n)


class DynamicTanh:
    """Learnable squashing gamma * tanh(alpha * x) + beta (``T.dyt``)."""

    def __init__(self, store, rng, prefix, dim):
        self.alpha = store.register(f"{prefix}.alpha", np.full((1, 1), 0.5))
        self.gamma = store.register(f"{prefix}.gamma", np.ones((1, dim)))
        self.beta = store.register(f"{prefix}.beta", np.zeros((1, dim)))

    def __call__(self, x: Tensor) -> Tensor:
        return T.dyt(x, self.alpha, self.gamma, self.beta)


class FingerprintMlp:
    """Two-layer embedding of the concatenated fingerprint vector.

    The input rows [B, in_dim] come as their values ``block`` [B, len(cols)]
    on the sorted columns ``cols``, zero elsewhere; ``lin1`` multiplies only
    those rows of its weight (``T.sparse_linear``). The hidden layer drops
    out at ``dropout_rate`` when a call passes an ``rng``.
    """

    def __init__(self, store, rng, prefix, in_dim, embed_dim, dropout_rate):
        self.lin1 = Linear(store, rng, f"{prefix}.lin1", in_dim, embed_dim)
        self.lin2 = Linear(store, rng, f"{prefix}.lin2", embed_dim, embed_dim)
        self.dropout_rate = dropout_rate

    def __call__(self, block: np.ndarray, cols: np.ndarray, rng=None) -> Tensor:
        h = T.sparse_linear(block, cols, self.lin1.w, self.lin1.b)
        return self.lin2(T.dropout(T.relu(h), self.dropout_rate, rng))


class AttentiveGru:
    """Attend-then-GRU update of center rows from their member rows
    (AttentiveFP, Xiong et al. 2020).

    Member row e belongs to center ``ids[e]``. Its score is LeakyReLU of a
    shared vector over [center || member]; scores are softmax-normalized per
    center, dropped out at ``dropout_rate`` when a call passes an ``rng``,
    and weight the transformed members. A GRU folds the ELU of that context
    into the center state, so a center without members gets the GRU of a
    zero context. Returns the new centers and the [members, 1] attention
    before dropout.

    The GAT layers pass atoms as centers and directed edges (keyed by
    ``src``) as members; the supernode readout passes each molecule's
    anchor (the sum of its node states) as center and its atoms as members.
    """

    def __init__(self, store, rng, prefix, dim, dropout_rate=0.0):
        self.attn_w = _register_matrix(store, rng, f"{prefix}.attn_w", 2 * dim, 1)
        self.agg_w = _register_matrix(store, rng, f"{prefix}.agg_w", dim, dim)
        self.gru = GruCell(store, rng, f"{prefix}.gru", dim, dim)
        self.dropout_rate = dropout_rate

    def __call__(self, centers: Tensor, members: Tensor, ids: np.ndarray,
                 rng=None) -> tuple[Tensor, Tensor]:
        n = centers.shape[0]
        scores = T.leaky_relu(
            T.matmul(T.concat([T.gather_rows(centers, ids), members], axis=1), self.attn_w),
            LEAKY_SLOPE,
        )
        attn = T.segment_softmax(scores, ids, n)
        weights = T.dropout(attn, self.dropout_rate, rng)
        context = T.elu(T.segment_sum(T.mul(weights, T.matmul(members, self.agg_w)), ids, n))
        return self.gru(context, centers), attn


class TransformerLayer:
    """Self-attention with an adjacency prior, post-block squashing.

    Per head: (w_attn * softmax(Q K^T / sqrt(d_k)) + w_adj * A) V, where A is
    the row-normalized adjacency; all heads run as one fused op and
    concatenate through an output projection, then residual + DyT,
    position-wise FFN, residual + DyT. Attention runs on the joined atom rows
    of a batch under its block-diagonal mask, so each molecule attends only
    over its own atoms. When a call passes an ``rng``, the attention output
    drops out at ``dropout_attn`` and the FFN's hidden layer at
    ``dropout_ffn``.
    """

    def __init__(self, store, rng, prefix, dim, heads, dropout_attn, dropout_ffn):
        self.heads = heads
        self.dropout_attn = dropout_attn
        self.dropout_ffn = dropout_ffn
        self.w_q = _register_matrix(store, rng, f"{prefix}.w_q", dim, dim)
        self.w_k = _register_matrix(store, rng, f"{prefix}.w_k", dim, dim)
        self.w_v = _register_matrix(store, rng, f"{prefix}.w_v", dim, dim)
        self.out = Linear(store, rng, f"{prefix}.out", dim, dim)
        self.lambda_attn = store.register(f"{prefix}.lambda_attn", np.full((1, 1), 0.5))
        self.lambda_adj = store.register(f"{prefix}.lambda_adj", np.full((1, 1), 0.5))
        self.norm1 = DynamicTanh(store, rng, f"{prefix}.norm1", dim)
        self.norm2 = DynamicTanh(store, rng, f"{prefix}.norm2", dim)
        self.ffn1 = Linear(store, rng, f"{prefix}.ffn1", dim, FFN_MULT * dim)
        self.ffn2 = Linear(store, rng, f"{prefix}.ffn2", FFN_MULT * dim, dim)

    def attend(self, h: Tensor, batch) -> tuple[Tensor, np.ndarray]:
        """Mixed attention of all heads, [N, dim], before the output
        projection, and the [heads, N, N] softmax weights (``T.attention``).

        ``h`` holds the joined atom rows of ``batch`` (a ``MoleculeBatch``),
        whose block-diagonal adjacency is the prior.
        """
        q, k, v = (T.matmul(h, w) for w in (self.w_q, self.w_k, self.w_v))
        return T.attention(q, k, v, self.heads, batch.atom_mask, self.lambda_attn,
                           self.lambda_adj, batch.adjacency)

    def __call__(self, h: Tensor, batch, rng=None) -> tuple[Tensor, np.ndarray]:
        """The layer's output [N, dim] and its softmax weights, as ``attend``'s."""
        mixed, p = self.attend(h, batch)
        x = self.norm1(T.add(h, T.dropout(self.out(mixed), self.dropout_attn, rng)))
        f = self.ffn2(T.dropout(T.gelu(self.ffn1(x)), self.dropout_ffn, rng))
        return self.norm2(T.add(x, f)), p


class MixedInformation:
    """Gated blend of the local (neighbor-attention) and global streams.

    The local stream is the mean over all attention-layer outputs projected
    to the shared width then GELU; the global stream is the transformer
    output under GELU. A sigmoid-parametrized scalar gate alpha in [0,1]
    weighs them: alpha * local + (1 - alpha) * global; ablations that drop a
    stream use alpha 1 or 0 without a gate. A call returns the mixed states
    and alpha as a float.
    """

    def __init__(self, store, rng, prefix, gat_dim, dim, has_gat, has_gate):
        self.local_proj = Linear(store, rng, f"{prefix}.local", gat_dim, dim) if has_gat else None
        self.gate = store.register(f"{prefix}.gate", np.zeros((1, 1))) if has_gate else None

    def local_stream(self, gat_outputs: list[Tensor]) -> Tensor:
        mean_h = gat_outputs[0]
        if len(gat_outputs) > 1:
            for extra in gat_outputs[1:]:
                mean_h = T.add(mean_h, extra)
            mean_h = T.mul(mean_h, Tensor(1.0 / len(gat_outputs)))
        return T.gelu(self.local_proj(mean_h))

    def __call__(self, gat_outputs, transformer_out) -> tuple[Tensor, float]:
        f_local = self.local_stream(gat_outputs) if gat_outputs is not None else None
        f_global = T.gelu(transformer_out) if transformer_out is not None else None
        if f_global is None:
            alpha_value = 1.0
            mixed = f_local
        elif f_local is None:
            alpha_value = 0.0
            mixed = f_global
        else:
            alpha = T.sigmoid(self.gate)
            alpha_value = float(alpha.data[0, 0])
            mixed = T.add(T.mul(alpha, f_local), T.mul(T.sub(Tensor(1.0), alpha), f_global))
        return mixed, alpha_value


class CrossAttention:
    """Fingerprint embedding queries the graph tokens (virtual node + atoms)."""

    def __init__(self, store, rng, prefix, fp_dim, dim, heads):
        self.heads = heads
        self.w_q = _register_matrix(store, rng, f"{prefix}.w_q", fp_dim, dim)
        self.w_k = _register_matrix(store, rng, f"{prefix}.w_k", dim, dim)
        self.w_v = _register_matrix(store, rng, f"{prefix}.w_v", dim, dim)
        self.out = Linear(store, rng, f"{prefix}.out", dim, dim)

    def __call__(self, fp_embed, virtual, node_states, token_mask) -> tuple[Tensor, np.ndarray]:
        """Each of the B fingerprint rows [B, fp_dim] attends over the token rows
        [virtual [B, dim]; node_states [N, dim]] under ``token_mask`` [B, B+N],
        which keeps each row on its own molecule's tokens; returns [B, dim]
        and the [heads, B, B+N] softmax weights."""
        tokens = T.concat([virtual, node_states], axis=0)
        q = T.matmul(fp_embed, self.w_q)
        k, v = T.matmul(tokens, self.w_k), T.matmul(tokens, self.w_v)
        out, p = T.attention(q, k, v, self.heads, token_mask)
        return self.out(out), p
