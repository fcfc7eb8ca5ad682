"""Model hyperparameter container and the closed-form parameter count."""

from __future__ import annotations

from dataclasses import dataclass

from .. import Config, choice, integer, real, setting
from ..featurize.features import ATOM_FEATURE_DIM, BOND_FEATURE_DIM

TASKS = ("regression", "classification")
ABLATIONS = ("none", "gat_only", "transformer_only", "no_fingerprint")

FFN_MULT = 4  # transformer feed-forward width multiplier
LEAKY_SLOPE = 0.2  # attention-score activations
RATE = real("in [0, 1)", lambda rate: 0 <= rate < 1)  # a dropout rate
WIDTH = integer(1, 1024)  # a layer's width or head count
DEPTH = integer(1, 32)  # a layer count


@dataclass
class ModelConfig(Config):
    """Architecture knobs.

    ``hidden_dim`` must equal ``heads * head_dim`` (the shared width of the
    attention stream and the mixed node states). ``fingerprint_dim`` is the
    input fingerprint length produced by the featurizer.
    """

    transformer_layers: int = setting(2, DEPTH)
    heads: int = setting(4, WIDTH)
    head_dim: int = setting(16, WIDTH)
    gat_out_dim: int = setting(64, WIDTH)
    gat_layers: int = setting(2, DEPTH)
    hidden_dim: int = setting(64, WIDTH)
    fingerprint_embed_dim: int = setting(64, WIDTH)
    # 2**17 is above the widest fingerprint the featurize bounds allow (67040)
    fingerprint_dim: int = setting(2523, integer(0, 2**17))
    dropout_gat: float = setting(0.1, RATE)
    dropout_ffn: float = setting(0.1, RATE)
    dropout_attn: float = setting(0.1, RATE)
    task: str = setting("regression", choice(TASKS))
    n_tasks: int = setting(1, WIDTH)
    ablation: str = setting("none", choice(ABLATIONS))

    def cross_field_problems(self, bad: set[str]) -> list[str]:
        """The rules across fields, each checked once the fields it reads fit."""
        problems = []
        if (not bad & {"hidden_dim", "heads", "head_dim"}
                and self.hidden_dim != self.heads * self.head_dim):
            problems.append(
                f"hidden_dim ({self.hidden_dim}) must equal heads*head_dim "
                f"({self.heads}*{self.head_dim}={self.heads * self.head_dim})"
            )
        if (not bad & {"fingerprint_dim", "ablation"}
                and self.fingerprint_dim < 1 and self.has_fingerprint):
            problems.append("fingerprint_dim must be >= 1 (components must not be empty) "
                            "unless fingerprints are ablated")
        return problems

    @property
    def has_transformer(self) -> bool:
        return self.ablation != "gat_only"

    @property
    def has_gat(self) -> bool:
        return self.ablation != "transformer_only"

    @property
    def has_fingerprint(self) -> bool:
        return self.ablation != "no_fingerprint"

    @property
    def has_gate(self) -> bool:
        return self.has_transformer and self.has_gat

    def parameter_count(self) -> int:
        """Total learnable values as a pure function of the config."""
        d, g = self.hidden_dim, self.gat_out_dim
        fpe, u = self.fingerprint_embed_dim, self.fingerprint_dim

        def linear(i, o):
            return i * o + o

        def matrix(i, o):
            return i * o

        def gru(i, h):
            return 3 * ((i + h) * h + h)

        total = linear(ATOM_FEATURE_DIM, g)  # node init
        if self.has_gat:
            total += linear(ATOM_FEATURE_DIM + BOND_FEATURE_DIM, g)  # edge init
            total += self.gat_layers * (matrix(2 * g, 1) + matrix(g, g) + gru(g, g))
            total += linear(g, d)  # local-stream projection to shared width
        if self.has_transformer:
            total += linear(g, d)  # transformer input adapter
            per_layer = 3 * matrix(d, d) + linear(d, d)  # q/k/v + output proj
            per_layer += 2  # attention/adjacency balance scalars
            per_layer += 2 * (1 + 2 * d)  # two DyT: scalar alpha, per-channel gamma/beta
            per_layer += linear(d, FFN_MULT * d) + linear(FFN_MULT * d, d)
            total += self.transformer_layers * per_layer
        if self.has_gate:
            total += 1  # mixture gate pre-activation
        total += matrix(2 * d, 1) + matrix(d, d) + gru(d, d)  # supernode readout
        if self.has_fingerprint:
            total += linear(u, fpe) + linear(fpe, fpe)  # fingerprint MLP
            total += matrix(fpe, d) + 2 * matrix(d, d) + linear(d, d)  # cross-attention
            mlp_in = 2 * d + fpe
        else:
            mlp_in = d
        total += linear(mlp_in, d) + linear(d, self.n_tasks)  # output MLP
        return total
