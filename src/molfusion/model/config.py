"""Model hyperparameter container and the closed-form parameter count."""

from __future__ import annotations

from dataclasses import dataclass

from ..featurize.features import ATOM_FEATURE_DIM, BOND_FEATURE_DIM

TASKS = ("regression", "classification")
ABLATIONS = ("none", "gat_only", "transformer_only", "no_fingerprint")
NORMS = ("dyt", "layernorm")

FFN_MULT = 4  # transformer feed-forward width multiplier
LEAKY_SLOPE = 0.2  # attention-score activations


class ConfigError(ValueError):
    pass


@dataclass
class ModelConfig:
    """Architecture knobs.

    ``hidden_dim`` must equal ``heads * head_dim`` (the shared width of the
    attention stream and the mixed node states). ``fingerprint_dim`` is the
    input fingerprint length produced by the featurizer.
    """

    transformer_layers: int = 2
    heads: int = 4
    head_dim: int = 16
    gat_out_dim: int = 64
    gat_layers: int = 2
    hidden_dim: int = 64
    fingerprint_embed_dim: int = 64
    fingerprint_dim: int = 2523
    dropout_gat: float = 0.1
    dropout_ffn: float = 0.1
    dropout_attn: float = 0.1
    task: str = "regression"
    n_tasks: int = 1
    ablation: str = "none"
    norm: str = "dyt"
    adjacency_bias: bool = True

    def __post_init__(self):
        self.validate()

    def validate(self) -> None:
        problems = []
        for name in (
            "transformer_layers",
            "heads",
            "head_dim",
            "gat_out_dim",
            "gat_layers",
            "hidden_dim",
            "fingerprint_embed_dim",
            "n_tasks",
        ):
            if int(getattr(self, name)) < 1:
                problems.append(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.fingerprint_dim < 1 and self.ablation != "no_fingerprint":
            problems.append("fingerprint_dim must be >= 1 unless fingerprints are ablated")
        for name in ("dropout_gat", "dropout_ffn", "dropout_attn"):
            rate = getattr(self, name)
            if not 0.0 <= rate < 1.0:
                problems.append(f"{name} must be in [0, 1), got {rate}")
        if self.hidden_dim != self.heads * self.head_dim:
            problems.append(
                f"hidden_dim ({self.hidden_dim}) must equal heads*head_dim "
                f"({self.heads}*{self.head_dim}={self.heads * self.head_dim})"
            )
        if self.task not in TASKS:
            problems.append(f"task must be one of {TASKS}, got {self.task!r}")
        if self.ablation not in ABLATIONS:
            problems.append(f"ablation must be one of {ABLATIONS}, got {self.ablation!r}")
        if self.norm not in NORMS:
            problems.append(f"norm must be one of {NORMS}, got {self.norm!r}")
        if problems:
            raise ConfigError("; ".join(problems))

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

        def norm_params():
            # DyT: scalar alpha + per-channel gamma/beta; LN: gamma/beta only.
            return (1 if self.norm == "dyt" else 0) + 2 * d

        total = linear(ATOM_FEATURE_DIM, g)  # node init
        if self.has_gat:
            total += linear(ATOM_FEATURE_DIM + BOND_FEATURE_DIM, g)  # edge init
            total += self.gat_layers * (matrix(2 * g, 1) + matrix(g, g) + gru(g, g))
            total += linear(g, d)  # local-stream projection to shared width
        if self.has_transformer:
            total += linear(g, d)  # transformer input adapter
            per_layer = 3 * matrix(d, d) + linear(d, d)  # q/k/v + output proj
            if self.adjacency_bias:
                per_layer += 2  # attention/adjacency balance scalars
            per_layer += 2 * norm_params()
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

    @classmethod
    def from_dict(cls, d: dict) -> "ModelConfig":
        return cls(**d)
