"""Model hyperparameter container."""

from __future__ import annotations

from dataclasses import dataclass

from .. import Config, choice, integer, real, setting

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

    ``hidden_dim`` is the shared width of the attention stream and the mixed
    node states; it must be a multiple of ``heads``, and each head reads
    ``hidden_dim // heads`` of its columns. ``fingerprint_dim`` is the input
    fingerprint length produced by the featurizer.
    """

    transformer_layers: int = setting(2, DEPTH)
    heads: int = setting(4, WIDTH)
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
        if not bad & {"hidden_dim", "heads"} and self.hidden_dim % self.heads:
            problems.append(f"hidden_dim ({self.hidden_dim}) must be a multiple of "
                            f"heads ({self.heads})")
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
