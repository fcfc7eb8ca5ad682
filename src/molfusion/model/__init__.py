"""Model architecture."""

from .batch import MAX_CHUNK_ATOMS, EmptyMoleculeError, MoleculeBatch, chunks
from .config import ABLATIONS, NORMS, TASKS, ConfigError, ModelConfig
from .layers import (
    CrossAttention,
    DynamicTanh,
    FingerprintMlp,
    GatLayer,
    GruCell,
    LayerNorm,
    Linear,
    MixedInformation,
    SupernodeReadout,
    TransformerLayer,
    segment_softmax,
)
from .network import MlfgnnModel

__all__ = [
    "ABLATIONS",
    "MAX_CHUNK_ATOMS",
    "ConfigError",
    "CrossAttention",
    "DynamicTanh",
    "EmptyMoleculeError",
    "FingerprintMlp",
    "GatLayer",
    "GruCell",
    "LayerNorm",
    "Linear",
    "MixedInformation",
    "MlfgnnModel",
    "ModelConfig",
    "MoleculeBatch",
    "NORMS",
    "SupernodeReadout",
    "TASKS",
    "TransformerLayer",
    "chunks",
    "segment_softmax",
]
