"""Model architecture."""

from .. import ConfigError
from .batch import MAX_CHUNK_ATOMS, EmptyMoleculeError, MoleculeBatch, chunks
from .config import ABLATIONS, TASKS, ModelConfig
from .layers import (
    AttentiveGru,
    CrossAttention,
    DynamicTanh,
    FingerprintMlp,
    GruCell,
    Linear,
    MixedInformation,
    TransformerLayer,
)
from .network import MlfgnnModel

__all__ = [
    "ABLATIONS",
    "MAX_CHUNK_ATOMS",
    "AttentiveGru",
    "ConfigError",
    "CrossAttention",
    "DynamicTanh",
    "EmptyMoleculeError",
    "FingerprintMlp",
    "GruCell",
    "Linear",
    "MixedInformation",
    "MlfgnnModel",
    "ModelConfig",
    "MoleculeBatch",
    "TASKS",
    "TransformerLayer",
    "chunks",
]
