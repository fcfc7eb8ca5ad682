"""Feature tensors and molecular fingerprints."""

from .erg import ERG_LABELS, erg_fingerprint, erg_length
from .features import (
    ATOM_FEATURE_DIM,
    BOND_FEATURE_DIM,
    FINGERPRINT_COMPONENTS,
    FeaturizeConfig,
    FeaturizedMolecule,
    compute_fingerprint,
    featurize,
    featurize_atoms,
    featurize_bonds,
    normalized_adjacency,
)
from .keys import KeyTable, default_key_table, substructure_key_fingerprint
from .morgan import environment_codes, morgan_fingerprint

__all__ = [
    "ATOM_FEATURE_DIM",
    "BOND_FEATURE_DIM",
    "ERG_LABELS",
    "FINGERPRINT_COMPONENTS",
    "FeaturizeConfig",
    "FeaturizedMolecule",
    "KeyTable",
    "compute_fingerprint",
    "default_key_table",
    "environment_codes",
    "erg_fingerprint",
    "erg_length",
    "featurize",
    "featurize_atoms",
    "featurize_bonds",
    "morgan_fingerprint",
    "normalized_adjacency",
    "substructure_key_fingerprint",
]
