"""Atom/bond feature tensors, normalized adjacency and fingerprint assembly.

Atom rows are 57-wide, bond vectors 13-wide. Layout (offsets inclusive):

    atom: symbol one-hot [0..15] (12 named labels + "other" at 12; 13..15
          reserved zero) | degree one-hot [16..21] (0..5, overflow clipped) |
          formal charge [22] | always 0 [23] (radical electrons are not
          perceived) | hybridization one-hot [24..29] | aromatic [30] |
          hydrogen count one-hot [31..35] (0..4+) | chirality one-hot
          [36..39] | ring flag [40] | smallest-ring-size one-hot [41..44]
          (sizes 3-6; >=7 leaves all zero) | atomic mass/100 [45] | implicit
          valence one-hot [46..52] (0..6+) | H-acceptor [53] | H-donor [54] |
          acidic [55] | basic [56]

    bond: type one-hot [0..4] ("exists" always set, then single/double/
          triple/aromatic) | conjugated [5] | in ring [6] | stereo one-hot
          [7..12] (codes 0-5)

The fingerprint is the morgan, keys and erg components concatenated, 2523
columns by default. A molecule keeps it in sparse form only: its sorted
nonzero columns, their values and the width. Hashed circular fingerprints
are sparse by construction; a molecule of the 300-molecule test corpus has
about 44 nonzero columns (1.8%). So 3000 featurized corpus molecules hold
about 16 MB of arrays, where dense rows would hold 71 MB, and a featurized
molecule pickles to about 6 KB (25 KB with a dense row). ``MoleculeBatch``
joins the columns of a chunk, and the model's first fingerprint layer
multiplies only those rows of its weight; ``featurize`` output densifies
each row as it writes it.

``featurize`` takes the graphs of one row-loop chunk. Atom rows and edges
are built per molecule; the fingerprints are built per chunk, on the
chunk's joined graphs: one hop-distance matrix, block-diagonal with -1
across molecules, one ``[B, width]`` row per component, and one dense
``[B, width]`` block whose nonzeros give each molecule its slice. The
matrix costs the square of the chunk's atoms, so callers pass chunks of at
most ``MAX_CHUNK_ATOMS`` atoms, or one larger molecule alone.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .. import Config, distinct_choices, integer, setting
from ..chem.graph import (
    BondOrder,
    Chirality,
    Hybridization,
    MolecularGraph,
    hop_distances,
    takes_chunks,
)
from .erg import erg_fingerprint, erg_length
from .keys import default_key_table, substructure_key_fingerprint
from .morgan import morgan_fingerprint

log = logging.getLogger(__name__)

ATOM_FEATURE_DIM = 57
BOND_FEATURE_DIM = 13

_SYMBOLS = ("C", "N", "O", "F", "Si", "Cl", "As", "Se", "Br", "Te", "I", "At")
_SYMBOL_OTHER_SLOT = len(_SYMBOLS)  # 12; slots 13..15 reserved
_HYBRIDIZATIONS = (
    Hybridization.SP,
    Hybridization.SP2,
    Hybridization.SP3,
    Hybridization.SP3D,
    Hybridization.SP3D2,
    Hybridization.OTHER,
)
_CHIRALITIES = (
    Chirality.NONE,
    Chirality.TETRAHEDRAL_CW,
    Chirality.TETRAHEDRAL_CCW,
    Chirality.OTHER,
)
_BOND_ORDERS = (BondOrder.SINGLE, BondOrder.DOUBLE, BondOrder.TRIPLE, BondOrder.AROMATIC)

FINGERPRINT_COMPONENTS = ("morgan", "keys", "erg")


@dataclass
class FeaturizeConfig(Config):
    morgan_radius: int = setting(2, integer(0, 16))
    morgan_bits: int = setting(2048, integer(64, 2**16))
    erg_max_path: int = setting(15, integer(1, 64))
    components: tuple[str, ...] = setting(
        FINGERPRINT_COMPONENTS, distinct_choices(FINGERPRINT_COMPONENTS)
    )

    @property
    def fingerprint_length(self) -> int:
        total = 0
        if "morgan" in self.components:
            total += self.morgan_bits
        if "keys" in self.components:
            total += len(default_key_table())
        if "erg" in self.components:
            total += erg_length(self.erg_max_path)
        return total


@dataclass
class FeaturizedMolecule:
    """One molecule's model inputs. Directed edge k means atom ``dst[k]`` is a
    neighbor of ``src[k]``; each bond appears both ways, sorted by (src, dst)."""

    atom_features: np.ndarray  # [n_atoms, 57]
    src: np.ndarray  # [E] int64
    dst: np.ndarray  # [E] int64
    bond_features: np.ndarray  # [E, 13], row k for edge (src[k], dst[k])
    fingerprint_cols: np.ndarray  # [nnz] int64, the sorted nonzero columns
    fingerprint_values: np.ndarray  # [nnz] float64, their values
    fingerprint_width: int  # every other column of the width is zero

    @property
    def n_atoms(self) -> int:
        return len(self.atom_features)


def featurize_atoms(graph: MolecularGraph) -> np.ndarray:
    out = np.zeros((graph.n_atoms, ATOM_FEATURE_DIM), dtype=np.float64)
    for i, a in enumerate(graph.atoms):
        row = out[i]
        try:
            row[_SYMBOLS.index(a.element)] = 1.0
        except ValueError:
            row[_SYMBOL_OTHER_SLOT] = 1.0
        degree = a.degree
        if degree > 5:
            log.warning("atom %d degree %d overflows one-hot, clipping to 5", i, degree)
            degree = 5
        row[16 + degree] = 1.0
        row[22] = float(a.formal_charge)
        row[24 + _HYBRIDIZATIONS.index(a.hybridization)] = 1.0
        row[30] = 1.0 if a.is_aromatic else 0.0
        row[31 + min(a.total_hs, 4)] = 1.0
        row[36 + _CHIRALITIES.index(a.chirality)] = 1.0
        row[40] = 1.0 if a.in_ring else 0.0
        if 3 <= a.min_ring_size <= 6:
            row[41 + a.min_ring_size - 3] = 1.0
        row[45] = a.mass / 100.0
        row[46 + min(a.implicit_hs, 6)] = 1.0
        row[53] = 1.0 if a.is_h_acceptor else 0.0
        row[54] = 1.0 if a.is_h_donor else 0.0
        row[55] = 1.0 if a.is_acidic else 0.0
        row[56] = 1.0 if a.is_basic else 0.0
    return out


def featurize_bonds(graph: MolecularGraph) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Directed edges ``(src, dst, bond_features)``: each bond both ways, sorted
    by (src, dst), the order that fixes the GAT's summation order."""
    feats = np.zeros((graph.n_bonds, BOND_FEATURE_DIM), dtype=np.float64)
    for row, b in zip(feats, graph.bonds):
        row[0] = 1.0  # "exists"
        row[1 + _BOND_ORDERS.index(b.order)] = 1.0
        row[5] = 1.0 if b.is_conjugated else 0.0
        row[6] = 1.0 if b.in_ring else 0.0
        row[7 + b.stereo] = 1.0
    u = np.array([b.u for b in graph.bonds], dtype=np.int64)
    v = np.array([b.v for b in graph.bonds], dtype=np.int64)
    src, dst = np.concatenate([u, v]), np.concatenate([v, u])
    order = np.lexsort((dst, src))
    return src[order], dst[order], np.concatenate([feats, feats])[order]


def normalized_adjacency(n_atoms: int, src: np.ndarray, dst: np.ndarray) -> np.ndarray:
    """Row-normalized adjacency with self-loops, D^-1 (Adj + I), of the graph
    whose directed edges are ``(src[k], dst[k])``, each bond listed both ways."""
    adj = np.eye(n_atoms)
    adj[src, dst] = 1.0
    return adj / adj.sum(axis=1, keepdims=True)


def compute_fingerprint(graphs: Sequence[MolecularGraph], config: FeaturizeConfig) -> np.ndarray:
    """The concatenated fingerprints of a chunk, dense, ``[len(graphs), width]``.
    Morgan and ErG share one hop-distance search over the chunk, as deep as
    the deeper of them reads."""
    reads = [config.morgan_radius] * ("morgan" in config.components)
    reads += [config.erg_max_path] * ("erg" in config.components)
    distances = hop_distances(graphs, max(reads)) if reads else None
    parts = [np.zeros((len(graphs), 0))]  # with no component, [B, 0]
    if "morgan" in config.components:
        parts.append(
            morgan_fingerprint(graphs, distances, config.morgan_radius, config.morgan_bits)
        )
    if "keys" in config.components:
        parts.append(substructure_key_fingerprint(graphs))
    if "erg" in config.components:
        parts.append(erg_fingerprint(graphs, distances, config.erg_max_path))
    return np.concatenate(parts, axis=1)


@takes_chunks
def featurize(
    graphs: Sequence[MolecularGraph], config: FeaturizeConfig
) -> list[FeaturizedMolecule]:
    """One ``FeaturizedMolecule`` per graph of a chunk, each array what the
    graph featurized alone gets, byte for byte. The fingerprint's numpy work
    runs once per chunk, at a cost quadratic in the chunk's atoms, so callers
    pass ``model.batch.chunks`` packings.

    A lone ``MolecularGraph`` is a chunk of one and gives one molecule, not a
    list. Callers that hold one molecule use that form: ``explain``, and the
    benchmark's per-molecule reference (``benchmarks/run.py``), which calls
    ``featurize(parse_smiles(s), config)`` and so pins it."""
    dense = compute_fingerprint(graphs, config)
    width = dense.shape[1]
    flat = np.flatnonzero(dense != 0)  # a bool array's nonzeros are found faster
    cols, values = flat % width, dense.ravel()[flat]
    ends = np.searchsorted(flat, np.arange(len(graphs) + 1) * width).tolist()
    mols = []
    for graph, start, end in zip(graphs, ends, ends[1:]):
        src, dst, bond_features = featurize_bonds(graph)
        mols.append(FeaturizedMolecule(
            atom_features=featurize_atoms(graph),
            src=src,
            dst=dst,
            bond_features=bond_features,
            fingerprint_cols=cols[start:end],
            fingerprint_values=values[start:end],
            fingerprint_width=width,
        ))
    return mols
