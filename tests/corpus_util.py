"""Deterministic molecule corpus and synthetic labels for tests.

The corpus mixes curated real-world SMILES with programmatic variants
(substituents grafted onto ring templates). Regression labels are a fixed
graph-derived function plus small hash-seeded noise, so models can genuinely
learn them from structure; classification labels threshold the same value.
"""

from __future__ import annotations

import csv
import dataclasses
import functools
import hashlib
import importlib.util
import math
import sys
from pathlib import Path
from typing import Sequence

import numpy as np

from molfusion.chem import MolecularGraph, parse_smiles
from molfusion.chem.graph import hop_distances

BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"

CURATED = [
    "C", "CC", "CCC", "CCCC", "CCCCC", "CCCCCC", "CC(C)C", "CC(C)(C)C",
    "CO", "CCO", "CCCO", "CC(C)O", "OCCO", "OCC(O)CO", "CCOC", "COC",
    "CC=O", "CCC=O", "CC(C)=O", "CC(=O)C", "C=C", "CC=C", "C#C", "CC#C",
    "C#N", "CC#N", "CCC#N", "CN", "CCN", "CCCN", "CC(C)N", "CNC", "CN(C)C",
    "NCCO", "NCCN", "OCCN", "CC(=O)O", "CCC(=O)O", "CC(=O)OC", "CC(=O)N",
    "CC(=O)NC", "NC(N)=O", "NCC(=O)O", "CC(N)C(=O)O", "CS", "CCS", "CSC",
    "CS(=O)(=O)O", "CS(=O)C", "CP(=O)(O)O", "OP(=O)(O)O", "FC(F)(F)C",
    "CCl", "CCCl", "CBr", "CCBr", "CI", "ClCCl", "ClC(Cl)Cl",
    "C1CC1", "C1CCC1", "C1CCCC1", "C1CCCCC1", "C1CCCCCC1", "C1CC1C",
    "CC1CCCCC1", "OC1CCCCC1", "NC1CCCCC1", "C1CCOC1", "C1CCOCC1",
    "C1COCCO1", "C1CCNC1", "C1CCNCC1", "C1CNCCN1", "O1CCNCC1", "C1CCSC1",
    "c1ccccc1", "Cc1ccccc1", "CCc1ccccc1", "CC(C)c1ccccc1", "Cc1ccccc1C",
    "Cc1ccc(C)cc1", "Oc1ccccc1", "Nc1ccccc1", "Clc1ccccc1", "Brc1ccccc1",
    "Fc1ccccc1", "Ic1ccccc1", "COc1ccccc1", "CCOc1ccccc1", "CNc1ccccc1",
    "Cc1ccc(O)cc1", "Oc1ccc(Cl)cc1", "Nc1ccc(C)cc1", "OCc1ccccc1",
    "NCc1ccccc1", "CC(=O)c1ccccc1", "CC(=O)Nc1ccccc1", "CC(=O)Oc1ccccc1",
    "OC(=O)c1ccccc1", "COC(=O)c1ccccc1", "NC(=O)c1ccccc1", "N#Cc1ccccc1",
    "O=[N+]([O-])c1ccccc1", "CS(=O)(=O)c1ccccc1", "OS(=O)(=O)c1ccccc1",
    "c1ccncc1", "Cc1ccncc1", "c1ccoc1", "Cc1ccco1", "c1ccsc1", "Cc1cccs1",
    "c1cc[nH]c1", "Cn1cccc1", "c1cnc[nH]1", "c1cncnc1", "c1ccnnc1",
    "c1ccc2ccccc2c1", "Cc1cccc2ccccc12", "c1ccc2[nH]ccc2c1",
    "c1ccc2ncccc2c1", "c1ccc2occc2c1", "c1ccc2sccc2c1", "c1ccc2OCOc2c1",
    "c1ccc(cc1)c1ccccc1", "C(c1ccccc1)c1ccccc1", "O(c1ccccc1)c1ccccc1",
    "CC(=O)Oc1ccccc1C(=O)O", "CC(C)Cc1ccc(cc1)C(C)C(=O)O",
    "Cn1c(=O)c2c(ncn2C)n(C)c1=O", "CN1C(=O)N(C)c2ncn(C)c2C1=O",
    "Oc1ccccc1C(=O)O", "Nc1ccccc1C(=O)O", "OCC1OC(O)C(O)C(O)C1O",
    "C/C=C/C", "C/C=C\\C", "F/C=C/F", "CC(=O)[O-].[Na+]", "[NH4+].[Cl-]",
    "CCN(CC)CC", "CCOC(=O)CC", "CCOC(=O)c1ccccc1", "O=C1CCCCC1",
    "O=C1CCCN1", "O=C1CCCO1", "CC1=CC(=O)CC(C)(C)C1", "C1=CC=CC=C1",
    "N1CCOCC1", "ClCC(=O)O", "FC(F)F", "N(=O)O", "OO", "NN", "CNN",
]

_RING_TEMPLATES = [
    "c1ccccc1", "c1ccncc1", "c1ccoc1", "c1ccsc1", "C1CCCCC1", "C1CCNCC1",
    "C1CCOC1", "c1ccc2ccccc2c1", "c1cc[nH]c1", "C1CCC1",
]
_SUBSTITUENTS = [
    "C", "CC", "CCC", "CC(C)", "O", "OC", "OCC", "N", "NC", "CN", "Cl",
    "Br", "F", "C(=O)O", "C(=O)N", "C(=O)OC", "C#N", "CO", "CCO", "CCN",
    "S", "SC", "C(F)(F)F", "CC(=O)O", "OCC(=O)O", "NCC", "C(C)=O",
]
_CHAINS = ["", "C", "CC", "CCC", "CCO", "CCN", "OCC", "C(C)C"]


def build_corpus(n: int) -> list[str]:
    """First ``n`` unique parseable SMILES: curated list, then variants."""
    seen: list[str] = []
    have: set[str] = set()

    def add(smiles: str) -> None:
        if len(seen) >= n or smiles in have:
            return
        try:
            parse_smiles(smiles)
        except Exception:
            return
        have.add(smiles)
        seen.append(smiles)

    for s in CURATED:
        add(s)
    for template in _RING_TEMPLATES:
        for sub in _SUBSTITUENTS:
            add(f"{sub}{template}")
            if len(seen) >= n:
                return seen
    for chain in _CHAINS:
        for template in _RING_TEMPLATES:
            for sub in _SUBSTITUENTS:
                add(f"{sub}{chain}{template}")
                if len(seen) >= n:
                    return seen
    if len(seen) < n:
        raise RuntimeError(f"corpus generator exhausted at {len(seen)} < {n}")
    return seen


def synthetic_property(smiles: str) -> float:
    """Solubility-flavored deterministic label, learnable from structure."""
    g = parse_smiles(smiles)
    carbons = sum(1 for a in g.atoms if a.element == "C")
    polar = sum(1 for a in g.atoms if a.element in ("N", "O"))
    halogens = sum(1 for a in g.atoms if a.element in ("F", "Cl", "Br", "I"))
    aromatic_rings = sum(
        1 for r in g.rings if all(g.atoms[i].is_aromatic for i in r)
    )
    donors = sum(1 for a in g.atoms if a.is_h_donor)
    value = (
        1.2
        - 0.42 * carbons
        + 0.55 * polar
        - 0.75 * aromatic_rings
        - 0.28 * halogens
        + 0.3 * donors
        - 0.05 * g.n_atoms
        + (0.4 if donors and aromatic_rings else 0.0)
    )
    digest = hashlib.sha256(smiles.encode()).digest()
    noise = (int.from_bytes(digest[:4], "little") / 2**32 - 0.5) * 0.3
    return round(value + noise, 4)


def classification_label(smiles: str, threshold: float = -1.5) -> int:
    return int(synthetic_property(smiles) > threshold)


def _median_threshold(smiles_list: list[str]) -> float:
    values = sorted(synthetic_property(s) for s in smiles_list)
    return values[len(values) // 2]


def write_regression_csv(path: str | Path, smiles_list: list[str]) -> Path:
    path = Path(path)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["smiles", "solubility"])
        for s in smiles_list:
            writer.writerow([s, synthetic_property(s)])
    return path


def write_classification_csv(path: str | Path, smiles_list: list[str]) -> Path:
    path = Path(path)
    threshold = _median_threshold(smiles_list)  # balanced classes by construction
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["smiles", "active"])
        for s in smiles_list:
            writer.writerow([s, classification_label(s, threshold)])
    return path


def scaffold_family_corpus() -> list[str]:
    """Molecules grouped into clear scaffold families (for split tests)."""
    out = []
    for template in _RING_TEMPLATES:
        for sub in _SUBSTITUENTS[:10]:
            s = f"{sub}{template}"
            try:
                parse_smiles(s)
            except Exception:
                continue
            out.append(s)
    return out


@functools.lru_cache(maxsize=None)
def frozen_corpus_graphs() -> tuple:
    """(SMILES, parsed graph) for every line of ``benchmarks/corpus.smi``.

    Parsed once per test session; callers must not modify the graphs.
    """
    return tuple((s, parse_smiles(s)) for s in (BENCHMARKS / "corpus.smi").read_text().split())


@functools.lru_cache(maxsize=None)
def screen_large_smiles(seed: int) -> tuple[str, ...]:
    """The 240 molecules of 30-66 heavy atoms that the benchmark's
    ``screen-large`` workload generates for ``seed``."""
    spec = importlib.util.spec_from_file_location("bench_workloads", BENCHMARKS / "workloads.py")
    workloads = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return tuple(
        workloads.large_molecules(seed, workloads.SCREEN_LARGE_ROWS, workloads.corpus())
    )


def polyphenyl_smiles(n_rings: int) -> str:
    """``n_rings`` benzenes linked para to para: a chain of rings whose
    diameter grows with its length (600 atoms at 100 rings)."""
    return "c1ccc(cc1)" * (n_rings - 1) + "c1ccccc1"


def ring_with_chain_smiles(n_chain: int) -> str:
    """Benzene carrying one ``n_chain``-carbon chain; its scaffold is benzene."""
    return "c1ccccc1" + "C" * n_chain


def relabel(graph: MolecularGraph, perm: Sequence[int]) -> MolecularGraph:
    """Copy of ``graph`` with atom i moved to position perm[i].

    Derived annotations are carried over; rings are remapped. Used for
    order-insensitivity checks.
    """
    if sorted(perm) != list(range(graph.n_atoms)):
        raise ValueError("perm must be a permutation of atom indices")
    atoms = [None] * graph.n_atoms
    for i, atom in enumerate(graph.atoms):
        atoms[perm[i]] = dataclasses.replace(atom)
    bonds = [dataclasses.replace(b, u=perm[b.u], v=perm[b.v]) for b in graph.bonds]
    out = MolecularGraph(atoms, bonds)
    out.rings = [[perm[a] for a in ring] for ring in graph.rings]
    return out


def n_components(graph: MolecularGraph) -> int:
    """Connected components, counted from ``hop_distances`` as the distinct
    sets of mutually reachable atoms (independent of ring perception's forest)."""
    return len({row.tobytes() for row in hop_distances(graph) >= 0})


def dense_fingerprint(mol) -> np.ndarray:
    """A featurized molecule's fingerprint as one dense row of its width."""
    dense = np.zeros(mol.fingerprint_width)
    dense[mol.fingerprint_cols] = mol.fingerprint_values
    return dense
