"""Seeded input generation for the three benchmark workloads.

Every input is a pure function of (workload, seed): the same seed writes the
same bytes. Molecules come from ``corpus.smi``, a frozen copy of the
1786-molecule corpus that ``tests/corpus_util.build_corpus`` generates (its
first 300 lines are ``build_corpus(300)``). Freezing it keeps the workloads
fixed when the test corpus or the parser changes. Labels follow the same
synthetic, structure-derived property as ``tests/corpus_util``.
"""

from __future__ import annotations

import csv
import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from molfusion.autodiff.checkpoint import save_checkpoint
from molfusion.chem import SmilesError, parse_smiles
from molfusion.cli import combined_config_dict, resolve_configs
from molfusion.model.network import MlfgnnModel

CORPUS = Path(__file__).resolve().parent / "corpus.smi"

TRAIN_MOLECULES = 300
TRAIN_EPOCHS = 2
SCREEN_SMALL_ROWS = 500
SCREEN_SMALL_MALFORMED = 10  # 2% of the rows
SCREEN_LARGE_ROWS = 240
LARGE_MIN_ATOMS, LARGE_MAX_ATOMS = 30, 66

# Each edit makes any SMILES unparseable: an unclosed branch or ring, an
# unknown element, a pentavalent carbon, a stray character, or nothing.
_MALFORMATIONS = (
    lambda s: s + "(C",
    lambda s: s + "C%99",
    lambda s: "[Xx]" + s,
    lambda s: "FC(F)(F)(F)" + s,
    lambda s: s + "!",
    lambda s: "",
)


@dataclass
class Workload:
    """Generated inputs of one run: the CLI argv and what to check it against."""

    name: str
    argv: list[str]
    rows: list[str]  # SMILES cells of the input CSV, in order
    malformed: set[int] = field(default_factory=set)  # row indices meant to fail
    labels: list[float] = field(default_factory=list)  # per row; NaN when malformed
    model: MlfgnnModel | None = None  # the screen checkpoint's model, for the reference
    heavy_atoms: list[int] = field(default_factory=list)  # per well-formed row


def corpus() -> list[str]:
    return CORPUS.read_text().split()


def synthetic_property(graph) -> float:
    """Solubility-flavoured label, learnable from structure (as in corpus_util)."""
    carbons = sum(1 for a in graph.atoms if a.element == "C")
    polar = sum(1 for a in graph.atoms if a.element in ("N", "O"))
    halogens = sum(1 for a in graph.atoms if a.element in ("F", "Cl", "Br", "I"))
    aromatic_rings = sum(1 for r in graph.rings if all(graph.atoms[i].is_aromatic for i in r))
    donors = sum(1 for a in graph.atoms if a.is_h_donor)
    return (
        1.2
        - 0.42 * carbons
        + 0.55 * polar
        - 0.75 * aromatic_rings
        - 0.28 * halogens
        + 0.3 * donors
        - 0.05 * graph.n_atoms
        + (0.4 if donors and aromatic_rings else 0.0)
    )


def _label(smiles: str, graph, seed: int) -> float:
    """The synthetic property plus seeded noise in [-0.15, 0.15)."""
    digest = hashlib.sha256(f"{seed}:{smiles}".encode()).digest()
    noise = (int.from_bytes(digest[:4], "little") / 2**32 - 0.5) * 0.3
    return round(synthetic_property(graph) + noise, 4)


def _write_csv(path: Path, header: list[str], rows: list[list]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def large_molecules(seed: int, count: int, pool: list[str]) -> list[str]:
    """``count`` distinct molecules of 30-66 heavy atoms, for any seed.

    Each candidate joins 3-5 corpus fragments with 1-3 carbon linkers; only
    candidates that parse and land in the atom range are kept.
    """
    fragments = [s for s in pool if "." not in s]
    rng = np.random.default_rng([seed, 2])
    out: list[str] = []
    seen: set[str] = set()
    for _ in range(200 * count):
        if len(out) == count:
            return out
        k = int(rng.integers(3, 6))
        picks = [fragments[int(i)] for i in rng.integers(0, len(fragments), size=k)]
        smiles = picks[0]
        for frag in picks[1:]:
            smiles += "C" * int(rng.integers(1, 4)) + frag
        if smiles in seen:
            continue
        try:
            n_atoms = parse_smiles(smiles).n_atoms
        except SmilesError:
            continue
        if LARGE_MIN_ATOMS <= n_atoms <= LARGE_MAX_ATOMS:
            seen.add(smiles)
            out.append(smiles)
    raise RuntimeError(f"seed {seed}: only {len(out)} of {count} large molecules generated")


def _screen_checkpoint(path: Path, seed: int) -> MlfgnnModel:
    """A seeded random-init regression checkpoint with the default config."""
    model_config, train_config, featurize_config = resolve_configs({}, "regression", 1)
    model = MlfgnnModel(model_config, seed=seed)
    config = combined_config_dict(model_config, train_config, featurize_config)
    save_checkpoint(path, config, model.state_arrays())
    return model


def generate(name: str, seed: int, work: Path) -> Workload:
    """Write the inputs of workload ``name`` into ``work`` and return its spec."""
    work.mkdir(parents=True, exist_ok=True)
    pool = corpus()
    if name == "train-small":
        # The corpus order is fixed, so the split is too: the seed moves the
        # label noise, and valid_rmse stays comparable across seeds.
        rows = pool[:TRAIN_MOLECULES]
        graphs = [parse_smiles(s) for s in rows]
        labels = [_label(s, g, seed) for s, g in zip(rows, graphs)]
        _write_csv(work / "input.csv", ["smiles", "solubility"], list(zip(rows, labels)))
        (work / "config.json").write_text(
            json.dumps({"train": {"epochs": TRAIN_EPOCHS, "patience": TRAIN_EPOCHS}})
        )
        argv = [
            "train", "--data", str(work / "input.csv"), "--task", "reg",
            "--split", "random", "--seeds", "1", "--config", str(work / "config.json"),
            "--out",
        ]  # the runner appends a fresh output directory per repeat
        return Workload(name, argv, rows, labels=labels, heavy_atoms=[g.n_atoms for g in graphs])
    if name == "screen-small":
        rng = np.random.default_rng([seed, 1])
        n_good = SCREEN_SMALL_ROWS - SCREEN_SMALL_MALFORMED
        rows = [pool[int(i)] for i in rng.choice(len(pool), size=n_good, replace=False)]
        bad_at = sorted(int(i) for i in rng.choice(SCREEN_SMALL_ROWS, SCREEN_SMALL_MALFORMED,
                                                   replace=False))
        for k, pos in enumerate(bad_at):
            source = pool[int(rng.integers(0, len(pool)))]
            rows.insert(pos, _MALFORMATIONS[k % len(_MALFORMATIONS)](source))
        malformed = set(bad_at)
    elif name == "screen-large":
        rows = large_molecules(seed, SCREEN_LARGE_ROWS, pool)
        malformed = set()
    else:
        raise ValueError(f"unknown workload {name!r}")
    labels, heavy_atoms = [], []
    for i, s in enumerate(rows):
        if i in malformed:
            labels.append(float("nan"))
            continue
        graph = parse_smiles(s)
        labels.append(_label(s, graph, seed))
        heavy_atoms.append(graph.n_atoms)
    _write_csv(work / "input.csv", ["smiles"], [[s] for s in rows])
    model = _screen_checkpoint(work / "screen.ckpt", seed)
    argv = [
        "predict", "--checkpoint", str(work / "screen.ckpt"),
        "--input", str(work / "input.csv"), "--out",
    ]
    return Workload(name, argv, rows, malformed, labels, model, heavy_atoms)
