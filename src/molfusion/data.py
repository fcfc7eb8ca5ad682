"""Dataset ingestion and split generation.

CSV in (UTF-8, RFC-4180, header required), immutable Dataset out; splits are
reproducible functions of (checksum, method, seed) and export as
JSON manifests for exact reruns. ``read_csv`` is the one CSV reader: every
subcommand that takes a CSV goes through it.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import logging
import math
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .autodiff.rng import make_rng
from .chem import SmilesError, parse_smiles, scaffold_hash

log = logging.getLogger(__name__)

FRACTIONS = (0.8, 0.1, 0.1)  # train, valid, test
# A label is an ASCII decimal; float() would also take "1_0" or Arabic-Indic digits.
DECIMAL = re.compile(r"[+-]?([0-9]+\.?[0-9]*|\.[0-9]+)([eE][+-]?[0-9]+)?")


class DataError(ValueError):
    pass


class MissingColumnError(DataError):
    pass


class EmptyDatasetError(DataError):
    pass


class TooSmallError(DataError):
    pass


class LabelError(DataError):
    pass


@dataclass(frozen=True, eq=False)
class Dataset:
    """The rows that parse and carry a label. ``labels`` (float) and ``mask``
    are read-only [m, n_tasks] arrays; a blank cell has mask False, label 0.0."""

    smiles: tuple[str, ...]
    labels: np.ndarray
    mask: np.ndarray
    task_names: tuple[str, ...]
    checksum: str

    def __len__(self) -> int:
        return len(self.smiles)

    @property
    def n_tasks(self) -> int:
        return len(self.task_names)


@dataclass
class DatasetSplit:
    train: list[int]
    valid: list[int]
    test: list[int]
    method: str  # "random" | "scaffold"
    seed: int

    def check_partition(self, n: int) -> None:
        combined = sorted(self.train + self.valid + self.test)
        if combined != list(range(n)):
            raise DataError("split does not partition the index set")

    def save(self, path: str | Path, checksum: str) -> None:
        manifest = {
            "method": self.method,
            "seed": self.seed,
            "fractions": list(FRACTIONS),
            "indices": {"train": self.train, "valid": self.valid, "test": self.test},
            "checksum": checksum,
        }
        Path(path).write_text(json.dumps(manifest, indent=1, sort_keys=True))


def _parse_label(cell: str, task_type: str, row_num: int, column: str) -> float:
    """The cell's label, or nan for a blank cell."""
    cell = cell.strip()
    if cell == "":
        return math.nan
    try:
        value = float(cell)
    except ValueError:
        value = None
    if value is not None and not math.isfinite(value):
        raise LabelError(f"row {row_num}, column {column!r}: non-finite label {cell!r}")
    if value is None or not DECIMAL.fullmatch(cell):
        raise LabelError(f"row {row_num}, column {column!r}: non-numeric label {cell!r}")
    if task_type == "classification" and value not in (0.0, 1.0):
        raise LabelError(
            f"row {row_num}, column {column!r}: classification label must be 0 or 1, got {cell!r}"
        )
    return value


def read_csv(
    path: str | Path, columns: list[str]
) -> tuple[list[str], list[dict[str, str | None]], str]:
    """Read a CSV with a header row: (header, rows, sha256 of the file bytes).

    The bytes are UTF-8, optionally BOM-prefixed. Records split per RFC-4180,
    so a quoted newline or a U+2028 inside a cell stays in its record. Every
    name in ``columns`` must be in the header, and no name may repeat; a short
    row reads None for its missing cells, and a row longer than the header is
    a ``DataError`` naming it (row 2 is the first after the header).
    """
    path = Path(path)
    raw = path.read_bytes()
    try:
        text = raw.decode("utf-8-sig")
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not UTF-8 ({exc})") from exc
    reader = csv.DictReader(io.StringIO(text, newline=""))
    try:
        header = reader.fieldnames
        rows = list(reader)
    except csv.Error as exc:
        raise DataError(f"{path}: malformed CSV at line {reader.line_num}: {exc}") from exc
    if not header:
        raise EmptyDatasetError(f"{path}: empty file, no header row")
    repeated = sorted({c for c in header if header.count(c) > 1})
    if repeated:  # a row would keep only the last cell of each
        raise DataError(f"{path}: header repeats the column names {repeated}")
    missing = [c for c in columns if c not in header]
    if missing:
        raise MissingColumnError(f"{path}: columns {missing} not in header {header}")
    for row_num, row in enumerate(rows, start=2):
        if None in row:  # DictReader files the cells past the header under None
            raise DataError(f"{path}: row {row_num} has {len(header) + len(row[None])} cells, "
                            f"more than the {len(header)} of the header")
    return header, rows, hashlib.sha256(raw).hexdigest()


def load_csv(
    path: str | Path,
    smiles_column: str,
    task_columns: list[str] | None = None,
    task_type: str = "regression",
) -> Dataset:
    """Load a benchmark-style CSV.

    ``task_columns`` defaults to every column but the SMILES one. Rows with
    unparseable SMILES or no labels at all are dropped with a logged count;
    empty label cells stay missing (mask, never impute).
    """
    header, rows, checksum = read_csv(path, [smiles_column, *(task_columns or [])])
    if task_columns is None:
        task_columns = [c for c in header if c != smiles_column]
    if not task_columns:
        raise MissingColumnError(f"{path}: no label column besides {smiles_column!r}")
    kept_smiles, values = [], []
    bad_smiles = 0
    no_labels = 0
    for row_num, row in enumerate(rows, start=2):
        smiles = (row[smiles_column] or "").strip()
        row_values = [_parse_label(row[c] or "", task_type, row_num, c) for c in task_columns]
        if all(math.isnan(v) for v in row_values):
            no_labels += 1
            continue
        try:
            parse_smiles(smiles)
        except SmilesError:
            bad_smiles += 1
            continue
        kept_smiles.append(smiles)
        values.append(row_values)
    if bad_smiles:
        log.warning("%s: dropped %d rows with unparseable SMILES", path, bad_smiles)
    if no_labels:
        log.warning("%s: dropped %d rows with no labels", path, no_labels)
    if not kept_smiles:
        raise EmptyDatasetError(f"{path}: no usable rows")
    values = np.array(values, dtype=np.float64)
    mask = ~np.isnan(values)
    labels = np.where(mask, values, 0.0)
    mask.flags.writeable = labels.flags.writeable = False
    return Dataset(tuple(kept_smiles), labels, mask, tuple(task_columns), checksum)


def random_split(dataset: Dataset, seed: int) -> DatasetSplit:
    """Seeded shuffle, then contiguous train/valid/test cut.

    Valid and test sizes are floored; train takes the remainder.
    """
    n = len(dataset)
    if n < 10:
        raise TooSmallError(f"need at least 10 records to split, got {n}")
    perm = make_rng(seed).permutation(n).tolist()
    n_valid = int(n * FRACTIONS[1])
    n_test = int(n * FRACTIONS[2])
    n_train = n - n_valid - n_test
    split = DatasetSplit(
        train=perm[:n_train],
        valid=perm[n_train : n_train + n_valid],
        test=perm[n_train + n_valid :],
        method="random",
        seed=seed,
    )
    split.check_partition(n)
    return split


def scaffold_split(dataset: Dataset, seed: int) -> DatasetSplit:
    """Group records by scaffold and pack whole groups greedily.

    Groups are ordered by size descending (ties by lowest record index, so
    the split does not depend on the hash function) and each goes to the
    partition furthest below its target count, so no scaffold ever straddles
    two partitions. The packing itself is deterministic; ``seed`` is recorded
    for provenance only.
    """
    n = len(dataset)
    if n < 10:
        raise TooSmallError(f"need at least 10 records to split, got {n}")
    groups: dict[str, list[int]] = {}
    for i, smiles in enumerate(dataset.smiles):
        groups.setdefault(scaffold_hash(parse_smiles(smiles)), []).append(i)
    ordered = sorted(groups.items(), key=lambda kv: (-len(kv[1]), kv[1][0]))
    targets = [f * n for f in FRACTIONS]
    parts: list[list[int]] = [[], [], []]
    for _key, members in ordered:
        deficits = [targets[k] - len(parts[k]) for k in range(3)]
        parts[max(range(3), key=lambda k: deficits[k])].extend(members)
    if not parts[1] or not parts[2]:
        log.warning(
            "scaffold split left valid/test nearly empty (sizes %s); "
            "scaffold groups may be too coarse",
            [len(p) for p in parts],
        )
    split = DatasetSplit(
        train=sorted(parts[0]),
        valid=sorted(parts[1]),
        test=sorted(parts[2]),
        method="scaffold",
        seed=seed,
    )
    split.check_partition(n)
    return split
