"""Command-line interface: featurize, train, predict, explain, gradcheck.

Exit codes: 0 success, 1 usage or config error, 2 data error (a file that
cannot be read or written and a non-finite training loss included) or lane 1
ended early, 3 verification failure, 130 interrupted (Ctrl-C).
featurize and predict run their rows through the row loop that train shares
(``helper.each_row``), on two lanes, and write their lines in row order; when
every row fails to parse, every line is written, then the command exits 2.
Config files are JSON with optional "model", "train" and "featurize"
sections; every key mirrors the corresponding dataclass field. The env var
MOLFUSION_LOG sets log verbosity (DEBUG/INFO/WARNING/ERROR).
"""

from __future__ import annotations

import argparse
import csv
import json
import logging
import os
import shlex
import sys
import time
from dataclasses import asdict, dataclass, replace
from pathlib import Path

import numpy as np

from . import ConfigError, Kind, __version__, check_config, integer
from .autodiff.checkpoint import CheckpointError, config_digest, load_checkpoint, save_checkpoint
from .autodiff.gradcheck import grad_check
from .autodiff.rng import make_rng
from .chem import SmilesError, parse_smiles
from .chem.graph import Atom, Bond, BondOrder, MolecularGraph
from .chem.perception import annotate
from .data import DataError, load_csv, random_split, read_csv, scaffold_split
from .featurize import FeaturizeConfig, featurize
from .helper import LaneEnded, each_row
from .model import MAX_CHUNK_ATOMS, ModelConfig, MoleculeBatch
from .model.config import WIDTH
from .model.network import MlfgnnModel
from .train import (SEED_MAX, NonFiniteLossError, TrainConfig, aggregate, prepare_inputs,
                    train)

log = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_VERIFY = 3
EXIT_INTERRUPTED = 130  # 128 + SIGINT, as a shell reports it


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage errors exit 1, not argparse's 2
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(EXIT_USAGE)


@dataclass
class RunManifest:
    command: str
    config_digest: str
    dataset_checksum: str
    seeds: list[int]
    version: str
    started_at: str
    finished_at: str | None = None
    status: str = "running"

    def write(self, path: Path) -> None:
        tmp = path.with_suffix(path.suffix + ".tmp")
        tmp.write_text(json.dumps(asdict(self), indent=1, sort_keys=True))
        tmp.replace(path)


def _utc_now() -> str:
    return time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())


def load_config_file(path: str | None) -> dict:
    if path is None:
        return {}
    try:
        config = json.loads(Path(path).read_text("utf-8"))
    except (OSError, ValueError) as exc:  # ValueError: not UTF-8, or not JSON
        raise DataError(f"cannot read config file {path}: {exc}") from exc
    if not isinstance(config, dict):
        raise ConfigError(f"{path}: the top level is {json.dumps(config)[:40]}, not an object")
    unknown = set(config) - {"model", "train", "featurize"}
    if unknown:
        raise ConfigError(f"{path}: unknown config sections: {sorted(unknown)}")
    for name, section in config.items():
        if not isinstance(section, dict):
            text = json.dumps(section)[:40]
            raise ConfigError(f"{path}: section {name!r} is {text}, not an object")
    return config


# Model keys that a command works out; a config file may not set them. A
# checkpoint's model section records them, head_dim only if an earlier version
# wrote it.
DERIVED_MODEL_KEYS = {
    key: Kind("derived", f"left out: it comes from {source}", lambda value: False)
    for key, source in (("task", "train --task"), ("n_tasks", "the label columns"),
                        ("fingerprint_dim", "the featurize section"),
                        ("head_dim", "hidden_dim / heads"))
}


def resolve_configs(
    file_config: dict,
    task: str,
    n_tasks: int,
    ablation: str | None = None,
    seeds: tuple[int, ...] | None = None,
    epochs: int | None = None,
) -> tuple[ModelConfig, TrainConfig, FeaturizeConfig]:
    model_section = file_config.get("model", {})
    check_config({**ModelConfig.field_table(), **DERIVED_MODEL_KEYS}, model_section)
    featurize_config = FeaturizeConfig.from_dict(file_config.get("featurize", {}))
    model_config = ModelConfig(**{
        **model_section,
        "task": task,
        "n_tasks": n_tasks,
        "fingerprint_dim": featurize_config.fingerprint_length,
        **({} if ablation is None else {"ablation": ablation}),
    })
    train_section = dict(file_config.get("train", {}))
    if seeds is not None:
        train_section["seeds"] = seeds
    if epochs is not None:
        train_section["epochs"] = epochs
    return model_config, TrainConfig.from_dict(train_section), featurize_config


def combined_config_dict(model_config, train_config, featurize_config) -> dict:
    """Every constructor field of the three configs, by section."""
    return {
        "model": asdict(model_config),
        "train": asdict(train_config),
        "featurize": asdict(featurize_config),
    }


def random_molecule_graph(n_atoms: int, seed: int = 0) -> MolecularGraph:
    """Random connected heavy-atom graph (tree plus an occasional ring bond).

    No atom takes more than four bonds: a parent that already has four is
    drawn again, and a ring bond onto such an atom is not made. Elements are
    drawn after the topology so degrees never exceed valence.
    """
    rng = make_rng(seed)
    bonds = []
    degree = [0] * n_atoms
    for i in range(1, n_atoms):
        parent = int(rng.integers(0, i))
        while degree[parent] >= 4:
            parent = int(rng.integers(0, i))
        bonds.append(Bond(parent, i, BondOrder.SINGLE))
        degree[parent] += 1
        degree[i] += 1
    if n_atoms >= 4 and rng.random() < 0.7:
        existing = {b.key for b in bonds}
        for _ in range(4):
            u, v = sorted(rng.choice(n_atoms, size=2, replace=False).tolist())
            if (u, v) not in existing and degree[u] < 4 and degree[v] < 4:
                bonds.append(Bond(u, v, BondOrder.SINGLE))
                degree[u] += 1
                degree[v] += 1
                break
    atoms = []
    for i in range(n_atoms):
        if degree[i] >= 4:
            pool = ["C"]
        elif degree[i] == 3:
            pool = ["C", "C", "N"]
        else:
            pool = ["C", "C", "C", "N", "O"]
        atoms.append(Atom(element=pool[int(rng.integers(0, len(pool)))]))
    graph = MolecularGraph(atoms, bonds)
    annotate(graph)
    return graph


# -- featurize, and the CSV row loop it shares with predict -------------------


def each_csv_row(args, rows, work):
    """``helper.each_row`` over the rows' SMILES cells. After the last row, a
    summary is printed, or a ``DataError`` raised if every row failed to
    parse."""
    n_rows = n_errors = 0
    smiles = ((row[args.smiles_col] or "").strip() for row in rows)
    for result in each_row(smiles, work):
        n_rows += 1
        n_errors += result[1] is not None
        yield result
    if n_rows and n_errors == n_rows:
        raise DataError(f"{args.input}: every row failed to parse; their errors are in {args.out}")
    print(f"wrote {n_rows} rows ({n_errors} errors) to {args.out}")


def cmd_featurize(args) -> int:
    file_config = load_config_file(args.config)
    overrides = {"components": args.fingerprints.split(",")} if args.fingerprints else {}
    featurize_config = FeaturizeConfig.from_dict({**file_config.get("featurize", {}), **overrides})
    _header, rows, _checksum = read_csv(args.input, [args.smiles_col])
    featurized = each_csv_row(args, rows,
                              lambda graphs: [featurize(g, featurize_config) for g in graphs])
    with open(args.out, "w") as fh:
        for row_num, (smiles, error, mol) in enumerate(featurized, start=2):
            record = {"row": row_num, "smiles": smiles}
            if error is not None:
                record["error"] = str(error)
            else:
                bonds = zip(mol.src, mol.dst, mol.bond_features)
                fingerprint = np.zeros(mol.fingerprint_width)  # dense in the record only
                fingerprint[mol.fingerprint_cols] = mol.fingerprint_values
                record.update(n_atoms=mol.n_atoms, atom_features=mol.atom_features.tolist(),
                              bonds=[{"u": int(u), "v": int(v), "features": feats.tolist()}
                                     for u, v, feats in bonds if u < v],
                              fingerprint=fingerprint.tolist())
            fh.write(json.dumps(record, sort_keys=True) + "\n")
    return EXIT_OK


# -- train -------------------------------------------------------------------


def cmd_train(args) -> int:
    task = {"cls": "classification", "reg": "regression"}[args.task]
    file_config = load_config_file(args.config)
    label_cols = [c.strip() for c in args.label_cols.split(",")] if args.label_cols else None
    if label_cols and len(set(label_cols)) < len(label_cols):
        raise ConfigError(f"--label-cols must not repeat a column, got {args.label_cols!r}")
    seeds = None
    if args.seeds is not None:  # seeds 0..k-1, checked before the tuple is built
        check_config({"--seeds": integer(1, SEED_MAX + 1)}, {"--seeds": args.seeds})
        seeds = tuple(range(args.seeds))
    # The config is checked before any row is read; n_tasks comes from the data.
    model_config, train_config, featurize_config = resolve_configs(
        file_config, task, 1, ablation=args.ablate, seeds=seeds, epochs=args.epochs,
    )
    dataset = load_csv(args.data, args.smiles_col, label_cols, task)
    model_config = replace(model_config, n_tasks=dataset.n_tasks)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    full_config = combined_config_dict(model_config, train_config, featurize_config)
    manifest = RunManifest(
        command=args.command_line,
        config_digest=config_digest(full_config),
        dataset_checksum=dataset.checksum,
        seeds=list(train_config.seeds),
        version=__version__,
        started_at=_utc_now(),
    )
    manifest_path = out_dir / "manifest.json"
    manifest.write(manifest_path)

    # Each seed's files are written as soon as it has them, so a run that ends
    # early keeps the seeds before it; report.json needs every seed.
    metric_name = "roc_auc" if task == "classification" else "rmse"
    per_seed, best_epochs, valid_metrics, checkpoints = {}, {}, {}, {}
    status = "failed"
    try:
        mols = prepare_inputs(dataset, featurize_config)
        # A scaffold split is one partition for every seed; a random one is reseeded.
        shared_split = scaffold_split(dataset, seed=0) if args.split == "scaffold" else None
        for seed in train_config.seeds:
            split = shared_split or random_split(dataset, seed)
            split.save(out_dir / f"seed_{seed}_split.json", dataset.checksum)
            model = MlfgnnModel(model_config, seed=seed)
            result = train(model, mols, dataset.labels, dataset.mask, split, train_config, seed,
                           out_dir / f"seed_{seed}_log.jsonl")
            key = str(seed)
            checkpoints[key] = f"seed_{seed}.ckpt"
            save_checkpoint(out_dir / checkpoints[key], full_config, result.state)
            per_seed[key] = result.test_metric
            best_epochs[key] = result.best_epoch
            valid_metrics[key] = result.valid_metric
        mean, std = aggregate(per_seed)
        report = {"metric": metric_name, "per_seed": per_seed, "mean": mean, "std": std,
                  "checkpoints": checkpoints, "best_epochs": best_epochs,
                  "valid_metrics": valid_metrics}
        (out_dir / "report.json").write_text(json.dumps(report, indent=1, sort_keys=True))
        status = "complete"
    except KeyboardInterrupt:
        status = "interrupted"
        raise
    finally:  # also when the run fails or is interrupted
        manifest.finished_at = _utc_now()
        manifest.status = status
        manifest.write(manifest_path)
    mean_text = "undefined" if mean is None else f"{mean:.4f}"
    print(f"{metric_name}: {mean_text} +- {std:.4f} over seeds {list(train_config.seeds)}")
    return EXIT_OK


# -- predict -------------------------------------------------------------------


# Keys that earlier versions wrote to every checkpoint, each with the one value
# this version builds: a DyT transformer with the adjacency prior, and the
# shipped key table.
RETIRED_KEYS = {
    "model": {"norm": "dyt", "adjacency_bias": True},
    "featurize": {"key_table_path": None},
}


def _without_retired_keys(section: dict, name: str) -> dict:
    """Checkpoint section ``name`` without its retired keys; one that holds any
    other value raises ``ConfigError``, since this version cannot build it. A
    model's ``head_dim``, which earlier versions wrote, loads when
    ``heads * head_dim == hidden_dim``, as they all required."""
    section = dict(section)
    for key, value in RETIRED_KEYS[name].items():
        if key in section and json.dumps(section[key]) != json.dumps(value):
            raise ConfigError(f"{key} must be {json.dumps(value)}, the only value this "
                              f"version builds, got {section[key]!r}")
        section.pop(key, None)
    if name == "model" and "head_dim" in section:
        heads, head_dim, hidden = (section.get(k) for k in ("heads", "head_dim", "hidden_dim"))
        # Both factors fit before they multiply, so the product is a small integer.
        if not (WIDTH.fits(heads) and WIDTH.fits(head_dim) and heads * head_dim == hidden):
            raise ConfigError(f"head_dim must be hidden_dim / heads, got head_dim {head_dim!r} "
                              f"with heads {heads!r} and hidden_dim {hidden!r}")
        del section["head_dim"]
    return section


def build_model_from_checkpoint(
    path: str, force: bool = False
) -> tuple[MlfgnnModel, FeaturizeConfig]:
    """The checkpoint's model and featurize config, checked to agree on fingerprint width.

    A config or tensor set that does not build the model raises ``CheckpointError``.
    """
    config, arrays = load_checkpoint(path, force=force)
    try:
        model_config = ModelConfig.from_dict(_without_retired_keys(config["model"], "model"))
        featurize_config = FeaturizeConfig.from_dict(
            _without_retired_keys(config["featurize"], "featurize")
        )
        width = featurize_config.fingerprint_length
        model = MlfgnnModel(model_config, state=arrays)
    except (TypeError, ValueError, KeyError) as exc:
        raise CheckpointError(
            f"{path}: config or tensors do not build the model ({type(exc).__name__}: {exc})"
        ) from exc
    if width != model_config.fingerprint_dim:
        raise DataError(
            f"{path}: featurize config gives {width}-wide fingerprints but the model "
            f"expects {model_config.fingerprint_dim}"
        )
    return model, featurize_config


def cmd_predict(args) -> int:
    model, featurize_config = build_model_from_checkpoint(args.checkpoint, force=args.force)
    _header, rows, _checksum = read_csv(args.input, [args.smiles_col])
    n_tasks = model.config.n_tasks
    pred_cols = [f"prediction_{i}" for i in range(n_tasks)] if n_tasks > 1 else ["prediction"]
    predicted = each_csv_row(args, rows, lambda graphs: model.predict_batch(
        MoleculeBatch([featurize(g, featurize_config) for g in graphs])))
    with open(args.out, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([args.smiles_col, *pred_cols])
        for smiles, error, preds in predicted:
            cells = ([repr(float(p)) for p in preds] if error is None
                     else [f"ERROR:{error}"] * n_tasks)
            writer.writerow([smiles, *cells])
    return EXIT_OK


# -- explain -------------------------------------------------------------------


def cmd_explain(args) -> int:
    model, featurize_config = build_model_from_checkpoint(args.checkpoint, force=args.force)
    mol = featurize(parse_smiles(args.smiles), featurize_config)
    trace: dict = {}
    prediction = model.predict_batch(MoleculeBatch([mol]), trace)[0].tolist()
    lambda_attn, lambda_adj = model.lambda_values()
    bundle = {
        "smiles": args.smiles,
        "n_atoms": mol.n_atoms,
        "prediction": prediction,
        "gate_alpha": trace["gate_alpha"],
        "lambda_attn": lambda_attn,
        "lambda_adj": lambda_adj,
        "gat_attention": [m.tolist() for m in trace["gat_attention"]],
        "transformer_attention": [
            [head.tolist() for head in layer] for layer in trace["transformer_attention"]
        ],
        "readout_attention": trace["readout_attention"].tolist(),
        "cross_attention": [head.tolist() for head in trace["cross_attention"]],
        "cross_attention_tokens": ["virtual_node", *range(mol.n_atoms)],
    }
    Path(args.out).write_text(json.dumps(bundle, sort_keys=True))
    print(f"interpretability bundle written to {args.out}")
    return EXIT_OK


# -- gradcheck -----------------------------------------------------------------


def cmd_gradcheck(args) -> int:
    check_config(
        {"--atoms": integer(1, MAX_CHUNK_ATOMS), "--seed": integer(0, SEED_MAX),
         "--coords-per-group": integer(1, 2**20)},
        {"--atoms": args.atoms, "--seed": args.seed, "--coords-per-group": args.coords_per_group},
    )
    file_config = load_config_file(args.config)
    model_config, _train_config, featurize_config = resolve_configs(
        file_config, "regression", 1, ablation=args.ablate
    )
    # Two molecules of different sizes, so the check covers the cross-molecule masks.
    batch = MoleculeBatch([
        featurize(random_molecule_graph(n, seed=args.seed + i), featurize_config)
        for i, n in enumerate((args.atoms, args.atoms // 2 or args.atoms + 1))
    ])
    model = MlfgnnModel(model_config, seed=args.seed)

    from .autodiff import tensor as T

    def f():
        out = model.forward(batch)
        return T.sum_(T.mul(out, out))

    # A step of 1e-5 can carry a ReLU input across its kink (seed 0 at 5
    # atoms failed on correct gradients); at 1e-6 the rounding error of the
    # differences stays far below rtol.
    report = grad_check(
        f,
        model.params.tensors,
        rtol=1e-3,
        atol=1e-6,
        h=1e-6,
        max_coords_per_tensor=args.coords_per_group,
        rng=make_rng(args.seed),
    )
    print(report.summary())
    print(f"parameter groups covered: {len(report.per_tensor)}")
    return EXIT_OK if report.passed else EXIT_VERIFY


# -- entry ---------------------------------------------------------------------


# --ablate's names, each with the ModelConfig.ablation value it sets.
_ABLATION_FLAG = {"gat-only": "gat_only", "transformer-only": "transformer_only",
                  "no-fp": "no_fingerprint"}


def build_parser() -> _Parser:
    parser = _Parser(prog="molfusion", description=__doc__)
    parser.add_argument("--version", action="version", version=f"molfusion {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("featurize", help="emit per-molecule feature records as JSONL")
    p.add_argument("--input", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--fingerprints", default=None, help="comma list: morgan,keys,erg")
    p.add_argument("--smiles-col", default="smiles")
    p.add_argument("--config", default=None)
    p.set_defaults(func=cmd_featurize)

    p = sub.add_parser("train", help="train with the multi-seed protocol")
    p.add_argument("--data", required=True)
    p.add_argument("--task", required=True, choices=["cls", "reg"])
    p.add_argument("--split", default="random", choices=["random", "scaffold"])
    p.add_argument("--config", default=None)
    p.add_argument("--seeds", type=int, default=None, help="number of seeds (0..k-1)")
    p.add_argument("--epochs", type=int, default=None)
    p.add_argument("--out", required=True)
    p.add_argument("--smiles-col", default="smiles")
    p.add_argument("--label-cols", default=None, help="comma list; default: all non-smiles columns")
    p.add_argument("--ablate", default=None, choices=_ABLATION_FLAG,
                   help="train an ablated variant")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("predict", help="predict from a checkpoint")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--input", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--smiles-col", default="smiles")
    p.add_argument("--force", action="store_true", help="ignore config digest mismatch")
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("explain", help="export attention/gate matrices as JSON")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--smiles", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--force", action="store_true")
    p.set_defaults(func=cmd_explain)

    p = sub.add_parser("gradcheck", help="finite-difference check of the full model")
    p.add_argument("--config", default=None)
    p.add_argument("--atoms", type=int, default=5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--coords-per-group", type=int, default=4)
    p.add_argument("--ablate", default=None, choices=_ABLATION_FLAG)
    p.set_defaults(func=cmd_gradcheck)
    return parser


def main(argv=None) -> int:
    try:
        logging.basicConfig(level=os.environ.get("MOLFUSION_LOG", "WARNING").upper())
    except ValueError as exc:
        print(f"config error: MOLFUSION_LOG: {exc}; use DEBUG, INFO, WARNING or ERROR",
              file=sys.stderr)
        return EXIT_USAGE
    parser = build_parser()
    args = parser.parse_args(argv)
    args.command_line = shlex.join(["molfusion", *(sys.argv[1:] if argv is None else argv)])
    if getattr(args, "ablate", None):
        args.ablate = _ABLATION_FLAG[args.ablate]
    try:
        return args.func(args)
    except (DataError, SmilesError, CheckpointError, OSError, NonFiniteLossError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except LaneEnded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except KeyboardInterrupt:  # every helper has been stopped by its ``with`` block
        print("interrupted", file=sys.stderr)
        return EXIT_INTERRUPTED


if __name__ == "__main__":
    sys.exit(main())
