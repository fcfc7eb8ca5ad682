"""Command-line interface: featurize, train, predict, explain, gradcheck.

Exit codes: 0 success, 1 usage or config error, 2 data error (a file that
cannot be read or written and a non-finite training loss included), 3
verification failure.
Config files are JSON with optional "model", "train" and "featurize"
sections; every key mirrors the corresponding dataclass field. The env var
MOLFUSION_LOG sets log verbosity (DEBUG/INFO/WARNING/ERROR).
"""

from __future__ import annotations

import argparse
import csv
import itertools
import json
import logging
import os
import sys
import time
from contextlib import nullcontext
from dataclasses import asdict, dataclass, replace
from pathlib import Path

import numpy as np

from . import ConfigError, Kind, __version__, check_config, integer
from .autodiff.checkpoint import CheckpointError, config_digest, load_checkpoint, save_checkpoint
from .autodiff.gradcheck import grad_check
from .autodiff.rng import make_rng
from .autodiff.tensor import no_grad
from .chem import SmilesError, parse_smiles
from .chem.graph import Atom, Bond, BondOrder, MolecularGraph
from .chem.perception import annotate
from .data import DataError, load_csv, read_csv
from .featurize import FeaturizeConfig, featurize
from .helper import Counter, Helper, sendable
from .model import MAX_CHUNK_ATOMS, ModelConfig, MoleculeBatch, chunks
from .model.network import MlfgnnModel
from .train import SEED_MAX, NonFiniteLossError, TrainConfig, multi_seed

log = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_VERIFY = 3


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


# Model keys that a command works out; a config file may not set them, but a
# checkpoint's model section records them.
DERIVED_MODEL_KEYS = {
    key: Kind("derived", f"left out: it comes from {source}", lambda value: False)
    for key, source in (("task", "train --task"), ("n_tasks", "the label columns"),
                        ("fingerprint_dim", "the featurize section"))
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


# -- featurize ---------------------------------------------------------------


def cmd_featurize(args) -> int:
    file_config = load_config_file(args.config)
    overrides = {"components": args.fingerprints.split(",")} if args.fingerprints else {}
    featurize_config = FeaturizeConfig.from_dict({**file_config.get("featurize", {}), **overrides})
    _header, rows, _checksum = read_csv(args.input, [args.smiles_col])
    records = []
    n_errors = 0
    for row_num, row in enumerate(rows, start=2):
        smiles = (row[args.smiles_col] or "").strip()
        try:
            mol = featurize(parse_smiles(smiles), featurize_config)
        except SmilesError as exc:
            records.append({"row": row_num, "smiles": smiles, "error": str(exc)})
            n_errors += 1
            continue
        bonds = [
            {"u": int(u), "v": int(v), "features": feats.tolist()}
            for u, v, feats in zip(mol.src, mol.dst, mol.bond_features)
            if u < v
        ]
        records.append(
            {
                "row": row_num,
                "smiles": smiles,
                "n_atoms": mol.n_atoms,
                "atom_features": mol.atom_features.tolist(),
                "bonds": bonds,
                "fingerprint": mol.fingerprint.tolist(),
            }
        )
    if records and n_errors == len(records):
        raise DataError(f"{args.input}: every row failed to parse")
    with open(args.out, "w") as fh:
        for record in records:
            fh.write(json.dumps(record, sort_keys=True) + "\n")
    print(f"wrote {len(records)} records ({n_errors} errors) to {args.out}")
    return EXIT_OK


# -- train -------------------------------------------------------------------


def cmd_train(args) -> int:
    task = {"cls": "classification", "reg": "regression"}[args.task]
    file_config = load_config_file(args.config)
    label_cols = [c.strip() for c in args.label_cols.split(",")] if args.label_cols else None
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
        command=" ".join(sys.argv),
        config_digest=config_digest(full_config),
        dataset_checksum=dataset.checksum,
        seeds=list(train_config.seeds),
        version=__version__,
        started_at=_utc_now(),
    )
    manifest_path = out_dir / "manifest.json"
    manifest.write(manifest_path)

    report, results, splits = multi_seed(
        lambda seed: MlfgnnModel(model_config, seed=seed),
        dataset,
        train_config,
        split_method=args.split,
        featurize_config=featurize_config,
        log_dir=out_dir,
    )
    for seed, result in results.items():
        ckpt_path = out_dir / f"seed_{seed}.ckpt"
        save_checkpoint(ckpt_path, full_config, result.state)
        report.checkpoints[seed] = ckpt_path.name
        splits[seed].save(out_dir / f"seed_{seed}_split.json", dataset.checksum)
    report_payload = report.to_dict()
    report_payload["best_epochs"] = {str(s): r.best_epoch for s, r in results.items()}
    report_payload["valid_metrics"] = {str(s): r.valid_metric for s, r in results.items()}
    (out_dir / "report.json").write_text(json.dumps(report_payload, indent=1, sort_keys=True))

    manifest.finished_at = _utc_now()
    manifest.status = "complete"
    manifest.write(manifest_path)
    mean = "undefined" if report.mean is None else f"{report.mean:.4f}"
    print(f"{report.metric_name}: {mean} +- {report.std:.4f} over seeds {list(train_config.seeds)}")
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
    other value raises ``ConfigError``, since this version cannot build it."""
    section = dict(section)
    for key, value in RETIRED_KEYS[name].items():
        if key in section and json.dumps(section[key]) != json.dumps(value):
            raise ConfigError(f"{key} must be {json.dumps(value)}, the only value this "
                              f"version builds, got {section[key]!r}")
        section.pop(key, None)
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
        model = MlfgnnModel(model_config, seed=0)
        model.load_state_arrays(arrays)
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


# Chunks per ``predict`` window. The two lanes claim a window's chunks from
# one shared counter, not by a fixed deal, so the split follows what each
# chunk really costs. This process runs chunk 0, parses the next window while
# lane 1 (a helper forked for the window, which reads the parsed graphs
# copy-on-write) works, then claims chunks too. At most 64 atoms a chunk and
# about 0.5 KB per parsed atom, the two windows of parsed graphs alive at
# once come to about 2 MB.
PREDICT_WINDOW_CHUNKS = 32


def cmd_predict(args) -> int:
    model, featurize_config = build_model_from_checkpoint(args.checkpoint, force=args.force)
    _header, rows, _checksum = read_csv(args.input, [args.smiles_col])
    n_tasks = model.config.n_tasks
    pred_cols = [f"prediction_{i}" for i in range(n_tasks)] if n_tasks > 1 else ["prediction"]

    def parsed():
        """(smiles, graph, None) per row, or (smiles, None, parse error)."""
        for row in rows:
            smiles = (row[args.smiles_col] or "").strip()
            try:
                yield smiles, parse_smiles(smiles), None
            except SmilesError as exc:
                yield smiles, None, exc

    def run_lane(window, ks):
        """Predicts ``window[k]`` for each k of ``ks`` until one raises:
        ({k: predictions}, None), or ({k: predictions}, (k, the exception))."""
        preds = {}
        for k in ks:
            try:
                mols = [featurize(g, featurize_config) for _s, g, _e in window[k] if g is not None]
                preds[k] = model.predict_batch(MoleculeBatch(mols)) if mols else ()
            except Exception as exc:
                return preds, (k, sendable(exc))
        return preds, None

    # Rows run in packed chunks; an error row rides in its chunk with no atoms.
    packed = chunks(parsed(), lambda row: 0 if row[1] is None else row[1].n_atoms)
    n_rows = n_errors = 0
    with open(args.out, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([args.smiles_col, *pred_cols])
        window = list(itertools.islice(packed, PREDICT_WINDOW_CHUNKS))
        while window:
            claims = Counter(1)  # chunk 0 is this process's own
            lane1 = Helper(lambda n: run_lane(window, claims.claims(n)))
            # A one-chunk window leaves lane 1 nothing to claim: its helper is
            # not entered, so nothing is forked and its reply runs inline.
            with lane1 if len(window) > 1 else nullcontext():
                lane1.send(len(window))
                preds, failure = run_lane(window, [0])
                ahead = []
                if failure is None:  # a lane that fails claims no more
                    ahead = list(itertools.islice(packed, PREDICT_WINDOW_CHUNKS))
                    more, failure = run_lane(window, claims.claims(len(window)))
                    preds.update(more)
                more, lane1_failure = lane1.reply()
                preds.update(more)
            # Chunks are claimed in increasing order, so every chunk below the
            # lowest-numbered failure has run: that failure is the one raised,
            # whichever lane ran it.
            failures = [f for f in (failure, lane1_failure) if f is not None]
            if failures:
                raise min(failures, key=lambda f: f[0])[1]
            for k, chunk in enumerate(window):
                chunk_preds = iter(preds[k])
                for smiles, graph, error in chunk:
                    n_rows += 1
                    if graph is None:
                        n_errors += 1
                        writer.writerow([smiles, *[f"ERROR:{error}" for _ in pred_cols]])
                    else:
                        writer.writerow([smiles, *[repr(float(p)) for p in next(chunk_preds)]])
            window = ahead
    if n_rows and n_errors == n_rows:
        raise DataError(
            f"{args.input}: every row failed to parse; their ERROR cells are in {args.out}"
        )
    print(f"predictions written to {args.out} ({n_errors} error rows)")
    return EXIT_OK


# -- explain -------------------------------------------------------------------


def cmd_explain(args) -> int:
    model, featurize_config = build_model_from_checkpoint(args.checkpoint, force=args.force)
    mol = featurize(parse_smiles(args.smiles), featurize_config)
    trace: dict = {}
    with no_grad():
        out = model.forward(MoleculeBatch([mol]), trace=trace)
    prediction = out.data[0].tolist()
    lambda_attn, lambda_adj = model.lambda_values()
    bundle = {
        "smiles": args.smiles,
        "n_atoms": mol.n_atoms,
        "prediction": prediction,
        "gate_alpha": trace["gate_alpha"],
        "lambda_attn": lambda_attn,
        "lambda_adj": lambda_adj,
        "gat_attention": [m.tolist() for m in trace.get("gat_attention", [])],
        "transformer_attention": [
            [head.tolist() for head in layer] for layer in trace.get("transformer_attention", [])
        ],
        "readout_attention": trace.get("readout_attention", np.zeros(0)).tolist(),
        "cross_attention": [head.tolist() for head in trace.get("cross_attention", [])],
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
    p.add_argument(
        "--ablate",
        default=None,
        choices=["gat-only", "transformer-only", "no-fp"],
        help="train an ablated variant",
    )
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
    p.add_argument(
        "--ablate", default=None, choices=["gat-only", "transformer-only", "no-fp"]
    )
    p.set_defaults(func=cmd_gradcheck)
    return parser


_ABLATION_FLAG = {"gat-only": "gat_only", "transformer-only": "transformer_only", "no-fp": "no_fingerprint"}


def main(argv=None) -> int:
    try:
        logging.basicConfig(level=os.environ.get("MOLFUSION_LOG", "WARNING").upper())
    except ValueError as exc:
        print(f"config error: MOLFUSION_LOG: {exc}; use DEBUG, INFO, WARNING or ERROR",
              file=sys.stderr)
        return EXIT_USAGE
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "ablate", None):
        args.ablate = _ABLATION_FLAG[args.ablate]
    try:
        return args.func(args)
    except (DataError, SmilesError, CheckpointError, OSError, NonFiniteLossError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
