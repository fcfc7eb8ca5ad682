"""The molfusion benchmark: one workload, one seed, one JSON line of metrics.

Usage, from the repository root:

    python3 benchmarks/run.py --workload train-small --seed 1 --seconds 20 --trace 0

Workloads (inputs made by ``workloads.py`` from the seed):

- ``train-small``: ``molfusion train`` on the 300-molecule corpus;
- ``screen-small``: ``molfusion predict`` on 500 corpus rows, 2% malformed;
- ``screen-large``: ``molfusion predict`` on 240 molecules of 30-66 atoms.

Each run sets up the inputs at least three times and for at least 2 s
(``setup_s`` is the scaled median), then
runs the workload's one CLI command again and again, each time in a fresh
worker process, until ``--seconds`` have passed and at least three
repeats are done. A fixed reference loop (``hostspeed.py``) is timed before
the first repeat and after each one; the gated times are scaled by it, so
that they do not drift with the shared host's speed. Every repeat's output
is checked. With ``--trace 1`` the
repeats alternate between untraced and traced processes, and the run reports
per-layer metrics and the tracing overhead instead of end-to-end ones.

Lines before the last one are for people: every metric with its unit,
including those that exist on one workload only. The last line is the JSON
result. The exit code is 0 when every output was correct, 1 when one was
not, and 2 when the molfusion sources are missing.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from hostspeed import REF_LOOP_S, time_reference_loop
from tracer import BLOCKS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

WORKLOADS = ("train-small", "screen-small", "screen-large")
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
# Set up at least three times and for at least 2 s, so that the median of a
# fast set-up (0.1 s on train-small) is not one noisy sample among three.
MIN_SETUPS = 3
MIN_SETUP_S = 2.0
MIN_REPEATS = 3  # per mode; the medians need at least three samples
MAX_MEASURE_S = 90  # stop repeating here, so a slow machine still ends within 180 s
WORKER_TIMEOUT_S = 60
TOLERANCE = 1e-9

# The JSON line's metrics, as BENCHMARK.json lists them: end-to-end metrics
# with --trace 0, per-layer metrics with --trace 1. Both sets exist on every
# workload; metrics of one workload only are printed on the lines above.
END_TO_END = {
    "setup_s": "s",
    "norm_wall_s": "s",
    "norm_rows_per_s": "1/s",
    "peak_rss_mb": "MB",
    "valid_rmse": "1",
}
PER_LAYER = {
    "chem.parse_calls_per_record": "count",
    "chem.parse_ms_per_mol": "ms",
    **{f"featurize.{p}_ms_per_mol": "ms" for p in ("total", "morgan", "keys", "erg", "graph")},
    "model.forward_ms_per_mol": "ms",
    **{f"model.{b}.forward_ms_per_mol": "ms" for b in BLOCKS},
    "autodiff.tape_ops_per_eval_forward": "count",
    "cli.self_s": "s",
    "trace_overhead_frac": "1",
}
# Per-layer metrics of the layers that only train-small or only the screens enter.
WORKLOAD_LAYER_UNITS = {
    "autodiff.tape_ops_per_train_forward": "count",
    "autodiff.backward_ms_per_mol": "ms",
    "autodiff.adam_step_ms": "ms",
    "autodiff.adam_steps": "count",
    "autodiff.checkpoint_save_ms": "ms",
    "autodiff.checkpoint_load_ms": "ms",
    "train.epoch_s": "s",
    "train.valid_eval_ms_per_mol": "ms",
    "train.loss_ms_per_mol": "ms",
    "data.load_csv_ms": "ms",
    "data.split_ms": "ms",
}


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def run_worker(argv: list[str], traced: bool, records: int, work: Path, tag: str):
    """One CLI command in a fresh process; returns (result or None, stderr)."""
    spec, result = work / f"spec_{tag}.json", work / f"result_{tag}.json"
    spec.write_text(json.dumps({"argv": argv, "trace": traced, "records": records}))
    path = [str(SRC), str(HERE), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, **BLAS_ENV, "PYTHONHASHSEED": "0",
           "PYTHONPATH": os.pathsep.join(p for p in path if p)}
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), str(spec), str(result)],
            env=env, capture_output=True, text=True, timeout=WORKER_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:  # run() has killed and reaped the worker
        return None, f"worker timed out after {WORKER_TIMEOUT_S} s"
    if proc.returncode != 0 or not result.is_file():
        return None, proc.stderr
    return json.loads(result.read_text()), proc.stderr


def check_predictions(rows, malformed, reference, text: str) -> tuple[int, list[float]]:
    """Count wrong rows in a ``predict`` output; also return the valid rows' values.

    A malformed row must come out as an ``ERROR:`` cell, every other row as a
    number within ``TOLERANCE`` of the in-process reference. A missing, extra
    or reordered row counts as wrong.
    """
    reader = csv.reader(io.StringIO(text))
    if next(reader, None) != ["smiles", "prediction"]:
        return len(rows), []
    out = list(reader)
    wrong = abs(len(out) - len(rows))
    values = []
    for i, (row, ref) in enumerate(zip(out, reference)):
        if len(row) != 2 or row[0] != rows[i]:
            wrong += 1
            continue
        cell = row[1]
        if i in malformed:
            wrong += not cell.startswith("ERROR:")
            continue
        try:
            value = float(cell)
        except ValueError:
            wrong += 1
            continue
        wrong += not abs(value - ref) <= TOLERANCE * max(1.0, abs(ref))
        values.append(value)
    return wrong, values


def rmse(values: list[float], labels: list[float]) -> float:
    return math.sqrt(sum((v - y) ** 2 for v, y in zip(values, labels)) / len(values))


def reference_predictions(model, rows: list[str], skip=frozenset()) -> list[float | None]:
    """Per-molecule reference: parse_smiles -> featurize -> MlfgnnModel.predict."""
    from molfusion.chem import parse_smiles
    from molfusion.featurize import FeaturizeConfig, featurize

    config = FeaturizeConfig()
    return [
        None if i in skip else float(model.predict(featurize(parse_smiles(s), config))[0])
        for i, s in enumerate(rows)
    ]


def reference_valid_rmse(workload, run_dir: Path) -> float:
    """Validation RMSE of the saved checkpoint, recomputed molecule by molecule."""
    from molfusion.autodiff.checkpoint import load_checkpoint
    from molfusion.model import ModelConfig
    from molfusion.model.network import MlfgnnModel

    config, arrays = load_checkpoint(run_dir / "seed_0.ckpt")
    model = MlfgnnModel(ModelConfig.from_dict(config["model"]), seed=0)
    model.load_state_arrays(arrays)
    split = json.loads((run_dir / "seed_0_split.json").read_text())["indices"]
    valid = split["valid"]
    preds = reference_predictions(model, [workload.rows[i] for i in valid])
    return rmse(preds, [workload.labels[i] for i in valid])


class Outcomes:
    """Checks every repeat's output against the first one and the reference."""

    def __init__(self, workload, reference: list[float | None] | None):
        self.workload = workload
        self.reference = reference
        self.attempted = 0
        self.failed = 0
        self.first: bytes | None = None
        self.valid_rmse: float | None = None
        self.train_molecules = 0
        self.epochs = 0

    def record(self, result: dict | None, out: Path) -> None:
        wl = self.workload
        per_repeat = 1 if wl.name == "train-small" else len(wl.rows)
        self.attempted += per_repeat
        produced = out / "report.json" if wl.name == "train-small" else out
        if result is None or result["exit_code"] != 0 or not produced.is_file():
            self.failed += per_repeat
            return
        payload = produced.read_bytes()
        if self.first is None:
            self.first = payload
            self.failed += self._check_first(out, payload)
        elif payload != self.first:  # traced and untraced repeats must agree too
            self.failed += per_repeat

    def _check_first(self, out: Path, payload: bytes) -> int:
        wl = self.workload
        if wl.name == "train-small":
            value = json.loads(payload)["valid_metrics"]["0"]
            split = json.loads((out / "seed_0_split.json").read_text())
            self.train_molecules = len(split["indices"]["train"])
            self.epochs = len((out / "seed_0_log.jsonl").read_text().splitlines())
            if value is None or not math.isfinite(value):
                return 1
            # The best-validation checkpoint must reproduce the reported metric.
            if abs(reference_valid_rmse(wl, out) - value) > TOLERANCE * max(1.0, value):
                return 1
            self.valid_rmse = value
            return 0
        wrong, values = check_predictions(
            wl.rows, wl.malformed, self.reference, payload.decode("utf-8")
        )
        if values:
            labels = [y for i, y in enumerate(wl.labels) if i not in wl.malformed]
            self.valid_rmse = rmse(values, labels)
        return wrong


def measure(args, workload, work: Path) -> tuple[Outcomes, dict[bool, list[dict]], float]:
    """Repeat the command; return the checks, each repeat's result and the host speed."""
    screen = workload.name != "train-small"
    reference = (reference_predictions(workload.model, workload.rows, workload.malformed)
                 if screen else None)
    outcomes = Outcomes(workload, reference)
    results: dict[bool, list[dict]] = {False: [], True: []}
    modes = (False, True) if args.trace else (False,)
    start = time.perf_counter()
    repeat = 0
    loop_s = [time_reference_loop()]  # the host's speed, timed around every repeat
    while True:
        elapsed = time.perf_counter() - start
        done = all(len(results[m]) >= MIN_REPEATS for m in modes)
        if (elapsed >= args.seconds and done) or elapsed > MAX_MEASURE_S:
            break
        traced = modes[repeat % len(modes)]
        out = work / (f"out{repeat}.csv" if screen else f"out{repeat}")
        result, stderr = run_worker(workload.argv + [str(out)], traced, len(workload.rows),
                                    work, str(repeat))
        loop_s.append(time_reference_loop())
        if result is None:
            print(f"worker failed:\n{stderr}", file=sys.stderr)
        else:
            results[traced].append(result)
        outcomes.record(result, out)
        if outcomes.failed:  # the run is already incorrect; more repeats tell nothing
            break
        repeat += 1
    return outcomes, results, REF_LOOP_S / statistics.fmean(loop_s)


def setup(args, work: Path):
    """Generate the inputs again and again; the bytes must repeat exactly."""
    import workloads

    times, digests, workload = [], set(), None
    while len(times) < MIN_SETUPS or sum(times) < MIN_SETUP_S:
        t0 = time.perf_counter()
        workload = workloads.generate(args.workload, args.seed, work / "inputs")
        times.append(time.perf_counter() - t0)
        digests.add(tuple(p.read_bytes() for p in sorted((work / "inputs").iterdir())))
    return workload, statistics.median(times), len(digests) == 1


def describe(workload) -> str:
    atoms = workload.heavy_atoms
    return (f"{workload.name}: {len(workload.rows)} rows, {len(workload.malformed)} malformed, "
            f"heavy atoms mean {statistics.fmean(atoms):.1f} max {max(atoms)}")


def report(args, workload, setup_s: float, deterministic: bool, outcomes: Outcomes,
           results: dict[bool, list[dict]], host_speed: float) -> tuple[dict, bool]:
    """Print the metrics by name; return the JSON result and whether all was correct."""
    plain = results[False]
    correct = deterministic and outcomes.failed == 0 and bool(plain)
    print(describe(workload))
    for traced, runs in results.items():
        if runs:
            walls = " ".join(f"{r['wall_s']:.3f}" for r in runs)
            print(f"{'traced' if traced else 'untraced'} repeats: {len(runs)}, wall_s {walls}")
    failed_frac = outcomes.failed / max(outcomes.attempted, 1)
    lines = {"failed_frac": (failed_frac, "1")}
    metrics: dict[str, float] = {}
    if plain:
        wall = statistics.median(r["wall_s"] for r in plain)
        # Means, not medians: they spread less from run to run on a drifting host.
        norm_wall = statistics.fmean(r["wall_s"] for r in plain) * host_speed
        lines["wall_s"] = (wall, "s")
        lines["rows_per_s"] = (len(workload.rows) / wall, "1/s")
        lines["raw_setup_s"] = (setup_s, "s")
        lines["host_speed"] = (host_speed, "1")
        if workload.name == "train-small":
            lines["train_mol_per_s"] = (outcomes.epochs * outcomes.train_molecules / wall, "1/s")
        metrics = {
            "setup_s": setup_s * host_speed,
            "norm_wall_s": norm_wall,
            "norm_rows_per_s": len(workload.rows) / norm_wall,
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain),
        }
        if outcomes.valid_rmse is not None:
            metrics["valid_rmse"] = outcomes.valid_rmse
    lines.update({k: (v, END_TO_END[k]) for k, v in metrics.items()})
    if args.trace:
        traced = results[True]
        layers: dict[str, float] = {}
        if traced and plain:
            for name in sorted(set().union(*(r["layers"] for r in traced))):
                layers[name] = statistics.median(r["layers"][name] for r in traced
                                                 if name in r["layers"])
            layers["trace_overhead_frac"] = (
                statistics.median(r["wall_s"] for r in traced) / wall - 1.0
            )
        units = {**PER_LAYER, **WORKLOAD_LAYER_UNITS}
        lines.update({k: (v, units[k]) for k, v in layers.items()})
        metrics = {k: layers[k] for k in PER_LAYER if k in layers}
    units = PER_LAYER if args.trace else END_TO_END
    correct = correct and len(metrics) == len(units)
    for name, (value, unit) in lines.items():
        print(f"{name} {value!r} {unit}")
    return {
        "correct": correct,
        "attempted": outcomes.attempted,
        "failed": outcomes.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }, correct


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "molfusion" / "cli.py").is_file():
        print(f"benchmark: molfusion sources not found under {SRC}", file=sys.stderr)
        return 2
    os.environ.update(BLAS_ENV)
    sys.path[:0] = [str(SRC), str(HERE)]
    (ROOT / ".bench_work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=ROOT / ".bench_work"))
    try:
        workload, setup_s, deterministic = setup(args, work)
        outcomes, results, host_speed = measure(args, workload, work)
        result, correct = report(args, workload, setup_s, deterministic, outcomes, results,
                                 host_speed)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
