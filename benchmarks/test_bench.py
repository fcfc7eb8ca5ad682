"""Tests of the benchmark itself: inputs, output checks and metric names."""

from __future__ import annotations

import contextlib
import io
import json
from pathlib import Path

import pytest

import run
import workloads
from molfusion import cli

BENCHMARK_JSON = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def _input_bytes(work: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(work.iterdir())}


@pytest.mark.parametrize("name", ["train-small", "screen-small"])
def test_generator_is_deterministic(tmp_path, name):
    first = workloads.generate(name, 7, tmp_path / "a")
    again = workloads.generate(name, 7, tmp_path / "b")
    other = workloads.generate(name, 8, tmp_path / "c")
    assert first.rows == again.rows and first.malformed == again.malformed
    assert _input_bytes(tmp_path / "a") == _input_bytes(tmp_path / "b")
    assert _input_bytes(tmp_path / "a") != _input_bytes(tmp_path / "c")


def test_screen_small_rows_fail_exactly_where_malformed(tmp_path):
    from molfusion.chem import SmilesError, parse_smiles

    spec = workloads.generate("screen-small", 3, tmp_path)
    assert len(spec.rows) == workloads.SCREEN_SMALL_ROWS
    assert len(spec.malformed) == workloads.SCREEN_SMALL_MALFORMED
    for i, smiles in enumerate(spec.rows):
        if i in spec.malformed:
            with pytest.raises(SmilesError):
                parse_smiles(smiles)
        else:
            parse_smiles(smiles)


@pytest.mark.parametrize("seed", range(5))
def test_large_molecules_hit_the_atom_range(seed):
    from molfusion.chem import parse_smiles

    pool = workloads.corpus()
    molecules = workloads.large_molecules(seed, 40, pool)
    assert molecules == workloads.large_molecules(seed, 40, pool)
    assert len(set(molecules)) == 40
    atoms = [parse_smiles(smiles).n_atoms for smiles in molecules]
    assert workloads.LARGE_MIN_ATOMS <= min(atoms) and max(atoms) <= workloads.LARGE_MAX_ATOMS


@pytest.fixture(scope="module")
def screen(tmp_path_factory):
    """A real ``predict`` on a few rows, one of them malformed."""
    work = tmp_path_factory.mktemp("screen")
    rows = ["CCO", "CC(", "c1ccccc1O", "CC(=O)Nc1ccccc1"]
    (work / "input.csv").write_text("smiles\n" + "".join(s + "\n" for s in rows))
    model = workloads._screen_checkpoint(work / "screen.ckpt", seed=0)
    spec = workloads.Workload("screen-small", [], rows, {1}, model=model)
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(["predict", "--checkpoint", str(work / "screen.ckpt"),
                         "--input", str(work / "input.csv"), "--out", str(work / "out.csv")])
    assert code == 0
    reference = run.reference_predictions(model, rows, spec.malformed)
    return spec, reference, (work / "out.csv").read_text()


def test_check_accepts_correct_predictions(screen):
    spec, reference, text = screen
    wrong, values = run.check_predictions(spec.rows, spec.malformed, reference, text)
    assert wrong == 0 and len(values) == 3


def test_check_catches_a_perturbed_prediction(screen):
    spec, reference, text = screen
    lines = text.splitlines()
    smiles, value = lines[1].split(",")
    lines[1] = f"{smiles},{float(value) + 1e-6!r}"
    wrong, _ = run.check_predictions(spec.rows, spec.malformed, reference, "\n".join(lines))
    assert wrong == 1


def test_check_catches_a_missing_error_cell(screen):
    spec, reference, text = screen
    lines = text.splitlines()
    assert lines[2].split(",")[1].startswith("ERROR:")
    lines[2] = "CC(,0.5"
    wrong, _ = run.check_predictions(spec.rows, spec.malformed, reference, "\n".join(lines))
    assert wrong == 1
    dropped = "\n".join(lines[:2] + lines[3:])
    assert run.check_predictions(spec.rows, spec.malformed, reference, dropped)[0] >= 1


def _declared(section: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in json.loads(BENCHMARK_JSON.read_text())[section]}


def test_benchmark_json_names_the_printed_metrics():
    spec = json.loads(BENCHMARK_JSON.read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert _declared("end_to_end") == run.END_TO_END
    assert _declared("per_layer") == run.PER_LAYER


def _traced(tmp_path: Path, argv: list[str], records: int) -> dict[str, float]:
    result, stderr = run.run_worker(argv, True, records, tmp_path, "t")
    assert result is not None, stderr
    assert result["exit_code"] == 0
    return result["layers"]


def test_traced_commands_report_every_layer_metric(tmp_path, screen):
    spec, _reference, _text = screen
    pool = workloads.corpus()[:30]
    csv_path = tmp_path / "train.csv"
    csv_path.write_text("smiles,y\n" + "".join(f"{s},{i % 7}\n" for i, s in enumerate(pool)))
    train = _traced(tmp_path, ["train", "--data", str(csv_path), "--task", "reg", "--seeds",
                               "1", "--epochs", "1", "--out", str(tmp_path / "run")], len(pool))
    (tmp_path / "input.csv").write_text("smiles\n" + "".join(s + "\n" for s in spec.rows))
    workloads._screen_checkpoint(tmp_path / "screen.ckpt", seed=0)
    predict = _traced(tmp_path, ["predict", "--checkpoint", str(tmp_path / "screen.ckpt"),
                                 "--input", str(tmp_path / "input.csv"),
                                 "--out", str(tmp_path / "out.csv")], len(spec.rows))
    common = set(run.PER_LAYER) - {"trace_overhead_frac"}
    assert common <= set(train) and common <= set(predict)
    assert set(train) | set(predict) == common | set(run.WORKLOAD_LAYER_UNITS)
    assert train["chem.parse_calls_per_record"] == 2.0
    assert predict["chem.parse_calls_per_record"] == 1.0
    assert train["autodiff.adam_steps"] == 1


def test_report_prints_exactly_the_declared_metrics(capsys):
    spec = workloads.Workload("screen-small", [], ["CCO", "CC("], {1}, heavy_atoms=[3])
    outcomes = run.Outcomes(spec, reference=[0.5, None])
    outcomes.attempted, outcomes.valid_rmse = 2, 0.5
    plain = [{"wall_s": w, "peak_rss_mb": 50.0} for w in (1.0, 1.2, 1.1)]
    args = run.parse_args(["--workload", "screen-small", "--seed", "0", "--seconds", "1"])
    result, correct = run.report(args, spec, 0.1, True, outcomes, {False: plain, True: []}, 0.8)
    assert correct and set(result["metrics"]) == set(run.END_TO_END)
    assert result["metrics"]["norm_wall_s"]["value"] == pytest.approx(1.1 * 0.8)
    assert result["metrics"]["setup_s"]["value"] == pytest.approx(0.1 * 0.8)
    layers = {name: 1.0 for name in run.PER_LAYER if name != "trace_overhead_frac"}
    traced = [{"wall_s": 1.3, "peak_rss_mb": 60.0, "layers": layers}] * 3
    args.trace = 1
    result, correct = run.report(args, spec, 0.1, True, outcomes, {False: plain, True: traced},
                                 0.8)
    assert correct and set(result["metrics"]) == set(run.PER_LAYER)
    assert result["metrics"]["trace_overhead_frac"]["value"] == pytest.approx(1.3 / 1.1 - 1)
    printed = capsys.readouterr().out
    for name in [*run.END_TO_END, *run.PER_LAYER, "failed_frac", "wall_s", "raw_setup_s",
                 "host_speed"]:
        assert f"\n{name} " in printed


def test_train_check_recomputes_the_reported_valid_rmse(tmp_path):
    rows = workloads.corpus()[:30]
    labels = [float(i % 7) for i in range(len(rows))]
    (tmp_path / "train.csv").write_text(
        "smiles,y\n" + "".join(f"{s},{y}\n" for s, y in zip(rows, labels)))
    run_dir = tmp_path / "run"
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["train", "--data", str(tmp_path / "train.csv"), "--task", "reg",
                         "--seeds", "1", "--epochs", "1", "--out", str(run_dir)]) == 0
    spec = workloads.Workload("train-small", [], rows, labels=labels)
    outcomes = run.Outcomes(spec, reference=None)
    outcomes.record({"exit_code": 0}, run_dir)
    assert (outcomes.attempted, outcomes.failed) == (1, 0)
    report = json.loads((run_dir / "report.json").read_text())
    report["valid_metrics"]["0"] *= 1 + 1e-6
    (run_dir / "report.json").write_text(json.dumps(report))
    tampered = run.Outcomes(spec, reference=None)
    tampered.record({"exit_code": 0}, run_dir)
    assert tampered.failed == 1
