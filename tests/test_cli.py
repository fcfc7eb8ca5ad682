"""Command-line interface tests, exercised through main()."""

import csv
import dataclasses
import hashlib
import json
import multiprocessing
import os
import re
import shlex
import signal
import struct
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from molfusion.autodiff import load_checkpoint, save_checkpoint
from molfusion.autodiff.checkpoint import config_digest
from molfusion.cli import DERIVED_MODEL_KEYS, main, random_molecule_graph
from molfusion.featurize import FeaturizeConfig
from molfusion.model import ModelConfig
from molfusion.train import NonFiniteLossError, TrainConfig

import corpus_util

SRC = Path(__file__).resolve().parents[1] / "src"
README = Path(__file__).resolve().parents[1] / "README.md"
DATA = Path(__file__).resolve().parent / "data"

TINY_CONFIG = {
    "model": {
        "transformer_layers": 1,
        "heads": 2,
        "hidden_dim": 8,
        "gat_out_dim": 8,
        "gat_layers": 1,
        "fingerprint_embed_dim": 8,
    },
    "train": {"epochs": 2, "batch_size": 16, "patience": 5},
    "featurize": {"morgan_bits": 128, "erg_max_path": 5},
}


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    corpus_util.write_regression_csv(root / "reg.csv", corpus_util.build_corpus(40))
    # larger classification fixture keeps both classes in every fold
    corpus_util.write_classification_csv(root / "cls.csv", corpus_util.build_corpus(80))
    (root / "config.json").write_text(json.dumps(TINY_CONFIG))
    return root


@pytest.fixture(scope="module")
def trained(workdir):
    out = workdir / "run"
    code = main(
        [
            "train",
            "--data", str(workdir / "reg.csv"),
            "--task", "reg",
            "--split", "random",
            "--config", str(workdir / "config.json"),
            "--seeds", "1",
            "--out", str(out),
        ]
    )
    assert code == 0
    return out


def process_env(env: dict | None = None) -> dict:
    """The current environment plus ``env``, with this tree's ``src`` on the path."""
    pythonpath = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    return {**os.environ, **(env or {}), "PYTHONPATH": pythonpath}


def run_process(argv: list[str], env: dict | None = None) -> subprocess.CompletedProcess:
    """``molfusion argv`` in a new Python process, so that stderr holds
    everything the process prints, numpy's warnings included. ``env`` adds to
    the current environment."""
    return subprocess.run([sys.executable, "-m", "molfusion.cli", *argv], capture_output=True,
                          text=True, env=process_env(env), timeout=300)


def csv_command(command: str, data: Path, workdir: Path, trained: Path, out: Path) -> list[str]:
    """Argument list running ``command`` on the CSV ``data``, writing under ``out``."""
    if command == "featurize":
        return ["featurize", "--input", str(data), "--out", str(out / "f.jsonl"),
                "--config", str(workdir / "config.json")]
    if command == "train":
        return ["train", "--data", str(data), "--task", "reg", "--config",
                str(workdir / "config.json"), "--seeds", "1", "--epochs", "1",
                "--out", str(out / "run")]
    return ["predict", "--checkpoint", str(trained / "seed_0.ckpt"), "--input", str(data),
            "--out", str(out / "p.csv")]


class TestInputCsv:
    """featurize, train and predict share one reader, so each gets every case."""

    @pytest.mark.parametrize("command", ["featurize", "train", "predict"])
    def test_bom_header_accepted(self, workdir, trained, tmp_path, command):
        data = tmp_path / "bom.csv"
        data.write_bytes(b"\xef\xbb\xbf" + (workdir / "reg.csv").read_bytes())
        assert main(csv_command(command, data, workdir, trained, tmp_path)) == 0

    @pytest.mark.parametrize("command", ["featurize", "train", "predict"])
    @pytest.mark.parametrize(
        "raw, cause",
        [(b"", "empty file"), (b"smiles,y\nCCO,1\nCC\xff,2\n", "not UTF-8")],
        ids=["empty", "not-utf8"],
    )
    def test_unreadable_file_exit_2(self, workdir, trained, tmp_path, capsys, command, raw, cause):
        data = tmp_path / "bad.csv"
        data.write_bytes(raw)
        assert main(csv_command(command, data, workdir, trained, tmp_path)) == 2
        assert cause in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["featurize", "train", "predict"])
    @pytest.mark.parametrize("header, row, name", [("smiles,y,y", "{},1.5,2.5", "y"),
                                                    ("smiles,smiles", "{},{}", "smiles")],
                             ids=["label", "smiles"])
    def test_repeated_header_name_exit_2(self, workdir, trained, tmp_path, command, header,
                                         row, name):
        """A row would keep only the last cell of a repeated name, so the
        header is refused before anything is written. Run as a process, so
        that a traceback would reach stderr."""
        data = tmp_path / "repeated.csv"
        smiles = corpus_util.build_corpus(30)
        data.write_text(header + "\n" + "".join(row.format(s, s) + "\n" for s in smiles))
        proc = run_process(csv_command(command, data, workdir, trained, tmp_path))
        assert proc.returncode == 2
        assert proc.stderr == f"data error: {data}: header repeats the column names ['{name}']\n"
        assert sorted(tmp_path.iterdir()) == [data]

    @pytest.mark.parametrize("command", ["featurize", "train", "predict"])
    def test_row_longer_than_the_header_exit_2(self, workdir, trained, tmp_path, command):
        """``csv.DictReader`` files the cells past the header under the key
        None, which no command reads, so such a row is refused before
        anything is written. Run as a process, so that a traceback would
        reach stderr."""
        data = tmp_path / "long.csv"
        rows = [f"{s},1.5" for s in corpus_util.build_corpus(30)]
        rows[7] += ",7"  # row 9: the header is row 1
        data.write_text("smiles,y\n" + "".join(r + "\n" for r in rows))
        proc = run_process(csv_command(command, data, workdir, trained, tmp_path))
        assert proc.returncode == 2
        assert proc.stderr == (f"data error: {data}: row 9 has 3 cells, more than the 2 of "
                               "the header\n")
        assert sorted(tmp_path.iterdir()) == [data]


class TestFeaturizeCommand:
    # sha256 of the JSONL that ``featurize`` writes for build_corpus(300) with
    # the default config, as written by commit c43dc29, which still kept
    # every fingerprint as a dense row.
    CORPUS_300_SHA256 = "9db1c7a334d161c76d7f316e91c9ef9e7aa2bc3f9729faa04416ee2feea3ff17"

    @pytest.mark.parametrize("fork", [True, False], ids=["forked", "inline"])
    def test_jsonl_matches_the_dense_era_digest(self, tmp_path, monkeypatch, fork):
        """Fingerprints are densified only in the record, so the bytes are the
        dense version's, forked and inline."""
        from molfusion import helper

        monkeypatch.setattr(helper, "FORK_HELPER", fork and helper.FORK_HELPER)
        data, out = tmp_path / "c300.csv", tmp_path / "c300.jsonl"
        data.write_text("smiles\n" + "".join(s + "\n" for s in corpus_util.build_corpus(300)))
        assert main(["featurize", "--input", str(data), "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == self.CORPUS_300_SHA256

    def test_widths_and_determinism(self, workdir):
        out1, out2 = workdir / "f1.jsonl", workdir / "f2.jsonl"
        for out in (out1, out2):
            code = main(
                ["featurize", "--input", str(workdir / "reg.csv"), "--out", str(out),
                 "--config", str(workdir / "config.json")]
            )
            assert code == 0
        assert out1.read_bytes() == out2.read_bytes()
        first = json.loads(out1.read_text().splitlines()[0])
        assert len(first["atom_features"][0]) == 57
        if first["bonds"]:
            assert len(first["bonds"][0]["features"]) == 13

    def test_fingerprint_subset_flag(self, workdir):
        out = workdir / "fp_only.jsonl"
        code = main(
            ["featurize", "--input", str(workdir / "reg.csv"), "--out", str(out),
             "--fingerprints", "morgan", "--config", str(workdir / "config.json")]
        )
        assert code == 0
        first = json.loads(out.read_text().splitlines()[0])
        assert len(first["fingerprint"]) == 128

    def test_error_rows_surfaced(self, workdir):
        bad = workdir / "bad.csv"
        bad.write_text("smiles,y\nCCO,1\nnot_a((smiles,2\n")
        out = workdir / "bad.jsonl"
        assert main(["featurize", "--input", str(bad), "--out", str(out)]) == 0
        lines = [json.loads(l) for l in out.read_text().splitlines()]
        assert "error" in lines[1]
        assert lines[1]["row"] == 3

    def test_every_row_failing_exit_2(self, tmp_path):
        """Every row's error record is written, then the command exits 2."""
        bad = tmp_path / "all_bad.csv"
        bad.write_text("smiles,y\nxx((bad,1\nC1CC,2\n")
        out = tmp_path / "all_bad.jsonl"
        proc = run_process(["featurize", "--input", str(bad), "--out", str(out)])
        assert proc.returncode == 2
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("data error:"), proc.stderr
        assert "every row failed to parse" in lines[0]
        records = [json.loads(line) for line in out.read_text().splitlines()]
        assert [(r["row"], r["smiles"]) for r in records] == [(2, "xx((bad"), (3, "C1CC")]
        assert all(sorted(r) == ["error", "row", "smiles"] for r in records)

    def test_memory_is_bounded_by_the_window(self, tmp_path, monkeypatch):
        """Records are written as their chunk is done, so 4x the rows peaks
        close to 1x under tracemalloc (inline; 60 corpus rows make 4
        chunks). Building every record before writing would peak about 4x as
        high."""
        import tracemalloc

        from molfusion import helper

        monkeypatch.setattr(helper, "FORK_HELPER", False)
        smiles = corpus_util.build_corpus(60)
        out = tmp_path / "f.jsonl"
        peaks = {}
        for copies in (1, 4):
            data = tmp_path / f"rows_{copies}.csv"
            data.write_text("smiles\n" + "".join(s + "\n" for s in smiles * copies))
            argv = ["featurize", "--input", str(data), "--out", str(out)]
            if not peaks:  # an untraced run first, so caches (the key table) are warm
                assert main(argv) == 0
            tracemalloc.start()
            try:
                assert main(argv) == 0
                peaks[copies] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert len(out.read_text().splitlines()) == 60 * copies
        assert peaks[4] < 1.5 * peaks[1], peaks

    @pytest.mark.parametrize(
        "flags,section",
        [(["--fingerprints", "maccs"], {}), ([], {"morgan_bits": 8}), ([], {"bits": 64})],
        ids=["unknown-component", "bad-value", "unknown-key"],
    )
    def test_config_error_exit_1(self, workdir, tmp_path, capsys, flags, section):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"featurize": section}))
        out = tmp_path / "f.jsonl"
        code = main(["featurize", "--input", str(workdir / "reg.csv"), "--out", str(out),
                     "--config", str(config), *flags])
        assert code == 1
        assert "config error:" in capsys.readouterr().err
        assert not out.exists()


def test_readme_config_block_and_table_follow_the_field_tables():
    """README's "Config file" JSON block holds the default of every field a
    config file may set, and its table gives every field's kind, what it must
    be and its default, as the dataclasses and their field tables do."""
    text = README.read_text("utf-8")
    text = text[text.index("## Config file"):]
    block = json.loads(re.search(r"```json\n(.*?)```", text, re.S).group(1))
    rows = re.findall(r"^\| `(\w+)\.(\w+)` \| (.+?) \| (.+?) \| (.+?) \|$", text, re.M)
    sections = {"model": ModelConfig, "train": TrainConfig, "featurize": FeaturizeConfig}
    defaults = {
        name: {f.name: json.loads(json.dumps(f.default)) for f in dataclasses.fields(cls) if f.init}
        for name, cls in sections.items()
    }
    settable = {
        name: {key: value for key, value in fields.items()
               if name != "model" or key not in DERIVED_MODEL_KEYS}
        for name, fields in defaults.items()
    }
    assert block == settable
    assert [row[:4] for row in rows] == [
        (name, key, kind.name, kind.text)
        for name, cls in sections.items() for key, kind in cls.field_table().items()
    ]
    for name, key, _kind, _text, default in rows:
        if key in settable[name]:
            assert json.loads(default.strip("`")) == settable[name][key], (name, key)
        else:
            assert default.startswith("from "), (name, key)


MODEL_KEYS = sorted(key for key in ModelConfig.field_table() if key not in DERIVED_MODEL_KEYS)
# (section, key, upper bound) of each integer field a config file may set,
# the bound read from what the field must be.
INTEGER_FIELDS = [
    (name, key, int(re.search(r", (\d+)\]$", kind.text).group(1)))
    for name, cls in {"model": ModelConfig, "train": TrainConfig,
                      "featurize": FeaturizeConfig}.items()
    for key, kind in cls.field_table().items()
    if "integer" in kind.name and not (name == "model" and key in DERIVED_MODEL_KEYS)
]


class TestTrainCommand:
    def test_config_checked_before_the_data_is_read(self, workdir, tmp_path, capsys):
        config = {"model": {"hidden_dim": 7, "heads": 2}}
        (tmp_path / "config.json").write_text(json.dumps(config))
        code = main(["train", "--data", str(tmp_path / "missing.csv"), "--task", "reg",
                     "--config", str(tmp_path / "config.json"), "--out", str(tmp_path / "run")])
        assert code == 1
        assert capsys.readouterr().err == (
            "config error: hidden_dim (7) must be a multiple of heads (2)\n")

    @pytest.mark.parametrize("data", ["reg.csv", "missing.csv"])
    def test_repeated_label_col_is_a_config_error(self, workdir, tmp_path, data):
        """Two copies of one column would train as two tasks. The flag is
        checked before any row is read: a missing data file still gives exit 1.
        Run as a process, so that a traceback would reach stderr."""
        proc = run_process(["train", "--data", str(workdir / data), "--task", "reg",
                            "--label-cols", "y, y", "--config", str(workdir / "config.json"),
                            "--out", str(tmp_path / "run")])
        assert proc.returncode == 1
        assert proc.stderr == "config error: --label-cols must not repeat a column, got 'y, y'\n"
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("train_section,flags", [
        ({"batch_size": 0}, []),
        ({"batch_size": 2.5}, []),
        ({"batch_size": -3}, []),
        ({"target_train_rmse": "x"}, []),
        ({}, ["--seeds", "0"]),
    ], ids=["batch-0", "batch-2.5", "batch-negative", "target-string", "no-seeds"])
    def test_bad_train_value_is_a_config_error(self, workdir, tmp_path, train_section, flags):
        """Run as a process, so that a traceback would reach stderr."""
        data = tmp_path / "reg.csv"
        corpus_util.write_regression_csv(data, corpus_util.build_corpus(30))
        config = dict(TINY_CONFIG, train={**TINY_CONFIG["train"], **train_section})
        (tmp_path / "config.json").write_text(json.dumps(config))
        proc = run_process(["train", "--data", str(data), "--task", "reg", "--config",
                            str(tmp_path / "config.json"), "--epochs", "1", *flags,
                            "--out", str(tmp_path / "run")])
        assert proc.returncode == 1
        assert "config error:" in proc.stderr and "Traceback" not in proc.stderr
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("command", ["train", "gradcheck"])
    @pytest.mark.parametrize("config", [
        {"model": {"transformer_layers": 1.5}},
        {"model": {"heads": 4.0}},
        {"model": {"gat_layers": True}},
        {"featurize": {"morgan_bits": 100.5}},
        {"featurize": {"morgan_radius": 1.5}},
        {"featurize": {"erg_max_path": 2.5}},
        {"train": {"epochs": 1.5}},
        {"train": {"epochs": 3, "patience": "x", "lr": 0.5}},
    ], ids=["layers-1.5", "heads-4.0", "gat-layers-true", "morgan-bits-100.5",
            "morgan-radius-1.5", "erg-path-2.5", "epochs-1.5", "patience-string"])
    def test_non_integer_count_is_a_config_error(self, tmp_path, command, config):
        """A count field takes an integer, not a float or a bool. ``train``
        names a data file that does not exist, so exit 1 shows the config was
        checked before any row was read. Run as a process, so that a traceback
        would reach stderr."""
        (tmp_path / "config.json").write_text(json.dumps(config))
        argv = [command, "--config", str(tmp_path / "config.json")]
        if command == "train":
            argv += ["--data", str(tmp_path / "missing.csv"), "--task", "reg",
                     "--out", str(tmp_path / "run")]
        proc = run_process(argv)
        assert proc.returncode == 1, proc.stderr
        assert proc.stderr.startswith("config error: "), proc.stderr
        assert "integer" in proc.stderr and "Traceback" not in proc.stderr
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("config,message", [
        ({"train": {"lr": True}}, "lr must be a finite number > 0, got True"),
        ({"train": {"lr": float("nan")}}, "lr must be a finite number > 0, got nan"),
        ({"train": {"lr": "x"}}, "lr must be a finite number > 0, got 'x'"),
        ({"train": {"seeds": [1.5]}}, "seeds must be integers in [0, 65535], got 1.5"),
        ({"train": {"seeds": ["a"]}}, "seeds must be integers in [0, 65535], got 'a'"),
        ({"train": {"seeds": [0, -1]}}, "seeds must be integers in [0, 65535], got -1"),
        ({"featurize": {"components": "morgan"}},
         "components must be a list of names, got 'morgan'"),
        ({"model": {"adjacency_bias": "no"}},
         f"unknown keys ['adjacency_bias']; the keys are {MODEL_KEYS}"),
        ({"model": {"adjacency_bias": 0}},
         f"unknown keys ['adjacency_bias']; the keys are {MODEL_KEYS}"),
        ({"model": {"norm": "dyt"}}, f"unknown keys ['norm']; the keys are {MODEL_KEYS}"),
        ({"model": {"widht": 3}},
         "unknown keys ['widht']; the keys are ['ablation', 'dropout_attn', 'dropout_ffn', "
         "'dropout_gat', 'fingerprint_embed_dim', 'gat_layers', 'gat_out_dim', 'heads', "
         "'hidden_dim', 'transformer_layers']"),
        ({"model": {"dropout_gat": False}},
         "dropout_gat must be a finite number in [0, 1), got False"),
        ({"model": {"dropout_gat": "x"}}, "dropout_gat must be a finite number in [0, 1), got 'x'"),
        ({"train": {"patience": -3}}, "patience must be an integer in [1, 100000], got -3"),
        ({"train": {"patience": 0}}, "patience must be an integer in [1, 100000], got 0"),
        ({"train": {"seeds": 5}},
         "seeds must be a non-empty list of integers in [0, 65535], got 5"),
        ({"featurize": {"key_table_path": 5}},
         f"unknown keys ['key_table_path']; the keys are {sorted(FeaturizeConfig.field_table())}"),
        ({"featurize": {"key_table_path": None}},
         f"unknown keys ['key_table_path']; the keys are {sorted(FeaturizeConfig.field_table())}"),
        ({"featurize": {"components": ["morgan", "morgan"]}},
         "components must not repeat an entry, got ['morgan', 'morgan']"),
        ({"train": {"seeds": [0, 0]}}, "seeds must not repeat an entry, got [0, 0]"),
        ({"model": {"task": "classification"}},
         "task must be left out: it comes from train --task, got 'classification'"),
        ({"model": {"n_tasks": 2}},
         "n_tasks must be left out: it comes from the label columns, got 2"),
        ({"model": {"fingerprint_dim": 7}},
         "fingerprint_dim must be left out: it comes from the featurize section, got 7"),
        ({"model": {"head_dim": 16}},
         "head_dim must be left out: it comes from hidden_dim / heads, got 16"),
        ({"model": {"heads": 3}}, "hidden_dim (64) must be a multiple of heads (3)"),
    ], ids=["lr-true", "lr-nan", "lr-string", "seed-1.5", "seed-string", "seed-negative",
            "components-a-string", "adjacency-bias-no", "adjacency-bias-0", "norm-dyt", "widht",
            "dropout-false", "dropout-string", "patience-negative", "patience-0",
            "seeds-an-integer", "key-table-path-an-integer", "key-table-path-null",
            "components-repeated", "seeds-repeated", "task", "n-tasks", "fingerprint-dim",
            "head-dim", "heads-3"])
    def test_bad_value_is_a_config_error_naming_its_field(self, tmp_path, config, message):
        """``train`` names a data file that does not exist, so exit 1 shows the
        config was checked before any row was read. ``norm``,
        ``adjacency_bias`` and ``key_table_path`` are retired settings, so any
        value of theirs, even the one the program builds, is an unknown key.
        Run as a process, so that a traceback would reach stderr."""
        (tmp_path / "config.json").write_text(json.dumps(config))
        proc = run_process(["train", "--config", str(tmp_path / "config.json"),
                            "--data", str(tmp_path / "missing.csv"), "--task", "reg",
                            "--out", str(tmp_path / "run")])
        assert (proc.returncode, proc.stderr) == (1, f"config error: {message}\n")
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("section,key,high", INTEGER_FIELDS,
                             ids=[f"{section}.{key}" for section, key, _ in INTEGER_FIELDS])
    def test_integer_over_its_bound_is_a_config_error(self, tmp_path, section, key, high):
        """One more than the upper bound of each integer field a config file
        may set. Run as a process, so that a traceback would reach stderr."""
        value = [high + 1] if key == "seeds" else high + 1
        (tmp_path / "config.json").write_text(json.dumps({section: {key: value}}))
        proc = run_process(["train", "--config", str(tmp_path / "config.json"),
                            "--data", str(tmp_path / "missing.csv"), "--task", "reg",
                            "--out", str(tmp_path / "run")])
        assert proc.returncode == 1, proc.stderr
        assert proc.stderr.startswith(f"config error: {key} must be "), proc.stderr
        assert proc.stderr.endswith(f"{high}], got {high + 1}\n"), proc.stderr

    @pytest.mark.parametrize("flags,message", [
        (["--seeds", "65537"], "--seeds must be an integer in [1, 65536], got 65537"),
        (["--seeds", "0"], "--seeds must be an integer in [1, 65536], got 0"),
        (["--epochs", "100001"], "epochs must be an integer in [1, 100000], got 100001"),
    ], ids=["seeds-65537", "seeds-0", "epochs-100001"])
    def test_count_flag_out_of_range_is_a_config_error(self, tmp_path, flags, message):
        """``--seeds k`` (seeds 0..k-1) is checked before the seeds are listed.
        Run as a process, so that a traceback would reach stderr."""
        proc = run_process(["train", "--data", str(tmp_path / "missing.csv"), "--task", "reg",
                            *flags, "--out", str(tmp_path / "run")])
        assert (proc.returncode, proc.stderr) == (1, f"config error: {message}\n")

    @pytest.mark.parametrize("text", [
        "5", "null", "[]", '"abc"', '{"model": 5}', '{"train": null}', '{"model": []}',
    ])
    def test_config_without_json_objects_is_a_config_error(self, workdir, tmp_path, text):
        """The top level and each section must be JSON objects. Run as a
        process, so that a traceback would reach stderr."""
        config = tmp_path / "config.json"
        config.write_text(text)
        proc = run_process(["train", "--data", str(workdir / "reg.csv"), "--task", "reg",
                            "--config", str(config), "--out", str(tmp_path / "run")])
        assert proc.returncode == 1
        assert proc.stderr.startswith(f"config error: {config}: "), proc.stderr
        assert "object" in proc.stderr and "Traceback" not in proc.stderr
        assert not (tmp_path / "run").exists()

    def test_outputs_exist(self, trained):
        assert (trained / "report.json").exists()
        assert (trained / "seed_0.ckpt").exists()
        assert (trained / "seed_0_split.json").exists()
        assert (trained / "seed_0_log.jsonl").exists()
        manifest = json.loads((trained / "manifest.json").read_text())
        assert manifest["status"] == "complete"
        assert manifest["dataset_checksum"]

    def test_report_has_metric(self, trained):
        report = json.loads((trained / "report.json").read_text())
        assert report["metric"] == "rmse"
        assert "0" in report["per_seed"]

    def test_reproducible_bytes(self, workdir, trained):
        rerun = workdir / "rerun"
        code = main(
            [
                "train",
                "--data", str(workdir / "reg.csv"),
                "--task", "reg",
                "--split", "random",
                "--config", str(workdir / "config.json"),
                "--seeds", "1",
                "--out", str(rerun),
            ]
        )
        assert code == 0
        assert (rerun / "seed_0.ckpt").read_bytes() == (trained / "seed_0.ckpt").read_bytes()
        assert (rerun / "report.json").read_bytes() == (trained / "report.json").read_bytes()

    def test_scaffold_split_manifest_disjoint(self, workdir):
        out = workdir / "scaffold_run"
        code = main(
            [
                "train",
                "--data", str(workdir / "cls.csv"),
                "--task", "cls",
                "--split", "scaffold",
                "--config", str(workdir / "config.json"),
                "--seeds", "1",
                "--epochs", "1",
                "--out", str(out),
            ]
        )
        assert code == 0
        from molfusion.chem import parse_smiles, scaffold_hash
        from molfusion.data import load_csv

        ds = load_csv(workdir / "cls.csv", "smiles", ["active"], "classification")
        manifest = json.loads((out / "seed_0_split.json").read_text())
        owner = {}
        for part, indices in manifest["indices"].items():
            for i in indices:
                key = scaffold_hash(parse_smiles(ds.smiles[i]))
                assert owner.setdefault(key, part) == part

    @pytest.mark.parametrize("smiles", ["C1CC[CH9999999999]C1", "[C+" + "9" * 5000 + "]"],
                             ids=["h-count", "charge"])
    def test_a_huge_count_is_an_unparseable_row(self, workdir, tmp_path, smiles):
        """An H count past what ``graph_hash`` packs, or a charge too long to
        print, is a malformed SMILES: a scaffold split drops its row, and
        predict writes an ERROR cell for it."""
        lines = (workdir / "reg.csv").read_text().splitlines()
        data = tmp_path / "huge.csv"
        data.write_text("\n".join([*lines[:40], f"{smiles},1.0"]) + "\n")
        out = tmp_path / "run"
        code = main(
            [
                "train",
                "--data", str(data),
                "--task", "reg",
                "--split", "scaffold",
                "--config", str(workdir / "config.json"),
                "--seeds", "1",
                "--epochs", "1",
                "--out", str(out),
            ]
        )
        assert code == 0
        manifest = json.loads((out / "seed_0_split.json").read_text())
        assert sorted(i for part in manifest["indices"].values() for i in part) == list(range(39))
        preds = tmp_path / "preds.csv"
        code = main(["predict", "--checkpoint", str(out / "seed_0.ckpt"),
                     "--input", str(data), "--out", str(preds)])
        assert code == 0
        written = preds.read_text().splitlines()
        assert len(written) == 41 and "ERROR:" in written[-1]

    def test_gat_only_checkpoint_lacks_transformer(self, workdir):
        out = workdir / "gat_only_run"
        code = main(
            [
                "train",
                "--data", str(workdir / "reg.csv"),
                "--task", "reg",
                "--config", str(workdir / "config.json"),
                "--seeds", "1",
                "--epochs", "1",
                "--out", str(out),
                "--ablate", "gat-only",
            ]
        )
        assert code == 0
        _config, arrays = load_checkpoint(out / "seed_0.ckpt")
        assert not any(name.startswith("transformer.") for name in arrays)

    @pytest.mark.parametrize("model_section", [{"hidden_dim": 128}, {"heads": 8}],
                             ids=["hidden-128", "heads-8"])
    def test_one_width_key_alone_trains(self, workdir, tmp_path, model_section):
        """``heads`` splits ``hidden_dim``, so either can change without the
        other; the checkpoint records the two and no ``head_dim``."""
        config = {**TINY_CONFIG, "model": model_section}
        (tmp_path / "config.json").write_text(json.dumps(config))
        out = tmp_path / "run"
        assert main(["train", "--data", str(workdir / "reg.csv"), "--task", "reg",
                     "--config", str(tmp_path / "config.json"), "--seeds", "1",
                     "--epochs", "1", "--out", str(out)]) == 0
        saved, arrays = load_checkpoint(out / "seed_0.ckpt")
        heads, width = model_section.get("heads", 4), model_section.get("hidden_dim", 64)
        assert "head_dim" not in saved["model"]
        assert (saved["model"]["heads"], saved["model"]["hidden_dim"]) == (heads, width)
        assert arrays["transformer.layer0.w_q"].shape == (width, width)

    def test_bad_config_lists_problems_before_start(self, workdir, capsys):
        bad_config = workdir / "bad_config.json"
        bad_config.write_text(json.dumps({"model": {"hidden_dim": 7, "heads": 2}}))
        code = main(
            [
                "train",
                "--data", str(workdir / "reg.csv"),
                "--task", "reg",
                "--config", str(bad_config),
                "--seeds", "1",
                "--out", str(workdir / "never"),
            ]
        )
        assert code == 1
        assert "hidden_dim" in capsys.readouterr().err
        assert not (workdir / "never").exists()

    def test_missing_data_exit_2(self, workdir):
        code = main(
            ["train", "--data", str(workdir / "nope.csv"), "--task", "reg",
             "--out", str(workdir / "x")]
        )
        assert code == 2

    @pytest.mark.parametrize("failing", ["seed_0.ckpt.tmp", "manifest.json.tmp"])
    def test_failed_write_exit_2_leaves_no_tmp(self, workdir, tmp_path, monkeypatch, capsys,
                                               failing):
        """A checkpoint or manifest write that fails (here, its rename) exits 2
        and leaves no ``.tmp`` file in ``--out``."""
        real_replace = Path.replace

        def replace(self, target):
            if self.name == failing:
                raise PermissionError(13, "Permission denied", str(self))
            return real_replace(self, target)

        monkeypatch.setattr(Path, "replace", replace)
        code = main(csv_command("train", workdir / "reg.csv", workdir, None, tmp_path))
        assert code == 2
        assert "Permission denied" in capsys.readouterr().err
        assert not list((tmp_path / "run").glob("*.tmp"))

    @pytest.mark.parametrize("cell,message", [
        ("nan", "row 2, column 'solubility': non-finite label 'nan'"),
        ("inf", "row 2, column 'solubility': non-finite label 'inf'"),
        ("-inf", "row 2, column 'solubility': non-finite label '-inf'"),
        ("1e200", "non-finite loss at epoch 1"),  # finite, but its squared error is not
    ])
    def test_non_finite_label_exit_2(self, workdir, tmp_path, capsys, cell, message):
        data = tmp_path / "labels.csv"
        smiles = corpus_util.build_corpus(10)
        data.write_text("smiles,solubility\n" + "".join(f"{s},{cell}\n" for s in smiles))
        capsys.readouterr()
        code = main(csv_command("train", data, workdir, None, tmp_path))
        assert code == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and message in err

    @pytest.mark.parametrize("ending", ["error", "ctrl-c"])
    def test_a_run_that_ends_early_marks_its_manifest(self, workdir, tmp_path, monkeypatch,
                                                      capsys, ending):
        """A non-finite loss or a Ctrl-C ends the run with its usual exit code
        and message, and the manifest says how the run ended and when."""
        from molfusion import cli

        data = tmp_path / "labels.csv"
        smiles = corpus_util.build_corpus(10)
        data.write_text("smiles,solubility\n" + "".join(f"{s},1e200\n" for s in smiles))
        if ending == "ctrl-c":
            def interrupted(*args, **kwargs):
                raise KeyboardInterrupt

            monkeypatch.setattr(cli, "prepare_inputs", interrupted)
        capsys.readouterr()
        code = main(csv_command("train", data, workdir, None, tmp_path))
        err = capsys.readouterr().err
        manifest = json.loads((tmp_path / "run" / "manifest.json").read_text())
        if ending == "error":
            assert code == 2 and err.startswith("data error: non-finite loss at epoch 1")
            assert manifest["status"] == "failed"
        else:
            assert (code, err) == (130, "interrupted\n")
            assert manifest["status"] == "interrupted"
        assert manifest["started_at"] <= manifest["finished_at"]

    @pytest.mark.parametrize("ending, code, status", [
        (NonFiniteLossError("non-finite loss at epoch 1"), 2, "failed"),
        (KeyboardInterrupt(), 130, "interrupted"),
    ], ids=["error", "ctrl-c"])
    def test_a_failed_seed_keeps_the_seeds_before_it(self, workdir, tmp_path, monkeypatch,
                                                      capsys, ending, code, status):
        """Each seed's files are written when it finishes: a run that ends in
        seed 1 leaves seed 0's files as a complete run writes them, seed 1's
        split, and no report."""
        from molfusion import cli

        argv = ["train", "--data", str(workdir / "reg.csv"), "--task", "reg", "--config",
                str(workdir / "config.json"), "--seeds", "2", "--epochs", "1", "--out"]
        assert main([*argv, str(tmp_path / "complete")]) == 0
        train = cli.train

        def ending_in_seed_1(model, mols, labels, mask, split, config, seed, *rest):
            if seed == 1:
                raise ending
            return train(model, mols, labels, mask, split, config, seed, *rest)

        monkeypatch.setattr(cli, "train", ending_in_seed_1)
        out = tmp_path / "ended"
        assert main([*argv, str(out)]) == code
        for name in ("seed_0.ckpt", "seed_0_split.json", "seed_0_log.jsonl"):
            assert (out / name).read_bytes() == (tmp_path / "complete" / name).read_bytes()
        assert (out / "seed_1_split.json").exists()
        assert not (out / "seed_1.ckpt").exists() and not (out / "report.json").exists()
        assert json.loads((out / "manifest.json").read_text())["status"] == status

    def test_overflowing_loss_is_one_stderr_line(self, workdir, tmp_path):
        """Run as a process, so that numpy's own warnings would reach stderr too."""
        data = tmp_path / "labels.csv"
        smiles = corpus_util.build_corpus(10)
        data.write_text("smiles,solubility\n" + "".join(f"{s},1e200\n" for s in smiles))
        proc = run_process(csv_command("train", data, workdir, None, tmp_path))
        assert proc.returncode == 2
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("data error:"), proc.stderr

    def test_checkpoint_config_records_every_train_field(self, workdir, tmp_path):
        config = json.loads((workdir / "config.json").read_text())
        config["train"]["target_train_rmse"] = 0.5
        (tmp_path / "config.json").write_text(json.dumps(config))
        out = tmp_path / "run"
        code = main(["train", "--data", str(workdir / "reg.csv"), "--task", "reg",
                     "--config", str(tmp_path / "config.json"), "--seeds", "1",
                     "--epochs", "1", "--out", str(out)])
        assert code == 0
        saved, _arrays = load_checkpoint(out / "seed_0.ckpt")
        assert saved["train"]["target_train_rmse"] == 0.5
        assert saved["train"]["epochs"] == 1 and saved["train"]["seeds"] == [0]
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config_digest"] == config_digest(saved)

    def test_manifest_records_the_argv_main_parsed(self, workdir, tmp_path):
        """The command is the argv given to ``main``, not the host process's,
        quoted so that an argument holding a space splits back whole."""
        argv = ["train", "--data", str(workdir / "reg.csv"), "--task", "reg",
                "--config", str(workdir / "config.json"), "--seeds", "1", "--epochs", "1",
                "--out", str(tmp_path / "a run")]
        assert main(argv) == 0
        manifest = json.loads((tmp_path / "a run" / "manifest.json").read_text())
        assert shlex.split(manifest["command"]) == ["molfusion", *argv]


class TestPredictCommand:
    def test_roundtrip_reproduces_forward(self, workdir, trained):
        out = workdir / "preds.csv"
        code = main(
            ["predict", "--checkpoint", str(trained / "seed_0.ckpt"),
             "--input", str(workdir / "reg.csv"), "--out", str(out)]
        )
        assert code == 0
        import csv

        from molfusion.cli import build_model_from_checkpoint
        from molfusion.featurize import featurize
        from molfusion.chem import parse_smiles

        from molfusion.model import MoleculeBatch, chunks

        model, fcfg = build_model_from_checkpoint(str(trained / "seed_0.ckpt"))
        rows = list(csv.DictReader(out.read_text().splitlines()))
        mols = [featurize(parse_smiles(row["smiles"]), fcfg) for row in rows]
        written = np.array([float(row["prediction"]) for row in rows])
        # bit-for-bit via repr, against the packed chunks predict runs
        packed = [model.predict_batch(MoleculeBatch(run))[:, 0]
                  for run in chunks(mols, lambda mol: mol.n_atoms)]
        assert len(packed) > 1 and np.array_equal(written, np.concatenate(packed))
        # and to 1e-12 against one molecule at a time
        single = np.array([model.predict(mol)[0] for mol in mols])
        assert np.abs(written - single).max() <= 1e-12 * np.abs(single).max()

    def test_checkpoint_model_draws_no_weights(self, workdir, trained, tmp_path, monkeypatch):
        """predict builds its model from the checkpoint alone: with the random
        streams refused, it writes the predictions of a seeded model that
        loads the same arrays, bit for bit."""
        from molfusion.cli import build_model_from_checkpoint
        from molfusion.chem import parse_smiles
        from molfusion.featurize import featurize
        from molfusion.model import MlfgnnModel, MoleculeBatch, chunks
        from molfusion.model import network

        def refuse(seed):
            raise AssertionError("building from a checkpoint drew random weights")

        ckpt = str(trained / "seed_0.ckpt")
        out = tmp_path / "preds.csv"
        monkeypatch.setattr(network, "make_rng", refuse)
        model, fcfg = build_model_from_checkpoint(ckpt)
        code = main(["predict", "--checkpoint", ckpt,
                     "--input", str(workdir / "reg.csv"), "--out", str(out)])
        monkeypatch.undo()
        assert code == 0
        config, arrays = load_checkpoint(ckpt)
        seeded = MlfgnnModel(ModelConfig.from_dict(config["model"]), seed=0)
        seeded.load_state_arrays(arrays)
        assert list(model.state_arrays()) == list(seeded.state_arrays())
        rows = list(csv.DictReader(out.read_text().splitlines()))
        mols = [featurize(parse_smiles(row["smiles"]), fcfg) for row in rows]
        expected = np.concatenate([seeded.predict_batch(MoleculeBatch(run))[:, 0]
                                   for run in chunks(mols, lambda mol: mol.n_atoms)])
        written = np.array([float(row["prediction"]) for row in rows])
        assert written.tobytes() == expected.tobytes()

    def test_classification_outputs_probabilities(self, workdir):
        out_dir = workdir / "cls_run"
        main(
            ["train", "--data", str(workdir / "cls.csv"), "--task", "cls",
             "--config", str(workdir / "config.json"), "--seeds", "1",
             "--epochs", "1", "--out", str(out_dir)]
        )
        preds = workdir / "cls_preds.csv"
        code = main(
            ["predict", "--checkpoint", str(out_dir / "seed_0.ckpt"),
             "--input", str(workdir / "cls.csv"), "--out", str(preds)]
        )
        assert code == 0
        import csv

        for row in csv.DictReader(preds.read_text().splitlines()):
            assert 0.0 < float(row["prediction"]) < 1.0

    @pytest.mark.parametrize(
        "cell", ["1", "1\u2028x", '"1\nx"'], ids=["plain", "u2028", "quoted-newline"]
    )
    def test_bad_rows_marked_not_dropped(self, trained, tmp_path, cell):
        bad = tmp_path / "mixed.csv"
        bad.write_text(f"smiles,y\nCCO,{cell}\nxx((bad,2\nCCC,3\n", encoding="utf-8")
        out = tmp_path / "mixed_preds.csv"
        code = main(
            ["predict", "--checkpoint", str(trained / "seed_0.ckpt"),
             "--input", str(bad), "--out", str(out)]
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 4  # header + all three rows
        assert "ERROR:" in lines[2]

    def test_every_row_failing_exit_2(self, trained, tmp_path):
        bad = tmp_path / "all_bad.csv"
        bad.write_text("smiles,y\nxx((bad,1\nC1CC,2\n")
        out = tmp_path / "all_bad_preds.csv"
        proc = run_process(["predict", "--checkpoint", str(trained / "seed_0.ckpt"),
                            "--input", str(bad), "--out", str(out)])
        assert proc.returncode == 2
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("data error:"), proc.stderr
        assert "every row failed to parse" in lines[0]
        rows = list(csv.reader(out.read_text().splitlines()))
        assert [row[0] for row in rows] == ["smiles", "xx((bad", "C1CC"]
        assert all(row[1].startswith("ERROR:") for row in rows[1:])

    def test_header_only_input_exit_0(self, trained, tmp_path):
        empty = tmp_path / "header_only.csv"
        empty.write_text("smiles,y\n")
        out = tmp_path / "header_only_preds.csv"
        proc = run_process(["predict", "--checkpoint", str(trained / "seed_0.ckpt"),
                            "--input", str(empty), "--out", str(out)])
        assert proc.returncode == 0, proc.stderr
        assert out.read_text().splitlines() == ["smiles,prediction"]

    def test_digest_mismatch_rejected_without_force(self, workdir, trained, tmp_path):
        corrupted = tmp_path / "bad.ckpt"
        raw = bytearray((trained / "seed_0.ckpt").read_bytes())
        idx = raw.find(b'"epochs":2')
        assert idx > 0
        raw[idx + 9 : idx + 10] = b"3"
        corrupted.write_bytes(bytes(raw))
        code = main(
            ["predict", "--checkpoint", str(corrupted),
             "--input", str(workdir / "reg.csv"), "--out", str(tmp_path / "p.csv")]
        )
        assert code == 2
        code = main(
            ["predict", "--checkpoint", str(corrupted), "--force",
             "--input", str(workdir / "reg.csv"), "--out", str(tmp_path / "p.csv")]
        )
        assert code == 0

    def test_fingerprint_width_mismatch_exit_2(self, workdir, trained, tmp_path, capsys):
        config, arrays = load_checkpoint(trained / "seed_0.ckpt")
        config["featurize"]["components"] = ["morgan"]  # 128 wide; the model takes 393
        ckpt = tmp_path / "mismatch.ckpt"
        save_checkpoint(ckpt, config, arrays)
        for argv in (
            ["predict", "--input", str(workdir / "reg.csv"), "--out", str(tmp_path / "p.csv")],
            ["explain", "--smiles", "CCO", "--out", str(tmp_path / "e.json")],
        ):
            assert main([*argv, "--checkpoint", str(ckpt)]) == 2
            err = capsys.readouterr().err
            assert "128" in err and "393" in err
        assert not (tmp_path / "p.csv").exists()


class TestPredictLanes:
    @pytest.fixture
    def edge_input(self, tmp_path):
        """Corpus rows with malformed rows at the start and at chunk edges (a
        row of no atoms joins the chunk before it)."""
        from molfusion.chem import parse_smiles
        from molfusion.model import chunks

        smiles = corpus_util.build_corpus(200)
        starts, k = [], 0
        for chunk in chunks(smiles, lambda s: parse_smiles(s).n_atoms):
            starts.append(k)
            k += len(chunk)
        assert len(starts) >= 12
        bad_before = {0, starts[3], starts[4], starts[6]}
        rows = []
        for i, s in enumerate(smiles):
            if i in bad_before:
                rows.append("xx((bad")
            rows.append(s)
        rows.append("C1CC")
        path = tmp_path / "edges.csv"
        path.write_text("smiles\n" + "".join(r + "\n" for r in rows))
        return path, smiles, starts

    def _predict(self, trained, data, out, monkeypatch, fork):
        from molfusion import helper

        monkeypatch.setattr(helper, "FORK_HELPER", fork and helper.FORK_HELPER)
        return main(["predict", "--checkpoint", str(trained / "seed_0.ckpt"),
                     "--input", str(data), "--out", str(out)])

    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="forked on Linux")
    def test_forked_and_inline_paths_write_identical_csvs(self, trained, tmp_path,
                                                            monkeypatch, edge_input):
        data, _smiles, _starts = edge_input
        real_fork, forks = os.fork, []

        def counted_fork():
            forks.append(1)
            return real_fork()

        monkeypatch.setattr(os, "fork", counted_fork)
        written = {}
        for name, fork in [("f1", True), ("f2", True), ("i1", False), ("i2", False)]:
            out = tmp_path / f"{name}.csv"
            assert self._predict(trained, data, out, monkeypatch, fork) == 0
            written[name] = out.read_bytes()
        assert len(forks) == 2  # one per forked run
        assert written["f1"] == written["f2"] == written["i1"] == written["i2"]
        rows = list(csv.reader(written["f1"].decode().splitlines()))[1:]
        assert [r[0] for r in rows if r[1].startswith("ERROR:")] == ["xx((bad"] * 4 + ["C1CC"]

    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="forked on Linux")
    def test_featurize_forked_and_inline_paths_write_identical_jsonl(self, tmp_path, monkeypatch,
                                                                     edge_input):
        """``featurize`` runs on the same lanes: forked and inline, it writes
        the same bytes, every row once, in input order, error records in
        place."""
        from molfusion import helper

        data, _smiles, _starts = edge_input
        real_fork, forks = os.fork, []

        def counted_fork():
            forks.append(1)
            return real_fork()

        monkeypatch.setattr(os, "fork", counted_fork)
        fork_helper, written = helper.FORK_HELPER, {}
        for name, fork in [("f1", True), ("f2", True), ("i1", False), ("i2", False)]:
            monkeypatch.setattr(helper, "FORK_HELPER", fork and fork_helper)
            out = tmp_path / f"{name}.jsonl"
            assert main(["featurize", "--input", str(data), "--out", str(out)]) == 0
            written[name] = out.read_bytes()
        assert len(forks) == 2  # one per forked run
        assert written["f1"] == written["f2"] == written["i1"] == written["i2"]
        records = [json.loads(line) for line in written["f1"].decode().splitlines()]
        rows = data.read_text().splitlines()[1:]
        assert [(r["row"], r["smiles"]) for r in records] == list(enumerate(rows, start=2))
        assert [r["smiles"] for r in records if "error" in r] == ["xx((bad"] * 4 + ["C1CC"]

    def _fail_rows(self, monkeypatch, failures):
        """Featurizing a chunk that holds the SMILES ``s`` waits
        ``failures[s][1]`` seconds, then raises ``DataError(failures[s][0])``. The parsed graph itself
        carries the mark: a map keyed by ``id(graph)`` would mark a healthy
        graph that reuses the id of a freed, doomed one."""
        from molfusion import cli, helper
        from molfusion.data import DataError

        parse, featurize = helper.parse_smiles, cli.featurize

        def parse_marking(smiles):
            graph = parse(smiles)
            if smiles in failures:
                graph.doomed = failures[smiles]
            return graph

        def featurize_failing(graphs, config):
            for graph in graphs:
                if hasattr(graph, "doomed"):
                    message, delay = graph.doomed
                    time.sleep(delay)
                    raise DataError(message)
            return featurize(graphs, config)

        monkeypatch.setattr(helper, "parse_smiles", parse_marking)
        monkeypatch.setattr(cli, "featurize", featurize_failing)

    def test_lane_1_failure_matches_the_inline_path(self, trained, tmp_path, monkeypatch,
                                                      capsys, edge_input):
        """A non-SmilesError for a row of chunk 1, which lane 1 runs, ends
        both paths alike."""
        data, smiles, starts = edge_input
        target = smiles[starts[1] + 1]
        self._fail_rows(monkeypatch, {target: (f"cannot featurize {target}", 0.0)})
        results = []
        for fork in (True, False):
            code = self._predict(trained, data, tmp_path / "out.csv", monkeypatch, fork)
            results.append((code, capsys.readouterr().err))
        assert results[0] == results[1] == (2, f"data error: cannot featurize {target}\n")

    @pytest.mark.parametrize("failing", [(1, 2), (0,), (0, 2), (1, 3)],
                             ids=["chunks-1-2", "chunk-0", "chunks-0-2", "chunks-1-3"])
    def test_lowest_failing_chunk_is_raised_on_both_paths(self, trained, tmp_path, monkeypatch,
                                                           capsys, edge_input, failing):
        """With several chunks failing, both paths raise the
        lowest-numbered one's error, whichever lane ran it and whichever
        failed first: chunk 1's row fails slowly on lane 1, so when forked,
        chunk 3, run here while lane 1 holds chunks 1 and 2, fails first.
        Chunk 0 is always this process's own."""
        data, smiles, starts = edge_input
        self._fail_rows(monkeypatch, {
            smiles[starts[k] + 1]: (f"chunk {k} failed", 0.2 if k == 1 else 0.0)
            for k in failing
        })
        results = []
        for fork in (True, False, True):
            code = self._predict(trained, data, tmp_path / "out.csv", monkeypatch, fork)
            results.append((code, capsys.readouterr().err))
        assert results == [(2, f"data error: chunk {min(failing)} failed\n")] * 3

    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="forked on Linux")
    @pytest.mark.parametrize("slow_lane", ["cli", "helper"])
    def test_skewed_lanes_keep_every_row_once_in_order(self, trained, tmp_path, monkeypatch,
                                                        edge_input, slow_lane):
        """One lane featurizes slowly, so the other runs more chunks. The
        CSV still matches the inline path's byte for byte, each row once in
        input order; one helper is forked for the run, and this process
        still runs chunk 0."""
        from molfusion import cli, helper

        data, smiles, starts = edge_input
        parent = os.getpid()
        parse, featurize = helper.parse_smiles, cli.featurize
        parsed_smiles, featurized_here = {}, set()

        def parse_marking(s):
            graph = parse(s)
            parsed_smiles[id(graph)] = s
            return graph

        def featurize_skewed(graphs, config):
            here = os.getpid() == parent
            if here:
                featurized_here.update(parsed_smiles[id(graph)] for graph in graphs)
            if here == (slow_lane == "cli"):
                time.sleep(0.003 * len(graphs))
            return featurize(graphs, config)

        real_fork, forks = os.fork, []

        def counted_fork():
            forks.append(1)
            return real_fork()

        monkeypatch.setattr(helper, "parse_smiles", parse_marking)
        monkeypatch.setattr(cli, "featurize", featurize_skewed)
        monkeypatch.setattr(os, "fork", counted_fork)
        forked, inline = tmp_path / "forked.csv", tmp_path / "inline.csv"
        assert self._predict(trained, data, forked, monkeypatch, True) == 0
        monkeypatch.undo()
        assert self._predict(trained, data, inline, monkeypatch, False) == 0
        assert forked.read_bytes() == inline.read_bytes()
        rows = [r[0] for r in csv.reader(forked.read_text().splitlines()[1:])]
        assert rows == data.read_text().splitlines()[1:]
        assert len(forks) == 1
        assert set(smiles[:starts[1]]) <= featurized_here

    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="forked on Linux")
    def test_a_stalled_lane_1_bounds_the_rows_waiting(self, trained, tmp_path, monkeypatch):
        """Lane 1 featurizes so slowly that the chunks run here pile up behind
        its oldest one. Once 32 wait, this process waits for lane 1, so rows
        parsed minus rows written never exceed the rows of 34 chunks: 32
        waiting, the chunk just parsed, and the row the packer reads ahead."""
        from molfusion import cli, helper
        from molfusion.chem import parse_smiles
        from molfusion.model import chunks

        smiles = corpus_util.build_corpus(600)
        sizes = [len(c) for c in chunks(smiles, lambda s: parse_smiles(s).n_atoms)]
        assert len(sizes) > 2 * 34
        bound = max(sum(sizes[k:k + 34]) for k in range(len(sizes)))
        data = tmp_path / "rows.csv"
        data.write_text("smiles\n" + "".join(s + "\n" for s in smiles))
        parent = os.getpid()
        parse, featurize, each_row = helper.parse_smiles, cli.featurize, cli.each_row
        parsed, waiting = [0], []

        def parse_counted(s):
            parsed[0] += 1
            return parse(s)

        def featurize_stalled(graphs, config):
            if os.getpid() != parent:
                time.sleep(0.05 * len(graphs))
            return featurize(graphs, config)

        def each_row_measured(*args):
            for written, row in enumerate(each_row(*args)):
                waiting.append(parsed[0] - written)
                yield row

        monkeypatch.setattr(helper, "parse_smiles", parse_counted)
        monkeypatch.setattr(cli, "featurize", featurize_stalled)
        monkeypatch.setattr(cli, "each_row", each_row_measured)
        out = tmp_path / "out.csv"
        assert self._predict(trained, data, out, monkeypatch, True) == 0
        assert len(waiting) == len(smiles) == parsed[0]
        # The wait was reached: 33 chunks were held at once.
        assert min(sum(sizes[k:k + 33]) for k in range(len(sizes) - 32)) < max(waiting) <= bound

    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="forked on Linux")
    def test_molecules_over_the_atom_cap_in_a_row_do_not_stall_the_pipe(self, tmp_path,
                                                                         monkeypatch):
        """Each 1600-atom chain is a chunk of its own: pickled, it is larger
        than the pipe's buffer, and its featurized reply is about 1 MB. Sent
        while lane 1 has a chunk in flight, such a chunk could wait on lane 1
        while lane 1 waits to send its reply, and neither would return. The
        forked run ends, with the inline run's bytes."""
        from molfusion import helper

        data, out = tmp_path / "chains.csv", tmp_path / "forked.jsonl"
        data.write_text("smiles\n" + ("C" * 1600 + "\n") * 6)
        proc = subprocess.run([sys.executable, "-m", "molfusion.cli", "featurize", "--input",
                               str(data), "--out", str(out)],
                              env=process_env(), capture_output=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        monkeypatch.setattr(helper, "FORK_HELPER", False)
        assert main(["featurize", "--input", str(data), "--out", str(tmp_path / "inline.jsonl")]) == 0
        assert out.read_bytes() == (tmp_path / "inline.jsonl").read_bytes()

    def test_dense_era_checkpoint_predicts_what_it_did(self, tmp_path, monkeypatch):
        """``tests/data/tiny_c43dc29.ckpt`` is the ``TINY_CONFIG`` model trained
        on build_corpus(40) by commit c43dc29, which kept fingerprints as
        dense rows (393 wide), and ``tiny_c43dc29_predictions.csv`` is what
        that commit's ``predict`` wrote for build_corpus(200) with a malformed
        row at index 50. The sparse first layer sums fewer zeros, so each
        prediction may move at rounding level only; reruns are byte-identical,
        forked and inline."""
        from molfusion import helper

        rows = corpus_util.build_corpus(200)
        rows.insert(50, "xx((bad")
        data = tmp_path / "rows.csv"
        data.write_text("smiles\n" + "".join(r + "\n" for r in rows))
        fork_helper, written = helper.FORK_HELPER, {}
        for name, fork in [("f1", True), ("f2", True), ("i1", False), ("i2", False)]:
            monkeypatch.setattr(helper, "FORK_HELPER", fork and fork_helper)
            out = tmp_path / f"{name}.csv"
            assert main(["predict", "--checkpoint", str(DATA / "tiny_c43dc29.ckpt"),
                         "--input", str(data), "--out", str(out)]) == 0
            written[name] = out.read_bytes()
        assert written["f1"] == written["f2"] == written["i1"] == written["i2"]
        got = list(csv.reader(written["f1"].decode().splitlines()))
        want = list(csv.reader((DATA / "tiny_c43dc29_predictions.csv").read_text().splitlines()))
        assert [r[0] for r in got] == [r[0] for r in want] == ["smiles", *rows]
        assert got[51] == want[51] == ["xx((bad", want[51][1]]
        assert want[51][1].startswith("ERROR:")
        for g, w in zip(got[1:51] + got[52:], want[1:51] + want[52:]):
            assert abs(float(g[1]) - float(w[1])) <= 1e-12 * abs(float(w[1])), (g, w)

    def test_one_chunk_starts_no_process(self, trained, tmp_path, monkeypatch):
        def no_fork():
            raise AssertionError("a one-chunk input forked a helper")

        monkeypatch.setattr(os, "fork", no_fork)
        data = tmp_path / "one.csv"
        data.write_text("smiles\nCCO\nxx((bad\nc1ccccc1\n")
        assert main(["predict", "--checkpoint", str(trained / "seed_0.ckpt"),
                     "--input", str(data), "--out", str(tmp_path / "one_preds.csv")]) == 0
        assert len((tmp_path / "one_preds.csv").read_text().splitlines()) == 4


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="forked on Linux")
@pytest.mark.parametrize("command", ["featurize", "predict", "train"])
def test_a_killed_lane_1_exits_2_with_one_line(workdir, trained, tmp_path, monkeypatch, capsys,
                                                command):
    """Lane 1 is killed, as the OOM killer would, in its first work: in its
    first chunk of rows, or in ``train``'s first step. The command prints one
    line naming the signal, with no traceback, and leaves no process."""
    from molfusion import cli
    from molfusion.train import lanes

    cli_pid = os.getpid()

    def killed_in_lane_1(work):
        def run(*args):
            if os.getpid() != cli_pid:
                os.kill(os.getpid(), signal.SIGKILL)
            return work(*args)
        return run

    if command == "train":
        monkeypatch.setattr(lanes.Lanes, "_run", killed_in_lane_1(lanes.Lanes._run))
    else:
        monkeypatch.setattr(cli, "featurize", killed_in_lane_1(cli.featurize))
    capsys.readouterr()
    code = main(csv_command(command, workdir / "reg.csv", workdir, trained, tmp_path))
    err = capsys.readouterr().err
    assert (code, err) == (2, "error: lane 1 ended early: its process was killed by signal 9\n")
    assert multiprocessing.active_children() == []
    if command == "train":
        assert json.loads((tmp_path / "run" / "manifest.json").read_text())["status"] == "failed"


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="process groups, fork on Linux")
@pytest.mark.parametrize("delay", [0.5, 1.0])
@pytest.mark.parametrize("command", ["featurize", "predict", "train"])
def test_ctrl_c_leaves_no_process_behind(tmp_path, command, delay):
    """Ctrl-C reaches the whole process group, lane-1 helper included. The
    command prints one line and exits 130, and no process of its group is
    left: the helper ignores the signal and is stopped by the command. The
    signal comes ``delay`` seconds after the start, and no sooner than the
    command's first output line reaches its file (``train``'s manifest), so
    that it lands in the command, not in Python's start-up. A command that
    has finished by then fails the ``poll`` check, not the exit-code one."""
    from molfusion.autodiff.checkpoint import save_checkpoint
    from molfusion.cli import combined_config_dict, resolve_configs
    from molfusion.model.network import MlfgnnModel

    out = tmp_path / "out"
    if command == "train":  # 300 labelled rows, then up to 300 epochs
        data = corpus_util.write_regression_csv(tmp_path / "rows.csv",
                                                corpus_util.build_corpus(300))
        argv = ["--data", str(data), "--task", "reg", "--out", str(out)]
    else:  # 3572 rows: several seconds of work either way
        data = tmp_path / "rows.csv"
        smiles = corpus_util.build_corpus(1786) * 2
        data.write_text("smiles\n" + "".join(s + "\n" for s in smiles))
        argv = ["--input", str(data), "--out", str(out)]
    if command == "predict":
        configs = resolve_configs({}, "regression", 1)
        save_checkpoint(tmp_path / "model.ckpt", combined_config_dict(*configs),
                        MlfgnnModel(configs[0], seed=0).state_arrays())
        argv += ["--checkpoint", str(tmp_path / "model.ckpt")]
    # MOLFUSION_LOG=ERROR keeps the corpus's multi-fragment warnings off stderr.
    proc = subprocess.Popen([sys.executable, "-m", "molfusion.cli", command, *argv],
                            env=process_env({"MOLFUSION_LOG": "ERROR"}), start_new_session=True,
                            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
    first = out / "manifest.json" if command == "train" else out
    try:
        time.sleep(delay)
        while proc.poll() is None and not (first.exists() and first.stat().st_size):
            time.sleep(0.05)
        assert proc.poll() is None, "the command ended before the signal was sent"
        os.killpg(proc.pid, signal.SIGINT)
        _stdout, stderr = proc.communicate(timeout=60)
        assert (proc.returncode, stderr) == (130, "interrupted\n")
        with pytest.raises(ProcessLookupError):
            os.killpg(proc.pid, 0)  # no process of the group is left
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait(timeout=60)


def test_ctrl_c_while_the_cli_is_imported_exits_130(monkeypatch, capsys):
    """The ``molfusion`` entry point imports ``molfusion.cli`` inside the
    Ctrl-C handling, so an interrupt that lands during that import (numpy's,
    say) ends like one inside a command: exit 130 and one line."""
    import importlib.abc

    from molfusion import __main__ as entry

    class Interrupted(importlib.abc.MetaPathFinder):
        def find_spec(self, name, path=None, target=None):
            if name == "molfusion.cli":
                raise KeyboardInterrupt
            return None

    monkeypatch.delitem(sys.modules, "molfusion.cli")
    monkeypatch.setattr(sys, "meta_path", [Interrupted(), *sys.meta_path])
    assert entry.main() == 130
    assert capsys.readouterr() == ("", "interrupted\n")


def test_python_m_molfusion_runs_the_cli(tmp_path):
    data = tmp_path / "rows.csv"
    data.write_text("smiles\nCCO\nc1ccccc1\n")
    argv = ["featurize", "--input", str(data), "--out", str(tmp_path / "f.jsonl")]
    proc = subprocess.run([sys.executable, "-m", "molfusion", *argv], capture_output=True,
                          text=True, env=process_env(), timeout=300)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert run_process([*argv[:-1], str(tmp_path / "g.jsonl")]).returncode == 0
    assert (tmp_path / "f.jsonl").read_bytes() == (tmp_path / "g.jsonl").read_bytes()


def _set_header_length(raw: bytes, length: int) -> bytes:
    return raw[:8] + struct.pack("<I", length) + raw[12:]


CHECKPOINT_CORRUPTIONS = {
    "text-file": lambda raw: b"smiles,y\nCCO,1\n",
    "no-header-length": lambda raw: raw[:10],
    "header-length-past-eof": lambda raw: _set_header_length(raw, len(raw)),
    "truncated-header": lambda raw: raw[:40],
    "garbled-header": lambda raw: raw[:12] + b"#" + raw[13:],
    "unsupported-version": lambda raw: re.sub(rb'"format_version":\d+', b'"format_version":7',
                                              raw),
    "short-payload": lambda raw: raw[:-8],
    "flipped-payload-byte": lambda raw: raw[:-20] + bytes([raw[-20] ^ 0x10]) + raw[-19:],
}


# Edits of a loaded checkpoint that leave a valid file whose config or
# tensors do not build the model.
UNBUILDABLE_CHECKPOINTS = {
    "unknown-model-key": lambda config, arrays: config["model"].update(bogus=1),
    "non-integer-heads": lambda config, arrays: config["model"].update(heads="x"),
    "morgan-bits-below-minimum": lambda config, arrays: config["featurize"].update(morgan_bits=10),
    "missing-tensor": lambda config, arrays: arrays.pop("node_init.w"),
    "model-section-a-string": lambda config, arrays: config.update(model="regression"),
}


def _checkpoint_argv(command, workdir, out):
    if command == "predict":
        return ["predict", "--input", str(workdir / "reg.csv"), "--out", str(out)]
    return ["explain", "--smiles", "CCO", "--out", str(out)]


FILE_SYSTEM_ERRORS = {
    # case: (argv, the path the error names), given workdir, the trained run and
    # tmp_path, which holds a file named "taken"
    "featurize-out-a-directory": lambda w, run, tmp: (
        ["featurize", "--input", str(w / "reg.csv"), "--out", str(tmp)], tmp),
    "featurize-input-a-directory": lambda w, run, tmp: (
        ["featurize", "--input", str(tmp), "--out", str(tmp / "f.jsonl")], tmp),
    "train-out-an-existing-file": lambda w, run, tmp: (
        ["train", "--data", str(w / "reg.csv"), "--task", "reg", "--config",
         str(w / "config.json"), "--out", str(tmp / "taken")], tmp / "taken"),
    "predict-checkpoint-a-directory": lambda w, run, tmp: (
        ["predict", "--checkpoint", str(tmp), "--input", str(w / "reg.csv"),
         "--out", str(tmp / "p.csv")], tmp),
}


@pytest.mark.parametrize("case", sorted(FILE_SYSTEM_ERRORS))
def test_file_system_error_exit_2(workdir, trained, tmp_path, case):
    """A path that cannot be read or written is a data error, not a
    traceback. Run as a process, so that a traceback would reach stderr."""
    (tmp_path / "taken").write_text("a file")
    argv, path = FILE_SYSTEM_ERRORS[case](workdir, trained, tmp_path)
    proc = run_process(argv)
    assert proc.returncode == 2
    assert proc.stderr.startswith("data error:") and str(path) in proc.stderr, proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("command", ["predict", "explain"])
@pytest.mark.parametrize("corruption", sorted(CHECKPOINT_CORRUPTIONS))
def test_corrupt_checkpoint_exit_2(workdir, trained, tmp_path, capsys, command, corruption):
    raw = (trained / "seed_0.ckpt").read_bytes()
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(CHECKPOINT_CORRUPTIONS[corruption](raw))
    assert bad.read_bytes() != raw
    out = tmp_path / "out"
    argv = _checkpoint_argv(command, workdir, out)
    assert main([*argv, "--checkpoint", str(bad)]) == 2
    assert "data error:" in capsys.readouterr().err
    assert not out.exists()
    if corruption == "flipped-payload-byte":  # --force skips the config digest only
        assert main([*argv, "--checkpoint", str(bad), "--force"]) == 2
        assert "payload checksum" in capsys.readouterr().err
        assert not out.exists()


@pytest.mark.parametrize("command", ["predict", "explain"])
@pytest.mark.parametrize("fault", sorted(UNBUILDABLE_CHECKPOINTS))
def test_unbuildable_checkpoint_exit_2(workdir, trained, tmp_path, capsys, command, fault):
    config, arrays = load_checkpoint(trained / "seed_0.ckpt")
    UNBUILDABLE_CHECKPOINTS[fault](config, arrays)
    bad = tmp_path / "bad.ckpt"
    save_checkpoint(bad, config, arrays)
    out = tmp_path / "out"
    assert main([*_checkpoint_argv(command, workdir, out), "--checkpoint", str(bad)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("data error:") and str(bad) in err
    assert not out.exists()


@pytest.mark.parametrize("section,key,value", [
    ("model", "gat_layers", 0),
    ("model", "dropout_ffn", "x"),
    ("model", "adjacency_bias", "no"),
    ("model", "ablation", "batchnorm"),
    ("featurize", "components", ["erg", "erg"]),
    ("featurize", "key_table_path", 5),
], ids=["integer", "real", "bool", "choice", "list-of-distinct-choices", "optional-path"])
def test_bad_checkpoint_config_value_exit_2(workdir, trained, tmp_path, section, key, value):
    """A bad value of each kind of field that ``predict`` reads, edited into a
    real checkpoint's config: loading it with ``--force``, which skips only
    the digest, still exits 2 naming the field. The bool and optional-path
    cases are retired keys (``adjacency_bias``, ``key_table_path``), which an
    earlier version's checkpoint carries. Run as a process, so that a
    traceback would reach stderr."""
    raw = (trained / "seed_0.ckpt").read_bytes()
    (length,) = struct.unpack("<I", raw[8:12])
    header = json.loads(raw[12 : 12 + length])
    header["config"][section][key] = value
    edited = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(raw[:8] + struct.pack("<I", len(edited)) + edited + raw[12 + length :])
    out = tmp_path / "p.csv"
    proc = run_process(["predict", "--force", "--checkpoint", str(bad),
                        "--input", str(workdir / "reg.csv"), "--out", str(out)])
    assert proc.returncode == 2, proc.stderr
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"data error: {bad}: "), proc.stderr
    assert f"{key} must " in lines[0]
    assert not out.exists()


class TestRetiredKeys:
    """``norm``, ``adjacency_bias``, ``key_table_path`` and ``head_dim`` are no
    longer settings; checkpoints written before they were retired record them."""

    def _old_checkpoint(self, trained, path, **changed):
        """The trained checkpoint (heads 2, hidden_dim 8) with the retired keys
        in its header, as an earlier version wrote them, ``changed`` in place
        of the values this version builds (or of ``heads``)."""
        config, arrays = load_checkpoint(trained / "seed_0.ckpt")
        model = {"norm": "dyt", "adjacency_bias": True, "head_dim": 4, **changed}
        config["featurize"]["key_table_path"] = model.pop("key_table_path", None)
        config["model"].update(model)
        save_checkpoint(path, config, arrays)
        return path

    def test_the_values_this_version_builds_load(self, workdir, trained, tmp_path):
        old = self._old_checkpoint(trained, tmp_path / "old.ckpt")
        for ckpt, out in ((trained / "seed_0.ckpt", "new.csv"), (old, "old.csv")):
            assert main(["predict", "--checkpoint", str(ckpt), "--input", str(workdir / "reg.csv"),
                         "--out", str(tmp_path / out)]) == 0
        assert (tmp_path / "old.csv").read_bytes() == (tmp_path / "new.csv").read_bytes()

    @pytest.mark.parametrize("key,value", [
        ("norm", "layernorm"), ("adjacency_bias", False), ("key_table_path", "keys.txt"),
        ("head_dim", 3), ("head_dim", 8), ("head_dim", "4"), ("head_dim", None),
    ])
    def test_any_other_value_exit_2_naming_the_key(self, workdir, trained, tmp_path, capsys,
                                                   key, value):
        old = self._old_checkpoint(trained, tmp_path / "old.ckpt", **{key: value})
        out = tmp_path / "p.csv"
        assert main(["predict", "--checkpoint", str(old), "--input", str(workdir / "reg.csv"),
                     "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"data error: {old}: ") and f"{key} must be " in err, err
        assert not out.exists()

    @pytest.mark.parametrize("heads", [0, "x", None])
    def test_head_dim_beside_a_bad_heads_exit_2(self, workdir, trained, tmp_path, heads):
        """``heads * head_dim`` is not worked out from such a ``heads``. Run as
        a process, so that a traceback would reach stderr."""
        old = self._old_checkpoint(trained, tmp_path / "old.ckpt", heads=heads)
        out = tmp_path / "p.csv"
        proc = run_process(["predict", "--checkpoint", str(old), "--input",
                            str(workdir / "reg.csv"), "--out", str(out)])
        assert proc.returncode == 2, proc.stderr
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith(f"data error: {old}: "), proc.stderr
        assert "head_dim must be hidden_dim / heads" in lines[0], proc.stderr
        assert not out.exists()


class TestExplainCommand:
    # sha256 of the bundle that ``explain`` writes for CC(=O)Nc1ccccc1O from
    # seed 0 of a one-seed regression run on ``reg.csv`` under TINY_CONFIG,
    # per ``--ablate`` value ("none": the full model).
    BUNDLE_SHA256 = {
        "none": "2d5819960d3330b26940fec2be847d829df444e100458030eff4ba8ddcb33ea9",
        "gat-only": "a2154c4ef2403b27f82b4f4a3b93ebf7d0079aa3dd4d6edcb3e643bb1038ea77",
        "transformer-only": "0d8e7caa684c44e0552a099e9acb49fa4fcaa1ce69b0cf27fb433f7806a3f55e",
        "no-fp": "c18b0c6cacc75c54cc5b02c2f7aa1e4bad894b2c46c1395f9f41b20eec64b00e",
    }

    @staticmethod
    def _train(workdir, out, task, ablate=None):
        data = workdir / ("reg.csv" if task == "reg" else "cls.csv")
        args = ["train", "--data", str(data), "--task", task, "--config",
                str(workdir / "config.json"), "--seeds", "1", "--out", str(out)]
        assert main(args + (["--ablate", ablate] if ablate else [])) == 0
        return out / "seed_0.ckpt"

    @staticmethod
    def _explain(checkpoint, smiles, out) -> bytes:
        assert main(["explain", "--checkpoint", str(checkpoint), "--smiles", smiles,
                     "--out", str(out)]) == 0
        return out.read_bytes()

    @pytest.mark.parametrize("ablate", ["none", "gat-only", "transformer-only", "no-fp"])
    def test_regression_bundle_bytes_are_pinned(self, workdir, tmp_path, ablate):
        checkpoint = self._train(workdir, tmp_path / "run", "reg",
                                 None if ablate == "none" else ablate)
        bundle = self._explain(checkpoint, "CC(=O)Nc1ccccc1O", tmp_path / "e.json")
        assert hashlib.sha256(bundle).hexdigest() == self.BUNDLE_SHA256[ablate]

    def test_classification_prediction_is_what_predict_writes(self, workdir, tmp_path):
        """A probability, as ``predict`` writes it, not the raw logit."""
        checkpoint = self._train(workdir, tmp_path / "run", "cls")
        smiles = "CC(=O)Nc1ccccc1O"
        (tmp_path / "in.csv").write_text(f"smiles\n{smiles}\n")
        assert main(["predict", "--checkpoint", str(checkpoint), "--input",
                     str(tmp_path / "in.csv"), "--out", str(tmp_path / "p.csv")]) == 0
        rows = list(csv.reader((tmp_path / "p.csv").read_text().splitlines()))
        bundle = json.loads(self._explain(checkpoint, smiles, tmp_path / "e.json"))
        assert bundle["prediction"] == [float(rows[1][1])]
        assert 0.0 < bundle["prediction"][0] < 1.0

    def test_bundle_contents(self, workdir, trained):
        out = workdir / "explain.json"
        code = main(
            ["explain", "--checkpoint", str(trained / "seed_0.ckpt"),
             "--smiles", "CC(=O)Nc1ccccc1", "--out", str(out)]
        )
        assert code == 0
        bundle = json.loads(out.read_text())
        n = bundle["n_atoms"]
        assert abs(sum(bundle["readout_attention"]) - 1.0) < 1e-9
        for layer in bundle["transformer_attention"]:
            for head in layer:
                for row in head:
                    assert abs(sum(row) - 1.0) < 1e-9
        for head in bundle["cross_attention"]:
            assert len(head) == n + 1
            assert abs(sum(head) - 1.0) < 1e-9
        for matrix in bundle["gat_attention"]:
            for i, row in enumerate(matrix):
                total = sum(row)
                assert abs(total - 1.0) < 1e-9 or total == 0.0
        assert 0.0 <= bundle["gate_alpha"] <= 1.0
        assert len(bundle["lambda_attn"]) == 1

    def test_single_atom_readout_weight_one(self, workdir, trained):
        out = workdir / "explain_single.json"
        main(
            ["explain", "--checkpoint", str(trained / "seed_0.ckpt"),
             "--smiles", "C", "--out", str(out)]
        )
        bundle = json.loads(out.read_text())
        assert bundle["readout_attention"] == [1.0]


class TestGradcheckCommand:
    def test_default_passes(self, workdir, capsys):
        code = main(["gradcheck", "--config", str(workdir / "config.json"), "--atoms", "5"])
        assert code == 0
        assert "PASS" in capsys.readouterr().out

    @pytest.mark.parametrize("atoms,pack_atoms", [(5, 7), (1, 3)])
    def test_checks_a_padded_two_molecule_pack(self, workdir, monkeypatch, atoms, pack_atoms):
        from molfusion import cli

        packs = []

        class Recorded(cli.MoleculeBatch):
            def __init__(self, mols):
                super().__init__(mols)
                packs.append(self)

        monkeypatch.setattr(cli, "MoleculeBatch", Recorded)
        args = ["gradcheck", "--config", str(workdir / "config.json"), "--atoms", str(atoms)]
        assert main(args) == 0
        assert [(b.size, b.n_atoms) for b in packs] == [(2, pack_atoms)]
        assert (packs[0].atom_mask != 0.0).any()  # cross-molecule pairs are masked

    def test_wrong_gradient_exit_3(self, workdir, monkeypatch, capsys):
        from molfusion.autodiff import tensor

        gru_cell = tensor.gru_cell

        def gru_cell_with_doubled_gradient(*args):
            out = gru_cell(*args)
            back = out._backward
            out._backward = lambda g: back(2 * g)
            return out

        monkeypatch.setattr(tensor, "gru_cell", gru_cell_with_doubled_gradient)
        assert main(["gradcheck", "--config", str(workdir / "config.json"), "--atoms", "5"]) == 3
        assert "FAIL" in capsys.readouterr().out

    def test_default_config_passes_in_a_real_process(self):
        proc = run_process(["gradcheck", "--atoms", "5"])
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert proc.stdout.startswith("PASS")

    def test_wrong_backward_fails_in_a_real_process(self):
        doubled = (
            "import sys\n"
            "from molfusion import cli\n"
            "from molfusion.autodiff import tensor\n"
            "gru_cell = tensor.gru_cell\n"
            "def doubled(*args):\n"
            "    out = gru_cell(*args)\n"
            "    back = out._backward\n"
            "    out._backward = lambda g: back(2 * g)\n"
            "    return out\n"
            "tensor.gru_cell = doubled\n"
            "sys.exit(cli.main())\n"
        )
        pythonpath = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-c", doubled, "gradcheck", "--atoms", "5"], capture_output=True,
            text=True, env={**os.environ, "PYTHONPATH": pythonpath}, timeout=300,
        )
        assert proc.returncode == 3, proc.stdout + proc.stderr
        assert proc.stdout.startswith("FAIL")

    @pytest.mark.parametrize("flag,value,bounds", [
        ("--atoms", "0", "[1, 64]"), ("--atoms", "-2", "[1, 64]"),
        ("--atoms", "100000000", "[1, 64]"), ("--seed", "-1", "[0, 65535]"),
    ], ids=["0", "-2", "atoms-100000000", "seed--1"])
    def test_no_atoms_exit_1(self, flag, value, bounds, capsys):
        """``--atoms`` and ``--seed`` out of range are config errors, raised
        before any molecule is built."""
        assert main(["gradcheck", flag, value]) == 1
        assert capsys.readouterr().err == (
            f"config error: {flag} must be an integer in {bounds}, got {value}\n"
        )

    @pytest.mark.parametrize("coords", ["0", "-2"])
    def test_no_coords_per_group_exit_1(self, coords, capsys):
        assert main(["gradcheck", "--coords-per-group", coords]) == 1
        assert "--coords-per-group must be an integer in [1, " in capsys.readouterr().err

    def test_no_fingerprint_path_differentiable(self, workdir):
        code = main(
            ["gradcheck", "--config", str(workdir / "config.json"), "--atoms", "4",
             "--ablate", "no-fp"]
        )
        assert code == 0

    def test_random_molecule_valid(self):
        for seed in range(5):
            g = random_molecule_graph(6, seed=seed)
            assert g.n_atoms == 6
            assert corpus_util.n_components(g) == 1


class TestUsage:
    def test_unknown_flag_exit_1(self):
        with pytest.raises(SystemExit) as exc:
            main(["train", "--bogus"])
        assert exc.value.code == 1

    def test_unknown_log_level_is_a_config_error(self):
        proc = run_process(["--version"], env={"MOLFUSION_LOG": "bogus"})
        assert proc.returncode == 1
        assert proc.stderr.startswith("config error: MOLFUSION_LOG"), proc.stderr
        assert all(level in proc.stderr for level in ("DEBUG", "INFO", "WARNING", "ERROR"))
        assert "Traceback" not in proc.stderr
        proc = run_process(["--version"], env={"MOLFUSION_LOG": "info"})
        assert proc.returncode == 0 and proc.stderr == "", proc.stderr

    def test_blas_threads_default_to_one_and_a_set_value_is_kept(self):
        names = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        show = f"import os, molfusion; print(*(os.environ[n] for n in {names!r}))"
        pythonpath = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
        env = {k: v for k, v in os.environ.items() if k not in names}
        env["PYTHONPATH"] = pythonpath
        cases = [({}, ["1", "1", "1"]), ({"OPENBLAS_NUM_THREADS": "2"}, ["2", "1", "1"])]
        for extra, want in cases:
            proc = subprocess.run([sys.executable, "-c", show], capture_output=True, text=True,
                                  env={**env, **extra}, timeout=60)
            assert proc.stdout.split() == want, proc.stderr

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
