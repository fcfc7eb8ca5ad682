"""Dataset loading and split protocol tests."""

import hashlib

import numpy as np
import pytest

from molfusion.chem import parse_smiles, scaffold_hash
from molfusion.data import (
    DataError,
    EmptyDatasetError,
    LabelError,
    MissingColumnError,
    TooSmallError,
    load_csv,
    random_split,
    read_csv,
    scaffold_split,
)

import corpus_util


@pytest.fixture()
def regression_csv(tmp_path):
    return corpus_util.write_regression_csv(
        tmp_path / "reg.csv", corpus_util.build_corpus(60)
    )


class TestReadCsv:
    @pytest.mark.parametrize(
        "text",
        [
            "smiles,y\nCCO,1.0\nCCC,2.0\n",
            "smiles,y\r\nCCO,1.0\r\nCCC,2.0\r\n",
            "\ufeffsmiles,y\nCCO,1.0\nCCC,2.0\n",  # BOM, as spreadsheets export
        ],
    )
    def test_header_and_rows(self, tmp_path, text):
        path = tmp_path / "d.csv"
        path.write_bytes(text.encode("utf-8"))
        header, rows, checksum = read_csv(path, ["smiles"])
        assert header == ["smiles", "y"]
        assert [(r["smiles"], r["y"]) for r in rows] == [("CCO", "1.0"), ("CCC", "2.0")]
        assert checksum == hashlib.sha256(path.read_bytes()).hexdigest()

    @pytest.mark.parametrize("cell", ["a\u2028b", '"a\nb"', '"a\r\nb"'])
    def test_line_break_in_cell_stays_in_record(self, tmp_path, cell):
        path = tmp_path / "d.csv"
        path.write_bytes(f"name,smiles\n{cell},CCO\nz,CCC\n".encode("utf-8"))
        _header, rows, _checksum = read_csv(path, ["smiles"])
        assert [r["smiles"] for r in rows] == ["CCO", "CCC"]

    @pytest.mark.parametrize(
        "raw",
        [b"", b"\n", b"\xef\xbb\xbf", b"smiles,y\nCC\xff,1\n", b"smiles\n" + b"C" * 200_000],
        ids=["empty", "blank", "bom-only", "not-utf8", "oversized-field"],
    )
    def test_unreadable_file_is_data_error(self, tmp_path, raw):
        path = tmp_path / "d.csv"
        path.write_bytes(raw)
        with pytest.raises(DataError):
            read_csv(path, ["smiles"])


class TestLoadCsv:
    def test_basic_load(self, regression_csv):
        ds = load_csv(regression_csv, "smiles", ["solubility"])
        assert len(ds) == 60
        assert ds.task_names == ("solubility",)
        assert ds.mask.all() and ds.labels.shape == (60, 1)

    def test_bad_smiles_dropped_with_count(self, tmp_path, caplog):
        path = tmp_path / "d.csv"
        path.write_text("smiles,y\nCCO,1.0\nnot_a_smiles((,2.0\nCCC,3.0\n")
        with caplog.at_level("WARNING"):
            ds = load_csv(path, "smiles", ["y"])
        assert len(ds) == 2
        assert any("1 rows" in r.message for r in caplog.records)

    def test_missing_labels_preserved_as_missing(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("a,smiles,b\n1,CCO,\n,CCC,0\n1,CCN,1\n")
        ds = load_csv(path, "smiles", ["a", "b"], task_type="classification")
        assert ds.smiles == ("CCO", "CCC", "CCN")
        assert ds.mask.tolist() == [[True, False], [False, True], [True, True]]
        assert ds.labels.tolist() == [[1.0, 0.0], [0.0, 0.0], [1.0, 1.0]]
        default = load_csv(path, "smiles", task_type="classification")
        assert default.task_names == ("a", "b")
        assert default.smiles == ds.smiles
        assert np.array_equal(default.labels, ds.labels)
        assert np.array_equal(default.mask, ds.mask)

    def test_blank_cell_is_masked_and_the_arrays_are_read_only(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("smiles,a,b\nCCO,2.5, \nCCC,,-1\n")
        ds = load_csv(path, "smiles", ["a", "b"])
        assert ds.labels.dtype == np.float64 and ds.mask.dtype == bool
        assert ds.mask.tolist() == [[True, False], [False, True]]
        assert ds.labels.tolist() == [[2.5, 0.0], [0.0, -1.0]]
        for array in (ds.labels, ds.mask):
            with pytest.raises(ValueError, match="read-only"):
                array[0, 0] = 1

    def test_twelve_task_sparse_file(self, tmp_path):
        # toxicity-benchmark shape: many tasks, mostly blank cells
        import numpy as np

        rng = np.random.default_rng(0)
        tasks = [f"t{k}" for k in range(12)]
        rows = []
        for smiles in corpus_util.build_corpus(20):
            cells = [
                str(int(rng.integers(0, 2))) if rng.random() < 0.4 else ""
                for _ in tasks
            ]
            if all(c == "" for c in cells):
                cells[0] = "1"
            rows.append(f"{smiles},{','.join(cells)}")
        path = tmp_path / "multi.csv"
        path.write_text("smiles," + ",".join(tasks) + "\n" + "\n".join(rows) + "\n")
        ds = load_csv(path, "smiles", tasks, task_type="classification")
        assert ds.n_tasks == 12
        assert (~ds.mask).any() and ds.mask.any()
        assert set(ds.labels[ds.mask].tolist()) <= {0.0, 1.0}
        assert not ds.labels[~ds.mask].any()

    def test_all_missing_rows_dropped(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("smiles,y\nCCO,\nCCC,2.0\n")
        ds = load_csv(path, "smiles", ["y"])
        assert len(ds) == 1

    def test_classification_labels_strict(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("smiles,y\nCCO,0.7\n")
        with pytest.raises(LabelError):
            load_csv(path, "smiles", ["y"], task_type="classification")

    def test_missing_column(self, regression_csv):
        with pytest.raises(MissingColumnError):
            load_csv(regression_csv, "smiles", ["nope"])

    def test_empty_dataset(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("smiles,y\nbad(((,1.0\n")
        with pytest.raises(EmptyDatasetError):
            load_csv(path, "smiles", ["y"])

    def test_checksum_stable(self, regression_csv):
        a = load_csv(regression_csv, "smiles", ["solubility"])
        b = load_csv(regression_csv, "smiles", ["solubility"])
        assert a.checksum == b.checksum


class TestRandomSplit:
    def test_exact_8_1_1_at_n10(self, tmp_path):
        ds = load_csv(
            corpus_util.write_regression_csv(tmp_path / "d.csv", corpus_util.build_corpus(10)),
            "smiles",
            ["solubility"],
        )
        split = random_split(ds, seed=0)
        assert (len(split.train), len(split.valid), len(split.test)) == (8, 1, 1)

    def test_n101_gives_81_10_10(self, tmp_path):
        ds = load_csv(
            corpus_util.write_regression_csv(tmp_path / "d.csv", corpus_util.build_corpus(101)),
            "smiles",
            ["solubility"],
        )
        split = random_split(ds, seed=3)
        assert (len(split.train), len(split.valid), len(split.test)) == (81, 10, 10)

    def test_same_seed_identical(self, regression_csv):
        ds = load_csv(regression_csv, "smiles", ["solubility"])
        assert random_split(ds, 7) == random_split(ds, 7)
        assert random_split(ds, 7) != random_split(ds, 8)

    def test_partition_property(self, regression_csv):
        ds = load_csv(regression_csv, "smiles", ["solubility"])
        for seed in range(5):
            split = random_split(ds, seed)
            combined = sorted(split.train + split.valid + split.test)
            assert combined == list(range(len(ds)))

    def test_too_small(self, tmp_path):
        ds = load_csv(
            corpus_util.write_regression_csv(tmp_path / "d.csv", corpus_util.build_corpus(9)),
            "smiles",
            ["solubility"],
        )
        with pytest.raises(TooSmallError):
            random_split(ds, 0)


class TestScaffoldSplit:
    def _dataset(self, tmp_path, smiles_list):
        return load_csv(
            corpus_util.write_regression_csv(tmp_path / "s.csv", smiles_list),
            "smiles",
            ["solubility"],
        )

    def test_scaffold_disjoint(self, tmp_path):
        ds = self._dataset(tmp_path, corpus_util.scaffold_family_corpus())
        split = scaffold_split(ds, seed=0)
        seen = {}
        for part_name, indices in (("train", split.train), ("valid", split.valid), ("test", split.test)):
            for i in indices:
                key = scaffold_hash(parse_smiles(ds.smiles[i]))
                assert seen.setdefault(key, part_name) == part_name
        assert split.valid and split.test

    def test_shared_scaffold_stays_together(self, tmp_path):
        smiles = ["c1ccccc1", "Cc1ccccc1", "CCc1ccccc1"] + [
            s for s in corpus_util.build_corpus(40) if "1" not in s
        ]
        ds = self._dataset(tmp_path, smiles)
        split = scaffold_split(ds, seed=0)
        benzene_rows = [0, 1, 2]
        parts = [
            next(
                p
                for p, idx in (("train", split.train), ("valid", split.valid), ("test", split.test))
                if i in idx
            )
            for i in benzene_rows
        ]
        assert len(set(parts)) == 1

    def test_single_scaffold_all_in_train(self, tmp_path, caplog):
        smiles = [f"{'C' * k}c1ccccc1" for k in range(1, 13)]
        ds = self._dataset(tmp_path, smiles)
        with caplog.at_level("WARNING"):
            split = scaffold_split(ds, seed=0)
        assert len(split.train) == len(ds)
        assert not split.valid and not split.test
        assert any("scaffold" in r.message for r in caplog.records)

    def test_deterministic(self, tmp_path):
        ds = self._dataset(tmp_path, corpus_util.scaffold_family_corpus())
        assert scaffold_split(ds, 0) == scaffold_split(ds, 0)


class TestManifest:
    def test_roundtrip(self, tmp_path, regression_csv):
        ds = load_csv(regression_csv, "smiles", ["solubility"])
        split = random_split(ds, 5)
        path = tmp_path / "split.json"
        split.save(path, ds.checksum)
        import json

        manifest = json.loads(path.read_text())
        assert manifest["checksum"] == ds.checksum
        assert manifest["indices"] == {"train": split.train, "valid": split.valid,
                                       "test": split.test}
        assert (manifest["method"], manifest["seed"], manifest["fractions"]) == (
            split.method, split.seed, list(split.fractions))
