"""Loss, metric and training-protocol tests."""

import contextlib
import dataclasses
import io
import json
import math
import multiprocessing
import os
import re
import time

import numpy as np
import pytest

import molfusion.autodiff as ad
from molfusion import cli
from molfusion import helper as helper_module
from molfusion.autodiff import Tensor, backward, load_checkpoint, make_rng
from molfusion.autodiff import tensor as T
from molfusion.autodiff.rng import split_streams
from molfusion.chem import parse_smiles
from molfusion.data import load_csv, random_split
from molfusion.featurize import FeaturizeConfig, featurize
from molfusion.model import MlfgnnModel, ModelConfig, MoleculeBatch, chunks
from molfusion.train import (
    AllMaskedError,
    NonFiniteLossError,
    SingleClassError,
    TrainConfig,
    aggregate,
    evaluate_metric,
    masked_loss,
    masked_rmse,
    prepare_inputs,
    rmse,
    roc_auc,
    train,
)

import corpus_util
from molfusion.train import lanes, loop

SMALL_FEATURIZE = FeaturizeConfig(morgan_bits=64, erg_max_path=5)


def small_config(**overrides):
    base = dict(
        transformer_layers=1,
        heads=2,
        hidden_dim=8,
        gat_out_dim=8,
        gat_layers=1,
        fingerprint_embed_dim=8,
        fingerprint_dim=SMALL_FEATURIZE.fingerprint_length,
        dropout_gat=0.0,
        dropout_ffn=0.0,
        dropout_attn=0.0,
    )
    base.update(overrides)
    return ModelConfig(**base)


class TestMaskedLoss:
    def test_bce_logit_zero_label_one(self):
        out = Tensor(np.zeros((1, 1)), requires_grad=True)
        loss = masked_loss(out, np.array([[1.0]]), np.array([[True]]), "classification")
        assert loss.item() == pytest.approx(math.log(2.0))

    def test_regression_perfect_zero(self):
        out = Tensor(np.array([[1.0, -2.0]]))
        loss = masked_loss(out, np.array([[1.0, -2.0]]), np.ones((1, 2), bool), "regression")
        assert loss.item() == 0.0

    def test_masked_task_contributes_nothing(self):
        out = Tensor(np.array([[0.3, 99.0]]))
        labels = np.array([[1.0, 0.0]])
        both = masked_loss(out, labels, np.array([[True, False]]), "classification")
        single = masked_loss(
            Tensor(out.data[:, :1]), labels[:, :1], np.array([[True]]), "classification"
        )
        assert both.item() == pytest.approx(single.item())

    def test_gradient_zero_at_masked_positions(self):
        out = Tensor(np.array([[0.5, -1.5, 2.0]]), requires_grad=True)
        labels = np.array([[1.0, 0.0, 1.0]])
        mask = np.array([[True, False, True]])
        backward(masked_loss(out, labels, mask, "classification"))
        assert out.grad[0, 1] == 0.0
        assert out.grad[0, 0] != 0.0

    def test_all_masked_raises(self):
        out = Tensor(np.zeros((1, 2)))
        with pytest.raises(AllMaskedError):
            masked_loss(out, np.zeros((1, 2)), np.zeros((1, 2), bool), "regression")
        with pytest.raises(AllMaskedError):  # one molecule without labels is enough
            masked_loss(Tensor(np.zeros((2, 2))), np.zeros((2, 2)),
                        np.array([[True, False], [False, False]]), "regression")

    @pytest.mark.parametrize("task", ["regression", "classification"])
    def test_rows_are_molecules_with_equal_weight(self, task):
        rng = make_rng(3)
        out = rng.standard_normal((3, 3))
        labels = rng.integers(0, 2, size=(3, 3)).astype(float)
        mask = np.array([[True, True, True], [False, True, False], [True, False, True]])
        if task == "regression":
            entry = (out - labels) ** 2
        else:
            entry = np.log1p(np.exp(out)) - out * labels
        per_row = [entry[i][mask[i]].mean() for i in range(3)]
        packed = masked_loss(Tensor(out), labels, mask, task).item()
        assert packed == pytest.approx(np.mean(per_row), rel=1e-12)


def brute_force_auc(scores, labels):
    """All positive-negative pairs; ties count half."""
    scores = np.asarray(scores, dtype=np.float64)
    pos = scores[np.asarray(labels) == 1]
    neg = scores[np.asarray(labels) == 0]
    total = 0.0
    for p in pos:
        for q in neg:
            if p > q:
                total += 1.0
            elif p == q:
                total += 0.5
    return total / (len(pos) * len(neg))


class TestRocAuc:
    def test_perfect_ranking(self):
        assert roc_auc([0.1, 0.2, 0.8, 0.9], [0, 0, 1, 1]) == 1.0

    def test_all_ties_half(self):
        assert roc_auc([0.5] * 6, [0, 1, 0, 1, 0, 1]) == 0.5

    def test_worked_example(self):
        assert roc_auc([0.1, 0.4, 0.35, 0.8], [0, 0, 1, 1]) == pytest.approx(0.75)

    def test_single_class_raises(self):
        with pytest.raises(SingleClassError):
            roc_auc([0.1, 0.2], [1, 1])

    def test_matches_bruteforce_on_random_instances(self):
        rng = make_rng(0)
        for trial in range(1000):
            n = int(rng.integers(2, 40))
            labels = rng.integers(0, 2, size=n)
            if labels.min() == labels.max():
                labels[0] = 1 - labels[0]
            # quantized scores force plenty of ties
            scores = np.round(rng.random(n), 1)
            assert roc_auc(scores, labels) == brute_force_auc(scores, labels), trial


class TestRmse:
    def test_zero_when_equal(self):
        assert rmse([1.0, 2.0], [1.0, 2.0]) == 0.0

    def test_constant_offset(self):
        assert rmse([3.0, 4.0], [1.0, 2.0]) == pytest.approx(2.0)

    def test_worked_example(self):
        assert rmse([1.0, 2.0], [0.0, 0.0]) == pytest.approx(math.sqrt(2.5))

    def test_empty_raises(self):
        from molfusion.train import EmptyError

        with pytest.raises(EmptyError):
            rmse([], [])


@pytest.fixture(scope="module")
def tiny_dataset(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "tiny.csv"
    corpus_util.write_regression_csv(path, corpus_util.build_corpus(40))
    return load_csv(path, "smiles", ["solubility"])


class TestTrainLoop:
    def test_patience_stops_after_exact_epochs(self, tiny_dataset):
        mols = prepare_inputs(tiny_dataset, SMALL_FEATURIZE)
        labels, mask = tiny_dataset.labels, tiny_dataset.mask
        split = random_split(tiny_dataset, 0)
        model = MlfgnnModel(small_config(), seed=0)
        config = TrainConfig(epochs=50, lr=1e-30, patience=5)
        result = train(model, mols, labels, mask, split, config, seed=0)
        # epoch 1 sets the best; metrics never improve with a frozen model
        assert len(result.history) == 6

    def test_same_seed_identical_trajectories(self, tiny_dataset):
        mols = prepare_inputs(tiny_dataset, SMALL_FEATURIZE)
        labels, mask = tiny_dataset.labels, tiny_dataset.mask
        split = random_split(tiny_dataset, 0)
        config = TrainConfig(epochs=4, lr=1e-3, patience=10)
        histories = []
        for _ in range(2):
            model = MlfgnnModel(small_config(), seed=1)
            result = train(model, mols, labels, mask, split, config, seed=1)
            histories.append([(h["train_loss"], h["valid_metric"]) for h in result.history])
        assert histories[0] == histories[1]

    def test_best_checkpoint_not_last_is_reported(self, tiny_dataset):
        """The test metric comes from the best-validation state, not the last."""
        mols = prepare_inputs(tiny_dataset, SMALL_FEATURIZE)
        labels, mask = tiny_dataset.labels, tiny_dataset.mask
        split = random_split(tiny_dataset, 0)
        model = MlfgnnModel(small_config(), seed=2)
        config = TrainConfig(epochs=8, lr=5e-3, patience=50)
        result = train(model, mols, labels, mask, split, config, seed=2)
        best = min(
            (h for h in result.history if h["valid_metric"] is not None),
            key=lambda h: h["valid_metric"],
        )
        assert result.best_epoch == best["epoch"]
        assert result.valid_metric == best["valid_metric"]
        # restored model state must reproduce the recorded test metric
        with lanes.Lanes(model, mols, labels, mask, ad.Adam(model.params)) as pair:
            re_eval = evaluate_metric(model, mols, labels, mask, split.test, pair)
        assert re_eval == pytest.approx(result.test_metric)

    @pytest.mark.parametrize("empty_valid", [False, True], ids=["valid", "no-valid"])
    def test_snapshot_taken_only_when_the_best_state_changes(self, tiny_dataset, monkeypatch,
                                                             empty_valid):
        """No parameter snapshot before epoch 1, then one per improving epoch,
        or per epoch without a validation metric; the last one is returned and
        restored."""
        mols = prepare_inputs(tiny_dataset, SMALL_FEATURIZE)
        labels, mask = tiny_dataset.labels, tiny_dataset.mask
        split = random_split(tiny_dataset, 0)
        if empty_valid:
            split = dataclasses.replace(split, train=split.train + split.valid, valid=[])
        model = MlfgnnModel(small_config(), seed=2)
        events, snapshots = [], []
        real_step, real_state = lanes.Lanes.step, model.state_arrays

        def step(self, *args):
            events.append("step")
            return real_step(self, *args)

        def state_arrays():
            events.append("snapshot")
            snapshots.append(real_state())
            return snapshots[-1]

        monkeypatch.setattr(lanes.Lanes, "step", step)
        model.state_arrays = state_arrays
        config = TrainConfig(epochs=8, lr=2e-2, batch_size=16, patience=50)
        result = train(model, mols, labels, mask, split, config, seed=2)
        assert events[0] == "step"
        best, want = None, 0
        for h in result.history:
            metric = h["valid_metric"]
            if metric is None or best is None or metric < best:
                best = best if metric is None else metric
                want += 1
        assert events.count("snapshot") == want
        assert 1 < want < len(result.history) or empty_valid
        assert result.state is snapshots[-1]
        restored = real_state()
        assert restored.keys() == result.state.keys()
        for name, arr in result.state.items():
            assert arr.tobytes() == restored[name].tobytes()

    def test_log_lines_carry_gate_and_lambdas(self, tiny_dataset, tmp_path):
        import json

        mols = prepare_inputs(tiny_dataset, SMALL_FEATURIZE)
        labels, mask = tiny_dataset.labels, tiny_dataset.mask
        split = random_split(tiny_dataset, 0)
        model = MlfgnnModel(small_config(), seed=0)
        config = TrainConfig(epochs=2, patience=5)
        log_path = tmp_path / "log.jsonl"
        train(model, mols, labels, mask, split, config, seed=0, log_path=log_path)
        lines = [json.loads(l) for l in log_path.read_text().splitlines()]
        assert len(lines) == 2
        for line in lines:
            assert 0.0 <= line["gate_alpha"] <= 1.0
            assert len(line["lambda_attn"]) == 1
            assert len(line["lambda_adj"]) == 1

    def test_loss_decreases_on_overfit_subset(self, tiny_dataset):
        mols = prepare_inputs(tiny_dataset, SMALL_FEATURIZE)
        labels, mask = tiny_dataset.labels, tiny_dataset.mask
        split = random_split(tiny_dataset, 3)
        wins = 0
        for seed in range(3):
            model = MlfgnnModel(small_config(), seed=seed)
            config = TrainConfig(epochs=10, lr=3e-3, patience=50)
            result = train(model, mols, labels, mask, split, config, seed=seed)
            losses = [h["train_loss"] for h in result.history]
            if losses[-1] < losses[0]:
                wins += 1
        assert wins >= 2


class TestMultiSeed:
    def test_aggregate_mean_std(self):
        mean, std = aggregate({"1": 0.6, "2": 0.7, "3": 0.8})
        assert mean == pytest.approx(0.7)
        assert std == pytest.approx(0.1)

    def test_single_seed_zero_std(self):
        _mean, std = aggregate({"5": 0.42})
        assert std == 0.0

    def test_undefined_metrics_are_left_out(self):
        assert aggregate({"0": None, "1": 0.4}) == (0.4, 0.0)
        assert aggregate({"0": None}) == (None, 0.0)

    def test_seed_order_irrelevant(self):
        assert aggregate({"1": 0.5, "2": 0.9}) == aggregate({"2": 0.9, "1": 0.5})

    def test_multi_task_classification_with_missing_labels(self, tmp_path):
        import csv as _csv

        rng = make_rng(1)
        corpus = corpus_util.build_corpus(40)
        path = tmp_path / "mt.csv"
        with open(path, "w", newline="") as fh:
            writer = _csv.writer(fh)
            writer.writerow(["smiles", "t0", "t1", "t2"])
            for s in corpus:
                base = corpus_util.classification_label(s, -1.0)
                cells = [
                    str(base if rng.random() < 0.8 else 1 - base) if rng.random() < 0.7 else ""
                    for _ in range(3)
                ]
                if all(c == "" for c in cells):
                    cells[0] = str(base)
                writer.writerow([s, *cells])
        ds = load_csv(path, "smiles", ["t0", "t1", "t2"], "classification")
        mols = prepare_inputs(ds, SMALL_FEATURIZE)
        model = MlfgnnModel(small_config(n_tasks=3, task="classification"), seed=0)
        result = train(model, mols, ds.labels, ds.mask, random_split(ds, 0),
                       TrainConfig(epochs=2, patience=5), seed=0)
        assert result.history  # trained without AllMasked errors

    def test_multi_seed_runs(self, tmp_path):
        data, config = tmp_path / "reg.csv", tmp_path / "config.json"
        corpus_util.write_regression_csv(data, corpus_util.build_corpus(40))
        config.write_text(json.dumps({  # the sizes of small_config and SMALL_FEATURIZE
            "model": {"transformer_layers": 1, "heads": 2, "hidden_dim": 8,
                      "gat_out_dim": 8, "gat_layers": 1, "fingerprint_embed_dim": 8},
            "featurize": {"morgan_bits": 64, "erg_max_path": 5},
        }))
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["train", "--data", str(data), "--task", "reg", "--seeds", "2",
                             "--epochs", "2", "--config", str(config),
                             "--out", str(tmp_path / "run")]) == 0
        report = json.loads((tmp_path / "run" / "report.json").read_text())
        assert set(report["per_seed"]) == {"0", "1"}
        assert report["metric"] == "rmse"
        splits = [json.loads((tmp_path / "run" / f"seed_{k}_split.json").read_text())["indices"]
                  for k in (0, 1)]
        assert splits[0] != splits[1]  # random split reseeded per seed


needs_helper = pytest.mark.skipif(not helper_module.FORK_HELPER,
                                  reason="the helper is forked on Linux")


def batch_grads(optimizer) -> list[np.ndarray]:
    """Each parameter's batch gradient: lane 0's sum plus lane 1's."""
    return [a + b for a, b in zip(*optimizer.grad_views)]


def serial_chunk_sum(model, mols, labels, mask, chunk_lists, n) -> dict[str, np.ndarray]:
    """Each parameter's gradient of the chunks' losses scaled by len(chunk) / n,
    from one backward per chunk in this process (zeros where none reached)."""
    for t in model.params.tensors.values():
        t.zero_grad()
    for chunk in chunk_lists:
        out = model.forward(MoleculeBatch([mols[i] for i in chunk]), train=True, rng=make_rng(0))
        loss = masked_loss(out, labels[chunk], mask[chunk], "regression")
        backward(T.mul(loss, Tensor(len(chunk) / n)))
    return {name: np.zeros_like(t.data) if t.grad is None else t.grad
            for name, t in model.params.tensors.items()}


class TestLanes:
    @needs_helper
    @pytest.mark.parametrize("loss", ["masked", "output"])
    def test_a_chunk_computes_the_same_bits_in_either_lane(self, tiny_dataset, monkeypatch,
                                                             loss):
        """One-molecule chunks run twice with their lanes swapped, under
        dropout. With the loss replaced by the chunk's output, each loss is
        the forward output itself."""
        if loss == "output":
            monkeypatch.setattr(lanes, "masked_loss", lambda out, *_: T.sum_(out))
        mols = prepare_inputs(tiny_dataset, SMALL_FEATURIZE)
        labels, mask = tiny_dataset.labels, tiny_dataset.mask
        model = MlfgnnModel(
            small_config(dropout_gat=0.3, dropout_ffn=0.3, dropout_attn=0.3), seed=0
        )
        chunk_lists, seeds = [[0], [1], [2], [3]], [11, 12, 13, 14]
        swap = [1, 0, 3, 2]  # lane 0 gets the chunks lane 1 had
        with lanes.Lanes(model, mols, labels, mask, ad.Adam(model.params)) as pair:
            assert pair.process.is_alive()
            first = pair.step(chunk_lists, seeds, 4)
            first_grads = batch_grads(pair.optimizer)
            second = pair.step([chunk_lists[k] for k in swap], [seeds[k] for k in swap], 4)
            second_grads = batch_grads(pair.optimizer)
        assert second == [first[k] for k in swap]
        assert all(np.array_equal(a, b) for a, b in zip(first_grads, second_grads))
        for (i,), seed, value in zip(chunk_lists, seeds, first):
            out = model.forward(MoleculeBatch([mols[i]]), train=True, rng=make_rng(seed))
            assert lanes.masked_loss(out, labels[[i]], mask[[i]], "regression").item() == value
        assert len(set(first)) == 4

    @pytest.mark.parametrize("helper", [True, False], ids=["helper", "inline"])
    def test_step_gradient_matches_a_serial_chunk_sum(self, tiny_dataset, monkeypatch, helper):
        monkeypatch.setattr(helper_module, "FORK_HELPER", helper and helper_module.FORK_HELPER)
        mols = prepare_inputs(tiny_dataset, SMALL_FEATURIZE)
        labels, mask = tiny_dataset.labels, tiny_dataset.mask
        model = MlfgnnModel(small_config(), seed=0)  # dropout 0
        batch = list(range(len(mols)))
        chunk_lists = list(chunks(batch, lambda i: mols[i].n_atoms))
        assert len(chunk_lists) >= 3
        serial = serial_chunk_sum(model, mols, labels, mask, chunk_lists, len(batch))
        with lanes.Lanes(model, mols, labels, mask, ad.Adam(model.params)) as pair:
            pair.step(chunk_lists, list(range(len(chunk_lists))), len(batch))
            got = batch_grads(pair.optimizer)
        for (name, want), g in zip(serial.items(), got):
            assert np.abs(g - want).max() <= 1e-14 * np.abs(want).max(), name

    @pytest.mark.parametrize("helper", [True, False], ids=["helper", "inline"])
    def test_each_lane_buffer_holds_a_serial_sum_of_its_chunks(self, tiny_dataset, monkeypatch,
                                                               helper):
        """Lane k's backwards add into row k of ``optimizer.grads`` only."""
        monkeypatch.setattr(helper_module, "FORK_HELPER", helper and helper_module.FORK_HELPER)
        mols = prepare_inputs(tiny_dataset, SMALL_FEATURIZE)
        labels, mask = tiny_dataset.labels, tiny_dataset.mask
        model = MlfgnnModel(small_config(), seed=0)  # dropout 0
        batch = list(range(len(mols)))
        chunk_lists = list(chunks(batch, lambda i: mols[i].n_atoms))
        assert len(chunk_lists) >= 3
        serial = [serial_chunk_sum(model, mols, labels, mask, chunk_lists[lane::2], len(batch))
                  for lane in (0, 1)]
        optimizer = ad.Adam(model.params)
        with lanes.Lanes(model, mols, labels, mask, optimizer) as pair:
            pair.step(chunk_lists, list(range(len(chunk_lists))), len(batch))
        for lane in (0, 1):
            for (name, want), got in zip(serial[lane].items(), optimizer.grad_views[lane]):
                assert np.array_equal(got, want), (lane, name)

    def _run_train(self, tiny_dataset, labels=None, epochs=1):
        mols = prepare_inputs(tiny_dataset, SMALL_FEATURIZE)
        all_labels, mask = tiny_dataset.labels, tiny_dataset.mask
        split = random_split(tiny_dataset, 0)
        config = TrainConfig(epochs=epochs, patience=5)
        labels = all_labels if labels is None else labels
        return train(MlfgnnModel(small_config(), seed=0), mols, labels, mask, split, config,
                     seed=0)

    def test_no_helper_outlives_train(self, tiny_dataset):
        self._run_train(tiny_dataset, epochs=2)
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("helper", [True, False], ids=["helper", "inline"])
    def test_non_finite_loss_in_lane_1_names_its_records(self, tiny_dataset, monkeypatch,
                                                         helper):
        """The records named are those of the first non-finite chunk in chunk
        order, as when the chunks ran one after another."""
        monkeypatch.setattr(helper_module, "FORK_HELPER", helper and helper_module.FORK_HELPER)
        mols = prepare_inputs(tiny_dataset, SMALL_FEATURIZE)
        labels = tiny_dataset.labels
        split = random_split(tiny_dataset, 0)
        order = split_streams(0, ("shuffle", "dropout"))["shuffle"].permutation(split.train)
        batch = order.tolist()[: TrainConfig().batch_size]
        bad_chunk = list(chunks(batch, lambda i: mols[i].n_atoms))[1]  # lane 1's first
        labels = labels.copy()
        labels[bad_chunk[-1]] = 1e200
        message = f"non-finite loss at epoch 1, records {bad_chunk}: inf"
        with pytest.raises(NonFiniteLossError, match=re.escape(message)):
            self._run_train(tiny_dataset, labels)
        assert multiprocessing.active_children() == []

    @needs_helper
    def test_helper_exception_is_raised_and_the_helper_stopped(self, tiny_dataset,
                                                                 monkeypatch):
        training_pid = os.getpid()

        def loss_failing_in_the_helper(*args):
            if os.getpid() != training_pid:
                raise RuntimeError("loss failed in the helper")
            return masked_loss(*args)

        monkeypatch.setattr(lanes, "masked_loss", loss_failing_in_the_helper)
        with pytest.raises(RuntimeError, match="loss failed in the helper"):
            self._run_train(tiny_dataset)
        assert multiprocessing.active_children() == []

    @needs_helper
    def test_a_busy_helper_is_terminated_when_lane_0_fails(self, tiny_dataset, monkeypatch):
        training_pid = os.getpid()

        def loss_failing_in_lane_0(*args):
            if os.getpid() == training_pid:
                raise RuntimeError("loss failed in lane 0")
            time.sleep(60)

        monkeypatch.setattr(lanes, "masked_loss", loss_failing_in_lane_0)
        start = time.perf_counter()
        with pytest.raises(RuntimeError, match="loss failed in lane 0"):
            self._run_train(tiny_dataset)
        assert time.perf_counter() - start < 30
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("helper", [True, False], ids=["helper", "inline"])
    @pytest.mark.parametrize("n", [0, 1, 2, 7])
    def test_prepare_inputs_matches_a_serial_featurize(self, tiny_dataset, monkeypatch, helper,
                                                       n):
        """Each record is parsed once, in this process, and featurized once,
        in record order; a 100-atom chain, over ``MAX_CHUNK_ATOMS``, is a
        chunk of its own among the corpus records."""
        monkeypatch.setattr(helper_module, "FORK_HELPER", helper and helper_module.FORK_HELPER)
        smiles = list(tiny_dataset.smiles[:n])
        if n > 2:
            smiles.insert(n // 2, "C" * 100)
        parsed = []

        def counted_parse(text):
            parsed.append(text)
            return parse_smiles(text)

        monkeypatch.setattr(helper_module, "parse_smiles", counted_parse)
        got = prepare_inputs(dataclasses.replace(tiny_dataset, smiles=smiles), SMALL_FEATURIZE)
        assert sorted(parsed) == sorted(smiles)
        want = [featurize(parse_smiles(text), SMALL_FEATURIZE) for text in smiles]
        assert len(got) == len(smiles)
        for a, b in zip(got, want):
            for field in dataclasses.fields(b):
                x, y = getattr(a, field.name), getattr(b, field.name)
                assert np.asarray(x).dtype == np.asarray(y).dtype, field.name
                assert np.array_equal(x, y), field.name
        assert multiprocessing.active_children() == []

    def test_prepare_inputs_on_one_chunk_forks_nothing(self, tiny_dataset, monkeypatch):
        def no_fork():
            raise AssertionError("a one-chunk dataset forked a helper")

        monkeypatch.setattr(os, "fork", no_fork)
        smiles = tiny_dataset.smiles[:3]
        mols = prepare_inputs(dataclasses.replace(tiny_dataset, smiles=smiles), SMALL_FEATURIZE)
        assert len(list(chunks(mols, lambda mol: mol.n_atoms))) == 1
        assert [mol.n_atoms for mol in mols] == [parse_smiles(s).n_atoms for s in smiles]

    def test_entering_lanes_keeps_the_parameter_views_adam_made(self, tiny_dataset):
        """The parameters are moved into shared memory once, by ``Adam``."""
        model = MlfgnnModel(small_config(), seed=0)
        optimizer = ad.Adam(model.params)
        tensors = list(model.params.tensors.values())
        views = [t.data for t in tensors]
        assert all(np.shares_memory(view, optimizer.params) for view in views)
        with lanes.Lanes(model, [], tiny_dataset.labels, tiny_dataset.mask, optimizer):
            assert all(t.data is view for t, view in zip(tensors, views))
        assert all(t.data is view for t, view in zip(tensors, views))

    @pytest.mark.parametrize("helper", [True, False], ids=["helper", "inline"])
    def test_eval_on_the_two_lanes_equals_a_serial_eval(self, tiny_dataset, monkeypatch, helper):
        monkeypatch.setattr(helper_module, "FORK_HELPER", helper and helper_module.FORK_HELPER)
        mols = prepare_inputs(tiny_dataset, SMALL_FEATURIZE)
        labels, mask = tiny_dataset.labels, tiny_dataset.mask
        model = MlfgnnModel(small_config(), seed=0)
        indices = list(range(len(mols)))[::-1]
        chunk_lists = list(chunks(indices, lambda i: mols[i].n_atoms))
        assert len(chunk_lists) >= 3
        with ad.no_grad():
            serial = [model.forward(MoleculeBatch([mols[i] for i in chunk])).data
                      for chunk in chunk_lists]
        serial_metric = masked_rmse(np.concatenate(serial), labels[indices], mask[indices])
        with lanes.Lanes(model, mols, labels, mask, ad.Adam(model.params)) as pair:
            outputs = pair.eval(chunk_lists)
            metric = evaluate_metric(model, mols, labels, mask, indices, pair)
        assert [a.tobytes() for a in outputs] == [b.tobytes() for b in serial]
        assert metric == serial_metric

    @pytest.mark.parametrize("helper", ["helper", "slow-helper", "inline"])
    def test_adam_on_the_two_lanes_equals_adam_in_one_process(self, tiny_dataset, monkeypatch,
                                                             helper):
        """Three steps; each lane keeps the moments of its own half only. With
        lane 1's half slowed down, the step still returns with it written."""
        forked = helper != "inline" and helper_module.FORK_HELPER
        monkeypatch.setattr(helper_module, "FORK_HELPER", forked)
        if helper == "slow-helper":
            training_pid, adam = os.getpid(), lanes.Lanes._adam

            def slow_adam(pair, *args):
                if os.getpid() != training_pid:
                    time.sleep(0.05)
                adam(pair, *args)

            monkeypatch.setattr(lanes.Lanes, "_adam", slow_adam)
        mols = prepare_inputs(tiny_dataset, SMALL_FEATURIZE)
        labels, mask = tiny_dataset.labels, tiny_dataset.mask
        model, reference = MlfgnnModel(small_config(), seed=0), MlfgnnModel(small_config(), seed=0)
        optimizer, serial = ad.Adam(model.params, lr=0.01), ad.Adam(reference.params, lr=0.01)
        batch = list(range(len(mols)))
        chunk_lists = list(chunks(batch, lambda i: mols[i].n_atoms))
        with lanes.Lanes(model, mols, labels, mask, optimizer) as pair:
            for _ in range(3):
                pair.step(chunk_lists, list(range(len(chunk_lists))), len(batch))
                for g, r in zip(batch_grads(optimizer), reference.params.tensors.values()):
                    r.grad[...] = g
                pair.adam_step()
                serial.step()
                assert optimizer.params.tobytes() == serial.params.tobytes()
        n = optimizer.params.size
        assert sorted(optimizer.moments) == ([(0, n // 2)] if forked else
                                             [(0, n // 2), (n // 2, n)])

    @pytest.mark.parametrize("helper", [True, False], ids=["helper", "inline"])
    def test_non_finite_loss_raises_before_adam_and_leaves_no_process(self, tiny_dataset,
                                                                      monkeypatch, helper):
        """Lane 0's first chunk overflows: neither Adam half steps."""
        monkeypatch.setattr(helper_module, "FORK_HELPER", helper and helper_module.FORK_HELPER)
        steps = []

        class Counting(ad.Adam):
            def step(self, lo=0, hi=None):
                steps.append((lo, hi))
                super().step(lo, hi)

        monkeypatch.setattr(loop, "Adam", Counting)
        mols = prepare_inputs(tiny_dataset, SMALL_FEATURIZE)
        split = random_split(tiny_dataset, 0)
        order = split_streams(0, ("shuffle", "dropout"))["shuffle"].permutation(split.train)
        batch = order.tolist()[: TrainConfig().batch_size]
        first_chunk = next(chunks(batch, lambda i: mols[i].n_atoms))
        labels = tiny_dataset.labels.copy()
        labels[first_chunk[0]] = 1e200
        with pytest.raises(NonFiniteLossError, match=f"records {re.escape(str(first_chunk))}"):
            self._run_train(tiny_dataset, labels)
        assert steps == []
        assert multiprocessing.active_children() == []

    def test_helper_and_inline_paths_write_identical_runs(self, tmp_path, monkeypatch):
        """Equivalence gate: 2 epochs on 300 molecules, each path run twice."""
        data = tmp_path / "reg.csv"
        corpus_util.write_regression_csv(data, corpus_util.build_corpus(300))
        runs = {}
        for name, helper in [("h1", True), ("h2", True), ("i1", False), ("i2", False)]:
            monkeypatch.setattr(helper_module, "FORK_HELPER", helper and helper_module.FORK_HELPER)
            with contextlib.redirect_stdout(io.StringIO()):
                assert cli.main(["train", "--data", str(data), "--task", "reg", "--seeds", "1",
                                 "--epochs", "2", "--out", str(tmp_path / name)]) == 0
            out = tmp_path / name
            files = ["report.json", "seed_0_log.jsonl", "seed_0_split.json"]
            config, arrays = load_checkpoint(out / "seed_0.ckpt")
            runs[name] = ([(out / f).read_bytes() for f in files], json.dumps(config),
                          {k: v.tobytes() for k, v in arrays.items()})
        assert runs["h1"][0][1].count(b"\n") == 2  # one log line per epoch
        assert runs["h1"] == runs["h2"] == runs["i1"] == runs["i2"]
