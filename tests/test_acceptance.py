"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines as they complete. Quantitative criteria run on the deterministic
synthetic-solubility corpus (see corpus_util) at desk scale.
"""

import itertools
import json
import math
import time

import numpy as np
import pytest

import molfusion.autodiff as ad
from molfusion.autodiff import Tensor, grad_check, make_rng
from molfusion.chem import parse_smiles
from molfusion.chem.graph import hop_distances
from molfusion.cli import main
from molfusion.data import Dataset, DatasetSplit, load_csv, random_split, scaffold_split
from molfusion.featurize import (
    FeaturizeConfig,
    environment_codes,
    featurize,
    featurize_atoms,
    featurize_bonds,
    morgan_fingerprint,
)
from molfusion.model import MlfgnnModel, ModelConfig
from molfusion.model.batch import MoleculeBatch
from molfusion.model.layers import AttentiveGru
from molfusion.train import TrainConfig, prepare_inputs, train, roc_auc

import corpus_util
from test_featurize import _oracle_environment_key
from test_model import _naive_attentive_gru
from test_train import brute_force_auc

SMALL_FEATURIZE = FeaturizeConfig(morgan_bits=64, erg_max_path=5)


def _verdict(number, description, passed):
    print(f"\nACCEPTANCE {number}: {'PASS' if passed else 'FAIL'} - {description}")
    assert passed, f"criterion {number} failed: {description}"


def _memory_dataset(smiles_list):
    labels = np.array([[corpus_util.synthetic_property(s)] for s in smiles_list])
    mask = np.ones(labels.shape, dtype=bool)
    return Dataset(tuple(smiles_list), labels, mask, ("y",), "na")


def test_criterion_1_full_model_gradient_check():
    """Finite differences confirm every parameter group at rtol 1e-3."""
    start = time.time()
    config = ModelConfig(
        transformer_layers=2, heads=2, hidden_dim=8, gat_out_dim=6,
        gat_layers=2, fingerprint_embed_dim=8,
        fingerprint_dim=SMALL_FEATURIZE.fingerprint_length,
    )
    model = MlfgnnModel(config, seed=17)
    graph = parse_smiles("CC(=O)CN")  # 5 heavy atoms
    assert graph.n_atoms == 5
    mol = featurize(graph, SMALL_FEATURIZE)

    def f():
        out = model.forward(MoleculeBatch([mol]))
        return ad.sum_(ad.mul(out, out))

    report = grad_check(
        f, model.params.tensors, rtol=1e-3, atol=1e-6, max_coords_per_tensor=4, rng=make_rng(3)
    )
    elapsed = time.time() - start
    covered = set(report.per_tensor) == set(model.params.tensors)
    _verdict(
        1,
        f"full-model gradient check ({report.n_checked} coords over "
        f"{len(report.per_tensor)} groups, max rel err {report.max_rel_error:.2e}, "
        f"{elapsed:.1f}s < 300s)",
        report.passed and covered and elapsed < 300,
    )


def test_criterion_2_boundary_identities():
    """Attention/gate/squashing boundary settings reproduce the pure forms."""
    config = ModelConfig(
        transformer_layers=1, heads=2, hidden_dim=8, gat_out_dim=6,
        fingerprint_embed_dim=8, fingerprint_dim=SMALL_FEATURIZE.fingerprint_length,
    )
    model = MlfgnnModel(config, seed=2)
    mol = featurize(parse_smiles("CC(=O)Nc1ccccc1"), SMALL_FEATURIZE)
    rng = make_rng(0)

    # adjacency-only attention: head output == A @ V exactly
    layer = model.transformer_stack[0]
    layer.lambda_attn.data[:] = 0.0
    layer.lambda_adj.data[:] = 1.0
    h = Tensor(rng.standard_normal((mol.n_atoms, config.hidden_dim)))
    batch = MoleculeBatch([mol])
    v = h.data @ layer.w_v.data
    out, _ = layer.attend(h, batch)
    adj_ok = all(
        np.array_equal(
            out.data[:, i * 4 : (i + 1) * 4],
            batch.adjacency @ v[:, i * 4 : (i + 1) * 4],
        )
        for i in range(2)
    )

    # plain attention when the adjacency weight is zero
    layer.lambda_attn.data[:] = 1.0
    layer.lambda_adj.data[:] = 0.0
    q, k = h.data @ layer.w_q.data, h.data @ layer.w_k.data
    plain_ok = True
    out, _ = layer.attend(h, batch)
    for i in range(2):
        cols = slice(i * 4, (i + 1) * 4)
        logits = q[:, cols] @ k[:, cols].T / 2.0
        e = np.exp(logits - logits.max(axis=1, keepdims=True))
        soft = e / e.sum(axis=1, keepdims=True)
        plain_ok &= np.allclose(out.data[:, cols], soft @ v[:, cols], atol=1e-14)

    # a saturated mixture gate (pre-activation +inf or -inf) reproduces pure streams bitwise
    gat_out = [Tensor(rng.standard_normal((4, config.gat_out_dim)))]
    trans_out = Tensor(rng.standard_normal((4, config.hidden_dim)))
    mix = model.mixture
    saved = mix.gate.data.copy()
    mix.gate.data[...] = np.inf
    local_ok = np.array_equal(mix(gat_out, trans_out)[0].data, mix.local_stream(gat_out).data)
    mix.gate.data[...] = -np.inf
    global_ok = np.array_equal(mix(gat_out, trans_out)[0].data, ad.gelu(trans_out).data)
    mix.gate.data[...] = saved

    # identity-parameter squashing equals tanh exactly
    dyt = model.transformer_stack[0].norm1
    dyt.alpha.data[:] = 1.0
    dyt.gamma.data[:] = 1.0
    dyt.beta.data[:] = 0.0
    x = Tensor(rng.standard_normal((3, config.hidden_dim)))
    dyt_ok = np.array_equal(dyt(x).data, np.tanh(x.data))

    _verdict(
        2,
        "boundary identities (adjacency-only heads, plain attention, gate in {0,1}, tanh)",
        adj_ok and plain_ok and local_ok and global_ok and dyt_ok,
    )


def test_criterion_3_permutation_invariance_100_molecules():
    config = ModelConfig(
        transformer_layers=2, heads=2, hidden_dim=8, gat_out_dim=6,
        fingerprint_embed_dim=8, fingerprint_dim=SMALL_FEATURIZE.fingerprint_length,
    )
    model = MlfgnnModel(config, seed=5)
    rng = make_rng(123)
    worst = 0.0
    for smiles in corpus_util.build_corpus(100):
        graph = parse_smiles(smiles)
        mol = featurize(graph, SMALL_FEATURIZE)
        perm = rng.permutation(graph.n_atoms).tolist()
        permuted = featurize(corpus_util.relabel(graph, perm), SMALL_FEATURIZE)
        delta = float(np.abs(model.forward(MoleculeBatch([mol])).data
                             - model.forward(MoleculeBatch([permuted])).data).max())
        worst = max(worst, delta)
    _verdict(3, f"permutation invariance over 100 molecules (max delta {worst:.2e})", worst < 1e-9)


def test_criterion_4_feature_widths_500_molecules():
    corpus = corpus_util.build_corpus(500)
    ok = True
    for smiles in corpus:
        graph = parse_smiles(smiles)
        atoms = featurize_atoms(graph)
        ok &= atoms.shape == (graph.n_atoms, 57)
        for vec in featurize_bonds(graph)[2]:
            ok &= vec.shape == (13,)
    _verdict(4, f"57-wide atom rows / 13-wide bond vectors across {len(corpus)} molecules", ok)


def test_criterion_5a_roc_auc_matches_bruteforce():
    rng = make_rng(77)
    ok = True
    for _ in range(1000):
        n = int(rng.integers(2, 201))
        labels = rng.integers(0, 2, size=n)
        if labels.min() == labels.max():
            labels[0] = 1 - labels[0]
        scores = np.round(rng.random(n), 1)  # heavy ties
        ok &= roc_auc(scores, labels) == brute_force_auc(scores, labels)
    _verdict(
        "5a", "rank-based ROC-AUC equals all-pairs brute force on 1000 instances (n up to 200)", ok
    )


def test_criterion_5b_morgan_matches_environment_enumerator():
    small = [s for s in corpus_util.build_corpus(500) if parse_smiles(s).n_atoms <= 8]
    radius = 2
    ok = len(small) >= 50
    for smiles in small:
        g = parse_smiles(smiles)
        distances = hop_distances(g)
        emitted = environment_codes(g, distances, radius)
        impl_groups, oracle_groups = {}, {}
        for atom, r, code in emitted:
            impl_groups.setdefault(code, set()).add((atom, r))
            oracle_groups.setdefault((r, _oracle_environment_key(g, atom, r)), set()).add(
                (atom, r)
            )
        ok &= sorted(impl_groups.values(), key=sorted) == sorted(
            oracle_groups.values(), key=sorted
        )
        bits = morgan_fingerprint(g, distances, radius, 2048)
        ok &= set(np.nonzero(bits)[0]) == {c % 2048 for _, _, c in emitted}
    _verdict(
        "5b",
        f"circular fingerprint environments match brute-force enumeration on "
        f"{len(small)} molecules of <= 8 atoms",
        ok,
    )


def test_criterion_5c_gat_layer_matches_naive_loop():
    from molfusion.autodiff.params import ParameterStore

    store = ParameterStore()
    dim = 6
    layer = AttentiveGru(store, make_rng(9), "gat", dim)
    rng = make_rng(10)
    src = np.array([0, 0, 0, 1, 2, 3])
    states = rng.standard_normal((4, dim))
    reps = rng.standard_normal((6, dim))
    out = layer(Tensor(states), Tensor(reps), src)[0].data
    naive = _naive_attentive_gru(layer, states, reps, src)
    delta = float(np.abs(out - naive).max())
    _verdict("5c", f"vectorized neighbor attention equals per-edge loop (max delta {delta:.2e})", delta < 1e-10)


OVERFIT_CONFIG = ModelConfig(
    transformer_layers=1, heads=2, hidden_dim=16, gat_out_dim=16,
    gat_layers=1, fingerprint_embed_dim=16,
    fingerprint_dim=FeaturizeConfig(morgan_bits=256, erg_max_path=8).fingerprint_length,
    dropout_gat=0.0, dropout_ffn=0.0, dropout_attn=0.0,
)


def test_criterion_6_overfit_sanity_10_seeds():
    start = time.time()
    fcfg = FeaturizeConfig(morgan_bits=256, erg_max_path=8)
    dataset = _memory_dataset(corpus_util.build_corpus(32))
    mols = prepare_inputs(dataset, fcfg)
    labels, mask = dataset.labels, dataset.mask
    split = DatasetSplit(
        train=list(range(32)), valid=[], test=[], method="random", seed=0,
    )
    hits = 0
    early_decreases = 0
    for seed in range(10):
        model = MlfgnnModel(OVERFIT_CONFIG, seed=seed)
        config = TrainConfig(
            epochs=300, lr=5e-3, batch_size=32, patience=400,
            target_train_rmse=0.1,
        )
        result = train(model, mols, labels, mask, split, config, seed=seed)
        losses = [h["train_loss"] for h in result.history]
        best = min(math.sqrt(l) for l in losses)
        hits += best < 0.1
        early_decreases += losses[min(9, len(losses) - 1)] < losses[0]
    elapsed = time.time() - start
    _verdict(
        6,
        f"32-molecule overfit: {hits}/10 seeds reached train RMSE < 0.1 within "
        f"300 epochs, {early_decreases}/10 decreased over the first 10 epochs "
        f"({elapsed:.0f}s < 600s)",
        hits >= 9 and early_decreases >= 9 and elapsed < 600,
    )


def test_criterion_7_desk_scale_learning_signal():
    dataset = _memory_dataset(corpus_util.build_corpus(300))
    fcfg = FeaturizeConfig()
    mols = prepare_inputs(dataset, fcfg)
    labels, mask = dataset.labels, dataset.mask
    split = random_split(dataset, seed=0)
    train_mean = labels[split.train].mean()
    test_labels = labels[split.test][:, 0]
    baseline = float(np.sqrt(np.mean((test_labels - train_mean) ** 2)))

    model = MlfgnnModel(ModelConfig(), seed=0)  # default configuration
    config = TrainConfig(epochs=120, lr=1e-3, batch_size=32, patience=12)
    result = train(model, mols, labels, mask, split, config, seed=0)
    improvement = 1.0 - result.test_metric / baseline

    # ablations run end to end on the same data and produce valid reports
    ablation_ok = True
    for ablation in ("gat_only", "transformer_only"):
        ab_config = ModelConfig(ablation=ablation)
        ab_model = MlfgnnModel(ab_config, seed=0)
        ab_result = train(
            ab_model, mols, labels, mask, split,
            TrainConfig(epochs=6, lr=1e-3, patience=10), seed=0,
        )
        ablation_ok &= (
            ab_result.test_metric is not None and math.isfinite(ab_result.test_metric)
        )
    _verdict(
        7,
        f"300-molecule run: test RMSE {result.test_metric:.3f} vs baseline {baseline:.3f} "
        f"({improvement:.0%} better, need >= 20%); ablations produced valid reports",
        improvement >= 0.20 and ablation_ok,
    )


def test_criterion_8_split_protocol(tmp_path):
    from molfusion.chem import scaffold_hash

    corpus = corpus_util.scaffold_family_corpus()
    path = corpus_util.write_classification_csv(tmp_path / "fam.csv", corpus)
    dataset = load_csv(path, "smiles", ["active"], "classification")
    keys = [scaffold_hash(parse_smiles(smiles)) for smiles in dataset.smiles]
    disjoint = True
    for seed in range(50):
        split = scaffold_split(dataset, seed=seed)
        owner = {}
        for part, indices in (("train", split.train), ("valid", split.valid), ("test", split.test)):
            for i in indices:
                if owner.setdefault(keys[i], part) != part:
                    disjoint = False
    ten = _memory_dataset(corpus_util.build_corpus(10))
    sizes = tuple(
        len(part) for part in (lambda s: (s.train, s.valid, s.test))(random_split(ten, 0))
    )
    _verdict(
        8,
        f"scaffold-disjoint in 50/50 seeded generations; random split n=10 -> {sizes}",
        disjoint and sizes == (8, 1, 1),
    )


def test_criterion_9_reproducible_cli_runs(tmp_path):
    data = corpus_util.write_regression_csv(tmp_path / "d.csv", corpus_util.build_corpus(40))
    config_path = tmp_path / "config.json"
    config_path.write_text(
        json.dumps(
            {
                "model": {
                    "transformer_layers": 1, "heads": 2, "hidden_dim": 8,
                    "gat_out_dim": 8, "gat_layers": 1, "fingerprint_embed_dim": 8,
                },
                "train": {"epochs": 2, "batch_size": 16, "patience": 5},
                "featurize": {"morgan_bits": 128, "erg_max_path": 5},
            }
        )
    )
    outputs = []
    for name in ("run_a", "run_b"):
        out = tmp_path / name
        code = main(
            ["train", "--data", str(data), "--task", "reg", "--split", "random",
             "--config", str(config_path), "--seeds", "1", "--out", str(out)]
        )
        assert code == 0
        outputs.append(out)
    ckpt_same = (outputs[0] / "seed_0.ckpt").read_bytes() == (outputs[1] / "seed_0.ckpt").read_bytes()
    report_same = (outputs[0] / "report.json").read_bytes() == (outputs[1] / "report.json").read_bytes()
    _verdict(9, "identical seed/flags give byte-identical checkpoints and reports", ckpt_same and report_same)


def test_criterion_10_interpretability_export(tmp_path):
    data = corpus_util.write_regression_csv(tmp_path / "d.csv", corpus_util.build_corpus(40))
    config_path = tmp_path / "config.json"
    config_path.write_text(
        json.dumps(
            {
                "model": {
                    "transformer_layers": 2, "heads": 2, "hidden_dim": 8,
                    "gat_out_dim": 8, "gat_layers": 2, "fingerprint_embed_dim": 8,
                },
                "train": {"epochs": 2, "batch_size": 16, "patience": 5},
                "featurize": {"morgan_bits": 128, "erg_max_path": 5},
            }
        )
    )
    out = tmp_path / "run"
    main(
        ["train", "--data", str(data), "--task", "reg", "--config", str(config_path),
         "--seeds", "1", "--out", str(out)]
    )
    log_lines = [
        json.loads(line) for line in (out / "seed_0_log.jsonl").read_text().splitlines()
    ]
    log_ok = all(
        line.get("gate_alpha") is not None and line["lambda_attn"] and line["lambda_adj"]
        for line in log_lines
    )

    explain_path = tmp_path / "explain.json"
    main(
        ["explain", "--checkpoint", str(out / "seed_0.ckpt"),
         "--smiles", "CC(=O)Nc1ccccc1O", "--out", str(explain_path)]
    )
    bundle = json.loads(explain_path.read_text())
    rows_ok = abs(sum(bundle["readout_attention"]) - 1.0) < 1e-9
    for layer in bundle["transformer_attention"]:
        for head in layer:
            rows_ok &= all(abs(sum(row) - 1.0) < 1e-9 for row in head)
    for head in bundle["cross_attention"]:
        rows_ok &= abs(sum(head) - 1.0) < 1e-9
    for matrix in bundle["gat_attention"]:
        for row in matrix:
            total = sum(row)
            rows_ok &= abs(total - 1.0) < 1e-9 or total == 0.0
    gate_ok = 0.0 <= bundle["gate_alpha"] <= 1.0
    _verdict(
        10,
        "attention rows sum to 1 in explain output; gate/lambda present in every log line",
        bool(log_ok and rows_ok and gate_ok),
    )
