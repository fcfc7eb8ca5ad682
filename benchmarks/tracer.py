"""Span tracing of molfusion's layers, installed from outside the package.

``Tracer.install`` wraps each layer's public entry points (by replacing every
reference to them in the loaded ``molfusion`` modules) and, on each model
built afterwards, the block objects the forward pass calls. Every call
records a span ``[name, start, end, parent, size, ops]``; spans stay in
memory until ``layer_metrics`` reduces them. ``ops`` counts tape nodes
(calls to ``autodiff.tensor._make``) made inside the span.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

# The model blocks timed per forward, as named in span ``model.<block>``. A
# block absent from a model (an ablation) records no span and so no metric.
BLOCKS = (
    "node_init", "fingerprint_mlp", "transformer.layer0", "transformer.layer1",
    "gat.edge_init", "gat.layer0", "gat.layer1", "mixture", "readout",
    "cross_attention", "output_mlp",
)


class _Timed:
    """Stands in for a model block: times its calls, forwards attributes."""

    def __init__(self, tracer: "Tracer", name: str, block):
        self._call = tracer.wrap(name, block)
        self._block = block

    def __call__(self, *args, **kwargs):
        return self._call(*args, **kwargs)

    def __getattr__(self, attr):
        return getattr(self._block, attr)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.ops = 0

    def wrap(self, name, fn, size=None):
        """``fn`` recording a span per call; ``name`` may be a function of the call."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            label = name(args, kwargs) if callable(name) else name
            record = [label, clock(), 0.0, stack[-1] if stack else -1, 1, self.ops]
            stack.append(len(spans))
            spans.append(record)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                record[5] = self.ops - record[5]
                stack.pop()
            if size is not None:
                record[4] = size(args, result)
            return result

        return traced

    def install(self) -> None:
        from molfusion import cli, data, featurize
        from molfusion.autodiff import checkpoint, optim, tensor
        from molfusion.chem import smiles
        from molfusion.model import network
        from molfusion.train import loop, losses

        targets = [
            (smiles.parse_smiles, "chem.parse", None),
            (featurize.featurize, "featurize.total", None),
            (featurize.featurize_atoms, "featurize.graph", None),
            (featurize.featurize_bonds, "featurize.graph", None),
            (featurize.normalized_adjacency, "featurize.graph", None),
            (featurize.morgan_fingerprint, "featurize.morgan", None),
            (featurize.substructure_key_fingerprint, "featurize.keys", None),
            (featurize.erg_fingerprint, "featurize.erg", None),
            (tensor.backward, "autodiff.backward", None),
            (checkpoint.save_checkpoint, "autodiff.checkpoint_save", None),
            (checkpoint.load_checkpoint, "autodiff.checkpoint_load", None),
            (loop.train, "train.loop", lambda args, result: len(result.history)),
            (loop.evaluate_metric, "train.eval", lambda args, result: len(args[4])),
            (losses.masked_loss, "train.loss", None),
            (data.load_csv, "data.load_csv", None),
            (data.random_split, "data.split", None),
            (data.scaffold_split, "data.split", None),
            (cli.main, "cli", None),
        ]
        for fn, name, size in targets:
            _replace_everywhere(fn, self.wrap(name, fn, size))

        make = tensor._make

        def counted_make(*args):
            self.ops += 1
            return make(*args)

        tensor._make = counted_make
        optim.Adam.step = self.wrap("autodiff.adam_step", optim.Adam.step)
        network.MlfgnnModel.forward = self.wrap(_forward_name, network.MlfgnnModel.forward)
        build = network.MlfgnnModel.__init__

        def build_traced(model, *args, **kwargs):
            build(model, *args, **kwargs)
            self._time_blocks(model)

        network.MlfgnnModel.__init__ = build_traced

    def _time_blocks(self, model) -> None:
        def timed(name, block):
            return None if block is None else _Timed(self, f"model.{name}", block)

        model.node_init = timed("node_init", model.node_init)
        model.edge_init = timed("gat.edge_init", model.edge_init)
        model.gat_stack = [timed(f"gat.layer{i}", b) for i, b in enumerate(model.gat_stack)]
        model.transformer_stack = [
            timed(f"transformer.layer{i}", b) for i, b in enumerate(model.transformer_stack)
        ]
        for name in ("fingerprint_mlp", "mixture", "readout", "cross_attention"):
            setattr(model, name, timed(name, getattr(model, name)))
        model.out1 = timed("output_mlp", model.out1)
        model.out2 = timed("output_mlp", model.out2)


def _forward_name(args, kwargs) -> str:
    train = kwargs.get("train", args[2] if len(args) > 2 else False)
    return "model.forward.train" if train else "model.forward.eval"


def _replace_everywhere(fn, replacement) -> None:
    """Point every module-level name bound to ``fn`` in molfusion at ``replacement``."""
    for mod_name, module in list(sys.modules.items()):
        if module is None or not (mod_name == "molfusion" or mod_name.startswith("molfusion.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is fn:
                setattr(module, attr, replacement)


def summarize(spans: list[list]) -> dict[str, dict]:
    """Per span name: calls, total and self seconds, summed size and tape ops."""
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _size, _ops in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out: dict[str, dict] = defaultdict(lambda: {"calls": 0, "total": 0.0, "self": 0.0,
                                                "size": 0, "ops": 0})
    for i, (name, start, end, _parent, size, ops) in enumerate(spans):
        s = out[name]
        s["calls"] += 1
        s["total"] += end - start
        s["self"] += end - start - child_time[i]
        s["size"] += size
        s["ops"] += ops
    return dict(out)


def layer_metrics(spans: list[list], records: int) -> dict[str, float]:
    """The per-layer metrics of one traced command over ``records`` input rows.

    Metrics of a layer the command never entered (backward on a screen, say)
    are left out rather than reported as zero.
    """
    s = summarize(spans)
    zero = {"calls": 0, "total": 0.0, "self": 0.0, "size": 0, "ops": 0}

    def get(name: str) -> dict:
        return s.get(name, zero)

    ms = 1e3
    m: dict[str, float] = {}
    parse = get("chem.parse")
    m["chem.parse_calls_per_record"] = parse["calls"] / records
    if parse["calls"]:
        m["chem.parse_ms_per_mol"] = parse["total"] / parse["calls"] * ms
    n_feat = get("featurize.total")["calls"]
    if n_feat:
        for part in ("total", "morgan", "keys", "erg", "graph"):
            m[f"featurize.{part}_ms_per_mol"] = get(f"featurize.{part}")["total"] / n_feat * ms
    train_fw, eval_fw = get("model.forward.train"), get("model.forward.eval")
    n_fw = train_fw["calls"] + eval_fw["calls"]
    if n_fw:
        m["model.forward_ms_per_mol"] = (train_fw["total"] + eval_fw["total"]) / n_fw * ms
        for block in BLOCKS:
            if f"model.{block}" in s:
                m[f"model.{block}.forward_ms_per_mol"] = s[f"model.{block}"]["total"] / n_fw * ms
    if train_fw["calls"]:
        m["autodiff.tape_ops_per_train_forward"] = train_fw["ops"] / train_fw["calls"]
    if eval_fw["calls"]:
        m["autodiff.tape_ops_per_eval_forward"] = eval_fw["ops"] / eval_fw["calls"]
    for span, metric, scale in (
        ("autodiff.backward", "autodiff.backward_ms_per_mol", ms),
        ("autodiff.adam_step", "autodiff.adam_step_ms", ms),
        ("autodiff.checkpoint_save", "autodiff.checkpoint_save_ms", ms),
        ("autodiff.checkpoint_load", "autodiff.checkpoint_load_ms", ms),
        ("train.loss", "train.loss_ms_per_mol", ms),
        ("data.load_csv", "data.load_csv_ms", ms),
        ("data.split", "data.split_ms", ms),
    ):
        if get(span)["calls"]:
            m[metric] = get(span)["total"] / get(span)["calls"] * scale
    if get("autodiff.adam_step")["calls"]:
        m["autodiff.adam_steps"] = get("autodiff.adam_step")["calls"]
    loop_span, eval_span = get("train.loop"), get("train.eval")
    if loop_span["size"]:
        m["train.epoch_s"] = loop_span["total"] / loop_span["size"]
    if eval_span["size"]:
        m["train.valid_eval_ms_per_mol"] = eval_span["total"] / eval_span["size"] * ms
    m["cli.self_s"] = get("cli")["self"]
    return m
