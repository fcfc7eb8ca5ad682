"""A fixed reference loop that tells how fast the host runs at the moment.

On a shared host the same work can take 20-35% longer from one half-minute
to the next, because other tenants share the cores' caches and clocks. The
CPU time of the process moves with the wall time, so neither cancels that
drift. The runner therefore times this loop in its own process before the
first worker repeat and after every repeat, and scales the run's mean wall
time, and its median set-up time, by ``REF_LOOP_S`` over the loop's mean
time. A run made while the host was slow is scaled down by as much as the
loop slowed, so the scaled times of one run agree with those of another run
minutes later.

The loop mixes the kinds of work the workloads do: small numpy operations
called one by one from Python (the autodiff tape), pure-Python dict and
integer work (SMILES parsing and fingerprints), and a softmax over a square
matrix (attention). It belongs to the benchmark and never calls molfusion,
so no change to the program can change its time. Its work is fixed: any
edit to it, or to ``REF_LOOP_S``, rescales every scaled metric.
"""

from __future__ import annotations

import time

import numpy as np

# About the loop's median time over 20 minutes on the 2-vCPU Intel Xeon VM
# the benchmark was tuned on; scaled times read as seconds on that host.
REF_LOOP_S = 0.60

# Shorter loops scale the runs less steadily, because their own jitter adds
# to the spread they remove: on the tuning VM, ten runs spread by 0.16 with
# 0.05-s loops and by 0.07 with 0.4-s loops, against 0.11 unscaled.
_ITERATIONS = 22500


def reference_loop() -> float:
    rng = np.random.default_rng(0)
    rows = rng.standard_normal((12, 32))
    weight = rng.standard_normal((32, 32)) / 6.0
    square = rng.standard_normal((48, 48)) / 7.0
    total = 0.0
    for i in range(_ITERATIONS):
        hidden = np.tanh(rows @ weight + 0.1)
        total += float(hidden.sum())
        counts: dict[int, int] = {}
        for j in range(40):
            counts[j % 5] = counts.get(j % 5, 0) + (j * i) % 7
        total += sum(counts.values())
        if i % 8 == 0:
            scores = square @ square.T
            scores = np.exp(scores - scores.max(axis=1, keepdims=True))
            total += float((scores / scores.sum(axis=1, keepdims=True)).sum())
    return total


def time_reference_loop() -> float:
    """Seconds the reference loop takes now."""
    start = time.perf_counter()
    reference_loop()
    return time.perf_counter() - start
