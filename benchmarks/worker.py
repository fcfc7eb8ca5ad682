"""Run one molfusion CLI command in this fresh process and report what it cost.

Usage: python3 worker.py SPEC_JSON RESULT_JSON

SPEC_JSON holds {"argv": [...], "trace": bool, "records": int}. The command
runs through ``molfusion.cli.main`` in-process; its wall time covers that
call alone (interpreter start and imports excluded). RESULT_JSON receives
the exit code, the wall time, the process's peak RSS and, when traced, the
per-layer metrics.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import time


def main() -> int:
    with open(sys.argv[1]) as fh:
        spec = json.load(fh)
    from molfusion import cli

    tracer = None
    if spec["trace"]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    start = time.perf_counter()
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(spec["argv"])
    wall = time.perf_counter() - start
    result = {
        "exit_code": code,
        "wall_s": wall,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        from tracer import layer_metrics

        result["layers"] = layer_metrics(tracer.spans, spec["records"])
    with open(sys.argv[2], "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
