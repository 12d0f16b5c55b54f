"""One benchmark job in a fresh process: set up one workload, run it once,
print one JSON line with its timings, memory and outputs.

    python3 bench/job.py --workload NAME --seed N --trace 0|1 --scratch DIR

Set-up runs from process start to ``setup_end`` (a ``time.monotonic()``
reading; the parent subtracts its own reading taken just before it started
this process). It covers ``import nocsim``, config and topology build and
``engine.Simulation(...)``. ``wall_s`` is the host time of the work after
set-up. With ``--trace 1`` the layer wrappers are installed right after
import, and the job also reports the per-layer figures.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
import traceback

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
SRC_DIR = os.path.join(os.path.dirname(BENCH_DIR), "src")


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--scratch", required=True)
    args = parser.parse_args(argv)

    sys.path.insert(0, SRC_DIR)
    import workloads
    from tracing import Tracer

    tracer = Tracer()
    result = {"outputs": {}, "error": None}
    if args.trace:
        tracer.install()
    try:
        job = workloads.prepare(args.workload, args.seed, args.scratch)
        result["setup_end"] = time.monotonic()
        start = time.perf_counter()
        result["outputs"] = job.run()
        result["wall_s"] = time.perf_counter() - start
        result["node_cycles"] = job.node_cycles
    except Exception:  # the parent counts the job's ops as failed
        result["error"] = traceback.format_exc()
    finally:
        tracer.restore()
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if args.trace:
        result["layers"] = tracer.layer_metrics()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
