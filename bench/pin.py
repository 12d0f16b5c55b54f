"""Re-pin the expected outputs of every workload and input set.

    python3 bench/pin.py

Runs each workload once per input set, in this process and untraced, and
writes ``bench/pinned.json``. Re-pin only for a change that alters the
modelled behaviour, and say why in CHANGES.md; a speed-only change must
leave every pinned output as it is. Refuses to pin a workload op that
raises.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(BENCH_DIR), "src"))

import workloads  # noqa: E402
from spec import PINNED_SEEDS, WORKLOADS  # noqa: E402


def main():
    scratch = os.path.join(BENCH_DIR, "results", f"pin-{os.getpid()}")
    outputs = {}
    try:
        for name, _why in WORKLOADS:
            outputs[name] = {}
            for seed in range(PINNED_SEEDS):
                ops = workloads.prepare(name, seed, scratch).run()
                raised = [op for op, text in ops.items() if text.startswith("raised ")]
                if raised:
                    sys.exit(f"{name} input set {seed}: {raised} raised: not pinned")
                outputs[name][str(seed)] = ops
                print(f"{name} input set {seed}: {len(ops)} ops", flush=True)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    with open(os.path.join(BENCH_DIR, "pinned.json"), "w", encoding="utf-8") as fh:
        json.dump({"pinned_seeds": PINNED_SEEDS, "outputs": outputs}, fh,
                  indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
