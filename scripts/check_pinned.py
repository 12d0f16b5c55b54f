"""Check every benchmark workload's outputs against ``bench/pinned.json``.

    python3 scripts/check_pinned.py [WORKLOAD ...]

Runs each workload (all four by default) once per pinned input set, in this
process and untraced, as ``bench/pin.py`` does, and compares every op's
output text with the pinned one. Writes nothing under ``bench/``: the sweep's
scratch files go to a temporary directory and no bytecode is cached. Prints
one line per differing, missing or extra op and exits 1 if there is any.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile

sys.dont_write_bytecode = True
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "bench")
sys.path[:0] = [os.path.join(ROOT, "src"), BENCH_DIR]

import workloads  # noqa: E402
from spec import PINNED_SEEDS, WORKLOADS  # noqa: E402


def main(argv=None):
    names = argv if argv else [name for name, _why in WORKLOADS]
    with open(os.path.join(BENCH_DIR, "pinned.json"), encoding="utf-8") as fh:
        pinned = json.load(fh)
    if pinned["pinned_seeds"] != PINNED_SEEDS:
        print("pinned.json is stale: its input-set count differs", file=sys.stderr)
        return 1
    bad = 0
    with tempfile.TemporaryDirectory() as scratch:
        for name in names:
            for seed in range(PINNED_SEEDS):
                expected = pinned["outputs"][name][str(seed)]
                got = workloads.prepare(name, seed, scratch).run()
                for op in sorted(expected.keys() | got.keys()):
                    if expected.get(op) != got.get(op):
                        bad += 1
                        print(f"{name} input set {seed}: {op!r} differs "
                              f"(pinned {expected.get(op)!r}, got {got.get(op)!r})")
            print(f"{name}: {PINNED_SEEDS} input sets checked", flush=True)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
