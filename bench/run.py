"""nocsim benchmark runner.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs jobs of one workload closed-loop, one at a time, each in a fresh
child process (``bench/job.py``), until ``--seconds`` have passed. Every
job's outputs are compared byte for byte with ``bench/pinned.json``; an op
that raised or whose output differs counts as failed. With ``--trace 0``
the last line of output is a JSON object with the end-to-end metrics, the
median over the run's jobs; with ``--trace 1`` jobs alternate untraced and
traced, and the object holds the per-layer metrics of the traced jobs.
Medians, quartiles, sample counts, every job and the host environment are
also written to ``bench/results/<workload>_seed<N>_trace<T>.json``.

Exits 2 without a result when the checkout has no ``src/nocsim`` or no
pinned outputs, and 1 when no job completed.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

from spec import END_TO_END, LAYER_METRICS, PINNED_SEEDS, WORKLOADS, input_seed

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC_PACKAGE = os.path.join(ROOT, "src", "nocsim")
PINNED_PATH = os.path.join(BENCH_DIR, "pinned.json")
RESULTS_DIR = os.path.join(BENCH_DIR, "results")
JOB_TIMEOUT_S = 120


def run_job(workload, seed, traced, scratch):
    """One child process; returns its JSON record plus ``setup_s``."""
    cmd = [
        sys.executable, os.path.join(BENCH_DIR, "job.py"),
        "--workload", workload, "--seed", str(seed),
        "--trace", str(int(traced)), "--scratch", scratch,
    ]
    started = time.monotonic()
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, capture_output=True, text=True, timeout=JOB_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return {"traced": traced, "outputs": {}, "error": "job timed out"}
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        return {
            "traced": traced, "outputs": {},
            "error": f"job exited {proc.returncode}: {proc.stderr[-4000:]}",
        }
    record = json.loads(lines[-1])
    record["traced"] = traced
    if "setup_end" in record:
        record["setup_s"] = record.pop("setup_end") - started
    return record


def mismatched_ops(outputs, expected):
    """Ops whose output differs from the pinned one, missing ones included."""
    return sorted(op for op in set(expected) | set(outputs)
                  if outputs.get(op) != expected.get(op))


def summary(values):
    """Median, quartiles and sample count of one metric's samples."""
    if len(values) > 1:
        q1, median, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = median = q3 = values[0]
    return {"median": median, "q1": q1, "q3": q3, "n": len(values)}


def environment():
    """Host and program versions, written into every results file."""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), None)
    except OSError:
        cpu = None
    commit = None
    if os.path.exists(os.path.join(ROOT, ".git")):
        try:
            proc = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT,
                capture_output=True, text=True, timeout=30,
            )
            commit = proc.stdout.strip() if proc.returncode == 0 else None
        except (OSError, subprocess.TimeoutExpired):
            commit = None
    src = hashlib.sha256()
    for name in sorted(os.listdir(SRC_PACKAGE)):
        if name.endswith(".py"):
            with open(os.path.join(SRC_PACKAGE, name), "rb") as fh:
                src.update(name.encode() + b"\0" + fh.read())
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu or platform.processor() or "unknown",
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "networkx": importlib.metadata.version("networkx"),
        "git_commit": commit,
        "src_sha256": src.hexdigest(),
        "platform": platform.platform(),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[w for w, _ in WORKLOADS])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC_PACKAGE, "__init__.py")):
        print(f"error: no nocsim sources at {SRC_PACKAGE}", file=sys.stderr)
        return 2
    try:
        with open(PINNED_PATH, encoding="utf-8") as fh:
            pinned = json.load(fh)
        expected = pinned["outputs"][args.workload][str(input_seed(args.seed))]
    except (OSError, ValueError, KeyError) as exc:
        print(f"error: no pinned outputs ({exc!r}); run bench/pin.py", file=sys.stderr)
        return 2
    if pinned["pinned_seeds"] != PINNED_SEEDS:
        print("error: pinned.json is stale; run bench/pin.py", file=sys.stderr)
        return 2

    # byte-compile up front so that no job's set-up pays for it
    compileall.compile_dir(SRC_PACKAGE, quiet=2)
    compileall.compile_dir(BENCH_DIR, quiet=2, maxlevels=0)

    scratch = os.path.join(RESULTS_DIR, f"work-{os.getpid()}")
    os.makedirs(scratch, exist_ok=True)
    kinds = (False, True) if args.trace else (False,)
    jobs = []
    deadline = time.monotonic() + args.seconds
    try:
        while not jobs or time.monotonic() < deadline or len(jobs) % len(kinds):
            traced = kinds[len(jobs) % len(kinds)]
            jobs.append(run_job(args.workload, args.seed, traced, scratch))
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    attempted = failed = 0
    for job in jobs:
        job["mismatched"] = mismatched_ops(job["outputs"], expected)
        attempted += len(set(expected) | set(job["outputs"]))
        failed += len(job["mismatched"])
    completed = [j for j in jobs if j["error"] is None]
    untraced = [j for j in completed if not j["traced"]]
    traced = [j for j in completed if j["traced"]]
    if not untraced or (args.trace and not traced):
        for job in jobs:
            print(f"job failed: {job['error']}", file=sys.stderr)
        print("error: no job completed", file=sys.stderr)
        return 1

    samples = {name: [j[name] for j in untraced] for name, *_ in END_TO_END}
    if untraced[0]["node_cycles"]:
        samples["node_cycles_per_s"] = [j["node_cycles"] / j["wall_s"] for j in untraced]
    stats = {name: summary(values) for name, values in samples.items()}
    stats["failed_ops_ratio"] = {"value": failed / attempted, "attempted": attempted}
    if args.trace:
        layers = {
            layer.name: summary([j["layers"][layer.name] for j in traced])
            for layer in LAYER_METRICS if layer.name != "trace.overhead_ratio"
        }
        layers["trace.overhead_ratio"] = summary([
            j["wall_s"] / stats["wall_s"]["median"] for j in traced
        ])
        stats["layers"] = layers
        reported = [(layer.name, layer.unit, layers[layer.name]) for layer in LAYER_METRICS]
    else:
        reported = [(name, unit, stats[name]) for name, unit, *_ in END_TO_END]

    os.makedirs(RESULTS_DIR, exist_ok=True)
    results_path = os.path.join(
        RESULTS_DIR, f"{args.workload}_seed{args.seed}_trace{args.trace}.json"
    )
    with open(results_path, "w", encoding="utf-8") as fh:
        json.dump({
            "workload": args.workload, "seed": args.seed,
            "input_set": input_seed(args.seed), "seconds": args.seconds,
            "trace": args.trace, "environment": environment(),
            "attempted": attempted, "failed": failed,
            "stats": stats, "jobs": jobs,
        }, fh, indent=1)

    for job in jobs:
        if job["error"]:
            print(f"job failed: {job['error']}", file=sys.stderr)
        elif job["mismatched"]:
            print(f"outputs differ from pinned: {', '.join(job['mismatched'])}",
                  file=sys.stderr)
    print(f"{args.workload} seed={args.seed} input_set={input_seed(args.seed)} "
          f"trace={args.trace}: {len(jobs)} jobs, {attempted} ops, {failed} failed, "
          f"failed_ops_ratio={failed / attempted:.6g}")
    for name, s in stats.items():
        if "median" in s:
            print(f"  {name:<20} median={s['median']:.6g} q1={s['q1']:.6g} "
                  f"q3={s['q3']:.6g} n={s['n']}")
    print(f"  results: {os.path.relpath(results_path, ROOT)}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": s["median"], "unit": unit} for name, unit, s in reported
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
