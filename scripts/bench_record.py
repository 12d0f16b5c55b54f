"""Record a parent-versus-change benchmark comparison as ``BENCH_<pr>.json``.

    python3 scripts/bench_record.py --parent DIR --change DIR --pr N
        [--tier1-s PARENT CHANGE] [--claim METRIC:WORKLOAD] [--out FILE]

``DIR`` is a checkout in which ``bench/run.py --trace 0`` has been run,
once per (workload, seed); each run left
``bench/results/<workload>_seed<N>_trace0.json``. Runs of the two
checkouts are paired by (workload, seed). For every workload and every
end-to-end metric of ``BENCHMARK.json`` the record holds both sides'
median and quartiles over the paired runs' medians, the pair count and
the number of pairs in which the change did better, and two verdicts:
whether the change median is worse than the parent median by more than
the metric's ``bound`` (a fraction of the parent median), and whether it
lies inside the parent's q1-q3. It also holds the failed-op counts, the
host (nproc, CPU, Python, numpy), whether each side's
``src/nocsim/__pycache__`` holds bytecode (a warning when the sides
differ: a checkout without it compiles every module in every job), the
tier-1 test wall seconds measured on each checkout (``--tier1-s``; null
when not given), the net line count of ``src/`` and its net count of
code lines, those holding a token other than a comment, a docstring or a
line break. With ``--claim``, it
also checks a claimed gain on one (metric, workload): the median and
quartiles of the per-pair ratios change/parent, the number of pairs the
change won, whether the change median beats the parent's by more than
the metric's ``bound``, and whether it beats it by more than the width
of the parent's q1-q3. Writes
``BENCH_<N>.json`` at the root of this repository unless ``--out`` says
otherwise, and never under ``bench/``.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import statistics
import sys
import tokenize

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
HOST_KEYS = ("nproc", "cpu_model", "python", "numpy")


class UnknownMetric(ValueError):
    """A claimed metric that is no end-to-end metric of ``BENCHMARK.json``."""


def load_runs(checkout):
    """{(workload, seed): results file} of a checkout's untraced runs."""
    runs = {}
    pattern = os.path.join(checkout, "bench", "results", "*_trace0.json")
    for path in sorted(glob.glob(pattern)):
        with open(path, encoding="utf-8") as fh:
            result = json.load(fh)
        runs[(result["workload"], result["seed"])] = result
    return runs


def spread(values):
    """Median and quartiles, as ``bench/run.py`` summarizes its jobs."""
    if len(values) > 1:
        q1, median, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = median = q3 = values[0]
    return {"median": median, "q1": q1, "q3": q3}


def src_files(checkout):
    """Every ``.py`` file under the checkout's ``src/``."""
    return glob.glob(os.path.join(checkout, "src", "**", "*.py"), recursive=True)


def src_lines(checkout):
    """Lines of every ``.py`` file under the checkout's ``src/``."""
    total = 0
    for path in src_files(checkout):
        with open(path, encoding="utf-8") as fh:
            total += sum(1 for _ in fh)
    return total


# tokens that hold no code of their own; a string alone between two of
# these (a NEWLINE after it) is a docstring or a bare string statement
LAYOUT = {tokenize.ENCODING, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
          tokenize.ENDMARKER}


def code_lines(path):
    """Lines of one Python file holding a token other than a comment, a
    docstring or a line break."""
    with open(path, "rb") as fh:
        tokens = [t for t in tokenize.tokenize(fh.readline)
                  if t.type not in (tokenize.COMMENT, tokenize.NL)]
    lines = set()
    for i, tok in enumerate(tokens):
        if tok.type in LAYOUT or (
            tok.type == tokenize.STRING
            and tokens[i - 1].type in LAYOUT
            and tokens[i + 1].type in (tokenize.NEWLINE, tokenize.ENDMARKER)
        ):
            continue
        lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def src_code_lines(checkout):
    """``code_lines`` summed over the checkout's ``src/``: a cut of code
    shows here, a trim of docstrings or comments does not."""
    return sum(code_lines(path) for path in src_files(checkout))


def has_bytecode(checkout):
    """Whether the checkout's ``src/nocsim/__pycache__`` holds a ``.pyc``."""
    return bool(glob.glob(os.path.join(checkout, "src", "nocsim", "__pycache__", "*.pyc")))


def host(runs):
    """The host fields of the runs' environments, one entry per distinct one."""
    seen = []
    for result in runs.values():
        env = {key: result["environment"].get(key) for key in HOST_KEYS}
        if env not in seen:
            seen.append(env)
    return seen


def compare(parent_runs, change_runs, metrics):
    """Per workload and metric: both sides' spreads, pairs, change wins and
    verdicts; ``metrics`` lists (name, better, bound)."""
    workloads = {}
    for key in sorted(parent_runs.keys() & change_runs.keys()):
        workloads.setdefault(key[0], []).append(key)
    table = {}
    for workload, keys in workloads.items():
        row = table[workload] = {
            "seeds": [seed for _, seed in keys],
            "failed": {
                "parent": sum(parent_runs[k]["failed"] for k in keys),
                "change": sum(change_runs[k]["failed"] for k in keys),
            },
            "metrics": {},
        }
        for name, better, bound in metrics:
            parent = [parent_runs[k]["stats"][name]["median"] for k in keys]
            change = [change_runs[k]["stats"][name]["median"] for k in keys]
            wins = sum(
                (c < p) if better == "lower" else (c > p) for p, c in zip(parent, change)
            )
            p, c = spread(parent), spread(change)
            if better == "lower":
                worse = c["median"] > p["median"] * (1 + bound)
            else:
                worse = c["median"] < p["median"] * (1 - bound)
            row["metrics"][name] = {
                "parent": p, "change": c,
                "pairs": len(keys), "change_better": wins,
                "better": better, "bound": bound, "worse_than_bound": worse,
                "inside_parent_iqr": p["q1"] <= c["median"] <= p["q3"],
            }
    return table


def check_claim(table, parent_runs, change_runs, workload, metric):
    """A claimed gain in ``metric`` on ``workload``, read from its row of
    ``compare``'s ``table`` (pairs, pairs won, both spreads, bound) plus the
    median and quartiles of the per-pair ratios change/parent, and whether
    the change median beats the parent's by more than the metric's bound
    (a fraction of the parent median) and by more than the width of the
    parent's q1-q3; None when no pair of that workload was run."""
    row = table.get(workload)
    if row is None:
        return None
    m = row["metrics"][metric]
    p = m["parent"]
    sign = 1 if m["better"] == "lower" else -1  # > 0: the change did better
    gain = sign * (p["median"] - m["change"]["median"])
    ratios = [
        change_runs[key]["stats"][metric]["median"]
        / parent_runs[key]["stats"][metric]["median"]
        for key in ((workload, seed) for seed in row["seeds"])
    ]
    return {
        "metric": metric, "workload": workload, "better": m["better"],
        "bound": m["bound"], "pairs": m["pairs"], "change_better": m["change_better"],
        "ratio": spread(ratios),
        "beats_bound": gain > m["bound"] * p["median"],
        "beats_parent_iqr": gain > p["q3"] - p["q1"],
    }


def record(parent, change, pr, tier1_s=None, claim=None):
    """The ``BENCH_<pr>.json`` object for two checkouts' results;
    ``tier1_s`` is (parent, change) tier-1 wall seconds, or None; ``claim``
    is a claimed (metric, workload), or None; a claimed metric that the
    change checkout's ``BENCHMARK.json`` does not list raises
    ``UnknownMetric``."""
    with open(os.path.join(change, "BENCHMARK.json"), encoding="utf-8") as fh:
        metrics = [
            (m["name"], m["better"], m["bound"]) for m in json.load(fh)["end_to_end"]
        ]
    names = [name for name, _, _ in metrics]
    if claim is not None and claim[0] not in names:
        raise UnknownMetric(
            f"claimed metric {claim[0]!r} is not one of {', '.join(names)}")
    parent_runs, change_runs = load_runs(parent), load_runs(change)
    paired = parent_runs.keys() & change_runs.keys()
    parent_lines, change_lines = src_lines(parent), src_lines(change)
    parent_code, change_code = src_code_lines(parent), src_code_lines(change)
    table = compare(parent_runs, change_runs, metrics)
    result = {
        "pr": pr,
        "workloads": table,
        "unpaired": sorted(
            [side, *key]
            for side, runs in (("parent", parent_runs), ("change", change_runs))
            for key in runs.keys() - paired
        ),
        "host": {"parent": host(parent_runs), "change": host(change_runs)},
        "tier1_s": tier1_s and {"parent": tier1_s[0], "change": tier1_s[1]},
        "bytecode": {"parent": has_bytecode(parent), "change": has_bytecode(change)},
        "src_lines": {
            "parent": parent_lines, "change": change_lines,
            "net": change_lines - parent_lines,
        },
        "src_code_lines": {
            "parent": parent_code, "change": change_code,
            "net": change_code - parent_code,
        },
    }
    if claim is not None:
        metric, workload = claim
        result["claim"] = check_claim(table, parent_runs, change_runs, workload, metric)
    return result


def parse_claim(text):
    """``METRIC:WORKLOAD`` as (metric, workload); ``record`` checks the
    metric."""
    metric, sep, workload = text.partition(":")
    if not metric or not sep or not workload:
        raise argparse.ArgumentTypeError(f"{text!r} is not METRIC:WORKLOAD")
    return metric, workload


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="parent checkout")
    parser.add_argument("--change", required=True, help="change checkout")
    parser.add_argument("--pr", required=True, type=int, help="number in the file name")
    parser.add_argument("--tier1-s", type=float, nargs=2, metavar=("PARENT", "CHANGE"),
                        help="tier-1 test wall seconds measured on each checkout")
    parser.add_argument("--claim", type=parse_claim, metavar="METRIC:WORKLOAD",
                        help="check a claimed gain in one end-to-end metric")
    parser.add_argument("--out", help="output file (default: BENCH_<pr>.json at the root)")
    args = parser.parse_args(argv)

    out = os.path.abspath(args.out or os.path.join(ROOT, f"BENCH_{args.pr}.json"))
    bench_dir = os.path.join(ROOT, "bench") + os.sep
    if out.startswith(bench_dir):
        print(f"error: {out} lies under bench/", file=sys.stderr)
        return 1
    try:
        result = record(args.parent, args.change, args.pr, args.tier1_s, args.claim)
    except UnknownMetric as err:
        parser.error(str(err))
    if not result["workloads"]:
        print("error: no (workload, seed) run in both checkouts", file=sys.stderr)
        return 1
    if args.claim is not None and result["claim"] is None:
        print(f"error: no {args.claim[1]} run in both checkouts", file=sys.stderr)
        return 1
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)
        fh.write("\n")
    bytecode = result["bytecode"]
    if bytecode["parent"] != bytecode["change"]:
        print("warning: src/nocsim/__pycache__ holds bytecode on one side only "
              f"({bytecode}); the other compiled its modules in every job",
              file=sys.stderr)
    for workload, row in result["workloads"].items():
        for name, m in row["metrics"].items():
            parent = m["parent"]
            print(f"{workload} {name}: {parent['median']:.6g} -> "
                  f"{m['change']['median']:.6g}, change better in "
                  f"{m['change_better']}/{m['pairs']}; "
                  f"{'WORSE than' if m['worse_than_bound'] else 'within'} "
                  f"bound {m['bound']:g}; "
                  f"{'inside' if m['inside_parent_iqr'] else 'outside'} parent "
                  f"q1-q3 [{parent['q1']:.6g}, {parent['q3']:.6g}]")
    claim = result.get("claim")
    if claim is not None:
        ratio = claim["ratio"]
        print(f"claim {claim['metric']}:{claim['workload']}: change/parent ratio "
              f"{ratio['median']:.4g} [q1 {ratio['q1']:.4g}, q3 {ratio['q3']:.4g}], "
              f"change better in {claim['change_better']}/{claim['pairs']}; "
              f"{'beats' if claim['beats_bound'] else 'misses'} bound {claim['bound']:g}; "
              f"{'beats' if claim['beats_parent_iqr'] else 'misses'} the parent q1-q3 width")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
