"""Command-line front end: experiment runs, sweeps, and analysis tools.

Exit codes: 0 success, 1 usage or configuration errors, 2 simulation
protocol violations (deadlock or livelock detected).
"""

from __future__ import annotations

import argparse
import os
import sys

from . import config as cfgmod, engine, routing, topology as topo
from .addressing import assign_virtual_coordinates, default_anchors
from .errors import (
    ConfigError,
    DeadlockDetected,
    Infeasible,
    LivelockDetected,
    NocError,
)

# report fields written per variant, and averaged per (algorithm, rate)
REPORT_COLUMNS = (
    "delivered", "dropped", "avg_latency", "p99_latency", "throughput",
    "utilization", "wireless_share",
)
CSV_COLUMNS = ("algorithm", "rate", "seed", *REPORT_COLUMNS)


def run_sweep(experiment, out_dir):
    """One CSV row per (algorithm, rate, seed) plus per-(algorithm, rate)
    means; byte-identical across repeated invocations. Partial outputs are
    removed on failure."""
    os.makedirs(out_dir, exist_ok=True)
    results_path = os.path.join(out_dir, "results.csv")
    summary_path = os.path.join(out_dir, "summary.csv")
    rows = []
    try:
        for variant in experiment.variants():
            report = engine.run(variant)
            rows.append(
                (
                    variant.algorithm,
                    variant.traffic.injection_rate,
                    variant.traffic.seed,
                    report,
                )
            )
    except Exception:
        for path in (results_path, summary_path):
            if os.path.exists(path):
                os.remove(path)
        raise

    rows.sort(key=lambda r: (r[0], r[1], r[2]))
    with open(results_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(CSV_COLUMNS) + "\n")
        for algorithm, rate, seed, report in rows:
            values = (engine.format_value(getattr(report, c)) for c in REPORT_COLUMNS)
            fh.write(",".join((algorithm, f"{rate:g}", str(seed), *values)) + "\n")

    groups = {}
    for algorithm, rate, seed, report in rows:
        groups.setdefault((algorithm, rate), []).append(report)
    with open(summary_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(("algorithm", "rate", *REPORT_COLUMNS)) + "\n")
        for (algorithm, rate), reports in sorted(groups.items()):
            means = (
                engine.format_value(sum(getattr(r, c) for r in reports) / len(reports))
                for c in REPORT_COLUMNS
            )
            fh.write(",".join((algorithm, f"{rate:g}", *means)) + "\n")
    return results_path, summary_path


# --------------------------------------------------------------------------
# subcommands
# --------------------------------------------------------------------------

def _load_experiment(path, seed=None):
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    base_dir = os.path.dirname(os.path.abspath(path))
    return cfgmod.parse_config(text, base_dir, seed_override=seed)


def _load_topology(args):
    if args.topology:
        with open(args.topology, encoding="utf-8") as fh:
            return topo.from_edge_list_text(fh.read())
    if args.config:
        return _load_experiment(args.config).template.topology
    raise ConfigError("need --topology or --config")


def cmd_run(args):
    experiment = _load_experiment(args.config, args.seed)
    report = engine.run(experiment.template)
    sys.stdout.write(report.serialize())
    return 0


def cmd_sweep(args):
    experiment = _load_experiment(args.config, args.seed)
    results, summary = run_sweep(experiment, args.out)
    print(f"wrote {results}")
    print(f"wrote {summary}")
    return 0


def cmd_routes(args):
    topology = _load_topology(args)
    routes = routing.neighborhood_routes(
        topo.TopologyView(topology), args.src, args.dst, args.budget
    )
    for route in sorted(routes):
        print(" ".join(str(n) for n in route))
    return 0


def cmd_coords(args):
    topology = _load_topology(args)
    anchors = default_anchors(topology, args.anchors)
    cmap = assign_virtual_coordinates(topology, anchors)
    sys.stdout.write(cmap.dump())
    return 0


def cmd_check_deadlock(args):
    if args.topology or not args.config:
        topology, vc_count, maps = _load_topology(args), 1, ()
    else:  # the run's own VC count, anchors and centers
        t = _load_experiment(args.config).template
        topology, vc_count = t.topology, t.resolved_vc_count()
        maps = (t.anchor_count, t.center_count)
    if args.vcs is not None:
        vc_count = args.vcs
    if vc_count < 1:
        raise ConfigError("--vcs must be >= 1")
    algorithm = routing.lookup(args.algorithm, topology.kind, routing.RELATIONS)
    ctx = engine.routing_context(algorithm, topology, vc_count, *maps)
    cdg = routing.build_cdg(topology, routing.relation(algorithm, ctx), vc_count)
    cycle = routing.dependency_cycle(cdg)
    print(f"deadlock-free: {'false' if cycle else 'true'}")
    if cycle:
        print("cycle: " + " -> ".join(str(c) for c in cycle + cycle[:1]))
    return 0


def cmd_synth(args):
    try:
        result = topo.synthesize(
            args.n, args.max_degree, args.max_diameter, args.seed, args.budget
        )
    except Infeasible as exc:
        print(f"infeasible: {exc}")
        return 0
    text = topo.to_edge_list_text(result)
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        path = os.path.join(args.out, "synthesized.edges")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        print(f"wrote {path}")
    else:
        sys.stdout.write(text)
    return 0


def cmd_score(args):
    topology = _load_topology(args)
    s = topo.score(topology)
    print(f"diameter={s.diameter}")
    print(f"avg_distance={s.avg_distance:.6f}")
    print(f"max_degree={s.max_degree}")
    print(f"edge_count={s.edge_count}")
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="nocsim",
        description="Cycle-level NoC simulation workbench",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def experiment(p):
        p.add_argument("--config", required=True, help="experiment config file")
        p.add_argument("--seed", type=int, default=None, help="override config seed")

    def sources(p):
        p.add_argument("--config", help="experiment config file")
        p.add_argument("--topology", help="edge-list topology file")

    p = sub.add_parser("run", help="run one simulation and print its report")
    experiment(p)
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("sweep", help="run a rate/seed/algorithm sweep to CSV")
    experiment(p)
    p.add_argument("--out", default="out", help="output directory")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("routes", help="enumerate all shortest routes")
    sources(p)
    p.add_argument("--src", type=int, required=True)
    p.add_argument("--dst", type=int, required=True)
    p.add_argument("--budget", type=int, default=routing.DEFAULT_ROUTE_BUDGET)
    p.set_defaults(func=cmd_routes)

    p = sub.add_parser("coords", help="dump virtual coordinates")
    sources(p)
    p.add_argument("--anchors", type=int, default=engine.SimConfig.anchor_count)
    p.set_defaults(func=cmd_coords)

    p = sub.add_parser("check-deadlock", help="channel-dependency cycle check")
    sources(p)
    p.add_argument("--algorithm", default="xy")
    p.add_argument("--vcs", type=int, default=None)
    p.set_defaults(func=cmd_check_deadlock)

    p = sub.add_parser("synth", help="constrained topology synthesis")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--max-degree", type=int, required=True, dest="max_degree")
    p.add_argument("--max-diameter", type=int, required=True, dest="max_diameter")
    p.add_argument("--budget", type=int, default=200)
    p.add_argument("--seed", type=int, default=0, help="search seed")
    p.add_argument("--out", default=None, help="output directory (default: stdout)")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("score", help="diameter / average distance / degree")
    sources(p)
    p.set_defaults(func=cmd_score)

    return parser


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse: 0 after --help, 2 on a usage error
        return 0 if exc.code == 0 else 1
    try:
        return args.func(args)
    except (DeadlockDetected, LivelockDetected) as exc:
        print(f"protocol violation: {exc}", file=sys.stderr)
        return 2
    except (NocError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
