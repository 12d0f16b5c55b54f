"""What the benchmark measures: workloads, metrics and the layer mapping.

This module imports nothing from ``nocsim``, so ``run.py`` can read it
without loading the program under test. ``BENCHMARK.json`` at the root of
the repository lists the same names, units and directions; the
benchmark's tests hold the two to each other.
"""

from __future__ import annotations

from collections import namedtuple

# Workload names, each with the reason it is in the benchmark.
MESH16 = "mesh16_uniform_light"
TORUS8 = "torus8_uniform_saturated"
SWEEP = "mesh8_faults_wireless_sweep"
ANALYSIS = "analysis_suite"
SIMS = (MESH16, TORUS8, SWEEP)

WORKLOADS = (
    (MESH16, "16x16 mesh, XY, wormhole, uniform 0.05: most routers idle, so engine "
             "scanning and per-node injection draws dominate; the drain tail is idle"),
    (TORUS8, "8x8 torus, dateline XY, VCT, uniform 0.3: saturated, every router busy, "
             "per-hop torus routing and backpressure dominate; the memory case"),
    (SWEEP, "nocsim sweep path on an 8x8 mesh: greedy_fallback and neighborhood, "
            "faults that fail and heal, 4 radio hubs, config parse and CSV writing"),
    (ANALYSIS, "no simulation: the calls behind check-deadlock, routes, score, synth "
               "and coords, which ROADMAP items 2 and 3 rewrite"),
)

# The benchmark seed selects one of this many pinned input sets.
PINNED_SEEDS = 16


def input_seed(seed):
    """The pinned input set a benchmark seed selects."""
    return seed % PINNED_SEEDS


# End-to-end metrics: name, unit, better, bound (share of the parent's
# median by which the metric may worsen before a change is a regression).
# Host speed on a shared machine drifts: two sets of ten runs of the same
# code on 2 shared cores differed by up to 14 % in wall_s and 25 % in
# setup_s, so both time bounds sit at the largest allowed value.
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("wall_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.05),
)

# Per-layer metrics, from the traced run only. ``<layer>.calls`` counts
# calls, ``.s`` is inclusive host time, ``.self_s`` leaves out the time in
# wrapped children, and a ``*_ratio`` is useful outcomes / calls. Each
# names the end-to-end metric it should move, the workloads with the most
# work in it, and the workloads where it is 0 by construction; the
# benchmark's tests hold the traced runs to both lists.
Layer = namedtuple("Layer", "name unit better moves most_work_in zero_in")

NCPS = "node_cycles_per_s"
NOT_SWEEP = (MESH16, TORUS8, ANALYSIS)

LAYER_METRICS = tuple(Layer(*row) for row in (
    ("engine.Simulation.run.self_s", "s", "lower", NCPS, (MESH16,), (ANALYSIS,)),
    ("engine.Simulation.init.s", "s", "lower", "setup_s; wall_s on the sweep",
     (MESH16,), (ANALYSIS,)),
    ("workload.inject.calls", "count", "lower", NCPS, (MESH16,), (ANALYSIS,)),
    ("workload.inject.s", "s", "lower", NCPS, (MESH16,), (ANALYSIS,)),
    ("workload.inject.hit_ratio", "ratio", "higher", NCPS, (MESH16,), (ANALYSIS,)),
    ("workload.faults_at.calls", "count", "lower", NCPS, (SWEEP,), (ANALYSIS,)),
    ("workload.faults_at.s", "s", "lower", NCPS, (SWEEP,), (ANALYSIS,)),
    ("topology.view_queries.calls", "count", "lower", NCPS, (MESH16,), ()),
    ("topology.view_queries.s", "s", "lower", NCPS, (MESH16,), ()),
    ("topology.TopologyView.init.calls", "count", "lower", NCPS, (SWEEP,), ()),
    ("topology.bfs_distances.calls", "count", "lower", "setup_s; wall_s on analysis",
     (MESH16, ANALYSIS), ()),
    ("topology.bfs_distances.s", "s", "lower", "setup_s; wall_s on analysis",
     (MESH16, ANALYSIS), ()),
    ("topology.score.s", "s", "lower", "wall_s", (ANALYSIS,), SIMS),
    ("topology.synthesize.s", "s", "lower", "wall_s", (ANALYSIS,), SIMS),
    ("addressing.default_anchors.s", "s", "lower", "wall_s", (SWEEP, ANALYSIS),
     (MESH16, TORUS8)),
    ("addressing.assign_virtual_coordinates.s", "s", "lower", "wall_s",
     (SWEEP, ANALYSIS), (MESH16, TORUS8)),
    ("routing.route_xy.calls", "count", "lower", NCPS, (TORUS8,), (SWEEP,)),
    ("routing.route_xy.s", "s", "lower", NCPS, (TORUS8,), (SWEEP,)),
    ("routing.torus_xy_next.calls", "count", "lower", NCPS, (TORUS8,), (MESH16, SWEEP)),
    ("routing.torus_xy_next.self_s", "s", "lower", NCPS, (TORUS8,), (MESH16, SWEEP)),
    ("routing.next_hop_greedy.calls", "count", "lower", "wall_s", (SWEEP,),
     NOT_SWEEP),
    ("routing.next_hop_greedy.s", "s", "lower", "wall_s", (SWEEP,), NOT_SWEEP),
    ("routing.next_hop_greedy.forward_ratio", "ratio", "higher", "wall_s", (SWEEP,),
     NOT_SWEEP),
    ("routing.build_cdg.s", "s", "lower", "wall_s", (ANALYSIS,), SIMS),
    ("routing.neighborhood_routes.s", "s", "lower", "wall_s", (ANALYSIS,), SIMS),
    ("fabric.flow_control_accept.calls", "count", "lower", NCPS, (TORUS8,), (ANALYSIS,)),
    ("fabric.flow_control_accept.s", "s", "lower", NCPS, (TORUS8,), (ANALYSIS,)),
    ("fabric.flow_control_accept.accept_ratio", "ratio", "higher", NCPS, (TORUS8,),
     (ANALYSIS,)),
    ("fabric.flit_ready.calls", "count", "lower", NCPS, (TORUS8,), (ANALYSIS,)),
    ("fabric.flit_ready.ready_ratio", "ratio", "higher", NCPS, (TORUS8,), (ANALYSIS,)),
    ("fabric.make_flits.calls", "count", "lower", "peak_rss_mb", (TORUS8,), (ANALYSIS,)),
    ("fabric.WirelessHubState.step.calls", "count", "lower", NCPS, (SWEEP,),
     NOT_SWEEP),
    ("fabric.WirelessHubState.step.s", "s", "lower", NCPS, (SWEEP,), NOT_SWEEP),
    ("config.parse_config.s", "s", "lower", "setup_s", (SWEEP,), NOT_SWEEP),
    ("cli.run_sweep.s", "s", "lower", "wall_s", (SWEEP,), NOT_SWEEP),
    # traced / untraced wall_s of the same run
    ("trace.overhead_ratio", "ratio", "lower", "none", (MESH16, TORUS8, SWEEP, ANALYSIS),
     ()),
))
