"""The benchmark's four workloads.

``prepare(name, seed, scratch_dir)`` does a workload's set-up (config and
topology build, ``engine.Simulation(...)``) and returns a ``Job`` whose
``run()`` does the timed work and returns the job's outputs as
``{op name: text}``. An op is one simulation run, one sweep variant (its
``results.csv`` row under the header), the sweep's ``summary.csv``, or one
analysis call; ``pinned.json`` holds the expected text of every op.

The benchmark seed picks one of ``spec.PINNED_SEEDS`` input sets, so that
every run, whatever its seed, is checked byte for byte against pinned
outputs. Within a job the modelled traffic is open-loop at a fixed offered
rate.
"""

from __future__ import annotations

import hashlib
import os
import shutil
from collections.abc import Callable
from dataclasses import dataclass

from nocsim import addressing, cli, config, engine, fabric, routing, topology, workload
from nocsim.errors import Infeasible

from spec import ANALYSIS, MESH16, SWEEP, TORUS8, input_seed

INPUTS_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "inputs")


@dataclass
class Job:
    run: Callable[[], dict]  # () -> {op name: output text}
    node_cycles: int         # simulated cycles x routers; 0 without simulation


def _windows(total):
    """Warmup, measure and drain cycles in the config defaults' 1:5:2."""
    unit = total // 8
    return unit, 5 * unit, 2 * unit


def _simulation_job(topo, algorithm, switching, vc_count, rate, seed, cycles):
    warmup, measure, drain = _windows(cycles)
    sim = engine.Simulation(engine.SimConfig(
        topology=topo,
        algorithm=algorithm,
        traffic=workload.TrafficSpec(
            pattern=workload.UNIFORM_RANDOM, injection_rate=rate, seed=seed,
        ),
        switching=switching,
        vc_count=vc_count,
        warmup_cycles=warmup,
        measure_cycles=measure,
        drain_cycles=drain,
    ))
    return Job(
        run=lambda: {"report": sim.run().serialize()},
        node_cycles=cycles * topo.node_count,
    )


def _mesh16(seed, scratch_dir):
    # light load on a large mesh: most routers idle, source routes built once
    return _simulation_job(
        topology.mesh(16, 16), "xy", fabric.WORMHOLE, 1, 0.05, seed, 3200,
    )


def _torus8(seed, scratch_dir):
    # offered 0.3 against ~0.27 accepted: saturated, backlog grows
    return _simulation_job(
        topology.torus(8, 8), "xy", fabric.VCT, 2, 0.3, seed, 6000,
    )


SWEEP_CYCLES = 6400

SWEEP_CONFIG = """\
topology.kind = mesh
topology.width = 8
topology.height = 8
routing.algorithm = greedy_fallback
fabric.switching = wormhole
traffic.pattern = uniform_random
traffic.rate = 0.05
faults.file = mesh8.faults
wireless.enabled = true
wireless.hubs = 18, 21, 42, 45
wireless.threshold = 6
sim.warmup_cycles = {warmup}
sim.measure_cycles = {measure}
sim.drain_cycles = {drain}
sim.seed = {seed_a}
sweep.seeds = {seed_a}, {seed_b}
sweep.algorithms = greedy_fallback, neighborhood
"""


def sweep_config_text(seed):
    """Config text of the sweep; each input set has its own two seeds."""
    warmup, measure, drain = _windows(SWEEP_CYCLES)
    return SWEEP_CONFIG.format(
        warmup=warmup, measure=measure, drain=drain,
        seed_a=2 * seed, seed_b=2 * seed + 1,
    )


def _sweep(seed, scratch_dir):
    experiment = config.parse_config(sweep_config_text(seed), INPUTS_DIR)
    variants = len(list(experiment.variants()))
    out_dir = os.path.join(scratch_dir, "sweep")

    def run():
        try:
            results, summary = cli.run_sweep(experiment, out_dir)
            with open(results, encoding="utf-8") as fh:
                header, *rows = fh.read().splitlines(keepends=True)
            with open(summary, encoding="utf-8") as fh:
                outputs = {"summary.csv": fh.read()}
        finally:
            shutil.rmtree(out_dir, ignore_errors=True)
        for row in rows:
            algorithm, _rate, variant_seed = row.split(",", 3)[:3]
            outputs[f"variant {algorithm} seed={variant_seed}"] = header + row
        return outputs

    return Job(run=run, node_cycles=variants * SWEEP_CYCLES * 64)


def _analysis(seed, scratch_dir):
    mesh16 = topology.mesh(16, 16)
    torus8 = topology.torus(8, 8)
    mesh8 = topology.mesh(8, 8)

    def cdg_verdict(topo, relation, vc_count):
        cdg = routing.build_cdg(topo, relation, vc_count)
        free = routing.is_deadlock_free(cdg)
        return (
            f"channels={cdg.number_of_nodes()} dependencies={cdg.number_of_edges()} "
            f"deadlock-free={str(free).lower()}\n"
        )

    def routes():
        found = sorted(routing.neighborhood_routes(topology.TopologyView(mesh8), 0, 63))
        return f"count={len(found)} first={found[0]} last={found[-1]}\n"

    def score():
        s = topology.score(mesh16)
        return (
            f"diameter={s.diameter} avg_distance={s.avg_distance:.6f} "
            f"max_degree={s.max_degree} edge_count={s.edge_count}\n"
        )

    def synth_feasible():
        return topology.to_edge_list_text(topology.synthesize(10, 3, 3, seed))

    def synth_infeasible():
        # the Moore bound (10 nodes) rules this out before any search
        try:
            topo = topology.synthesize(12, 3, 2, seed)
        except Infeasible as exc:
            return f"infeasible: {exc}\n"
        return "feasible:\n" + topology.to_edge_list_text(topo)

    def coords():
        anchors = addressing.default_anchors(mesh16, 3)
        dump = addressing.assign_virtual_coordinates(mesh16, anchors).dump()
        return f"anchors={anchors} sha256={hashlib.sha256(dump.encode()).hexdigest()}\n"

    calls = {
        "check-deadlock xy mesh16x16": lambda: cdg_verdict(
            mesh16, routing.xy_relation(mesh16), 1),
        "check-deadlock xy-dateline torus8x8": lambda: cdg_verdict(
            torus8, routing.torus_xy_dateline_relation(torus8, 2), 2),
        "check-deadlock minimal_adaptive mesh8x8": lambda: cdg_verdict(
            mesh8, routing.minimal_adaptive_relation(mesh8), 1),
        "routes mesh8x8 0->63": routes,
        "score mesh16x16": score,
        "synth n=10 degree<=3 diameter<=3": synth_feasible,
        "synth n=12 degree<=3 diameter<=2": synth_infeasible,
        "coords mesh16x16 anchors=3": coords,
    }

    def run():
        outputs = {}
        for name, call in calls.items():
            try:
                outputs[name] = call()
            except Exception as exc:  # one failed call must not hide the rest
                outputs[name] = f"raised {type(exc).__name__}: {exc}\n"
        return outputs

    return Job(run=run, node_cycles=0)


_PREPARE = {MESH16: _mesh16, TORUS8: _torus8, SWEEP: _sweep, ANALYSIS: _analysis}


def prepare(name, seed, scratch_dir):
    """Set up workload ``name`` for input set ``input_seed(seed)``."""
    return _PREPARE[name](input_seed(seed), scratch_dir)
