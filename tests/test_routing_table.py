"""The engine and the deadlock analysis read one routing table.

Runs are observed from the outside, by wrapping ``Simulation._decision_for``:
every input-channel -> output-channel step a head is routed along must be
a dependency of the CDG that ``check-deadlock`` builds for the same
algorithm, and an algorithm that ``check-deadlock`` calls free must never
deadlock a saturated run. ``routing.walk`` of the same table is the path
of a lone packet.
"""

import random
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nocsim import engine, fabric, routing, topology as topo, workload
from nocsim.errors import DeadlockDetected, Unreachable

FAMILIES = {
    topo.MESH: st.builds(topo.mesh, st.integers(2, 4), st.integers(2, 4)),
    topo.TORUS: st.builds(topo.torus, st.integers(3, 4), st.integers(3, 4)),
    topo.CIRCULANT: st.builds(
        lambda n, s: topo.circulant(n, (1, s)), st.integers(6, 10), st.integers(2, 3)
    ),
}
SETTINGS = settings(max_examples=6, deadline=None, derandomize=True)


def algorithms_on(kind):
    return [
        name for name, algorithm in routing.ALGORITHMS.items()
        if algorithm.kinds is None or kind in algorithm.kinds
    ]


CASES = [(kind, name) for kind in FAMILIES for name in algorithms_on(kind)]


def saturated_config(t, algorithm, switching, rate, seed, vc_count=None):
    return engine.SimConfig(
        topology=t,
        algorithm=algorithm,
        traffic=workload.TrafficSpec(injection_rate=rate, packet_length=4, seed=seed),
        switching=switching,
        vc_count=vc_count,
        warmup_cycles=50,
        measure_cycles=300,
        drain_cycles=150,
    )


def checked_cdg(config):
    """The CDG ``check-deadlock`` builds for the run's algorithm and VCs."""
    algorithm = routing.lookup(config.algorithm, config.topology.kind, routing.RELATIONS)
    ctx = engine.routing_context(
        algorithm, config.topology, config.resolved_vc_count(),
        config.anchor_count, config.center_count,
    )
    return routing.build_cdg(config.topology, routing.relation(algorithm, ctx), ctx.vc_count)


def routed_steps(config):
    """Every (input channel, output channel) a head was routed along."""
    sim = engine.Simulation(config)
    decide = sim._decision_for
    steps = set()

    def observed(slot, flit):
        decision = decide(slot, flit)
        if decision is not None and slot.came_from is not None:
            down = decision[2]  # the next node's input slot, on the out VC
            steps.add((
                (slot.came_from, slot.node, slot.in_vc),
                (slot.node, down.node, down.in_vc),
            ))
        return decision

    sim._decision_for = observed
    try:
        sim.run()
    except DeadlockDetected:
        pass  # the steps taken up to the deadlock still count
    return steps


@pytest.mark.parametrize("kind,algorithm", CASES)
@given(data=st.data())
@SETTINGS
def test_every_routed_step_is_a_cdg_dependency(kind, algorithm, data):
    t = data.draw(FAMILIES[kind])
    config = saturated_config(
        t, algorithm,
        switching=data.draw(st.sampled_from((fabric.WORMHOLE, fabric.VCT))),
        rate=data.draw(st.sampled_from((0.3, 0.6))),
        seed=data.draw(st.integers(0, 50)),
        vc_count=data.draw(st.sampled_from((None, 1, 2))),
    )
    steps = routed_steps(config)
    cdg = checked_cdg(config)
    assert steps
    missing = [step for step in steps if not cdg.has_edge(*step)]
    assert not missing, missing[:5]


@pytest.mark.parametrize("kind,algorithm", CASES)
@given(data=st.data())
@SETTINGS
def test_an_algorithm_called_free_never_deadlocks(kind, algorithm, data):
    t = data.draw(FAMILIES[kind])
    seed = data.draw(st.integers(0, 50))
    configs = [
        saturated_config(t, algorithm, switching, 0.3, seed)
        for switching in (fabric.WORMHOLE, fabric.VCT)
    ]
    if routing.dependency_cycle(checked_cdg(configs[0])) is not None:
        return
    for config in configs:
        engine.run(config)  # raises DeadlockDetected on a stall


# -- routing.walk against a lone packet ---------------------------------------

def sampled(t, faults, count, seed):
    """``t`` and its ``faults`` with ``count`` seeded (src, dst) pairs of
    distinct nodes that do not fail."""
    failed = {e[1] for e in faults if e[0] == "node"}
    alive = [u for u in range(t.node_count) if u not in failed]
    rng = random.Random(seed)
    return t, faults, [tuple(rng.sample(alive, 2)) for _ in range(count)]


WALL = topo.mesh(16, 16)
# (topology, faults from cycle 0 on, (src, dst) pairs)
WALK_CASES = {
    "obstacle5": sampled(topo.mesh(5, 5), [("node", 7), ("node", 12), ("node", 17)], 80, 1),
    "torus4": sampled(topo.torus(4, 4), [("link", 5, 6), ("node", 10)], 80, 2),
    "mesh6": sampled(
        topo.mesh(6, 6), [("node", 8), ("node", 15), ("node", 20), ("node", 27)], 80, 3
    ),
    "circulant12": sampled(topo.circulant(12, (1, 3)), [("link", 0, 3), ("node", 7)], 80, 4),
    # column x=8 fails at y=1..15: greedy_fallback takes 51 hops, BFS 25
    "long_wall": (WALL, [("node", WALL.xy_node(8, y)) for y in range(1, 16)], [(0, 190)]),
}
WALKS = [
    (case, name)
    for case, (t, _, _) in WALK_CASES.items()
    for name in algorithms_on(t.kind)
]


@pytest.mark.parametrize("case,algorithm", WALKS)
def test_walk_is_the_path_of_a_lone_packet(case, algorithm):
    """One preloaded packet on an idle network takes ``routing.walk``'s
    path at the zero-load latency when that path uses only live links, and
    is dropped when the walk has no option or crosses a dead link (xy, dyxy
    and hierarchical routing ignore faults; the engine drops at the dead
    hop)."""
    t, faults, pairs = WALK_CASES[case]
    schedule = workload.FaultSchedule(
        tuple(workload.FaultEvent(e, 0, workload.INFINITY) for e in faults)
    )
    view = topo.TopologyView(t, *workload.faults_at(schedule, 0))
    base = engine.SimConfig(
        topology=t, algorithm=algorithm,
        traffic=workload.TrafficSpec(injection_rate=0.0, packet_length=4),
        switching=fabric.WORMHOLE, pipeline=1, fault_schedule=schedule,
        warmup_cycles=0, measure_cycles=1, drain_cycles=400,
    )
    algo = routing.ALGORITHMS[algorithm]
    next_hops = routing.relation(
        algo, engine.routing_context(algo, view, base.resolved_vc_count())
    )
    for src, dst in pairs:
        report = engine.run(replace(base, preloaded=((0, src, dst),)))
        try:
            path = routing.walk(next_hops, src, dst)
        except Unreachable:
            path = None
        if path is not None and all(view.has_link(a, b) for a, b in zip(path, path[1:])):
            assert (report.delivered, report.dropped) == (1, 0), (src, dst, path)
            assert report.avg_latency == engine.zero_load_latency(
                fabric.WORMHOLE, len(path) - 1, 4, 1
            ), (src, dst, path)
        else:
            assert (report.delivered, report.dropped) == (0, 1), (src, dst, path)
