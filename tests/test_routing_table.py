"""The engine and the deadlock analysis read one routing table.

Runs are observed from the outside, by wrapping ``Simulation._decide``:
every input-channel -> output-channel step a head is routed along must be
a dependency of the CDG that ``check-deadlock`` builds for the same
algorithm, and an algorithm that ``check-deadlock`` calls free must never
deadlock a saturated run.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nocsim import engine, fabric, routing, topology as topo, workload
from nocsim.errors import DeadlockDetected

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
    decide = sim._decide
    steps = set()

    def observed(node, packet, in_vc, came_from):
        decision = decide(node, packet, in_vc, came_from)
        if decision is not None and came_from is not None:
            steps.add(((came_from, node, in_vc), (node, *decision)))
        return decision

    sim._decide = observed
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
