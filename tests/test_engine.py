"""Simulation engine: latency model, determinism, faults, and reports."""

import dataclasses
import gc
import hashlib
import itertools
import weakref
from collections import Counter, deque

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nocsim import cli, engine, fabric, routing, topology as topo, workload
from nocsim.errors import (
    ConfigError,
    DeadlockDetected,
    InvertedInterval,
    LivelockDetected,
    Unreachable,
    UnknownElement,
)


def quiet_config(t, algorithm="xy", **kw):
    defaults = dict(
        topology=t,
        algorithm=algorithm,
        traffic=workload.TrafficSpec(injection_rate=0.0, packet_length=4),
        warmup_cycles=0,
        measure_cycles=200,
        drain_cycles=200,
    )
    defaults.update(kw)
    return engine.SimConfig(**defaults)


def single_packet_latency(hops, flits, pipeline, switching):
    """Measured latency of one preloaded packet on an idle line network."""
    t = topo.mesh(hops + 1, 1)
    cfg = quiet_config(
        t,
        switching=switching,
        pipeline=pipeline,
        buffer_depth=max(flits, 4),
        traffic=workload.TrafficSpec(injection_rate=0.0, packet_length=flits),
        preloaded=((0, 0, hops),),
        measure_cycles=10 * (hops + 1) * (flits + pipeline) + 50,
        drain_cycles=50,
    )
    report = engine.run(cfg)
    assert report.delivered == 1
    return report.avg_latency


# -- zero-load latency closed forms ------------------------------------------

@pytest.mark.parametrize("switching", fabric.SWITCHING_POLICIES)
@pytest.mark.parametrize("hops,flits,pipeline", [(1, 1, 1), (3, 4, 1), (5, 8, 2)])
def test_single_packet_matches_closed_form(switching, hops, flits, pipeline):
    expected = engine.zero_load_latency(switching, hops, flits, pipeline)
    assert single_packet_latency(hops, flits, pipeline, switching) == expected


def test_closed_form_values():
    assert engine.zero_load_latency(fabric.SAF, 3, 4, 1) == 15
    assert engine.zero_load_latency(fabric.WORMHOLE, 3, 4, 1) == 9
    assert engine.zero_load_latency(fabric.VCT, 3, 4, 1) == 9


def test_saf_slower_than_wormhole_for_multiflit():
    assert engine.zero_load_latency(fabric.SAF, 4, 8, 1) > \
        engine.zero_load_latency(fabric.WORMHOLE, 4, 8, 1)


# -- config validation -------------------------------------------------------

def test_config_rejects_unknown_algorithm():
    with pytest.raises(ConfigError):
        quiet_config(topo.mesh(4, 4), algorithm="updown").validate()


def test_config_rejects_grid_algorithms_off_grid():
    with pytest.raises(ConfigError):
        quiet_config(topo.ring(8), algorithm="xy").validate()
    with pytest.raises(ConfigError):
        quiet_config(topo.torus(4, 4), algorithm="dyxy").validate()


def test_config_rejects_shallow_buffers_for_vct_saf():
    t = topo.mesh(4, 4)
    for policy in (fabric.SAF, fabric.VCT):
        cfg = quiet_config(
            t, switching=policy, buffer_depth=2,
            traffic=workload.TrafficSpec(injection_rate=0.0, packet_length=4),
        )
        with pytest.raises(ConfigError):
            cfg.validate()


def test_config_rejects_an_unknown_switching_mode():
    """The only guard: ``fabric.flow_control_accept`` no longer looks at
    the switching mode."""
    with pytest.raises(ConfigError, match="circuit"):
        quiet_config(topo.mesh(4, 4), switching="circuit").validate()


@pytest.mark.parametrize("window", [
    dict(warmup_cycles=-1), dict(measure_cycles=0), dict(drain_cycles=-1),
])
def test_config_rejects_bad_cycle_windows(window):
    with pytest.raises(ConfigError, match="cycle windows"):
        quiet_config(topo.mesh(4, 4), **window).validate()


@pytest.mark.parametrize("constant", [
    dict(pipeline=0), dict(buffer_depth=0), dict(vc_count=0),
])
def test_config_rejects_fabric_constants_below_one(constant):
    with pytest.raises(ConfigError, match="fabric constants"):
        quiet_config(topo.mesh(4, 4), **constant).validate()


def test_config_rejects_bad_wireless():
    """Fewer than two hubs, or a hub off the topology, is an error. So are
    settings that once ran another radio than the one asked for: a
    w_cycles below 1 ran like a one-cycle radio, a queue_cap below 1
    silently turned the radio off, and a repeated hub passed the two-hub
    check with one hub."""
    radio = engine.WirelessConfig(enabled=True, hubs=(0, 15), distance_threshold=2)
    for kw in (
        dict(hubs=(0,)), dict(hubs=(0, 99)), dict(hubs=(5, 5)), dict(hubs=(0, 15, 0)),
        dict(w_cycles=0), dict(w_cycles=-1), dict(queue_cap=0), dict(queue_cap=-1),
    ):
        cfg = quiet_config(topo.mesh(4, 4), wireless=dataclasses.replace(radio, **kw))
        with pytest.raises(ConfigError):
            cfg.validate()
    quiet_config(topo.mesh(4, 4), wireless=radio).validate()


@pytest.mark.parametrize("event,error", [
    (workload.FaultEvent(("node", 99), 300, workload.INFINITY), UnknownElement),
    (workload.FaultEvent(("link", 0, 5), 300, 400), UnknownElement),
    (workload.FaultEvent(("node", 3), 300, 200), InvertedInterval),
])
def test_config_rejects_bad_fault_events(event, error):
    """A schedule built in Python meets the rule of a fault file. Before,
    the first two passed ``validate`` and raised only at cycle 300, and the
    third was accepted and never applied."""
    cfg = quiet_config(
        topo.mesh(4, 4), fault_schedule=workload.FaultSchedule((event,)),
        warmup_cycles=100, measure_cycles=500, drain_cycles=200,
    )
    with pytest.raises(error):
        cfg.validate()


@pytest.mark.parametrize("entry", [
    (0, 5, 5), (0, 5, 99), (0, 99, 5), (0, -1, 5), (0, 5, 16), (-5, 1, 14), (200, 0, 15),
])
def test_config_rejects_bad_preloaded_packets(entry):
    """A preloaded packet needs two distinct nodes of the topology and a
    cycle inside the 200-cycle injection window; before these checks,
    (0, 5, 99) sent xy around the mesh forever, (-5, 1, 14) was injected at
    cycle 0 and (200, 0, 15) was never injected."""
    with pytest.raises(ConfigError):
        engine.Simulation(quiet_config(topo.mesh(4, 4), preloaded=(entry,)))


@pytest.mark.parametrize("t,kw", [
    (topo.mesh(4, 4), dict(pattern=workload.HOTSPOT, hotspot_node=16)),
    (topo.mesh(4, 4), dict(pattern=workload.HOTSPOT, hotspot_node=99)),
    (topo.mesh(4, 4), dict(pattern=workload.HOTSPOT, hotspot_node=-1)),
    (topo.mesh(4, 4), dict(pattern=workload.PERMUTATION, permutation=(20,) * 16)),
    (topo.mesh(4, 4), dict(pattern=workload.PERMUTATION, permutation=(-1,) + (0,) * 15)),
    (topo.mesh(4, 4), dict(pattern=workload.PERMUTATION, permutation=(1, 2, 3))),
    (topo.mesh(4, 4), dict(pattern=workload.PERMUTATION, permutation=tuple(range(17)))),
    (topo.mesh(4, 2), dict(pattern=workload.TRANSPOSE)),
    (topo.torus(4, 3), dict(pattern=workload.TRANSPOSE)),
    (topo.circulant(16, (1, 5)), dict(pattern=workload.TRANSPOSE)),
])
def test_config_rejects_destinations_outside_the_topology(t, kw):
    """Traffic must name nodes of the topology. Before these checks, on a
    4×4 mesh under xy, an off-grid hotspot or permutation entry sent
    route_xy around forever, a 3-entry permutation died with an IndexError
    mid-run, and transpose off a square grid failed at its first injection.
    greedy accepts every family, so only the traffic check can refuse."""
    cfg = quiet_config(t, algorithm="greedy", traffic=workload.TrafficSpec(
        injection_rate=0.1, packet_length=4, **kw,
    ))
    with pytest.raises(ConfigError):
        engine.Simulation(cfg)


@pytest.mark.parametrize("t,kw", [
    (topo.mesh(4, 4), dict(pattern=workload.HOTSPOT, hotspot_node=15)),
    (topo.mesh(4, 4), dict(pattern=workload.PERMUTATION, permutation=tuple(range(15, -1, -1)))),
    (topo.mesh(4, 4), dict(pattern=workload.TRANSPOSE)),
    (topo.torus(4, 4), dict(pattern=workload.TRANSPOSE)),
])
def test_config_accepts_destinations_inside_the_topology(t, kw):
    cfg = quiet_config(t, traffic=workload.TrafficSpec(
        injection_rate=0.1, packet_length=4, **kw,
    ))
    assert engine.run(cfg).delivered > 0


def test_config_rejects_a_negative_packet_cap():
    """max_packets = -1 once silently injected nothing."""
    with pytest.raises(ConfigError):
        engine.Simulation(quiet_config(topo.mesh(4, 4), max_packets=-1))


def test_default_vc_count_torus_two():
    assert quiet_config(topo.torus(4, 4)).resolved_vc_count() == 2
    assert quiet_config(topo.mesh(4, 4)).resolved_vc_count() == 1


# -- determinism -------------------------------------------------------------

def loaded_config(algorithm="xy", rate=0.1, seed=1, **kw):
    return quiet_config(
        topo.mesh(6, 6),
        algorithm=algorithm,
        traffic=workload.TrafficSpec(
            injection_rate=rate, packet_length=4, seed=seed
        ),
        warmup_cycles=100,
        measure_cycles=600,
        drain_cycles=400,
        **kw,
    )


@pytest.mark.parametrize("algorithm", routing.ALGORITHMS)
def test_identical_configs_serialize_identically(algorithm):
    t = topo.mesh(6, 6) if algorithm != "dyxy" else topo.mesh(6, 6)
    cfg = loaded_config(algorithm=algorithm)
    a = engine.run(cfg).serialize()
    b = engine.run(cfg).serialize()
    assert a == b
    assert a.startswith("delivered=")


def test_different_seeds_differ():
    a = engine.run(loaded_config(seed=1)).serialize()
    b = engine.run(loaded_config(seed=2)).serialize()
    assert a != b


def test_serialize_key_order_and_format():
    report = engine.run(loaded_config())
    lines = report.serialize().splitlines()
    assert [ln.split("=")[0] for ln in lines] == list(engine.MetricsReport.SERIAL_KEYS)
    assert lines[2] == f"avg_latency={report.avg_latency:.6f}"


# -- delivery and conservation -----------------------------------------------

@pytest.mark.parametrize("switching", fabric.SWITCHING_POLICIES)
def test_open_loop_run_delivers_everything(switching):
    cfg = loaded_config(switching=switching)
    report = engine.run(cfg)
    assert report.injected > 100
    assert report.delivered == report.injected
    assert report.dropped == 0 and report.residual == 0
    assert report.livelock == 0
    assert report.avg_latency > 0


def test_a_finished_run_is_freed_without_the_cycle_collector():
    """A sweep runs its variants one after another; a reference cycle
    through the Simulation would keep each finished run's routers and
    packets alive until the cycle collector happens to run."""
    sim = engine.Simulation(loaded_config(algorithm="dyxy"))
    sim.run()
    ref = weakref.ref(sim)
    gc.disable()
    try:
        del sim
        assert ref() is None
    finally:
        gc.enable()


def test_max_packets_caps_injection():
    cfg = loaded_config(max_packets=37)
    report = engine.run(cfg)
    assert report.injected == 37
    assert report.delivered == 37


def test_preloaded_traffic_only():
    t = topo.mesh(4, 4)
    cfg = quiet_config(t, preloaded=((0, 0, 15), (3, 5, 10)))
    report = engine.run(cfg)
    assert report.injected == 2 and report.delivered == 2


def test_throughput_accounting():
    cfg = loaded_config(rate=0.2)
    report = engine.run(cfg)
    # open loop far from saturation: delivered flit rate tracks the offer
    assert report.throughput == pytest.approx(0.2, rel=0.2)
    assert 0 < report.utilization < 1
    for link, util in report.per_link_utilization.items():
        assert 0 <= util <= 1


LINK_UTILIZATION_CASES = {
    # every router busy, two VCs interleaving on each link
    "saturated_torus_vct": (
        lambda: quiet_config(
            topo.torus(4, 4), switching=fabric.VCT,
            traffic=workload.TrafficSpec(injection_rate=0.3, packet_length=4, seed=3),
            warmup_cycles=50, measure_cycles=250, drain_cycles=300,
        ),
        63, "f9b75f0e824f8d6271f2bb6c97e62872fbcc38c46e852e2f267be0c0dffa745f",
        0.15093750000000003,
    ),
    "faulted_wireless_fallback": (
        lambda: faulted_wireless_config(drain_cycles=300),
        112, "6433b335ede8cbe63d6d96802b3d43ee2144a46576a305595fd247736804a7a8",
        0.04980000000000003,
    ),
}


@pytest.mark.parametrize("case", sorted(LINK_UTILIZATION_CASES))
def test_per_link_utilization_is_pinned(case):
    """``per_link_utilization`` (its sorted items) and ``utilization`` are in
    no serialized report, so no golden guards them; pinned here from the
    engine that counted busy cycles per (u, v) link."""
    make, links, digest, utilization = LINK_UTILIZATION_CASES[case]
    report = engine.run(make())
    items = sorted(report.per_link_utilization.items())
    assert list(report.per_link_utilization.items()) == items
    assert len(items) == links
    assert hashlib.sha256(repr(items).encode()).hexdigest() == digest
    assert report.utilization == utilization


def bounce(ctx, node, dst, in_vc, came_from):
    """Back to where the head came from; from its source, to its first
    neighbour that is not dst. No head ever arrives."""
    if came_from is None:
        came_from = next(v for v in ctx.topology.neighbors(node) if v != dst)
    return [(came_from, 0, None)]


@pytest.fixture
def bouncing(monkeypatch):
    monkeypatch.setitem(routing.ALGORITHMS, "bounce", routing.Algorithm(options=bounce))


def bouncing_config(strict):
    """One 1-flit packet from 0 to 3 on a 4-node line that bounces between
    nodes 0 and 1 (hop bound max(4 * diameter, 4) = 12)."""
    return quiet_config(
        topo.mesh(4, 1), algorithm="bounce", strict=strict,
        traffic=workload.TrafficSpec(injection_rate=0.0, packet_length=1),
        preloaded=((0, 0, 3),),
    )


def test_livelock_raises_when_strict(bouncing):
    with pytest.raises(LivelockDetected, match="exceeded 12 hops"):
        engine.run(bouncing_config(strict=True))


def test_livelock_is_counted_when_not_strict(bouncing):
    report = engine.run(bouncing_config(strict=False))  # the audit runs at the end
    assert report.livelock > 0
    assert (report.injected, report.delivered, report.dropped) == (1, 0, 0)
    assert report.residual == 1  # the bouncing flit, still in the network


def test_cli_run_livelock_exit_2(bouncing, tmp_path, capsys):
    path = tmp_path / "bounce.cfg"
    path.write_text(
        "topology.kind = mesh\ntopology.width = 4\ntopology.height = 4\n"
        "routing.algorithm = bounce\ntraffic.rate = 0.05\ntraffic.packet_length = 1\n"
        "sim.max_packets = 1\n"  # two bouncing packets can block each other
    )
    assert cli.main(["run", "--config", str(path)]) == 2
    assert "exceeded" in capsys.readouterr().err


# -- the fabric model ----------------------------------------------------------

FABRIC_CASES = {
    "mesh xy": lambda switching, depth: quiet_config(
        topo.mesh(6, 6), switching=switching, buffer_depth=depth,
        traffic=workload.TrafficSpec(injection_rate=0.3, packet_length=4, seed=5),
        warmup_cycles=100, measure_cycles=500, drain_cycles=300,
    ),
    "torus xy 2 VCs": lambda switching, depth: quiet_config(
        topo.torus(4, 4), switching=switching, buffer_depth=depth, vc_count=2,
        traffic=workload.TrafficSpec(injection_rate=0.3, packet_length=4, seed=3),
        warmup_cycles=100, measure_cycles=500, drain_cycles=300,
    ),
}


@pytest.mark.parametrize("depth", [4, 6])
@pytest.mark.parametrize("case", sorted(FABRIC_CASES))
def test_vct_equals_wormhole_when_buffers_hold_a_packet(case, depth):
    """VC allocation is atomic: a head enters only an unbound VC, which is
    always empty, so whenever depth >= packet length the whole packet fits
    and VCT runs exactly as wormhole does."""
    make = FABRIC_CASES[case]
    wormhole = engine.run(make(fabric.WORMHOLE, depth))
    vct = engine.run(make(fabric.VCT, depth))
    assert vct.serialize() == wormhole.serialize()
    assert vct.per_link_utilization == wormhole.per_link_utilization
    assert wormhole.delivered > 100


INVARIANT_FAMILIES = {
    topo.MESH: st.builds(topo.mesh, st.integers(2, 4), st.integers(2, 4)),
    topo.TORUS: st.builds(topo.torus, st.integers(3, 4), st.integers(3, 4)),
    topo.CIRCULANT: st.builds(
        lambda n, s: topo.circulant(n, (1, s)), st.integers(6, 9), st.integers(2, 3)
    ),
}


@st.composite
def flow_control_configs(draw, kind, switching):
    """Small runs of every algorithm on one family under one switching
    mode, with buffers that just hold a packet, hold more, or (wormhole)
    hold less, 1-2 VCs, faults that fail and heal, and the radio."""
    t = draw(INVARIANT_FAMILIES[kind])
    algorithm = draw(st.sampled_from(sorted(
        name for name, a in routing.ALGORITHMS.items()
        if a.kinds is None or kind in a.kinds
    )))
    length = draw(st.sampled_from((3, 4)))
    depths = (length, length + 2) + ((2,) if switching == fabric.WORMHOLE else ())
    elements = st.one_of(
        st.builds(lambda u: ("node", u), st.integers(0, t.node_count - 1)),
        st.sampled_from([("link", u, v) for u, v in t.undirected_edges()]),
    )
    events = draw(st.lists(
        st.tuples(elements, st.integers(0, 150), st.integers(1, 100)), max_size=2,
    ))
    radio = draw(st.booleans())
    return engine.SimConfig(
        topology=t,
        algorithm=algorithm,
        traffic=workload.TrafficSpec(
            injection_rate=draw(st.sampled_from((0.1, 0.3, 0.6))),
            packet_length=length,
            seed=draw(st.integers(0, 50)),
        ),
        switching=switching,
        buffer_depth=draw(st.sampled_from(depths)),
        vc_count=draw(st.sampled_from((1, 2))),
        fault_schedule=workload.FaultSchedule(tuple(
            workload.FaultEvent(e, down, down + span) for e, down, span in events
        )),
        wireless=engine.WirelessConfig(
            enabled=radio, hubs=(0, t.node_count - 1) if radio else (),
            distance_threshold=2,
        ),
        warmup_cycles=20,
        measure_cycles=300,
        drain_cycles=100,
        strict=False,
    )


@pytest.mark.parametrize("switching", fabric.SWITCHING_POLICIES)
@pytest.mark.parametrize("kind", sorted(INVARIANT_FAMILIES))
@given(data=st.data())
@settings(max_examples=8, deadline=None, derandomize=True)
def test_a_head_only_ever_meets_an_empty_unbound_vc(kind, switching, data):
    """``fabric.flow_control_accept`` is one rule for every switching mode
    because of two facts, checked here on every call: an unbound VC is
    empty, and a head never meets its own packet's binding. So a head that
    is let in finds ``depth`` free slots, and under SAF and VCT, which
    require depth >= packet length, the whole packet fits. A VC model that
    lets a head in behind another packet must fail this and bring a room
    check back."""
    config = data.draw(flow_control_configs(kind, switching))
    accept = fabric.flow_control_accept
    calls = []

    def checked(vc, flit):
        if vc.bound is None:
            assert not vc.queue
        if flit.is_head:
            assert vc.bound is not flit.packet
        accepted = accept(vc, flit)
        if accepted and flit.is_head and switching != fabric.WORMHOLE:
            assert vc.depth - len(vc.queue) >= flit.packet.length
        calls.append(accepted)
        return accepted

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(fabric, "flow_control_accept", checked)
        try:
            engine.run(config)
        except DeadlockDetected:
            pass  # the calls up to the stall still count
    assert any(calls)


# -- faults ------------------------------------------------------------------

def test_permanent_fault_drops_and_reroutes():
    t = topo.mesh(6, 6)
    sched = workload.FaultSchedule(
        (workload.FaultEvent(("node", 14), 300, workload.INFINITY),)
    )
    cfg = loaded_config(algorithm="greedy_fallback", fault_schedule=sched)
    report = engine.run(cfg)
    assert report.injected > 0
    assert report.delivered + report.dropped == report.injected
    assert report.residual == 0


def test_transient_fault_heals():
    t = topo.mesh(4, 4)
    sched = workload.FaultSchedule(
        (workload.FaultEvent(("link", 5, 6), 0, 100),)
    )
    # packet preloaded after the link heals crosses it normally
    cfg = quiet_config(
        t, fault_schedule=sched, preloaded=((150, 5, 6),),
        measure_cycles=400,
    )
    report = engine.run(cfg)
    assert report.delivered == 1 and report.dropped == 0


def test_preload_at_a_failed_source_is_injected_and_dropped():
    """A packet preloaded at a node that is down is dropped at once, as a
    node fault drops what the node holds; it is not kept until the heal."""
    t = topo.mesh(4, 4)
    sched = workload.FaultSchedule((workload.FaultEvent(("node", 5), 0, 100),))
    report = engine.run(quiet_config(t, fault_schedule=sched, preloaded=((10, 5, 15),)))
    assert (report.injected, report.delivered, report.dropped, report.residual) == (
        1, 0, 1, 0)


@pytest.mark.parametrize("fail_at,delivered", [(2, 0), (5, 0), (6, 1), (9, 1)])
def test_a_failing_link_drops_only_a_packet_still_crossing_it(fail_at, delivered):
    """SAF, 4 flits, 0 -> 3 on a line: the flits cross link 0 -> 1 at
    cycles 1-4 and arrive at 2-5, and the head leaves node 1 at 6 with the
    tail last in its VC until 9. The link failing while a flit is on it or
    before the tail has arrived drops the packet; once the tail is in node
    1's VC, the packet no longer needs the link."""
    t = topo.mesh(4, 1)
    report = engine.run(quiet_config(
        t, switching=fabric.SAF, preloaded=((0, 0, 3),),
        fault_schedule=workload.parse_fault_schedule(f"link 0 1 {fail_at} inf\n", t),
        measure_cycles=50, drain_cycles=50,
    ))
    assert (report.delivered, report.dropped) == (delivered, 1 - delivered)
    assert report.residual == 0


@pytest.mark.parametrize("algorithm", ["xy", "neighborhood"])
def test_source_routed_packet_dropped_when_route_dies(algorithm):
    """neighborhood fixes the route at injection; xy, routed hop by hop,
    ignores faults and so steps onto the same dead link."""
    t = topo.mesh(4, 1)
    sched = workload.FaultSchedule(
        (workload.FaultEvent(("link", 1, 2), 4, workload.INFINITY),)
    )
    # the only path 0..3 crosses the link that dies while the packet travels
    cfg = quiet_config(
        t, algorithm, fault_schedule=sched, preloaded=((0, 0, 3),),
        traffic=workload.TrafficSpec(injection_rate=0.0, packet_length=8),
        buffer_depth=2,
    )
    report = engine.run(cfg)
    assert report.dropped == 1 and report.delivered == 0
    assert report.residual == 0


# -- wireless overlay --------------------------------------------------------

def wireless_config(enabled):
    t = topo.mesh(8, 8)
    return quiet_config(
        t,
        algorithm="xy",
        traffic=workload.TrafficSpec(
            pattern=workload.PERMUTATION,
            permutation=tuple(
                workload.complement_destination(t, u) for u in range(64)
            ),
            injection_rate=0.02,
            packet_length=4,
            seed=3,
        ),
        wireless=engine.WirelessConfig(
            enabled=enabled, hubs=(18, 21, 42, 45), distance_threshold=6,
        ),
        warmup_cycles=100,
        measure_cycles=1500,
        drain_cycles=600,
    )


def test_wireless_carries_long_trips():
    report = engine.run(wireless_config(True))
    assert report.delivered == report.injected
    assert report.residual == 0
    assert report.wireless_share > 0.3


def test_wired_only_has_zero_wireless_share():
    report = engine.run(wireless_config(False))
    assert report.wireless_share == 0.0


# -- saturation measurement --------------------------------------------------

def test_measure_saturation_grid_validation():
    cfg = loaded_config()
    with pytest.raises(ConfigError):
        engine.measure_saturation(cfg, [])
    with pytest.raises(ConfigError):
        engine.measure_saturation(cfg, [0.1, 0.05])
    with pytest.raises(ConfigError):
        engine.measure_saturation(cfg, [0.05, 0.1])  # first rate too high


def test_measure_saturation_reports_a_grid_that_never_saturates():
    """No rate passes 3x the zero-load latency: the last rate, unsaturated."""
    cfg = quiet_config(
        topo.mesh(4, 4),
        traffic=workload.TrafficSpec(injection_rate=0.01, packet_length=4, seed=1),
        warmup_cycles=200,
        measure_cycles=1200,
        drain_cycles=0,
    )
    result = engine.measure_saturation(cfg, [0.005, 0.01, 0.02])
    assert not result.saturated
    assert result.rate == 0.02
    assert [rate for rate, _ in result.latencies] == [0.005, 0.01, 0.02]


def test_measure_saturation_finds_knee():
    cfg = quiet_config(
        topo.mesh(4, 4),
        algorithm="xy",
        traffic=workload.TrafficSpec(injection_rate=0.01, packet_length=4, seed=1),
        warmup_cycles=200,
        measure_cycles=1200,
        drain_cycles=0,
        strict=False,
    )
    result = engine.measure_saturation(cfg, [0.005, 0.3, 0.8])
    assert result.saturated
    assert result.rate in (0.3, 0.8)
    assert result.zero_load_latency > 0
    assert result.latencies[0][0] == 0.005


def test_run_memory_follows_the_flits_in_flight_past_saturation():
    """Torus 4x4, VCT, offered 0.9: far past saturation, so every source
    builds a backlog. After every cycle, a local queue holds the flits of
    at most one packet, a VC at most ``buffer_depth`` flits, and
    ``make_flits`` has run at most once per packet and never for one still
    waiting. The report was recorded before sources kept their backlog as
    packets."""
    cfg = quiet_config(
        topo.torus(4, 4), switching=fabric.VCT,
        traffic=workload.TrafficSpec(injection_rate=0.9, packet_length=4, seed=5),
        warmup_cycles=100, measure_cycles=400, drain_cycles=200,
    )
    sim = engine.Simulation(cfg)
    make_flits = fabric.make_flits
    made = set()
    most_waiting = [0]

    def counted_make_flits(packet):
        assert packet not in made
        made.add(packet)
        return make_flits(packet)

    def checked_send_phase(now, send_phase=sim._send_phase):
        progress = send_phase(now)
        waiting = set()
        for r in sim.routers:
            assert len({f.packet for f in r.local.queue}) <= 1, now
            assert all(len(vc.queue) <= cfg.buffer_depth for vc in r.slots[:-1])
            waiting.update(p for p, _, _ in r.local.waiting)
        assert not waiting & made, now
        most_waiting[0] = max(most_waiting[0], len(waiting))
        return progress

    sim._send_phase = checked_send_phase
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(fabric, "make_flits", counted_make_flits)
        report = sim.run()
    assert report.serialize() == (
        "delivered=1669\ndropped=0\navg_latency=132.473282\n"
        "p99_latency=309.640000\nthroughput=0.618125\nwireless_share=0.000000\n"
        "livelock=0\ndeadlock=0\n"
    )
    assert (report.injected, report.residual) == (1788, 476)
    assert most_waiting[0] > 100
    assert len(made) < report.injected  # the backlog left at the end has no flits


# -- deadlock detection ------------------------------------------------------

def test_greedy_saf_routing_deadlock_detected():
    """Greedy routing has a cyclic channel dependency (no escape VCs); with
    store-and-forward's long buffer holds it deadlocks under load, and the
    no-progress detector reports it instead of hanging."""
    from nocsim.errors import DeadlockDetected
    cfg = loaded_config(algorithm="greedy", switching=fabric.SAF)
    with pytest.raises(DeadlockDetected) as caught:
        engine.run(cfg)
    # pinned while the check still walked the routers for live flits: the
    # packet count it reads now must fire at the same cycle
    assert str(caught.value) == "no flit movement for 100 cycles at cycle 799"


# -- active router set and idle cycles ---------------------------------------

def faulted_wireless_config(drain_cycles, packet_length=4, **kw):
    """Greedy with fallback on a 6x6 mesh with three radio hubs and faults
    that fail and heal, two of them inside the drain window."""
    t = topo.mesh(6, 6)
    return quiet_config(
        t,
        algorithm="greedy_fallback",
        traffic=workload.TrafficSpec(
            injection_rate=0.05, packet_length=packet_length, seed=3
        ),
        fault_schedule=workload.parse_fault_schedule(
            "link 14 15 0 inf\nlink 7 8 100 300\nnode 20 150 260\n"
            "link 2 3 700 900\nnode 33 1100 inf\n", t),
        wireless=engine.WirelessConfig(
            enabled=True, hubs=(7, 28, 22), distance_threshold=4,
        ),
        warmup_cycles=50,
        measure_cycles=250,
        drain_cycles=drain_cycles,
        **kw,
    )


def occupied_routers(sim):
    """Full walk: routers with a queued flit or an input VC bound to a packet."""
    return {u for u, r in enumerate(sim.routers) if occupied_slots(r)}


# ten packets queued at node 20 at cycle 140: at its failure (150-260 in
# faulted_wireless_config) one is at the head of the local queue as flits
# and the rest wait behind it as packets; two queued at the heal wait
# behind the dropped ones
BACKLOG_PRELOADS = tuple(
    (140, 20, dst) for dst in (0, 5, 30, 35, 2, 17, 33, 11, 26, 8)
) + ((260, 20, 3), (260, 20, 27))

ACTIVE_SET_CASES = {
    # long packets in shallow buffers: faults drop worms mid-transfer and
    # leave VCs bound to dropped packets, on alive and on failed routers
    "faulted_wireless_fallback": lambda: faulted_wireless_config(
        drain_cycles=300, packet_length=8, buffer_depth=2,
    ),
    # a source with a backlog fails, dropping its waiting packets, and heals
    "backlog_at_a_failing_source": lambda: faulted_wireless_config(
        drain_cycles=300, packet_length=8, buffer_depth=2,
        preloaded=BACKLOG_PRELOADS,
    ),
    # two VCs interleave on a link, so a VC bound to a live worm empties
    "saturated_torus_two_vcs": lambda: quiet_config(
        topo.torus(4, 4),
        traffic=workload.TrafficSpec(injection_rate=0.3, packet_length=4, seed=3),
        warmup_cycles=50, measure_cycles=250, drain_cycles=300,
    ),
}


def occupied_slots(router):
    """Full walk: the router's slots with a queued flit or a bound VC, in
    slot order."""
    return [s for s in router.slots if s.queue or s.bound is not None]


@pytest.mark.parametrize("case", sorted(ACTIVE_SET_CASES))
def test_active_set_matches_a_full_walk_after_every_cycle(case):
    """After every stepped cycle, ``occupied`` is exactly the slots a full
    walk of every router finds holding a flit or a bound VC, in (node,
    index) order, which their ranks follow."""
    sim = engine.Simulation(ACTIVE_SET_CASES[case]())
    send_phase = sim._send_phase
    seen = {"busy": 0, "bound_only": 0}

    def checked_send_phase(now):
        seen["bound_only"] += sum(
            sim.view.has_node(u)
            and not any(s.queue for s in sim.routers[u].slots)
            for u in occupied_routers(sim)
        )
        progress = send_phase(now)
        # failed routers too: one holding dropped leftovers stays in the list
        walk = [s for router in sim.routers for s in occupied_slots(router)]
        assert sim.occupied == walk, now
        # the ranks the list is kept by follow that order
        assert all(a.rank < b.rank for a, b in zip(walk, walk[1:])), now
        seen["busy"] += bool(walk)
        return progress

    sim._send_phase = checked_send_phase
    report = sim.run()
    assert report.delivered > 0 and report.residual == 0
    assert seen["busy"] > 100
    assert seen["bound_only"] > 0  # alive routers held only by a bound VC


SLOT_IDENTITY_CASES = {
    "mesh_4x3": lambda: quiet_config(topo.mesh(4, 3)),
    "torus_4x4_two_vcs": lambda: quiet_config(topo.torus(4, 4), vc_count=2),
    "circulant_12_1_5": lambda: quiet_config(topo.circulant(12, (1, 5)), "neighborhood"),
    "flattened_butterfly_3x3": lambda: quiet_config(
        topo.flattened_butterfly(3, 3), "neighborhood"),
    "edge_list": lambda: quiet_config(topo.from_edge_list_text(
        "nodes 6\n2 0\n0 1\n1 2\n3 2\n3 5\n4 3\n5 4\n"), "neighborhood"),
}


@pytest.mark.parametrize("case", sorted(SLOT_IDENTITY_CASES))
def test_every_slot_knows_its_node_rank_upstream_node_and_vc(case):
    """The slot at the far end of (u, port p, VC vc) belongs to u's p-th
    neighbour v and arrives from u on vc; each slot's index is its place in
    its router's ``slots``, and the local queue, last, has no upstream."""
    sim = engine.Simulation(SLOT_IDENTITY_CASES[case]())
    assert sim.vc_count == (2 if case.startswith("torus") else 1)
    for u in range(sim.n):
        for p, v in enumerate(sim.topo.neighbors(u)):
            down = sim.down_slot[u][p]
            assert len(down) == sim.vc_count
            for vc, slot in enumerate(down):
                assert any(s is slot for s in sim.routers[v].slots), (u, p, vc)
                assert (slot.node, slot.came_from, slot.in_vc) == (v, u, vc)
    for v, router in enumerate(sim.routers):
        assert [s.index for s in router.slots] == list(range(len(router.slots)))
        assert all(s.node == v for s in router.slots)
        local = router.slots[-1]
        assert local is router.local and local.came_from is None and local.in_vc is None
        assert len(router.slots) == sim.topo.degree(v) * sim.vc_count + 1


# node 0's slots: the inputs from nodes 1-4 (ranks 0-3), then its local
# queue (rank 4); port 3 leads to node 4
STAR = topo.Topology([(1, 2, 3, 4), (0,), (0,), (0,), (0,)])
STAR_RANK = {1: 0, 2: 1, 3: 2, 4: 3, 0: 4}


@pytest.mark.parametrize("sources", [(3,), (0,), (1, 3), (2, 0), (1, 2, 3), (1, 3, 0)])
@pytest.mark.parametrize("rr0", range(5))
def test_round_robin_serves_contenders_in_rank_order_past_the_pointer(sources, rr0):
    """One-flit packets from ``sources`` to node 4 of a star are all ready
    at its centre, node 0, in cycle 3 (a leaf's packet arrives at 2, one
    queued at node 0 itself is injected at 2), and all want port 3. With
    ``rr[3]`` at ``rr0``, node 0 sends one a cycle, in order of rank
    ``(slot - rr0) % 5``, and each send, a lone candidate's included, sets
    the pointer just past the sender's slot."""
    sim = engine.Simulation(quiet_config(
        STAR, algorithm="neighborhood",
        traffic=workload.TrafficSpec(injection_rate=0.0, packet_length=1),
        preloaded=tuple((2 if src == 0 else 0, src, 4) for src in sources),
    ))
    rr = sim.routers[0].rr
    rr[3] = rr0
    send_phase = sim._send_phase
    served = []

    def observed_send_phase(now):
        progress = send_phase(now)
        sent = [f.packet.src for slot, f in sim.pending if slot.came_from == 0]
        if sent:
            served.append((now, sent, rr[3]))
        return progress

    sim._send_phase = observed_send_phase
    report = sim.run()
    assert report.delivered == len(sources)
    order = sorted(sources, key=lambda src: (STAR_RANK[src] - rr0) % 5)
    assert served == [
        (3 + k, [src], (STAR_RANK[src] + 1) % 5) for k, src in enumerate(order)
    ]


HUB_SOURCE_PRELOADS = tuple(
    (cycle, hub, dst) for cycle in range(60, 300, 20)
    for hub, dst in ((7, 35), (28, 0), (22, 5))
)

# the neighbours of radio hubs 7 and 28 fail in turn, 12 cycles each
HUB_NEIGHBOR_FAULTS = "".join(
    f"node {n} {c} {c + 12}\n"
    for c, n in zip(range(60, 560, 15), itertools.cycle((8, 27, 13, 29)))
)


def first_leg_drops_config():
    """Four reservations per hub and faults beside the hubs: packets on
    their way to an entry hub are dropped (11 in this run)."""
    t = topo.mesh(6, 6)
    return quiet_config(
        t,
        algorithm="greedy_fallback",
        traffic=workload.TrafficSpec(injection_rate=0.1, packet_length=4, seed=2),
        fault_schedule=workload.parse_fault_schedule(HUB_NEIGHBOR_FAULTS, t),
        wireless=engine.WirelessConfig(
            enabled=True, hubs=(7, 28, 22), distance_threshold=4, queue_cap=4,
        ),
        warmup_cycles=50, measure_cycles=500, drain_cycles=300,
    )


CONSERVATION_CASES = {
    # worms dropped mid-transfer on the way to an entry hub and after it
    "faulted_wireless_fallback": ACTIVE_SET_CASES["faulted_wireless_fallback"],
    "first_leg_drops": first_leg_drops_config,
    "backlog_at_a_failing_source": ACTIVE_SET_CASES["backlog_at_a_failing_source"],
    # packets whose source is their own entry hub go straight to the radio
    "hub_sources": lambda: faulted_wireless_config(
        drain_cycles=300, preloaded=HUB_SOURCE_PRELOADS,
    ),
}


@pytest.mark.parametrize("case", sorted(CONSERVATION_CASES))
def test_flits_are_conserved_after_every_cycle(case):
    """Every packet injected and neither delivered nor dropped has all its
    flits somewhere in the network (a buffer, a source's backlog, a link,
    the radio, or consumed ahead of its tail at a wired target) at the end
    of every stepped cycle, not only at the end. A failed router holds only
    dropped packets: a fault change drops everything in a node that fails.
    Each hub's reservations are the live packets bound for it on their
    first leg. No flits are made for a packet already dropped."""
    sim = engine.Simulation(CONSERVATION_CASES[case]())
    send_phase = sim._send_phase
    enqueue = sim.wireless.enqueue
    release = sim.wireless.release
    make_flits = fabric.make_flits
    stepped, queued_at_source, made, first_leg_drops = [], [], [], []

    def checked_make_flits(packet):
        made.append(packet.dropped)
        return make_flits(packet)

    def audited_send_phase(now):
        progress = send_phase(now)
        sim._check_conservation()
        for u in sim.view.failed_nodes:
            assert all(p.dropped for p, _ in sim.routers[u].holdings()), (now, u)
        live = {p for r in sim.routers for p, _ in r.holdings()}
        live.update(f.packet for *_, f in sim.pending)
        live.update(sim.eject_progress)
        live.update(sim.wireless.packets())
        first_legs = Counter(
            p.dst for p in live if not p.dropped and p.dst != p.final_dst)
        assert sim.wireless.reserved == {
            h: first_legs[h] for h in sim.wireless.hubs}, now
        stepped.append(now)
        return progress

    def recorded_enqueue(hub, packet):
        queued_at_source.append(hub == packet.src)
        enqueue(hub, packet)

    def recorded_release(packet):
        if packet.dropped and packet.dst != packet.final_dst:
            first_leg_drops.append(packet)
        release(packet)

    sim._send_phase = audited_send_phase
    sim.wireless.enqueue = recorded_enqueue
    sim.wireless.release = recorded_release
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(fabric, "make_flits", checked_make_flits)
        report = sim.run()
    assert report.residual == 0 and report.dropped > 0 and report.wireless_share > 0
    assert len(stepped) > 200
    assert made and not any(made)  # no flits for a dropped packet
    assert any(queued_at_source) and not all(queued_at_source)
    if case == "first_leg_drops":
        assert len(first_leg_drops) == 11


def test_radio_adds_one_hop_to_the_reinjected_flits():
    """0 -> 63 on an 8x8 mesh through hubs 9 and 54: the tail brings the
    first leg's 2 hops to the entry hub, and every flit of the second leg
    starts at 3 (the radio hop) and reaches the destination at 5."""
    sim = engine.Simulation(quiet_config(
        topo.mesh(8, 8), preloaded=((0, 0, 63),),
        wireless=engine.WirelessConfig(enabled=True, hubs=(9, 54), distance_threshold=4),
    ))
    consume = sim._consume
    seen = []

    def recorded_consume(node, flit, now):
        seen.append((node, flit.hop_count))
        consume(node, flit, now)

    sim._consume = recorded_consume
    report = sim.run()
    assert report.delivered == 1 and report.wireless_share == 1.0
    assert seen == [(9, 2)] * 4 + [(63, 5)] * 4


def test_idle_drain_jumps_and_keeps_the_report():
    """The drain empties early; the run jumps over its idle cycles, stopping
    at the fault changes inside it. Report bytes and the final MAC token
    were pinned before the jump existed, when every cycle was stepped."""
    sim = engine.Simulation(faulted_wireless_config(drain_cycles=1000))
    send_phase = sim._send_phase
    stepped = []

    def counted_send_phase(now):
        stepped.append(now)
        return send_phase(now)

    sim._send_phase = counted_send_phase
    report = sim.run()
    assert report.serialize() == (
        "delivered=126\ndropped=1\navg_latency=12.759615\n"
        "p99_latency=27.940000\nthroughput=0.047556\nwireless_share=0.214286\n"
        "livelock=0\ndeadlock=0\n"
    )
    assert report.residual == 0
    assert sim.wireless.token == 1  # one pass per skipped idle cycle
    assert len(stepped) < 1300 // 2
    assert {700, 900, 1100} <= set(stepped)  # fault changes in the drain


def stepped_cycles(sim):
    """Run ``sim``; returns its report and the cycles it stepped."""
    send_phase = sim._send_phase
    stepped = []

    def counted_send_phase(now):
        stepped.append(now)
        return send_phase(now)

    sim._send_phase = counted_send_phase
    return sim.run(), stepped


def test_a_router_failing_with_flits_does_not_hold_up_the_idle_jump():
    """Node 4 fails at cycle 110, the start of the drain, holding a flit of
    the 8-flit worm 0 -> 35 and a VC bound to it, and heals at 600. The
    worm is dropped, so no packet is in flight, and the run jumps over the
    idle cycles up to the heal, though the failed router keeps its dropped
    leftovers, and so its slots' place in ``occupied``, until then. Report
    bytes were pinned when every cycle up to the heal was stepped."""
    t = topo.mesh(6, 6)
    sim = engine.Simulation(quiet_config(
        t,
        traffic=workload.TrafficSpec(injection_rate=0.0, packet_length=8),
        buffer_depth=2,
        preloaded=((10, 0, 35), (15, 30, 5), (100, 0, 35)),
        fault_schedule=workload.parse_fault_schedule("node 4 110 600\n", t),
        warmup_cycles=10, measure_cycles=100, drain_cycles=900,
    ))
    apply_faults = sim._apply_faults
    held_at_failure = []

    def recorded_apply_faults(now):
        if now == 110:
            held_at_failure.extend(p.pid for p, _ in sim.routers[4].holdings())
        if now == 600:
            held_at_failure.append(any(s.node == 4 for s in sim.occupied))
        return apply_faults(now)

    sim._apply_faults = recorded_apply_faults
    report, stepped = stepped_cycles(sim)
    assert report.serialize() == (
        "delivered=2\ndropped=1\navg_latency=30.000000\n"
        "p99_latency=30.000000\nthroughput=0.004444\nwireless_share=0.000000\n"
        "livelock=0\ndeadlock=0\n"
    )
    assert report.injected == 3 and report.residual == 0
    assert held_at_failure == [2, True]
    assert {110, 600} <= set(stepped)
    assert sum(110 < c < 600 for c in stepped) < 10  # the idle jump fired


def line_worm(faults, buffer_depth):
    """One 8-flit packet 0 -> 3 on the line 0-1-2-3 (xy, wormhole), with
    the fault schedule ``faults``."""
    t = topo.mesh(4, 1)
    return engine.Simulation(quiet_config(
        t,
        traffic=workload.TrafficSpec(injection_rate=0.0, packet_length=8),
        buffer_depth=buffer_depth,
        preloaded=((0, 0, 3),),
        fault_schedule=workload.parse_fault_schedule(faults, t),
    ))


LINE_WORM_DROPPED = (
    "delivered=0\ndropped=1\navg_latency=0.000000\np99_latency=0.000000\n"
    "throughput=0.000000\nwireless_share=0.000000\nlivelock=0\ndeadlock=0\n"
)


@pytest.mark.parametrize("cycle", [4, 7, 10, 13, 16, 19])
def test_a_cut_link_drops_a_worm_whose_vc_is_momentarily_empty(cycle):
    """With one-flit buffers, link 0-1 fails at a cycle when node 1's VC is
    bound to the worm but holds none of its flits: the fault change drops
    the worm there, not a later recheck of its route upstream."""
    sim = line_worm(f"link 0 1 {cycle} inf\n", buffer_depth=1)
    apply_faults = sim._apply_faults
    seen = []

    def recorded_apply_faults(now):
        vc = sim.down_slot[0][sim.topo.port_of[0][1]][0]
        bound_empty = vc.bound is not None and not vc.queue
        progress = apply_faults(now)
        # applied again, the change cuts only a dropped packet: no progress
        seen.append((now, bound_empty, progress, apply_faults(now), sim.dropped_packets))
        return progress

    sim._apply_faults = recorded_apply_faults
    report = sim.run()
    assert seen == [(cycle, True, True, False, 1)]
    assert report.serialize() == LINE_WORM_DROPPED


def test_the_idle_jump_waits_for_no_packet_in_flight_not_for_empty_links():
    """Link 2-3 fails at cycle 4, as the worm's head reaches node 2,
    which finds no route and drops the packet after nodes 0 and 1 have each
    sent one of its flits that cycle. With nothing in flight, the run jumps
    to the end at once, without stepping cycle 5 to pop the two flits on
    links 0-1 and 1-2. Report bytes were pinned when cycle 5 was stepped."""
    report, stepped = stepped_cycles(line_worm("link 2 3 4 inf\n", buffer_depth=2))
    assert stepped == [0, 1, 2, 3, 4]
    assert report.serialize() == LINE_WORM_DROPPED
    assert report.residual == 0


def test_injection_window_jumps_at_rate_zero():
    """Rate 0: only preloaded packets, with faults that change inside the
    injection window, one of them failing a preloaded packet's destination.
    Report bytes and the final MAC token were pinned when every cycle of
    the window was stepped."""
    t = topo.mesh(6, 6)
    preloaded = ((3, 0, 35), (40, 5, 30), (40, 12, 17), (450, 1, 34), (451, 21, 14),
                 (460, 3, 20), (1200, 35, 0), (1650, 6, 29))
    sim = engine.Simulation(quiet_config(
        t,
        algorithm="neighborhood",
        traffic=workload.TrafficSpec(injection_rate=0.0, packet_length=4, seed=5),
        preloaded=preloaded,
        fault_schedule=workload.parse_fault_schedule(
            "link 14 15 200 900\nnode 20 440 1300\nnode 8 1600 inf\n", t),
        wireless=engine.WirelessConfig(enabled=True, hubs=(7, 28, 22), distance_threshold=4),
        warmup_cycles=100, measure_cycles=1800, drain_cycles=300,
    ))
    report, stepped = stepped_cycles(sim)
    assert report.serialize() == (
        "delivered=7\ndropped=1\navg_latency=14.750000\n"
        "p99_latency=17.910000\nthroughput=0.000247\nwireless_share=0.857143\n"
        "livelock=0\ndeadlock=0\n"
    )
    assert report.injected == 8 and report.residual == 0
    assert sim.wireless.token == 1
    assert len(stepped) < 2200 // 10
    assert {200, 440, 900, 1300, 1600} <= set(stepped)  # fault changes
    assert {c for c, _, _ in preloaded} <= set(stepped)


def test_injection_window_jumps_at_light_load():
    """Mesh 8x8 at rate 0.002 with radio hubs and a link and a node fault
    that both heal: the run steps only the cycles with a hit, a fault change
    or a flit in the network. Pinned as above."""
    t = topo.mesh(8, 8)
    cfg = quiet_config(
        t,
        algorithm="greedy_fallback",
        traffic=workload.TrafficSpec(injection_rate=0.002, packet_length=4, seed=11),
        fault_schedule=workload.parse_fault_schedule(
            "link 27 28 300 1700\nnode 36 2100 2900\n", t),
        wireless=engine.WirelessConfig(
            enabled=True, hubs=(18, 21, 42, 45), distance_threshold=6,
        ),
        warmup_cycles=400, measure_cycles=3200, drain_cycles=400,
    )
    sim = engine.Simulation(cfg)
    report, stepped = stepped_cycles(sim)
    assert report.serialize() == (
        "delivered=111\ndropped=0\navg_latency=14.291667\n"
        "p99_latency=27.100000\nthroughput=0.001855\nwireless_share=0.405405\n"
        "livelock=0\ndeadlock=0\n"
    )
    assert report.injected == 111 and report.residual == 0
    assert sim.wireless.token == 1
    assert len(stepped) < 4000 // 2
    assert {300, 1700, 2100, 2900} <= set(stepped)
    # every cycle at which some node's draw 0 hits is stepped
    prob = cfg.traffic.injection_rate / cfg.traffic.packet_length
    hit_cycles = {
        c for c in range(3600) for u in range(64)
        if workload.stream_float(11, u, c) < prob
    }
    assert hit_cycles <= set(stepped)


ROUTE_TABLE_TOPOLOGIES = (
    topo.mesh(4, 4), topo.mesh(5, 3), topo.torus(4, 4), topo.torus(5, 4),
    topo.circulant(12, (1, 5)),
)


@st.composite
def faulted_views(draw):
    """(topology, schedule, cycle): random node and link faults with
    random intervals, looked at one cycle."""
    t = draw(st.sampled_from(ROUTE_TABLE_TOPOLOGIES))
    elements = st.one_of(
        st.builds(lambda u: ("node", u), st.integers(0, t.node_count - 1)),
        st.sampled_from([("link", u, v) for u, v in t.undirected_edges()]),
    )
    events = draw(st.lists(
        st.tuples(elements, st.integers(0, 50), st.integers(1, 50)), max_size=6,
    ))
    schedule = workload.FaultSchedule(tuple(
        workload.FaultEvent(e, down, down + length) for e, down, length in events
    ))
    return t, schedule, draw(st.integers(0, 100))


def reverse_bfs(view, dst):
    """Hop distance of every node to dst, walking alive links backwards."""
    dist = [-1] * view.node_count
    if not view.has_node(dst):
        return dist
    dist[dst] = 0
    q = deque([dst])
    while q:
        v = q.popleft()
        for p in range(view.node_count):
            if dist[p] < 0 and view.has_node(p) and view.has_link(p, v):
                dist[p] = dist[v] + 1
                q.append(p)
    return dist


@given(faulted_views())
@settings(max_examples=40, deadline=None)
def test_route_tables_give_the_smallest_neighborhood_route(case):
    t, schedule, cycle = case
    sim = engine.Simulation(quiet_config(t, algorithm="neighborhood", fault_schedule=schedule))
    sim._apply_faults(cycle)
    view = sim.view
    for dst in range(t.node_count):
        # faults fail both directions, so distances from dst are distances to it
        assert view.bfs_distances(dst) == reverse_bfs(view, dst)
        for src in range(t.node_count):
            try:
                expected = min(routing.neighborhood_routes(view, src, dst))
            except Unreachable:
                expected = ()
            assert sim.ctx.first_route(src, dst) == expected


@pytest.mark.parametrize("t", [
    topo.mesh(1, 6), topo.mesh(6, 1), topo.mesh(5, 3),
    topo.torus(2, 3), topo.torus(3, 2), topo.torus(5, 4),
], ids=repr)
def test_diameter_from_one_bfs_is_the_all_pairs_maximum(t):
    """Meshes and tori take the diameter from one BFS; it is the largest
    distance over all pairs."""
    sim = engine.Simulation(quiet_config(t))
    assert sim.diameter == max(max(t.bfs_distances(u)) for u in range(t.node_count))


# the list lengths whose virtual index (n - 1) * 0.99 has fraction exactly 0.5
HALF_WAY = [n for n in range(1, 400) if ((n - 1) * 0.99) % 1 == 0.5]


@given(st.one_of(
    st.lists(st.integers(0, 10**6), min_size=1, max_size=2),
    st.lists(st.integers(0, 4), min_size=1, max_size=300),  # ties
    st.sampled_from(HALF_WAY).flatmap(
        lambda n: st.lists(st.integers(0, 10**4), min_size=n, max_size=n)),
    st.lists(st.integers(0, 10**9), min_size=1, max_size=2000),
))
@example([7])
@example([3, 9])
@example(list(range(51)))
@settings(max_examples=300, deadline=None, derandomize=True)
def test_latency_stats_equal_numpy_bit_for_bit(latencies):
    """The histogram the engine keeps gives numpy's figures over the
    expanded list of latencies."""
    x = np.asarray(latencies, dtype=float)
    assert engine.latency_stats(Counter(latencies)) == (
        float(np.mean(x)), float(np.percentile(x, 99)))


def test_latency_stats_cover_a_half_way_index_and_no_latencies():
    assert HALF_WAY[:2] == [51, 151]
    assert engine.latency_stats(Counter()) == (0.0, 0.0)
    # index 49.5 lies half way between 49 and 50
    assert engine.latency_stats(Counter(range(51))) == (25.0, 49.5)
