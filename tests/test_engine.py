"""Simulation engine: latency model, determinism, faults, and reports."""

import dataclasses

import pytest

from nocsim import engine, fabric, topology as topo, workload
from nocsim.errors import ConfigError


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


def test_config_rejects_bad_wireless():
    t = topo.mesh(4, 4)
    cfg = quiet_config(
        t, wireless=engine.WirelessConfig(enabled=True, hubs=(0,))
    )
    with pytest.raises(ConfigError):
        cfg.validate()
    cfg = quiet_config(
        t, wireless=engine.WirelessConfig(enabled=True, hubs=(0, 99))
    )
    with pytest.raises(ConfigError):
        cfg.validate()


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


@pytest.mark.parametrize("algorithm", engine.ALGORITHMS)
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


def test_source_routed_packet_dropped_when_route_dies():
    t = topo.mesh(4, 1)
    sched = workload.FaultSchedule(
        (workload.FaultEvent(("link", 1, 2), 4, workload.INFINITY),)
    )
    # the only path 0..3 crosses the link that dies while the packet travels
    cfg = quiet_config(
        t, fault_schedule=sched, preloaded=((0, 0, 3),),
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


# -- deadlock detection ------------------------------------------------------

def test_greedy_saf_routing_deadlock_detected():
    """Greedy routing has a cyclic channel dependency (no escape VCs); with
    store-and-forward's long buffer holds it deadlocks under load, and the
    no-progress detector reports it instead of hanging."""
    from nocsim.errors import DeadlockDetected
    cfg = loaded_config(algorithm="greedy", switching=fabric.SAF)
    with pytest.raises(DeadlockDetected):
        engine.run(cfg)


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
    return {
        u for u, r in enumerate(sim.routers)
        if r.local.queue
        or any(vc.queue or vc.bound is not None for vc in r.inputs.values())
    }


ACTIVE_SET_CASES = {
    # long packets in shallow buffers: faults drop worms mid-transfer and
    # leave VCs bound to dropped packets, on alive and on failed routers
    "faulted_wireless_fallback": lambda: faulted_wireless_config(
        drain_cycles=300, packet_length=8, buffer_depth=2,
    ),
    # two VCs interleave on a link, so a VC bound to a live worm empties
    "saturated_torus_two_vcs": lambda: quiet_config(
        topo.torus(4, 4),
        traffic=workload.TrafficSpec(injection_rate=0.3, packet_length=4, seed=3),
        warmup_cycles=50, measure_cycles=250, drain_cycles=300,
    ),
}


@pytest.mark.parametrize("case", sorted(ACTIVE_SET_CASES))
def test_active_set_matches_a_full_walk_after_every_cycle(case):
    sim = engine.Simulation(ACTIVE_SET_CASES[case]())
    send_phase = sim._send_phase
    seen = {"busy": 0, "bound_only": 0}

    def checked_send_phase(now):
        seen["bound_only"] += sum(
            sim.view.has_node(u)
            and not sim.routers[u].local.queue
            and not any(vc.queue for vc in sim.routers[u].inputs.values())
            for u in occupied_routers(sim)
        )
        progress = send_phase(now)
        occupied = occupied_routers(sim)
        assert sim.active == occupied, now
        seen["busy"] += bool(occupied)
        return progress

    sim._send_phase = checked_send_phase
    report = sim.run()
    assert report.delivered > 0 and report.residual == 0
    assert seen["busy"] > 100
    assert seen["bound_only"] > 0  # alive routers held only by a bound VC


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
