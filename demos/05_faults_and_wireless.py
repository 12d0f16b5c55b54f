"""Fault tolerance and the wireless hub overlay.

First: fail ten links on an 8x8 mesh (keeping it connected) and show that
greedy forwarding with route fallback still delivers every packet. Then:
overlay four radio hubs with a token-passing MAC and show that letting
long-haul packets hop hub-to-hub cuts average latency under a traffic
pattern dominated by corner-to-corner trips.
"""

import random

from nocsim import engine, topology as topo, workload


def connected_failed_links(t, count, seed):
    rng = random.Random(seed)
    failed = []
    for u, v in rng.sample(t.undirected_edges(), 4 * count):
        trial = failed + [(u, v)]
        both = trial + [(b, a) for a, b in trial]
        if topo.TopologyView(t, (), both).is_connected():
            failed = trial
        if len(failed) == count:
            break
    return failed


def main():
    t = topo.mesh(8, 8)
    failed = connected_failed_links(t, 10, seed=42)
    print(f"failed links: {failed}")
    schedule = workload.FaultSchedule(tuple(
        workload.FaultEvent(("link", u, v), 0, workload.INFINITY)
        for u, v in failed
    ))
    report = engine.run(engine.SimConfig(
        topology=t, algorithm="greedy_fallback",
        traffic=workload.TrafficSpec(injection_rate=0.05, packet_length=4, seed=7),
        fault_schedule=schedule, max_packets=2000,
        warmup_cycles=0, measure_cycles=4000, drain_cycles=1000,
    ))
    print(f"faulted mesh: delivered {report.delivered}/{report.injected}, "
          f"avg latency {report.avg_latency:.1f} cycles\n")

    big = topo.mesh(16, 16)
    traffic = workload.TrafficSpec(
        pattern=workload.PERMUTATION,
        permutation=tuple(
            workload.complement_destination(big, u) for u in range(256)
        ),
        injection_rate=0.02, packet_length=4, seed=0,
    )
    for enabled in (False, True):
        report = engine.run(engine.SimConfig(
            topology=big, algorithm="xy", traffic=traffic,
            wireless=engine.WirelessConfig(
                enabled=enabled, hubs=(68, 75, 180, 187), distance_threshold=8,
            ),
            warmup_cycles=200, measure_cycles=2000, drain_cycles=1500,
        ))
        label = "hybrid (4 hubs)" if enabled else "wired only"
        print(f"{label:<16} avg latency {report.avg_latency:6.2f}  "
              f"wireless share {report.wireless_share:.2f}")


if __name__ == "__main__":
    main()
