"""Deterministic cycle-by-cycle simulation loop.

Two-phase update: every router's send decisions for cycle t are taken
against the buffer/credit state at the start of t; dequeues and link
traversals are applied afterwards, so the order of the sends never
matters. Identical configs yield byte-identical reports.

A head is routed by its algorithm's one state transition, the flat
closure ``routing.relation`` makes of it, which ``check-deadlock``'s
dependency graph walks too; ``Packet.route`` is that state's route, from
the head's node on.

The cost of a cycle follows the number of occupied routers, not the size
of the network:

* Active set. ``Simulation.occupied`` lists every occupied input slot
  (``fabric.InputSlot``), failed routers included, in (node, slot index)
  order, which each slot's ``rank``, set once when the routers are built,
  numbers: those with a queued flit (in an input VC or the local queue) or
  an input VC still bound to a packet. Packets waiting at a source sit
  behind its local queue's head-of-line flits, so they never occupy a slot
  by themselves. A slot fills only when a head binds its VC (an arrival)
  or a packet enters its empty local queue (injection, radio
  re-injection), and empties only when a send or a discard
  (``fabric.InputSlot.head``) leaves it empty and unbound; the engine
  inserts and removes it at exactly those points, by a bisect on its rank,
  except that the slots a discard empties are filtered out after the walk.
  A bound VC with an empty queue stays occupied because its packet may
  have been dropped upstream: the visit that releases the binding changes
  what ``flow_control_accept`` upstream sees. A fault change drops
  everything a failed router holds, and the send phase skips the router,
  so its leftovers stay until it heals; its first visit then discards them
  and releases their bindings. The send phase walks the list in one loop,
  the order of a full scan, because looking at a slot may drop packets or
  discard flits (``fabric.InputSlot.head``, ``_decision_for``) and those
  side effects are seen by the slots visited after it.
* Injection draw. Draw 0 of every node is computed for a block of cycles
  at once by ``workload.draw0_block`` (about 4096 node-cycles, at least
  one cycle), whose wrapping uint64 arithmetic is bit-identical to
  ``workload.stream_u64``. The hits of a block wait in ``Simulation.hits``
  grouped by cycle, nodes in ascending order; ``workload.inject`` is
  called, in that order, only for the hit nodes of the current cycle, and
  it alone picks the destination.
* Per-flit work. A packet's flits are made only when it reaches the head
  of its source's local queue (``fabric.LocalQueue``), so the flits that
  exist are those in flight plus one packet per backlogged source, and
  each buffer is a short list. An input slot knows its node, its ranks,
  its upstream node and input VC (``fabric.InputSlot``), and the engine
  tabulates every (node, out_port, out_vc) with the input slot at its far
  end. A cached routing decision carries that slot, and a send appends
  (that slot, flit) to ``pending``, so an arrival is pushed, and its slot
  occupied, without a lookup. Only fabric pops a dropped packet's
  leftovers and releases a binding and its decision. A head's decision
  is one call to ``_decision_for``, which calls the relation's closure,
  which calls the algorithm's options (greedy's come from a per-view
  table, ``routing.RoutingContext``); the out port comes from the
  topology's own port map. Neither a send nor an arrival tests
  alive-ness, and no decision changes for it: every fault change builds a
  new view, and a decision, which carries the view it was made or
  rechecked over, is used only while that view is current, so its link is
  up and both ends are alive (a failed node takes its links down); and a
  fault change, applied before the arrivals of its cycle, drops every
  packet with a flit on a link or into a node that fails, and every worm
  cut off from its tail by a failed link. Only a failed router's own slots
  are skipped, by one set lookup in the view's failed nodes as the walk
  reaches the router. Flow control is one rule for every switching policy
  (``fabric.flow_control_accept``), and so is readiness, for the local
  queue too (``fabric.flit_ready``). Arbitration rides the walk, in which
  a router's slots are consecutive: each output port keeps the ready
  candidate of smallest round-robin rank ``(i - rr[port]) % n_slots``, in
  its place in the list of sends, and the pointers move past each winner
  only as it is sent, after the walk, so every rank reads them as they
  stood at the start of the cycle. The per-port map is built only once a
  second ready candidate shows up: a lone one wins its port with nothing
  to compare, and most visits to a lightly loaded router find exactly
  one. Sends keep router order, which sets the order of the radio queue
  at a hub that two tails reach in one cycle, then the order in which
  their ports first show up, not port order; that changes no report byte,
  since each winner of a router goes to a different neighbour and
  arrivals at different nodes commute (only which packet a strict
  livelock abort names could differ, were two flits of one router to pass
  the bound in the same cycle). A send carries its output port and bumps
  ``port_busy[u][out_port]`` during measurement; ``_report`` maps the
  counters back to (u, v) links.
* Idle cycles. The packet ledger (``_in_flight``), which the deadlock
  check and the conservation audit read too, decides. With no packet in
  flight, routers and links hold only dropped leftovers, popped whenever
  they are next looked at, and the radio, which holds only live packets,
  is empty. Such a network cannot change until the next fault change,
  preloaded packet or injection hit (hits are found by drawing blocks
  ahead, up to the end of the injection window). The loop jumps straight
  to the earliest of these, or to the end; one rule covers the injection
  window and the drain. An idle radio passes the token once per cycle, so
  the jump advances it by the skipped cycle count mod the number of hubs.

The radio's state, each node's hub and the admission rule with its
per-hub reservations included, lives in ``fabric.WirelessHubState`` alone.

numpy is imported only in ``Simulation.__init__`` (the uint64 hit
threshold, next to ``workload.draw0_keys``), not with this module, so the
analysis commands, which import it, never load numpy. Measured latencies
are kept as a histogram, and the report's mean and 99th percentile are
computed from it in plain Python (``latency_stats``), bit-identical to
numpy's over the expanded list, so a run never loads ``numpy.ma``, which
``np.percentile`` imports.
"""

from __future__ import annotations

import bisect
import itertools
import math
import operator
from collections import Counter, deque
from dataclasses import dataclass, field, replace

from . import fabric, routing, topology as topo, workload
from .addressing import (
    assign_hierarchical_addresses,
    assign_virtual_coordinates,
    default_anchors,
)
from .errors import ConfigError, DeadlockDetected, LivelockDetected

_rank = operator.attrgetter("rank")


@dataclass(frozen=True)
class WirelessConfig:
    enabled: bool = False
    hubs: tuple = ()
    distance_threshold: int = 8
    w_cycles: int = 4
    # one admitted packet per hub at a time: the single radio channel
    # saturates fast, and a deep queue only adds waiting on top
    queue_cap: int = 1


@dataclass(frozen=True)
class SimConfig:
    topology: "topo.Topology"
    algorithm: str
    traffic: workload.TrafficSpec
    switching: str = fabric.WORMHOLE
    buffer_depth: int = 4
    vc_count: int = None  # default: 2 on torus, 1 elsewhere
    pipeline: int = 1
    fault_schedule: workload.FaultSchedule = field(default_factory=workload.FaultSchedule)
    wireless: WirelessConfig = field(default_factory=WirelessConfig)
    warmup_cycles: int = 10_000
    measure_cycles: int = 50_000
    drain_cycles: int = 20_000
    anchor_count: int = 3
    center_count: int = 2
    strict: bool = True         # livelock violations abort the run
    max_packets: int = None     # stop injecting after this many packets
    preloaded: tuple = ()       # (cycle, src, dst) packets injected explicitly

    def resolved_vc_count(self):
        if self.vc_count is not None:
            return self.vc_count
        return 2 if self.topology.kind == topo.TORUS else 1

    def validate(self):
        algorithm = routing.lookup(self.algorithm, self.topology.kind)
        n = self.topology.node_count
        if algorithm.coordinates and not 1 <= self.anchor_count <= n:
            raise ConfigError(f"routing.anchors = {self.anchor_count} outside 1..{n}")
        if algorithm.centers and not 1 <= self.center_count <= n:
            raise ConfigError(f"routing.centers = {self.center_count} outside 1..{n}")
        if self.switching not in fabric.SWITCHING_POLICIES:
            raise ConfigError(f"unknown switching policy {self.switching!r}")
        if self.switching in (fabric.SAF, fabric.VCT):
            if self.buffer_depth < self.traffic.packet_length:
                raise ConfigError(
                    f"{self.switching} needs buffer_depth >= packet_length"
                )
        if self.warmup_cycles < 0 or self.measure_cycles <= 0 or self.drain_cycles < 0:
            raise ConfigError("cycle windows must be positive")
        if self.pipeline < 1 or self.buffer_depth < 1 or self.resolved_vc_count() < 1:
            raise ConfigError("fabric constants must be >= 1")
        w = self.wireless
        if w.enabled:
            if len(w.hubs) < 2 or len(set(w.hubs)) != len(w.hubs):
                raise ConfigError("wireless overlay needs at least 2 distinct hubs")
            for h in w.hubs:
                if not 0 <= h < self.topology.node_count:
                    raise ConfigError(f"hub {h} not in topology")
            if w.w_cycles < 1 or w.queue_cap < 1:
                raise ConfigError("wireless w_cycles and queue_cap must be >= 1")
        for event in self.fault_schedule.events:
            workload.check_fault_event(event, self.topology)
        inject_until = self.warmup_cycles + self.measure_cycles
        for entry in self.preloaded:
            cycle, src, dst = entry
            if src == dst or not (0 <= src < n and 0 <= dst < n):
                raise ConfigError(f"preloaded packet {entry} needs two distinct nodes")
            if not 0 <= cycle < inject_until:
                raise ConfigError(
                    f"preloaded packet {entry} lies outside the injection window "
                    f"[0, {inject_until})"
                )
        if self.max_packets is not None and self.max_packets < 0:
            raise ConfigError("max_packets must be >= 0")
        traffic, t = self.traffic, self.topology
        if traffic.injection_rate > 0 and n < 2:
            raise ConfigError("traffic needs at least 2 nodes")
        if traffic.pattern == workload.HOTSPOT and not 0 <= traffic.hotspot_node < n:
            raise ConfigError(f"hotspot node {traffic.hotspot_node} not in topology")
        if traffic.pattern == workload.PERMUTATION and (
            len(traffic.permutation) != n
            or not all(0 <= dst < n for dst in traffic.permutation)
        ):
            raise ConfigError(f"permutation table needs {n} destinations in 0..{n - 1}")
        if traffic.pattern == workload.TRANSPOSE and not (
            t.kind in (topo.MESH, topo.TORUS) and len(set(t.grid_shape())) == 1
        ):
            raise ConfigError("transpose traffic needs a square mesh or torus")


def routing_context(algorithm, view, vc_count,
                    anchor_count=SimConfig.anchor_count, center_count=SimConfig.center_count):
    """The ``routing.RoutingContext`` a run routes ``algorithm`` with, over
    ``view``: virtual coordinates or hierarchical addresses, when the
    algorithm reads them, are assigned once over the fault-free topology."""
    ctx = routing.RoutingContext(view, vc_count)
    t = ctx.topology
    if algorithm.coordinates:
        ctx.coordinates = assign_virtual_coordinates(t, default_anchors(t, anchor_count))
    if algorithm.centers:
        ctx.addresses = assign_hierarchical_addresses(t, default_anchors(t, center_count))
    return ctx


@dataclass(frozen=True)
class MetricsReport:
    delivered: int
    dropped: int
    injected: int
    residual: int
    avg_latency: float
    p99_latency: float
    throughput: float
    utilization: float
    per_link_utilization: dict
    wireless_share: float
    livelock: int
    deadlock: int

    SERIAL_KEYS = (
        "delivered", "dropped", "avg_latency", "p99_latency",
        "throughput", "wireless_share", "livelock", "deadlock",
    )

    def serialize(self):
        """Flat key=value text block with a fixed key order."""
        return "".join(
            f"{key}={format_value(getattr(self, key))}\n" for key in self.SERIAL_KEYS
        )


def format_value(value):
    """A report value as the run report and the sweep CSVs print it."""
    return f"{value:.6f}" if isinstance(value, float) else str(value)


@dataclass(frozen=True)
class SaturationResult:
    rate: float
    saturated: bool
    zero_load_latency: float
    latencies: tuple  # (rate, avg_latency) pairs actually measured


class Simulation:
    """One deterministic, single-threaded simulation instance."""

    def __init__(self, config):
        config.validate()
        self.cfg = config
        self.topo = config.topology
        self.n = self.topo.node_count
        self.policy = config.switching
        self.pipeline = config.pipeline
        self.vc_count = config.resolved_vc_count()

        # the diameter: the eccentricity of corner 0 on a mesh and of any
        # node on a (vertex-transitive) torus, else the largest over all nodes
        sources = (0,) if self.topo.kind in (topo.MESH, topo.TORUS) else range(self.n)
        self.diameter = max(max(self.topo.bfs_distances(u)) for u in sources)
        self.livelock_bound = max(4 * self.diameter, 4)
        self.deadlock_window = max(10 * self.diameter, 100)

        self.routers = [
            fabric.RouterState(u, self.topo.neighbors(u), self.vc_count, config.buffer_depth)
            for u in range(self.n)
        ]
        for rank, slot in enumerate(s for r in self.routers for s in r.slots):
            slot.rank = rank
        self.occupied = []  # every occupied input slot, by rank
        # input slot at the downstream end of every (u, out_port, out_vc):
        # a router's slots list its wired inputs by (port, VC) first
        k = self.vc_count
        self.down_slot = [
            [
                self.routers[v].slots[p * k:(p + 1) * k]
                for v in self.topo.neighbors(u)
                for p in (self.topo.port_of[v][u],)
            ]
            for u in range(self.n)
        ]

        self.schedule = config.fault_schedule
        self.view = topo.TopologyView(self.topo)
        self.algo = routing.ALGORITHMS[config.algorithm]
        self.ctx = routing_context(
            self.algo, self.view, self.vc_count, config.anchor_count, config.center_count
        )
        self.next_hops = routing.relation(self.algo, self.ctx)
        # over routers, not self: a cycle through self keeps finished sweep runs alive
        routers = self.routers
        self.congestion = lambda v: routers[v].congestion()

        self.wireless = None
        if config.wireless.enabled:
            w = config.wireless
            self.wireless = fabric.WirelessHubState(
                w.hubs, w.w_cycles, w.distance_threshold, w.queue_cap, self.ctx.distance_to
            )

        # counters
        self.next_pid = 0
        self.injected_packets = 0
        self.delivered_packets = 0
        self.dropped_packets = 0
        self.measured_latencies = Counter()  # latency -> measured packets
        self.measured_delivered = 0  # packets delivered during measurement
        self.wireless_delivered = 0
        self.livelock_violations = 0
        # per router and output port, busy cycles during measurement
        self.port_busy = [[0] * self.topo.degree(u) for u in range(self.n)]
        self.pending = []    # (input slot, flit) arriving next cycle
        # packet -> flits consumed at its wired target before its tail
        self.eject_progress = {}
        self.last_progress = 0

        self.preloaded = sorted(config.preloaded)
        spec = config.traffic
        self.draw_keys = workload.draw0_keys(spec.seed, self.n)
        # inclusive, as 2**64 is no uint64; -1 (no hit) only at rate 0,
        # where nothing is drawn
        hit_max = workload.hit_threshold(spec.injection_rate / spec.packet_length)
        import numpy as np

        self.hit_max = np.uint64(hit_max) if hit_max >= 0 else None
        # draw 0 is evaluated in blocks of about 4096 node-cycles; the hits
        # drawn ahead wait here as (cycle, [nodes in ascending order])
        self.block_cycles = max(1, 4096 // self.n)
        self.drawn_until = 0
        self.hits = deque()

    # ------------------------------------------------------------------
    # run loop
    # ------------------------------------------------------------------

    def run(self):
        cfg = self.cfg
        inject_until = cfg.warmup_cycles + cfg.measure_cycles
        total = inject_until + cfg.drain_cycles
        self.measure_start = cfg.warmup_cycles
        self.measure_end = inject_until
        changes = self.schedule.change_cycles()
        change_idx = preload_idx = 0
        now = 0
        while now < total:
            progress = False
            if change_idx < len(changes) and changes[change_idx] == now:
                change_idx += 1
                progress |= self._apply_faults(now)
            progress |= self._apply_arrivals(now)
            if now < inject_until:
                while (
                    preload_idx < len(self.preloaded)
                    and self.preloaded[preload_idx][0] <= now
                ):
                    _, src, dst = self.preloaded[preload_idx]
                    preload_idx += 1
                    self._inject_packet(src, dst, now)
                    progress = True
                progress |= self._inject(now, inject_until)
            if self.wireless is not None:
                progress |= self._wireless_cycle(now)
            progress |= self._send_phase(now)
            if progress:
                self.last_progress = now
            elif self._in_flight():
                if now - self.last_progress >= self.deadlock_window:
                    raise DeadlockDetected(
                        f"no flit movement for {now - self.last_progress} cycles "
                        f"at cycle {now}"
                    )
            now += 1
            if not self._in_flight():
                # nothing can happen before the next fault change, preloaded
                # packet or injection hit
                skip_to = total
                if change_idx < len(changes):
                    skip_to = min(skip_to, changes[change_idx])
                if now < inject_until:
                    if preload_idx < len(self.preloaded):
                        skip_to = min(skip_to, max(now, self.preloaded[preload_idx][0]))
                    hit = self._next_hit(now, inject_until)
                    if hit is not None:
                        skip_to = min(skip_to, hit)
                if self.wireless is not None:
                    self.wireless.pass_token(skip_to - now)
                now = skip_to
        return self._report(self._check_conservation())

    # -- phases --------------------------------------------------------

    def _apply_faults(self, now):
        """Switch to the view of cycle ``now`` and drop every packet the
        change cuts: all that a failed router holds, waiting packets
        included, every flit on a failed link (the view's failed links
        include every link of a failed node), and every worm bound to a VC
        whose input link failed before its tail arrived, even while that
        VC's queue is empty. True when this drops a packet."""
        self.view = topo.TopologyView(self.topo, *workload.faults_at(self.schedule, now))
        self.ctx.set_view(self.view)
        links = self.view.failed_links
        cut = [p for u in self.view.failed_nodes for p, _ in self.routers[u].holdings()]
        cut += [f.packet for slot, f in self.pending if (slot.came_from, slot.node) in links]
        for up, node in links:
            for vc in self.down_slot[up][self.topo.port_of[up][node]]:
                q = vc.queue
                if vc.bound is not None and not (q and q[-1].is_tail):
                    cut.append(vc.bound)
        dropped = self.dropped_packets
        for packet in cut:
            self._drop_packet(packet)
        return self.dropped_packets > dropped

    def _drop_packet(self, packet):
        """The one place a drop is counted, for the whole packet; its flits
        left in routers and on links are popped uncounted later."""
        if packet.dropped:
            return
        packet.dropped = True
        self.dropped_packets += 1
        # flits already consumed at its wired target die with the packet
        self.eject_progress.pop(packet, None)
        if self.wireless is not None:
            # lost on the way to its entry hub: release its reservation
            self.wireless.release(packet)

    def _apply_arrivals(self, now):
        if not self.pending:
            return False
        pending, self.pending = self.pending, []
        # a live packet's flit always lands on an alive node: _apply_faults
        # drops every packet with a flit on a link or into a node that fails
        for slot, flit in pending:
            packet = flit.packet
            if packet.dropped:
                continue
            node = slot.node
            if node == packet.dst:
                self._consume(node, flit, now)
                continue
            slot.push(flit, now)
            if flit.is_head:  # binds a VC that was empty and unbound
                bisect.insort(self.occupied, slot, key=_rank)
        return True  # every arrival is consumed, buffered or discarded

    def _consume(self, node, flit, now):
        """Flit reached its current wired target (final dst or an entry
        hub). Every flit follows the head's VCs, so the tail arrives last;
        it delivers the packet or, at an entry hub, queues it for the radio
        with the wired hops it took."""
        packet = flit.packet
        if not flit.is_tail:
            self.eject_progress[packet] = self.eject_progress.get(packet, 0) + 1
            return
        self.eject_progress.pop(packet, None)
        if packet.dst != packet.final_dst:
            packet.hops = flit.hop_count
            self.wireless.enqueue(node, packet)
        else:
            self._deliver(packet, now)

    def _deliver(self, packet, now):
        self.delivered_packets += 1
        if packet.wireless:
            self.wireless_delivered += 1
        if self.measure_start <= now < self.measure_end:
            self.measured_delivered += 1
        if self.measure_start <= packet.inject_cycle < self.measure_end:
            self.measured_latencies[now - packet.inject_cycle] += 1

    def _injection_capped(self):
        return (
            self.cfg.max_packets is not None
            and self.injected_packets >= self.cfg.max_packets
        )

    def _next_hit(self, now, until):
        """First cycle in [now, until) at which some node's draw 0 hits, or
        None; draws blocks ahead as far as needed."""
        if self.hit_max is None or self._injection_capped():
            return None
        hits = self.hits
        while not hits and self.drawn_until < until:
            start = self.drawn_until
            stop = min(until, start + self.block_cycles)
            draws = workload.draw0_block(self.draw_keys, start, stop)
            rows, nodes = (draws <= self.hit_max).nonzero()  # row-major
            for row, node in zip(rows.tolist(), nodes.tolist()):
                cycle = start + row
                if hits and hits[-1][0] == cycle:
                    hits[-1][1].append(node)
                else:
                    hits.append((cycle, [node]))
            self.drawn_until = stop
        return hits[0][0] if hits else None

    def _inject(self, now, until):
        if self._next_hit(now, until) != now:
            return False
        _, nodes = self.hits.popleft()
        spec = self.cfg.traffic
        progress = False
        alive = self.view.has_node if (self.view.failed_nodes or self.view.failed_links) else None
        for node in nodes:
            if not self.view.has_node(node):
                continue
            dst = workload.inject(spec, self.topo, node, now, alive)
            if dst is None:
                continue
            self._inject_packet(node, dst, now)
            progress = True
            if self._injection_capped():
                break
        return progress

    def _inject_packet(self, src, dst, now):
        packet = fabric.Packet(self.next_pid, src, dst, self.cfg.traffic.packet_length, now)
        self.next_pid += 1
        self.injected_packets += 1
        if not self.view.has_node(src):
            # a preload at a failed source dies as if the fault had caught it
            self._drop_packet(packet)
            return
        if self.wireless is not None:
            self.wireless.admit(packet)
        if packet.dst == src:
            # the source is itself the entry hub: queue straight for the radio
            self.wireless.enqueue(src, packet)
        else:
            self._put_on_wires(packet, src, now, 0)

    def _put_on_wires(self, packet, node, now, hop_count):
        """Queue ``packet`` at ``node``'s local queue, its flits having
        taken ``hop_count`` hops so far, unless it has no route from there."""
        # an algorithm that routes at the source fixes the route here, so a
        # later fault drops the packet rather than rerouting it
        fix = self.algo.source_route
        packet.route = fix and fix(self.ctx, node, packet.dst)
        if packet.route == ():  # dst unreachable over the alive view
            self._drop_packet(packet)
            return
        local = self.routers[node].local
        if not local.queue:
            bisect.insort(self.occupied, local, key=_rank)
        local.push_packet(packet, now, hop_count)

    def _wireless_cycle(self, now):
        ws = self.wireless
        busy_before = ws.busy_until is not None
        delivered = ws.step(now)
        for packet in delivered:  # released: dst is its destination again
            hub = ws.hub_of[packet.dst]
            if hub == packet.dst:
                self._deliver(packet, now)
            else:  # one more hop for the radio
                self._put_on_wires(packet, hub, now, packet.hops + 1)
        return bool(delivered) or busy_before != (ws.busy_until is not None)

    def _send_phase(self, now):
        # looked up per call, not at import, so wrappers installed on the
        # fabric module (the benchmark's tracer) see every call
        ready = fabric.flit_ready
        accept = fabric.flow_control_accept
        policy, pipeline, view = self.policy, self.pipeline, self.view
        failed = view.failed_nodes
        routers, occupied = self.routers, self.occupied
        sends = []  # (slot, decision), a decision laid out as in fabric.InputSlot
        u, vacated = None, False
        for slot in occupied:
            if slot.node != u:  # a router's first slot: its arbitration starts
                u = slot.node
                skip = u in failed
                # its first candidate's place in sends, and once a second
                # shows up, out port -> (round-robin rank, place in sends)
                first = ports = None
            if skip:
                continue
            q = slot.queue
            # head() discards what dropped packets left behind
            flit = q[0] if q and not q[0].packet.dropped else slot.head()
            if flit is None:
                # empty: a live worm still arriving, unless head() let go
                vacated |= slot.bound is None
                continue
            d = slot.decision
            if d is None or d[0] is not view:
                d = self._decision_for(slot, flit)
                if d is None:
                    continue
            if not ready(policy, slot, flit, now, pipeline):
                continue
            down = d[2]
            # ejection consumes on arrival
            if down.node != flit.packet.dst and not accept(down, flit):
                continue
            if first is None:  # ranked only once a second shows up
                first = len(sends)
                sends.append((slot, d))
                continue
            if ports is None:
                rr, n_slots = routers[u].rr, len(routers[u].slots)
                s0, d0 = sends[first]
                ports = {d0[1]: ((s0.index - rr[d0[1]]) % n_slots, first)}
            out_port = d[1]
            rank = (slot.index - rr[out_port]) % n_slots
            w = ports.get(out_port)
            if w is None:
                ports[out_port] = (rank, len(sends))
                sends.append((slot, d))
            elif rank < w[0]:
                ports[out_port] = (rank, w[1])
                sends[w[1]] = (slot, d)
        if vacated:
            occupied[:] = [s for s in occupied if s.queue or s.bound is not None]
        port_busy, pending, hop_limit = self.port_busy, self.pending, self.livelock_bound
        measuring = self.measure_start <= now < self.measure_end
        for slot, (_, out_port, down) in sends:
            u = slot.node
            router = routers[u]
            router.rr[out_port] = (slot.index + 1) % len(router.slots)
            flit = slot.pop()
            if not slot.queue and slot.bound is None:
                del occupied[bisect.bisect_left(occupied, slot.rank, key=_rank)]
            flit.hop_count += 1
            if flit.hop_count > hop_limit:
                self.livelock_violations += 1
                if self.cfg.strict:
                    raise LivelockDetected(
                        f"flit of packet {flit.packet.pid} exceeded {hop_limit} hops"
                    )
            pending.append((down, flit))
            if measuring:
                port_busy[u][out_port] += 1
        return bool(sends)

    def _decision_for(self, slot, flit):
        """Routing decision for the head-of-line flit when the slot's cached
        one is missing or over an older view (``fabric.InputSlot`` gives its
        layout); None, after dropping the packet, when the flit cannot move.
        A slot holds one packet's flits and fabric clears its decision with
        them, so a cached one is the packet's own, and a flit without one is
        a head: it takes its algorithm's option, picked among two or more,
        and carries that option's route on. A link is tested only in a view
        with a failed one, as the relation names only neighbours; the module
        docstring's *Per-flit work* says why no send tests one again."""
        packet, u = flit.packet, slot.node
        cached = slot.decision
        if cached is None:
            options = self.next_hops(u, packet.dst, slot.in_vc, slot.came_from, packet.route)
            if not options:
                self._drop_packet(packet)
                return None
            nxt, vc, packet.route = (
                options[0] if len(options) == 1 else self.algo.pick(options, self.congestion)
            )
            out_port = self.topo.port_of[u][nxt]
            down = self.down_slot[u][out_port][vc]
        else:
            _, out_port, down = cached
        view = self.view
        if view.failed_links and not view.has_link(u, down.node):
            # no live link, or the committed one died under the packet
            self._drop_packet(packet)
            return None
        slot.decision = (view, out_port, down)
        return slot.decision

    # -- accounting ----------------------------------------------------

    def _in_flight(self):
        """Packets injected and neither delivered nor dropped: the run's one
        liveness fact, read by the idle jump, the deadlock check and the
        conservation audit. Each has a flit somewhere: buffered, waiting at
        its source, on a link, with the radio, or at least its tail when its
        bodies were consumed early. At zero, what routers and links still
        hold is dropped leftovers, popped whenever they are next looked at."""
        return self.injected_packets - self.delivered_packets - self.dropped_packets

    def _check_conservation(self):
        """The packets in flight hold exactly the live flits found in every
        router (not only the active set), on links, with the radio, or
        consumed ahead of their tail at a wired target. A dropped packet's
        leftovers await a lazy pop and are not counted. Returns that count,
        the report's residual."""
        live = sum(
            n for r in self.routers for packet, n in r.holdings() if not packet.dropped
        )
        live += sum(not f.packet.dropped for _, f in self.pending)
        if self.wireless is not None:
            # the radio holds whole packets, all live
            live += sum(p.length for p in self.wireless.packets())
        live += sum(self.eject_progress.values())
        in_flight = self._in_flight()
        expected = in_flight * self.cfg.traffic.packet_length
        if live != expected:
            raise AssertionError(
                f"flit conservation violated: {in_flight} packets in flight "
                f"need {expected} flits, found {live}"
            )
        return live

    def _report(self, residual):
        avg, p99 = latency_stats(self.measured_latencies)
        throughput = (
            self.measured_delivered * self.cfg.traffic.packet_length
            / (self.n * self.cfg.measure_cycles)
        )
        n_links = sum(self.topo.degree(u) for u in range(self.n))
        util = {
            link: busy / self.cfg.measure_cycles
            for link, busy in sorted(
                ((u, self.topo.neighbors(u)[port]), busy)
                for u, ports in enumerate(self.port_busy)
                for port, busy in enumerate(ports)
                if busy
            )
        }
        mean_util = sum(util.values()) / n_links if n_links else 0.0
        wireless_share = (
            self.wireless_delivered / self.delivered_packets
            if self.delivered_packets
            else 0.0
        )
        return MetricsReport(
            delivered=self.delivered_packets,
            dropped=self.dropped_packets,
            injected=self.injected_packets,
            residual=residual,
            avg_latency=avg,
            p99_latency=p99,
            throughput=throughput,
            utilization=mean_util,
            per_link_utilization=util,
            wireless_share=wireless_share,
            livelock=self.livelock_violations,
            deadlock=0,
        )


def latency_stats(histogram):
    """(mean, 99th percentile) of int latencies given as a histogram
    ``{latency: packets}``, (0.0, 0.0) for none.

    Equal bit for bit to ``float(np.mean(x))`` and ``float(np.percentile(x,
    99))`` over the expanded list ``x``: the sum of ints is exact, and the
    percentile takes numpy's linear-method float steps between the two
    order statistics around the virtual index (n - 1) * 0.99, found from
    cumulative counts."""
    n = sum(histogram.values())
    if not n:
        return 0.0, 0.0
    ordered = sorted(histogram.items())
    mean = sum(latency * count for latency, count in ordered) / n
    vi = (n - 1) * 0.99
    if vi >= n - 1:
        return mean, float(ordered[-1][0])
    lo = math.floor(vi)
    cumulative = list(itertools.accumulate(count for _, count in ordered))

    def order_statistic(k):  # the latency at 0-based index k of the sorted list
        return float(ordered[bisect.bisect_right(cumulative, k)][0])

    a, b = order_statistic(lo), order_statistic(lo + 1)
    g = vi - lo
    d = b - a
    return mean, b - d * (1 - g) if g >= 0.5 else a + d * g


def run(config):
    return Simulation(config).run()


def zero_load_latency(switching, hops, flits, pipeline):
    """Closed-form single-packet latency on an idle network."""
    if switching == fabric.SAF:
        return hops * (flits + pipeline)
    return hops * (1 + pipeline) + (flits - 1)


def measure_saturation(config, rate_grid):
    """Lowest grid rate whose average latency exceeds 3x the zero-load
    latency; the zero-load point is the grid's first rate (<= 0.01)."""
    rates = list(rate_grid)
    if not rates or any(b <= a for a, b in zip(rates, rates[1:])):
        raise ConfigError("rate_grid must be strictly increasing")
    if not 0 < rates[0] <= 0.01:
        raise ConfigError("first grid rate must be in (0, 0.01] for the zero-load point")
    zero_load = None
    seen = []
    for rate in rates:
        cfg = replace(config, traffic=replace(config.traffic, injection_rate=rate))
        report = run(cfg)
        seen.append((rate, report.avg_latency))
        if zero_load is None:
            zero_load = report.avg_latency
            continue
        if report.avg_latency > 3 * zero_load:
            return SaturationResult(rate, True, zero_load, tuple(seen))
    return SaturationResult(rates[-1], False, zero_load, tuple(seen))
