"""Cycle-level router fabric: flits, input-queued routers with credit-based
backpressure, the three switching policies, and the radio: the wireless
hub overlay, whose one owner, ``WirelessHubState``, holds each node's hub,
the admission rule with its per-hub reservations and the token-passing MAC.

Timing model (unit flits, unit-width links):
  * a flit entering an input VC at cycle t is pipeline-ready at t + P;
  * a flit sent at cycle t arrives downstream at t + 1;
  * SAF additionally holds every flit until its packet's tail has arrived
    in the same buffer, so the head leaves at tail_arrival + P.
This yields the zero-load closed forms H*(F+P) for SAF and
H*(1+P) + (F-1) for wormhole and virtual cut-through.

Flow control is one rule, ``flow_control_accept``, for all three
policies. SAF differs from the others only in readiness (``flit_ready``),
and SAF and VCT differ from wormhole only in the buffer depth they
require (``buffer_depth >= packet_length``, checked by
``SimConfig.validate``). A head enters only a VC bound to no packet, which
is empty, so at that depth the whole packet always fits: the
whole-packet room check of SAF and VCT needs no code of its own.

Memory follows the flits in flight, not the packets offered. A source
keeps its backlog as packets and makes flits (``make_flits``) only for
the packet at the head of its local queue, and every buffer holding flits
is a plain list at most ``buffer_depth`` or ``packet_length`` long, so
its ``pop(0)`` stays cheap.
"""

from __future__ import annotations

from collections import deque

from .errors import ProtocolViolation

SAF = "saf"
VCT = "vct"
WORMHOLE = "wormhole"

SWITCHING_POLICIES = (SAF, VCT, WORMHOLE)


class Packet:
    __slots__ = (
        "pid", "src", "dst", "length", "inject_cycle",
        "wireless", "route", "final_dst", "dropped", "hops",
    )

    def __init__(self, pid, src, dst, length, inject_cycle):
        self.pid = pid
        self.src = src
        self.dst = dst          # current wired target (a hub for wireless legs)
        self.final_dst = dst
        self.length = length
        self.inject_cycle = inject_cycle
        self.wireless = False
        self.dropped = False
        self.hops = 0           # wired hops completed before a radio leg
        self.route = None       # source route from the head's node on, or None

    def __repr__(self):
        return f"Packet({self.pid}, {self.src}->{self.dst}, len={self.length})"


class Flit:
    __slots__ = ("packet", "is_head", "is_tail", "hop_count", "arrival")

    def __init__(self, packet, is_head, is_tail):
        self.packet = packet
        self.is_head = is_head
        self.is_tail = is_tail
        self.hop_count = 0
        self.arrival = 0   # cycle this flit entered its current buffer


def make_flits(packet):
    """Head, bodies, tail; a 1-flit packet's one flit is head and tail."""
    last = packet.length - 1
    return [Flit(packet, i == 0, i == last) for i in range(packet.length)]


class InputSlot:
    """An input slot of a router, a wired input VC or the local queue, set
    in its place once by ``RouterState``: ``node``, the router's id;
    ``index``, its arbitration rank; ``came_from`` and ``in_vc``, the
    upstream node and the VC it arrives on, both None for the local queue.
    The engine sets ``rank``, its place in the (node, index) order of every
    router's slots. ``queue`` holds the flits of at most one packet, oldest
    first, and ``decision`` the routing choice cached for that packet as
    (view, out port, downstream slot), made for its head so the body flits
    follow the same output; cleared when the packet's tail leaves or its
    leftovers are purged (``head``)."""

    __slots__ = ("node", "index", "rank", "came_from", "in_vc", "queue", "decision")

    def __init__(self, node, index, came_from, in_vc):
        self.node = node
        self.index = index
        self.came_from = came_from
        self.in_vc = in_vc
        self.queue = []
        self.decision = None

    def head(self):
        """Head-of-line flit, or None once empty. Pops the leftovers of
        dropped packets on the way, and releases the binding, and its
        decision, of a dropped packet whose tail will never arrive, or it
        would block heads forever. A live binding with an empty queue is
        kept: the rest of its worm is on its way."""
        q = self.queue
        while q and q[0].packet.dropped:
            self.pop()
        if q:
            return q[0]
        if self.bound is not None and self.bound.dropped:
            self.bound = None
            self.decision = None
        return None


class InputVC(InputSlot):
    """One virtual-channel FIFO of a wired input port: ``queue`` holds at
    most ``depth`` flits. Bound to a single packet from head acceptance
    until its tail departs, so the queue holds flits of that packet only,
    and its tail, once arrived, is ``queue[-1]``. One made with ``depth``
    alone stands outside any router.
    """

    __slots__ = ("depth", "bound")

    def __init__(self, depth, node=None, index=None, came_from=None, in_vc=None):
        super().__init__(node, index, came_from, in_vc)
        self.depth = depth
        self.bound = None         # packet currently owning this VC

    def push(self, flit, cycle):
        if flit.is_head:
            self.bound = flit.packet
        elif self.bound is None:
            raise ProtocolViolation("body flit arrived with no bound packet")
        flit.arrival = cycle
        self.queue.append(flit)

    def pop(self):
        flit = self.queue.pop(0)
        if flit.is_tail:
            self.bound = None
            self.decision = None
        return flit


def flow_control_accept(vc, flit):
    """Downstream acceptance rule for one incoming flit, the same under
    every switching policy (the module docstring says why): a head takes a
    VC bound to no packet, and a body or tail flit takes a free slot in its
    own packet's VC (fewer flits queued than its depth). A body flit with
    no bound packet is a protocol violation."""
    if flit.is_head:
        return vc.bound is None
    if vc.bound is None:
        raise ProtocolViolation("body flit with no bound packet")
    return vc.bound is flit.packet and len(vc.queue) < vc.depth


def flit_ready(policy, slot, flit, now, pipeline):
    """Sender-side readiness of the head-of-line flit of any input slot."""
    if policy == SAF:
        last = slot.queue[-1]  # the tail, once it has arrived
        return last.is_tail and now >= last.arrival + pipeline
    return now >= flit.arrival + pipeline


class LocalQueue(InputSlot):
    """Unbounded open-loop injection queue of one node, the last of its
    router's slots, with no upstream node or VC.

    Only the head-of-line packet is held as flits, in ``queue``; the
    packets behind it wait in ``waiting`` as (packet, cycle queued, hop
    count), and a packet's flits are made when it reaches the head. A
    waiting packet dropped before then (its node failed) is skipped and
    never gets flits: the engine counts a drop once, for the whole packet.
    All flits of a packet share the cycle it was queued, so SAF readiness
    (``flit_ready``) reduces to the plain pipeline delay. ``queue`` is
    empty only when ``waiting`` is.
    """

    __slots__ = ("waiting",)
    bound = None  # whole packets are queued at once, so never bound

    def __init__(self, node=None, index=None):
        super().__init__(node, index, None, None)
        self.waiting = deque()

    def push_packet(self, packet, cycle, hop_count):
        if self.queue:
            self.waiting.append((packet, cycle, hop_count))
        else:
            self._load(packet, cycle, hop_count)

    def _load(self, packet, cycle, hop_count):
        # make_flits is looked up per call, so a wrapper installed on this
        # module sees it; the flits go into the same list, which
        # ``head`` holds across pops
        for f in make_flits(packet):
            f.arrival = cycle
            f.hop_count = hop_count
            self.queue.append(f)

    def pop(self):
        flit = self.queue.pop(0)
        if flit.is_tail:
            self.decision = None
            waiting = self.waiting
            while waiting:
                packet, cycle, hop_count = waiting.popleft()
                if not packet.dropped:
                    self._load(packet, cycle, hop_count)
                    break
        return flit


class RouterState:
    """Per-node input slots and arbitration pointers.

    ``slots`` lists every input slot of node ``node`` in the fixed
    arbitration order, each at its ``index``: the input VCs of wired port
    ``port``, whose neighbour is ``neighbors[port]``, by (port, VC), then
    ``local``, the node's open-loop injection source. ``rr[port]`` is the
    round-robin pointer of output port ``port``, a slot index. Which slots
    are occupied the engine alone keeps, in one list over every router
    (its module docstring's *Active set*).
    """

    def __init__(self, node, neighbors, vc_count, depth):
        self.slots = [
            InputVC(depth, node, i, neighbors[i // vc_count], i % vc_count)
            for i in range(len(neighbors) * vc_count)
        ]
        self.local = LocalQueue(node, len(self.slots))
        self.slots.append(self.local)
        self.rr = [0] * len(neighbors)

    def congestion(self):
        """Total wired buffered flits; feeds DyXY's occupancy signal."""
        return sum(len(slot.queue) for slot in self.slots) - len(self.local.queue)

    def holdings(self):
        """(packet, flits) for everything this router holds: 1 for each
        buffered flit, the packet length for each packet waiting at the
        source."""
        for slot in self.slots:
            for f in slot.queue:
                yield f.packet, 1
        for packet, _, _ in self.local.waiting:
            yield packet, packet.length


class WirelessHubState:
    """The radio. ``hub_of[u]`` is the hub nearest node u over the
    fault-free wired topology, ties to the lowest hub id. ``admit`` sends a
    packet to its source's hub when its destination's hub differs, its
    wired trip is at least ``distance_threshold`` hops and that hub holds
    fewer than ``queue_cap`` reservations, kept until the radio delivers
    the packet or it is dropped (``release``). One shared channel with a
    round-robin token MAC: at most one hub transmits at a time, for
    ``w_cycles``; an idle token holder passes the token in one cycle, and
    the token also advances after every completed transmission. It holds
    only live packets: a packet reaches it whole, with no flit left on the
    wires for a fault to cut, so with no packet in flight it is empty.
    """

    def __init__(self, hubs, w_cycles, distance_threshold, queue_cap, distance_to):
        self.hubs = tuple(hubs)
        self.w_cycles = w_cycles
        self.distance_threshold = distance_threshold
        self.queue_cap = queue_cap
        self.distance_to = distance_to  # distance_to(dst)[src]: wired hops
        hub_dist = {h: distance_to(h) for h in self.hubs}
        self.hub_of = [
            min(self.hubs, key=lambda h: (hub_dist[h][u], h))
            for u in range(len(hub_dist[self.hubs[0]]))
        ]
        self.reserved = {h: 0 for h in self.hubs}  # admitted, not yet delivered
        self.token = 0  # index into hubs
        self.queues = {h: deque() for h in self.hubs}
        self.busy_until = None   # first cycle the channel is free again
        self.current_tx = None   # packet on air

    def admit(self, packet):
        """Admit ``packet``, just injected, if the rule allows: its wired
        target becomes its source's hub. Only a trip between two hubs
        looks up a distance."""
        src, dst = packet.src, packet.final_dst
        hub = self.hub_of[src]
        if hub == self.hub_of[dst]:
            return
        if (
            self.distance_to(dst)[src] >= self.distance_threshold
            and self.reserved[hub] < self.queue_cap
        ):
            packet.wireless = True
            packet.dst = hub
            self.reserved[hub] += 1

    def release(self, packet):
        """Free the reservation of an admitted packet that left its first
        leg, by radio or by a drop; its wired target is its destination."""
        if packet.dst != packet.final_dst:
            self.reserved[packet.dst] -= 1
            packet.dst = packet.final_dst

    def enqueue(self, hub, packet):
        self.queues[hub].append(packet)

    def step(self, now):
        """Advance the MAC one cycle; returns the packets whose transmission
        completed this cycle, released and bound for their destination."""
        delivered = []
        if self.busy_until is not None:
            if now < self.busy_until:
                return delivered
            self.release(self.current_tx)
            delivered.append(self.current_tx)
            self.current_tx = None
            self.busy_until = None
            self.token = (self.token + 1) % len(self.hubs)
        holder = self.hubs[self.token]
        q = self.queues[holder]
        if q:
            self.current_tx = q.popleft()
            self.busy_until = now + self.w_cycles
        else:
            self.token = (self.token + 1) % len(self.hubs)
        return delivered

    def packets(self):
        """Every packet the radio holds, queued or on air."""
        for q in self.queues.values():
            yield from q
        if self.current_tx is not None:
            yield self.current_tx

    def pass_token(self, cycles):
        """Stand in for ``cycles`` steps of an idle channel with empty
        queues: each passes the token to the next hub."""
        self.token = (self.token + cycles) % len(self.hubs)
