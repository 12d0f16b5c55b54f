"""Flit framing, buffer flow control, and the wireless token MAC."""

import pytest

from nocsim import fabric
from nocsim.errors import ProtocolViolation


def packet(length, pid=0):
    return fabric.Packet(pid, 0, 1, length, inject_cycle=0)


DECISION = ("view", 0, None)  # (view, out port, downstream slot)


# -- flit framing ------------------------------------------------------------

def test_make_flits_framing():
    flits = fabric.make_flits(packet(4))
    assert [f.is_head for f in flits] == [True, False, False, False]
    assert [f.is_tail for f in flits] == [False, False, False, True]


def test_single_flit_packet_is_head_tail():
    (f,) = fabric.make_flits(packet(1))
    assert f.is_head and f.is_tail


# -- input VC binding --------------------------------------------------------

def test_vc_binds_on_head_releases_on_tail():
    vc = fabric.InputVC(depth=4)
    p = packet(2)
    head, tail = fabric.make_flits(p)
    vc.push(head, 10)
    assert vc.bound is p and not vc.queue[-1].is_tail
    vc.push(tail, 11)
    assert vc.queue[-1] is tail and tail.arrival == 11
    assert vc.pop() is head
    assert vc.bound is p  # still bound until the tail leaves
    assert vc.pop() is tail
    assert vc.bound is None and vc.decision is None


def test_vc_rejects_orphan_body():
    vc = fabric.InputVC(depth=4)
    body = fabric.Flit(packet(3), is_head=False, is_tail=False)
    with pytest.raises(ProtocolViolation):
        vc.push(body, 0)


def test_vc_occupancy_and_free_slots():
    vc = fabric.InputVC(depth=3)
    p = packet(2)
    for i, f in enumerate(fabric.make_flits(p)):
        vc.push(f, i)
    assert len(vc.queue) == 2 < vc.depth


# -- flow control ------------------------------------------------------------

def head_of(p):
    return fabric.make_flits(p)[0]


def test_wormhole_head_needs_one_slot():
    """A head takes a VC bound to no packet, under every switching policy."""
    vc = fabric.InputVC(depth=1)
    assert fabric.flow_control_accept(vc, head_of(packet(8)))
    vc.push(head_of(packet(8, pid=9)), 0)
    assert not fabric.flow_control_accept(vc, head_of(packet(8)))


def test_head_rejected_while_bound_to_other_packet():
    vc = fabric.InputVC(depth=8)
    vc.push(head_of(packet(4, pid=1)), 0)
    assert not fabric.flow_control_accept(vc, head_of(packet(2, pid=2)))


def test_bound_body_always_accepted_under_reservation():
    """At depth >= packet length, which SAF and VCT require, a bound
    packet's body always finds a free slot."""
    vc = fabric.InputVC(depth=4)
    p = packet(4)
    flits = fabric.make_flits(p)
    for cycle, flit in enumerate(flits):
        assert fabric.flow_control_accept(vc, flit)
        vc.push(flit, cycle)


def test_wormhole_body_needs_slot():
    vc = fabric.InputVC(depth=1)
    p = packet(3)
    flits = fabric.make_flits(p)
    vc.push(flits[0], 0)
    assert not fabric.flow_control_accept(vc, flits[1])
    vc.pop()
    assert fabric.flow_control_accept(vc, flits[1])


def test_foreign_body_on_bound_vc_rejected():
    vc = fabric.InputVC(depth=8)
    vc.push(head_of(packet(4, pid=1)), 0)
    other = fabric.make_flits(packet(4, pid=2))[1]
    assert not fabric.flow_control_accept(vc, other)


def test_orphan_body_is_a_protocol_violation():
    vc = fabric.InputVC(depth=4)
    body = fabric.make_flits(packet(3))[1]
    with pytest.raises(ProtocolViolation):
        fabric.flow_control_accept(vc, body)


# -- readiness ---------------------------------------------------------------

def test_wormhole_ready_after_pipeline_delay():
    vc = fabric.InputVC(depth=4)
    p = packet(2)
    head, tail = fabric.make_flits(p)
    vc.push(head, 5)
    assert not fabric.flit_ready(fabric.WORMHOLE, vc, head, 5, pipeline=1)
    assert fabric.flit_ready(fabric.WORMHOLE, vc, head, 6, pipeline=1)
    assert not fabric.flit_ready(fabric.WORMHOLE, vc, head, 6, pipeline=2)


def test_saf_waits_for_tail():
    vc = fabric.InputVC(depth=4)
    p = packet(3)
    flits = fabric.make_flits(p)
    vc.push(flits[0], 0)
    vc.push(flits[1], 1)
    assert not fabric.flit_ready(fabric.SAF, vc, flits[0], 50, pipeline=1)
    vc.push(flits[2], 2)
    assert not fabric.flit_ready(fabric.SAF, vc, flits[0], 2, pipeline=1)
    assert fabric.flit_ready(fabric.SAF, vc, flits[0], 3, pipeline=1)


# -- local queue -------------------------------------------------------------

def test_local_queue_atomic_push_and_decision_reset():
    q = fabric.LocalQueue()
    p = packet(3)
    q.push_packet(p, 7, 2)
    assert all(f.arrival == 7 and f.hop_count == 2 for f in q.queue)
    q.decision = DECISION
    q.pop()
    q.pop()
    assert q.decision is not None
    q.pop()  # tail clears the cached decision
    assert q.decision is None


def test_local_queue_makes_flits_only_for_its_head_packet():
    """Packets behind the head wait as packets, with the cycle they were
    queued and their hop count; the tail's departure brings the next one
    to the head as flits."""
    q = fabric.LocalQueue()
    first, second = packet(2), packet(3, pid=1)
    q.push_packet(first, 4, 0)
    q.push_packet(second, 5, 3)
    assert [f.packet for f in q.queue] == [first, first]
    assert list(q.waiting) == [(second, 5, 3)]
    q.pop()
    assert q.pop().is_tail
    assert not q.waiting
    assert [(f.packet, f.arrival, f.hop_count) for f in q.queue] == [(second, 5, 3)] * 3


def test_saf_readiness_of_a_local_queue_head_is_the_pipeline_delay():
    """A local queue holds one packet's flits, all queued in one cycle, so
    its tail is there with its head: under every policy, SAF included,
    ``flit_ready`` waits only for the pipeline."""
    q = fabric.LocalQueue()
    q.push_packet(packet(3), 7, 0)
    q.push_packet(packet(2, pid=1), 9, 0)  # waits as a packet behind it
    head = q.queue[0]
    for policy in fabric.SWITCHING_POLICIES:
        assert not fabric.flit_ready(policy, q, head, 7, pipeline=1)
        assert fabric.flit_ready(policy, q, head, 8, pipeline=1)
        assert not fabric.flit_ready(policy, q, head, 8, pipeline=2)


# -- head of an input slot ---------------------------------------------------

def test_head_pops_a_dropped_worms_flits_and_releases_its_vc():
    vc = fabric.InputVC(depth=4)
    dead = packet(4)
    head, body, _, _ = fabric.make_flits(dead)
    vc.push(head, 0)
    vc.push(body, 1)
    vc.decision = DECISION
    dead.dropped = True
    assert vc.head() is None
    assert vc.queue == [] and vc.bound is None and vc.decision is None


def test_head_releases_a_dropped_worm_with_an_empty_queue():
    """The head left, and the rest of the worm died upstream: its tail will
    never arrive to release the VC."""
    vc = fabric.InputVC(depth=4)
    dead = packet(4)
    vc.push(head_of(dead), 0)
    vc.decision = DECISION
    vc.pop()
    dead.dropped = True
    assert vc.head() is None
    assert vc.bound is None and vc.decision is None


def test_head_keeps_a_live_worms_binding_with_an_empty_queue():
    vc = fabric.InputVC(depth=4)
    live = packet(4)
    vc.push(head_of(live), 0)
    vc.decision = DECISION
    vc.pop()
    assert vc.head() is None
    assert vc.bound is live and vc.decision is DECISION


def test_head_of_a_local_queue_skips_a_dropped_packet_to_the_live_one():
    q = fabric.LocalQueue()
    dead, live = packet(2), packet(3, pid=1)
    q.push_packet(dead, 4, 0)
    q.push_packet(live, 6, 1)
    q.decision = DECISION
    dead.dropped = True
    flit = q.head()
    assert flit.is_head and flit.packet is live and flit.arrival == 6
    assert [f.packet for f in q.queue] == [live] * 3 and not q.waiting
    assert q.decision is None


# -- router state ------------------------------------------------------------

def test_router_state_slots_in_arbitration_order():
    """Wired inputs by (port, VC), each with the neighbour at the far end
    of its port, then the local queue; a slot's index is its rank."""
    r = fabric.RouterState(5, (7, 8, 9), vc_count=2, depth=4)
    assert [(s.index, s.node, s.came_from, s.in_vc) for s in r.slots] == [
        (0, 5, 7, 0), (1, 5, 7, 1), (2, 5, 8, 0), (3, 5, 8, 1),
        (4, 5, 9, 0), (5, 5, 9, 1), (6, 5, None, None),
    ]
    assert all(type(s) is fabric.InputVC and s.depth == 4 for s in r.slots[:-1])
    assert r.slots[-1] is r.local
    assert r.rr == [0, 0, 0]


def test_router_state_layout_and_congestion():
    r = fabric.RouterState(5, (7, 8, 9), vc_count=2, depth=4)
    p = packet(2)
    for i, f in enumerate(fabric.make_flits(p)):
        r.slots[2].push(f, i)
    r.local.push_packet(packet(4, pid=2), 0, 0)
    r.local.push_packet(packet(4, pid=3), 0, 0)
    assert r.congestion() == 2  # local queue flits do not count
    assert sum(flits for _, flits in r.holdings()) == 10


# -- wireless hub MAC --------------------------------------------------------

def line_distance(dst):
    """Hop distances to ``dst`` on the line 0 - 1 - ... - 39."""
    return [abs(u - dst) for u in range(40)]


def hub_state(w_cycles=3, distance_threshold=8, queue_cap=1):
    return fabric.WirelessHubState(
        (10, 20, 30), w_cycles, distance_threshold, queue_cap, line_distance,
    )


def test_nearest_hub_tie_breaks_low_id():
    ws = hub_state()
    assert ws.hub_of[15] == 10 and ws.hub_of[25] == 20  # 5 hops to either side
    assert ws.hub_of[:3] == [10] * 3 and ws.hub_of[39] == 30
    assert [ws.hub_of[h] for h in ws.hubs] == [10, 20, 30]


def test_idle_token_rotates_one_hub_per_cycle():
    ws = hub_state()
    for cycle, expected in enumerate([0, 1, 2, 0]):
        assert ws.token == expected
        assert ws.step(cycle) == []


def test_transmission_occupies_channel_w_cycles():
    ws = hub_state(w_cycles=3)
    p = packet(2)
    ws.enqueue(10, p)
    assert ws.step(0) == []   # starts transmitting
    assert ws.busy_until == 3
    assert ws.step(1) == []
    assert ws.step(2) == []
    done = ws.step(3)
    assert done == [p]
    # token passed the transmitter, then the idle next holder in one cycle
    assert ws.token == 2


def test_mac_serializes_competing_hubs():
    """At most one transmission in flight even with every queue loaded."""
    ws = hub_state(w_cycles=2)
    packets = [packet(1, pid=i) for i in range(6)]
    for i, p in enumerate(packets):
        ws.enqueue(ws.hubs[i % 3], p)
    delivered = []
    for cycle in range(40):
        out = ws.step(cycle)
        assert len(out) <= 1
        # the channel is busy exactly while a packet is on air
        assert (ws.current_tx is None) == (ws.busy_until is None)
        assert len(list(ws.packets())) == 6 - len(delivered) - len(out)
        delivered += out
    assert [p.pid for p in delivered] == [0, 1, 2, 3, 4, 5]
    assert ws.busy_until is None and not list(ws.packets())


def trip(pid, src, dst):
    return fabric.Packet(pid, src, dst, 4, inject_cycle=0)


def test_admission_rule():
    """Admitted: two different hubs, a wired trip of at least the threshold
    and a free reservation at the entry hub, which becomes the wired target
    until the radio delivers the packet or it is dropped."""
    ws = hub_state(distance_threshold=8, queue_cap=2)
    same_hub, short, first, second, full = (
        trip(0, 12, 14), trip(1, 14, 16), trip(2, 12, 39), trip(3, 8, 25), trip(4, 11, 33))
    at_threshold, below = trip(5, 22, 30), trip(6, 22, 29)
    trips = (same_hub, short, first, second, full, at_threshold, below)
    for p in trips:
        ws.admit(p)
    assert [p.wireless for p in trips] == [
        False, False, True, True, False, True, False]  # same hub, 2 hops, 27, 17, cap full, 8, 7
    assert (first.dst, second.dst, full.dst, at_threshold.dst, below.dst) == (10, 10, 33, 20, 29)
    assert ws.reserved == {10: 2, 20: 1, 30: 0}
    ws.release(first)  # dropped on its first leg
    assert first.dst == first.final_dst == 39 and ws.reserved[10] == 1
    ws.release(first)  # a second release frees nothing
    assert ws.reserved[10] == 1
    ws.enqueue(10, second)
    delivered = []
    for cycle in range(5):
        delivered += ws.step(cycle)
    assert delivered == [second] and second.dst == 25 and ws.reserved[10] == 0
    ws.admit(full)
    assert full.wireless and full.dst == 10 and ws.reserved[10] == 1
