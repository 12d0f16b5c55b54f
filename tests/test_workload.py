"""Traffic generation determinism and fault schedule parsing."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nocsim import topology as topo, workload
from nocsim.errors import (
    ConfigError,
    InvertedInterval,
    ScheduleSyntaxError,
    UnknownElement,
)


# -- counter-based randomness ------------------------------------------------

def test_stream_is_pure_function_of_counters():
    a = workload.stream_u64(7, 3, 100, 2)
    b = workload.stream_u64(7, 3, 100, 2)
    assert a == b
    assert workload.stream_u64(8, 3, 100, 2) != a
    assert workload.stream_u64(7, 4, 100, 2) != a
    assert workload.stream_u64(7, 3, 101, 2) != a
    assert workload.stream_u64(7, 3, 100, 3) != a


@given(st.integers(0, 2**32), st.integers(0, 255), st.integers(0, 10**6))
@settings(max_examples=100)
def test_stream_float_in_unit_interval(seed, node, cycle):
    x = workload.stream_float(seed, node, cycle)
    assert 0.0 <= x < 1.0


def test_unit_float_stays_below_one_at_the_top():
    """u / 2**64 rounds up to exactly 1.0 for the top 1024 u64 values."""
    top = range(2**64 - 1024, 2**64)
    assert all(u / float(1 << 64) == 1.0 for u in top)
    assert all(workload.unit_float(u) == 1.0 - 2.0**-53 for u in top)
    assert workload.unit_float(2**64 - 1) < 1.0
    below = 2**64 - 1025
    assert workload.unit_float(below) == below / float(1 << 64) < 1.0


def test_stream_float_roughly_uniform():
    xs = [workload.stream_float(1, n, c) for n in range(20) for c in range(200)]
    assert abs(sum(xs) / len(xs) - 0.5) < 0.02


U64_MAX = 2**64 - 1


@st.composite
def draw_windows(draw):
    """(node count, start, stop): windows around a multiple of the engine's
    block length, ``max(1, 4096 // nodes)`` cycles, so that many cross a
    block boundary, ending at cycle 10**7 at most."""
    nodes = draw(st.sampled_from([1, 36, 64, 256]))
    block = max(1, 4096 // nodes)
    boundary = block * draw(st.integers(1, 10**7 // block))
    start = boundary - draw(st.integers(0, min(block, boundary)))
    stop = min(10**7 + 1, start + draw(st.integers(1, 2 * block)))
    return nodes, start, stop


@given(
    st.integers(0, U64_MAX),
    draw_windows(),
    st.floats(0.0, 1.0),
    st.integers(1, 8),
)
@example(seed=U64_MAX, window=(256, 10**7 - 20, 10**7 + 1), rate=1.0, packet_length=1)
@example(seed=0, window=(64, 60, 70), rate=0.05, packet_length=4)
@settings(max_examples=40, deadline=None)
def test_block_draw_equals_the_scalar_stream(seed, window, rate, packet_length):
    nodes, start, stop = window
    keys = workload.draw0_keys(seed, nodes)
    draws = workload.draw0_block(keys, start, stop)
    assert draws.dtype == np.uint64 and draws.shape == (stop - start, nodes)
    assert [[int(u) for u in row] for row in draws] == [
        [workload.stream_u64(seed, node, cycle, 0) for node in range(nodes)]
        for cycle in range(start, stop)
    ]
    prob = rate / packet_length
    k = workload.hit_threshold(prob)
    hits = draws <= np.uint64(k) if k >= 0 else np.zeros(draws.shape, dtype=bool)
    assert hits.tolist() == [
        [workload.stream_float(seed, node, cycle, 0) < prob for node in range(nodes)]
        for cycle in range(start, stop)
    ]
    if prob == 1.0:
        assert hits.all()
    if k >= 0:  # the engine's hit test: (row, node) of every hit, row-major
        rows, hit_nodes = workload.draw0_hits(keys, start, stop, k)
        assert list(zip(rows, hit_nodes)) == [
            (row, node) for row, cells in enumerate(hits.tolist())
            for node, hit in enumerate(cells) if hit
        ]


@given(
    st.one_of(st.sampled_from([0.0, 0.05 / 4, 0.3 / 4, 1.0]), st.floats(0.0, 1.0)),
    st.data(),
)
@settings(max_examples=200, deadline=None)
def test_hit_threshold_is_exact_near_the_edges(prob, data):
    """u values a few float ulps around the threshold and just below 2**64,
    where u / 2**64 rounds up to 1.0. Below probability 1 a hit is exactly
    u / 2**64 < prob; at probability 1 every u hits."""
    k = workload.hit_threshold(prob)
    us = [max(0, k - 1), max(0, k), min(U64_MAX, k + 1), U64_MAX - 1024, U64_MAX]
    edge = st.one_of(
        st.integers(max(0, k - 5000), min(U64_MAX, k + 5000)),
        st.integers(U64_MAX - 5000, U64_MAX),
    )
    us += data.draw(st.lists(edge, min_size=1, max_size=64))
    expected = [workload.unit_float(u) < prob for u in us]
    assert [u <= k for u in us] == expected
    if k >= 0:
        assert (np.array(us, dtype=np.uint64) <= np.uint64(k)).tolist() == expected
    if prob < 1.0:
        assert expected == [u / float(1 << 64) < prob for u in us]
    else:
        assert k == U64_MAX and all(expected)


# -- traffic spec validation -------------------------------------------------

def test_spec_validation():
    with pytest.raises(ConfigError):
        workload.TrafficSpec(injection_rate=1.5)
    with pytest.raises(ConfigError):
        workload.TrafficSpec(pattern="tornado")
    with pytest.raises(ConfigError):
        workload.TrafficSpec(pattern=workload.PERMUTATION)
    with pytest.raises(ConfigError):
        workload.TrafficSpec(packet_length=0)
    with pytest.raises(ConfigError):
        workload.TrafficSpec(pattern=workload.HOTSPOT, hotspot_fraction=2.0)


# -- destination patterns ----------------------------------------------------

def test_transpose_destination():
    t = topo.mesh(4, 4)
    assert workload.transpose_destination(t, t.xy_node(1, 3)) == t.xy_node(3, 1)
    assert workload.transpose_destination(t, 5) == 5  # diagonal fixed point
    with pytest.raises(ConfigError):
        workload.transpose_destination(topo.mesh(4, 3), 0)


def test_complement_destination():
    t = topo.mesh(4, 4)
    assert workload.complement_destination(t, 0) == 15
    assert workload.complement_destination(t, t.xy_node(1, 2)) == t.xy_node(2, 1)


def test_inject_uniform_never_self_and_full_coverage():
    t = topo.mesh(4, 4)
    spec = workload.TrafficSpec(injection_rate=1.0, packet_length=1, seed=3)
    seen = set()
    for node in range(16):
        for cycle in range(300):
            dst = workload.inject(spec, t, node, cycle)
            assert dst is not None and dst != node
            if node == 0:
                seen.add(dst)
    assert seen == set(range(1, 16))


def test_inject_rate_scales_with_packet_length():
    """Offered load in flits stays at the rate: probability = rate/length."""
    t = topo.mesh(4, 4)
    cycles = 20_000
    for length in (1, 4):
        spec = workload.TrafficSpec(
            injection_rate=0.2, packet_length=length, seed=9
        )
        count = sum(
            workload.inject(spec, t, 0, c) is not None for c in range(cycles)
        )
        assert count * length / cycles == pytest.approx(0.2, abs=0.02)


def test_inject_zero_rate():
    t = topo.mesh(2, 2)
    spec = workload.TrafficSpec(injection_rate=0.0)
    assert workload.inject(spec, t, 0, 0) is None


def test_inject_transpose_and_permutation_fixed_points_skip():
    t = topo.mesh(4, 4)
    spec = workload.TrafficSpec(
        pattern=workload.TRANSPOSE, injection_rate=1.0, packet_length=1
    )
    assert workload.inject(spec, t, 5, 0) is None  # (1,1) maps to itself
    perm = tuple(range(16))
    spec = workload.TrafficSpec(
        pattern=workload.PERMUTATION, injection_rate=1.0, packet_length=1,
        permutation=perm,
    )
    assert workload.inject(spec, t, 3, 0) is None


def test_inject_hotspot_bias():
    t = topo.mesh(4, 4)
    spec = workload.TrafficSpec(
        pattern=workload.HOTSPOT, injection_rate=1.0, packet_length=1,
        hotspot_node=7, hotspot_fraction=0.5, seed=11,
    )
    hits = sum(
        workload.inject(spec, t, 0, c) == 7 for c in range(4000)
    )
    # 50% direct plus 1/15 of the uniform share
    assert hits / 4000 == pytest.approx(0.5 + 0.5 / 15, abs=0.03)


def test_inject_resamples_dead_destinations():
    t = topo.mesh(3, 3)
    spec = workload.TrafficSpec(injection_rate=1.0, packet_length=1, seed=2)
    alive = lambda u: u in (0, 1)
    for cycle in range(200):
        dst = workload.inject(spec, t, 0, cycle, alive=alive)
        assert dst == 1


def test_inject_order_independent_of_evaluation():
    """Counter-based draws: querying nodes in any order gives the same
    per-node decisions."""
    t = topo.mesh(4, 4)
    spec = workload.TrafficSpec(injection_rate=0.3, seed=5)
    fwd = {n: workload.inject(spec, t, n, 42) for n in range(16)}
    rev = {n: workload.inject(spec, t, n, 42) for n in reversed(range(16))}
    assert fwd == rev


def reference_u64(seed, node, cycle, draw):
    """``stream_u64`` as four chained splitmix64 mixes, recomputed in full
    for every draw."""
    h = workload._mix(seed ^ 0x9E3779B97F4A7C15)
    h = workload._mix(h ^ node)
    h = workload._mix(h ^ (cycle * 0xD1B54A32D192ED03))
    return workload._mix(h ^ (draw * 0x8CB92BA72F3D8DD7))


def reference_inject(spec, t, node, cycle, alive=None):
    """``workload.inject`` with every draw taken from ``reference_u64``."""
    if spec.injection_rate <= 0.0:
        return None
    if workload.unit_float(reference_u64(spec.seed, node, cycle, 0)) >= (
        spec.injection_rate / spec.packet_length
    ):
        return None
    if spec.pattern == workload.TRANSPOSE:
        x, y = t.node_xy(node)
        dst = t.xy_node(y, x)
        return None if dst == node else dst
    if spec.pattern == workload.PERMUTATION:
        dst = spec.permutation[node]
        return None if dst == node else dst
    if spec.pattern == workload.HOTSPOT and workload.unit_float(
        reference_u64(spec.seed, node, cycle, 1)
    ) < spec.hotspot_fraction:
        return None if spec.hotspot_node == node else spec.hotspot_node
    for attempt in range(100):
        dst = reference_u64(spec.seed, node, cycle, 2 + attempt) % (t.node_count - 1)
        dst += dst >= node
        if alive is None or alive(dst):
            return dst
    return None


@given(
    st.sampled_from(workload.PATTERNS),
    st.integers(0, U64_MAX),
    st.sampled_from([1.0, 0.5, 0.3, 0.05]),
    st.sampled_from([1, 4]),
    st.permutations(range(16)),
    st.one_of(st.none(), st.frozensets(st.integers(0, 15), min_size=1, max_size=15)),
    st.integers(0, 10**9),
)
@settings(max_examples=60, deadline=None, derandomize=True)
def test_inject_equals_the_four_mix_reference(
    pattern, seed, rate, packet_length, perm, alive_set, start
):
    """One hash prefix per call gives the same destination as four mixes
    per draw, for every pattern, with and without an alive test: every
    node over eight cycles from ``start``."""
    t = topo.mesh(4, 4)
    spec = workload.TrafficSpec(
        pattern=pattern, injection_rate=rate, packet_length=packet_length, seed=seed,
        hotspot_node=perm[0], permutation=tuple(perm),
    )
    alive = None if alive_set is None else alive_set.__contains__
    for cycle in range(start, start + 8):
        for node in range(t.node_count):
            assert workload.inject(spec, t, node, cycle, alive) == (
                reference_inject(spec, t, node, cycle, alive)
            ), (node, cycle)


# -- fault schedules ---------------------------------------------------------

def test_fault_intervals_half_open():
    t = topo.mesh(3, 3)
    sched = workload.FaultSchedule((workload.FaultEvent(("node", 4), 10, 20),))
    assert workload.faults_at(sched, 9) == (set(), set())
    nodes, links = workload.faults_at(sched, 10)
    assert nodes == {4} and links == set()
    # the view is the one place a failed node takes its links down
    failed_links = topo.TopologyView(t, nodes, links).failed_links
    assert (4, 1) in failed_links and (1, 4) in failed_links
    assert workload.faults_at(sched, 19)[0] == {4}
    assert workload.faults_at(sched, 20) == (set(), set())


def test_link_event_fails_both_directions():
    t = topo.mesh(3, 3)
    sched = workload.FaultSchedule(
        (workload.FaultEvent(("link", 0, 1), 0, workload.INFINITY),)
    )
    _, links = workload.faults_at(sched, 0)
    assert links == {(0, 1), (1, 0)}


def test_change_cycles():
    sched = workload.FaultSchedule(
        (
            workload.FaultEvent(("node", 1), 5, 9),
            workload.FaultEvent(("node", 2), 3, workload.INFINITY),
        )
    )
    assert sched.change_cycles() == [3, 5, 9]
    # a run starts with none failed: a fault down before 0 and still down
    # at 0 is applied at 0, and one over by 0 changes nothing
    down_at_0 = workload.FaultEvent(("node", 3), -5, 7)
    over_before_0 = workload.FaultEvent(("node", 4), -10, -5)
    over_at_0 = workload.FaultEvent(("link", 0, 1), -5, 0)
    assert workload.FaultSchedule(sched.events + (down_at_0,)).change_cycles() == [
        0, 3, 5, 7, 9]
    assert workload.FaultSchedule(
        sched.events + (over_before_0, over_at_0)).change_cycles() == [3, 5, 9]
    assert workload.FaultSchedule((over_before_0, over_at_0)).change_cycles() == []
    assert workload.FaultSchedule(
        sched.events + (down_at_0, over_before_0, over_at_0)).change_cycles() == [
        0, 3, 5, 7, 9]


def test_parse_fault_schedule():
    t = topo.mesh(3, 3)
    text = """
    # planned maintenance
    node 4 100 200
    link 0 1 50 inf
    """
    sched = workload.parse_fault_schedule(text, t)
    assert len(sched.events) == 2
    assert sched.events[0] == workload.FaultEvent(("node", 4), 100, 200)
    assert sched.events[1].up_cycle == math.inf


def test_parse_schedule_errors():
    t = topo.mesh(3, 3)
    with pytest.raises(ScheduleSyntaxError) as exc:
        workload.parse_fault_schedule("node 4 100", t)
    assert exc.value.line == 1
    with pytest.raises(ScheduleSyntaxError):
        workload.parse_fault_schedule("router 4 0 10", t)
    with pytest.raises(ScheduleSyntaxError):
        workload.parse_fault_schedule("node four 0 10", t)
    # the column is the bad token's own, not where its text first occurs
    with pytest.raises(ScheduleSyntaxError) as exc:
        workload.parse_fault_schedule("link 0 1 5 in", t)
    assert (exc.value.line, exc.value.column) == (1, 12)
    with pytest.raises(ScheduleSyntaxError) as exc:
        workload.parse_fault_schedule("node 0 o 5", t)
    assert (exc.value.line, exc.value.column) == (1, 8)
    with pytest.raises(UnknownElement):
        workload.parse_fault_schedule("node 99 0 10", t)
    with pytest.raises(UnknownElement):
        workload.parse_fault_schedule("link 0 8 0 10", t)  # not adjacent
    with pytest.raises(InvertedInterval):
        workload.parse_fault_schedule("node 4 20 10", t)
