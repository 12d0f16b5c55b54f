"""Synthetic traffic generation and fault schedules.

Injection randomness is counter-based: every draw is a pure function of
(seed, node, cycle, draw index), so the sequence is identical no matter in
which order nodes are evaluated. The (seed, node, cycle) part of the hash
is one prefix, which ``inject`` computes once for all its draws.

numpy is imported only inside the block draw (``_mix_vector``,
``draw0_keys``, ``draw0_block``), so importing this module, and the
analysis commands that do, never loads it.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field

from .errors import (
    ConfigError,
    InvertedInterval,
    ScheduleSyntaxError,
    UnknownElement,
)

UNIFORM_RANDOM = "uniform_random"
TRANSPOSE = "transpose"
HOTSPOT = "hotspot"
PERMUTATION = "permutation"

PATTERNS = (UNIFORM_RANDOM, TRANSPOSE, HOTSPOT, PERMUTATION)

_M64 = (1 << 64) - 1
_TWO64 = float(1 << 64)
_BELOW_ONE = 1.0 - 2.0**-53  # the largest float below 1.0


def _mix(x):
    """splitmix64 finalizer."""
    x &= _M64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _M64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _M64
    return x ^ (x >> 31)


def stream_prefix(seed, node, cycle):
    """The (seed, node, cycle) part of ``stream_u64``: three mixes."""
    h = _mix(seed ^ 0x9E3779B97F4A7C15)
    h = _mix(h ^ node)
    return _mix(h ^ (cycle * 0xD1B54A32D192ED03))


def prefix_u64(prefix, draw):
    """Draw ``draw`` of the stream whose ``stream_prefix`` is ``prefix``."""
    return _mix(prefix ^ (draw * 0x8CB92BA72F3D8DD7))


def stream_u64(seed, node, cycle, draw=0):
    """Counter-based u64 keyed by (seed, node, cycle, draw)."""
    return prefix_u64(stream_prefix(seed, node, cycle), draw)


def unit_float(u):
    """u64 -> float in [0, 1). ``u / 2**64`` rounds up to exactly 1.0 for the
    top 1024 values; they map to the largest float below 1.0 instead, so a
    probability of 1.0 always hits and no test against a lower one changes."""
    return min(u / _TWO64, _BELOW_ONE)


def stream_float(seed, node, cycle, draw=0):
    return unit_float(stream_u64(seed, node, cycle, draw))


def _mix_vector(x):
    """``_mix`` over a uint64 array; numpy's uint64 arithmetic wraps mod
    2**64 exactly like the masked Python version."""
    import numpy as np

    x = (x ^ (x >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    x = (x ^ (x >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return x ^ (x >> np.uint64(31))


def draw0_keys(seed, node_count):
    """Per-node part of draw 0: the first two mixes of ``stream_u64``
    depend only on (seed, node)."""
    import numpy as np

    h = _mix(seed ^ 0x9E3779B97F4A7C15)
    return np.array([_mix(h ^ node) for node in range(node_count)], dtype=np.uint64)


def draw0_block(keys, start, stop):
    """``stream_u64(seed, node, cycle, 0)`` for every cycle in
    ``[start, stop)`` (rows) and every node (columns) in one evaluation,
    from ``draw0_keys(seed, ...)``; bit-identical to the scalar stream."""
    import numpy as np

    cycles = np.arange(start, stop, dtype=np.uint64) * np.uint64(0xD1B54A32D192ED03)
    h = _mix_vector(keys[np.newaxis, :] ^ cycles[:, np.newaxis])
    return _mix_vector(h)  # draw 0 xors in 0 * 0x8CB92BA72F3D8DD7


def hit_threshold(prob):
    """Largest u64 ``u`` with ``unit_float(u) < prob``, or -1 when there is
    none (prob <= 0): ``u <= hit_threshold(prob)`` exactly when
    ``stream_float`` would give a value below ``prob``. Every u64 hits at
    prob 1.0, and 2**64 itself would not fit a uint64, hence the inclusive
    bound. Found by bisection over the monotone conversion, so no rounding
    case is missed."""
    lo, hi = -1, _M64
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if unit_float(mid) < prob:
            lo = mid
        else:
            hi = mid - 1
    return lo


@dataclass(frozen=True)
class TrafficSpec:
    pattern: str = UNIFORM_RANDOM
    injection_rate: float = 0.1       # flits/node/cycle
    packet_length: int = 4
    seed: int = 0
    hotspot_node: int = 0
    hotspot_fraction: float = 0.5
    permutation: tuple = None         # node -> destination, for PERMUTATION

    def __post_init__(self):
        if not 0.0 <= self.injection_rate <= 1.0:
            raise ConfigError("injection_rate must be in [0,1]")
        if self.pattern == HOTSPOT and not 0.0 <= self.hotspot_fraction <= 1.0:
            raise ConfigError("hotspot_fraction must be in [0,1]")
        if self.pattern not in PATTERNS:
            raise ConfigError(f"unknown traffic pattern {self.pattern!r}")
        if self.pattern == PERMUTATION and self.permutation is None:
            raise ConfigError("permutation pattern needs a permutation table")
        if self.packet_length < 1:
            raise ConfigError("packet_length must be >= 1")


def transpose_destination(topology, node):
    """(x, y) -> (y, x) on a square grid."""
    w, h = topology.grid_shape()
    if w != h:
        raise ConfigError("transpose traffic needs a square grid")
    x, y = topology.node_xy(node)
    return topology.xy_node(y, x)


def complement_destination(topology, node):
    """(x, y) -> (w-1-x, h-1-y): the corner-to-corner permutation."""
    w, h = topology.grid_shape()
    x, y = topology.node_xy(node)
    return topology.xy_node(w - 1 - x, h - 1 - y)


def inject(spec, topology, node, cycle, alive=None):
    """Destination of the packet this node generates this cycle, or None.

    A packet appears with probability rate/packet_length, keeping the
    offered load in flits equal to the rate. Dead uniform-random
    destinations are resampled (bounded retries); other patterns return
    their destination regardless and leave fault handling to the engine.
    """
    if spec.injection_rate <= 0.0:
        return None
    prob = spec.injection_rate / spec.packet_length
    prefix = stream_prefix(spec.seed, node, cycle)
    if unit_float(prefix_u64(prefix, 0)) >= prob:
        return None
    n = topology.node_count
    if spec.pattern == TRANSPOSE:
        dst = transpose_destination(topology, node)
        return None if dst == node else dst
    if spec.pattern == PERMUTATION:
        dst = spec.permutation[node]
        return None if dst == node else dst
    if spec.pattern == HOTSPOT:
        if unit_float(prefix_u64(prefix, 1)) < spec.hotspot_fraction:
            return None if spec.hotspot_node == node else spec.hotspot_node
        # fall through to uniform for the non-hotspot share
    for attempt in range(100):
        u = prefix_u64(prefix, 2 + attempt)
        dst = u % (n - 1)
        if dst >= node:
            dst += 1  # uniform over nodes != self
        if alive is None or alive(dst):
            return dst
    return None


INFINITY = math.inf


@dataclass(frozen=True)
class FaultEvent:
    element: tuple   # ("node", id) or ("link", u, v)
    down_cycle: int
    up_cycle: float  # may be math.inf for permanent faults

    def active(self, cycle):
        return self.down_cycle <= cycle < self.up_cycle


@dataclass(frozen=True)
class FaultSchedule:
    events: tuple = ()

    def change_cycles(self):
        """Ascending cycles >= 0 at which the failed sets change, a run
        starting with none failed: a fault down before 0 and still down at
        0 is applied at 0, and one over by 0 never."""
        cycles = set()
        for ev in self.events:
            if ev.up_cycle > 0:
                cycles.add(max(ev.down_cycle, 0))
                if ev.up_cycle != INFINITY:
                    cycles.add(int(ev.up_cycle))
        return sorted(cycles)


def faults_at(schedule, cycle):
    """(failed node set, failed directed link set) for the half-open fault
    intervals [down, up). A link event takes down both directions of the
    physical link; the links of a failed node are left to ``TopologyView``,
    which expands every failed node into its incident links."""
    nodes = set()
    links = set()
    for ev in schedule.events:
        if not ev.active(cycle):
            continue
        if ev.element[0] == "node":
            nodes.add(ev.element[1])
        else:
            _, u, v = ev.element
            links.add((u, v))
            links.add((v, u))
    return nodes, links


def check_fault_event(event, topology, where=""):
    """The one rule for a fault event, read from a file or built in Python:
    its node or link is in ``topology`` (else UnknownElement) and it goes
    down before it comes up (else InvertedInterval). ``where`` starts each
    message."""
    element, n = event.element, topology.node_count
    if element[0] == "node":
        if not 0 <= element[1] < n:
            raise UnknownElement(f"{where}node {element[1]} not in topology")
    else:
        _, u, v = element
        if not (0 <= u < n and 0 <= v < n and topology.has_link(u, v)):
            raise UnknownElement(f"{where}link {u} {v} not in topology")
    if event.down_cycle >= event.up_cycle:
        raise InvertedInterval(f"{where}down {event.down_cycle} >= up {event.up_cycle}")


FAULT_LINES = {"node": "node <id> <down> <up|inf>", "link": "link <u> <v> <down> <up|inf>"}


def parse_fault_schedule(text, topology):
    """One event per line, as ``FAULT_LINES`` gives it. Blank lines and
    #-comments allowed."""
    events = []
    for ln_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0]
        # (text, column) of each token, for an error that names its column
        tokens = [(m.group(), m.start() + 1) for m in re.finditer(r"\S+", line)]
        if not tokens:
            continue
        kind = tokens[0][0]
        if kind not in FAULT_LINES:
            raise ScheduleSyntaxError(f"unknown element kind {kind!r}", ln_no)
        if len(tokens) != len(FAULT_LINES[kind].split()):
            raise ScheduleSyntaxError(f"expected {FAULT_LINES[kind]!r}", ln_no)
        *ids, down = [_parse_int(ln_no, *token) for token in tokens[1:-1]]
        event = FaultEvent((kind, *ids), down, _parse_up(ln_no, *tokens[-1]))
        check_fault_event(event, topology, f"line {ln_no}: ")
        events.append(event)
    return FaultSchedule(tuple(events))


def _parse_int(line, token, col):
    try:
        return int(token)
    except ValueError:
        raise ScheduleSyntaxError(f"expected integer, got {token!r}", line, col) from None


def _parse_up(line, token, col):
    if token == "inf":
        return INFINITY
    return _parse_int(line, token, col)
