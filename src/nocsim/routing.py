"""Routing algorithms: dimension-order XY, congestion-adaptive DyXY,
greedy advance over virtual coordinates with a shortest-route fallback,
neighborhood route enumeration, hierarchical multi-center routing, and
channel-dependency deadlock analysis.

All functions are pure; routes are tuples of node ids (source..destination
inclusive), loop-free and valid over the alive view they were built on.
Shortest routes and hop distances come from ``topology`` (one BFS, one
lowest-id shortest-successor rule). The channel dependency graph is a plain
adjacency map and its acyclicity test is Kahn's algorithm, so the package
needs no graph library.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import topology as topo
from .addressing import coordinate_distance
from .errors import (
    BudgetExceeded,
    CoordinateAliasing,
    Unreachable,
    WrongTopologyKind,
)


@dataclass(frozen=True)
class RoutingDecision:
    kind: str  # "forward" | "arrived" | "local_minimum" | "no_route"
    port: int = None
    node: int = None

    @classmethod
    def forward(cls, port, node):
        return cls("forward", port, node)


ARRIVED = RoutingDecision("arrived")
LOCAL_MINIMUM = RoutingDecision("local_minimum")
NO_ROUTE = RoutingDecision("no_route")


def _as_view(t):
    return t if isinstance(t, topo.TopologyView) else topo.TopologyView(t)


# --------------------------------------------------------------------------
# Dimension-order routing (mesh / torus)
# --------------------------------------------------------------------------

def _axis_steps(cur, dst, size, wrap):
    """Signed per-axis step (+1/-1/0); tori take the shorter way around,
    ties going in the positive direction."""
    if cur == dst:
        return 0
    if not wrap:
        return 1 if dst > cur else -1
    fwd = (dst - cur) % size
    back = (cur - dst) % size
    return 1 if fwd <= back else -1


def _axis_distance(cur, dst, size, wrap):
    d = abs(dst - cur)
    if wrap:
        d = min(d, size - d)
    return d


def route_xy(topology, src, dst):
    """X hops first, then Y; wrap-aware minimal on tori. A step never
    changes which way round is shorter, so each axis is stepped one way."""
    if topology.kind not in (topo.MESH, topo.TORUS):
        raise WrongTopologyKind(f"route_xy needs mesh or torus, got {topology.kind}")
    w, h = topology.grid_shape()
    wrap = topology.kind == topo.TORUS
    x, y = src % w, src // w
    dx, dy = dst % w, dst // w
    route = [src]
    step = _axis_steps(x, dx, w, wrap)
    while x != dx:
        x = (x + step) % w
        route.append(y * w + x)
    step = _axis_steps(y, dy, h, wrap)
    while y != dy:
        y = (y + step) % h
        route.append(y * w + x)
    return tuple(route)


def grid_distance(topology, src, dst):
    """Manhattan distance, wrap-aware on tori."""
    w, h = topology.grid_shape()
    wrap = topology.kind == topo.TORUS
    x, y = topology.node_xy(src)
    dx, dy = topology.node_xy(dst)
    return _axis_distance(x, dx, w, wrap) + _axis_distance(y, dy, h, wrap)


def next_hop_dyxy(topology, current, dst, occupancy):
    """DyXY: among minimal X/Y directions pick the neighbor with strictly
    lower buffer occupancy; ties go to X. Always minimal.

    ``occupancy`` maps neighbor node id -> buffered flit count.
    """
    if topology.kind != topo.MESH:
        raise WrongTopologyKind("DyXY is defined on meshes")
    if current == dst:
        return ARRIVED
    w, h = topology.grid_shape()
    x, y = topology.node_xy(current)
    dx, dy = topology.node_xy(dst)
    candidates = []
    if x != dx:
        candidates.append(topology.xy_node(x + (1 if dx > x else -1), y))
    if y != dy:
        candidates.append(topology.xy_node(x, y + (1 if dy > y else -1)))
    if len(candidates) == 1:
        nxt = candidates[0]
    else:
        x_nbr, y_nbr = candidates
        nxt = y_nbr if occupancy.get(y_nbr, 0) < occupancy.get(x_nbr, 0) else x_nbr
    return RoutingDecision.forward(topology.port_to(current, nxt), nxt)


# --------------------------------------------------------------------------
# Greedy advance over virtual coordinates
# --------------------------------------------------------------------------

def next_hop_greedy(coordinate_map, current, dst, alive_neighbors, metric="euclidean"):
    """Forward to the alive neighbor strictly closest to the destination in
    coordinate space; ties break to the lowest port index.

    ``alive_neighbors`` is a sequence of (port, node) pairs. Raises
    CoordinateAliasing when a non-destination node carries the destination's
    coordinate vector (distance 0 at the wrong node).
    """
    if current == dst:
        return ARRIVED
    coords = coordinate_map.coords
    here = coordinate_distance(coords[current], coords[dst], metric)
    if here == 0:
        raise CoordinateAliasing(
            f"node {current} has the coordinate vector of destination {dst}"
        )
    best = None
    for port, node in alive_neighbors:
        d = coordinate_distance(coords[node], coords[dst], metric)
        if d < here and (best is None or d < best[0]):
            best = (d, port, node)
    if best is None:
        return LOCAL_MINIMUM
    return RoutingDecision.forward(best[1], best[2])


# --------------------------------------------------------------------------
# Neighborhood method
# --------------------------------------------------------------------------

DEFAULT_ROUTE_BUDGET = 4096


def neighborhood_routes(view, src, dst, budget=DEFAULT_ROUTE_BUDGET):
    """Two-stage neighborhood method: label every node with its hop distance
    from the source, then walk backward from the destination branching into
    every neighbor labeled exactly one less. Returns the set of all shortest
    routes; raises BudgetExceeded past the enumeration cap."""
    view = _as_view(view)
    label = view.bfs_distances(src)
    if label[dst] < 0:
        raise Unreachable(f"{dst} not reachable from {src}")
    # predecessors: p is one step before x when link p->x is alive
    preds = [[] for _ in range(view.node_count)]
    for u in range(view.node_count):
        if label[u] < 0:
            continue
        for _, v in view.alive_neighbors(u):
            if label[v] == label[u] + 1:
                preds[v].append(u)
    routes = set()
    stack = [(dst, (dst,))]
    while stack:
        node, suffix = stack.pop()
        if node == src:
            routes.add(suffix)
            if len(routes) > budget:
                raise BudgetExceeded(f"more than {budget} shortest routes")
            continue
        for p in preds[node]:
            stack.append((p, (p,) + suffix))
    return routes


# --------------------------------------------------------------------------
# Hierarchical multi-center routing
# --------------------------------------------------------------------------

def hierarchical_route(address_map, src, dst):
    """Best up-and-down route over all centers' shortest-path trees,
    truncated at the deepest common tree node; ties go to the lowest-index
    center."""
    if src == dst:
        return (src,)
    best = None
    for ci in range(len(address_map.centers)):
        up_src = address_map.path_to_center(src, ci)
        up_dst = address_map.path_to_center(dst, ci)
        pos = {node: i for i, node in enumerate(up_dst)}
        for i, node in enumerate(up_src):
            if node in pos:
                route = tuple(up_src[: i + 1]) + tuple(reversed(up_dst[: pos[node]]))
                break
        if best is None or len(route) < len(best):
            best = route
    return best


# --------------------------------------------------------------------------
# Greedy with neighborhood fallback
# --------------------------------------------------------------------------

def _erase_loops(route):
    out = []
    index = {}
    for node in route:
        if node in index:
            del_from = index[node]
            for n in out[del_from:]:
                del index[n]
            out = out[:del_from]
        index[node] = len(out)
        out.append(node)
    return tuple(out)


def greedy_with_fallback(coordinate_map, view, src, dst, metric="euclidean"):
    """Greedy advance hop by hop; on a local minimum or coordinate aliasing,
    finish with the lexicographically smallest shortest route from the
    stuck node, walked along ``shortest_successors``. The result is always
    valid over the view and loop-free; raises Unreachable when the stuck
    node cannot reach dst."""
    view = _as_view(view)
    route = [src]
    current = src
    while current != dst:
        try:
            decision = next_hop_greedy(
                coordinate_map, current, dst, view.alive_neighbors(current), metric
            )
        except CoordinateAliasing:
            decision = LOCAL_MINIMUM
        if decision.kind == "forward":
            current = decision.node
            route.append(current)
            continue
        # stuck: splice in a shortest route from here
        fallback = topo.successor_route(view.shortest_successors(dst)[1], current)
        if not fallback:
            raise Unreachable(f"{dst} not reachable from {current}")
        return _erase_loops(tuple(route[:-1]) + fallback)
    return tuple(route)


# --------------------------------------------------------------------------
# Channel dependency graph / deadlock analysis
# --------------------------------------------------------------------------

class ChannelDependencyGraph:
    """Channels and the channels each may wait on, as an adjacency map.

    ``nodes`` lists the channels in insertion order; ``waits_on[c]`` holds
    the channels a packet in c may request next.
    """

    def __init__(self):
        self.waits_on = {}

    @property
    def nodes(self):
        return self.waits_on.keys()

    def add_node(self, channel):
        self.waits_on.setdefault(channel, set())

    def add_edge(self, channel, next_channel):
        self.add_node(next_channel)
        self.waits_on.setdefault(channel, set()).add(next_channel)

    def has_edge(self, channel, next_channel):
        return next_channel in self.waits_on.get(channel, ())

    def number_of_nodes(self):
        return len(self.waits_on)

    def number_of_edges(self):
        return sum(len(nxt) for nxt in self.waits_on.values())


def build_cdg(topology, next_hops_fn, vc_count=1):
    """Channel dependency graph over (src, dst, vc) virtual channels.

    ``next_hops_fn(node, dst, in_vc, came_from)`` returns the
    (next_node, out_vc) pairs the routing relation may take for a packet at
    ``node`` heading to ``dst``; ``in_vc``/``came_from`` are None at
    injection. Dependencies are collected from the channel states actually
    reachable for each destination.
    """
    g = ChannelDependencyGraph()
    for u in range(topology.node_count):
        for v in topology.neighbors(u):
            for vc in range(vc_count):
                g.add_node((u, v, vc))
    for dst in range(topology.node_count):
        seen = set()
        frontier = []
        for src in range(topology.node_count):
            if src == dst:
                continue
            for nxt, vc in next_hops_fn(src, dst, None, None):
                ch = (src, nxt, vc)
                if ch not in seen:
                    seen.add(ch)
                    frontier.append(ch)
        while frontier:
            u, v, vc = frontier.pop()
            if v == dst:
                continue
            for nxt, out_vc in next_hops_fn(v, dst, vc, u):
                ch = (v, nxt, out_vc)
                g.add_edge((u, v, vc), ch)
                if ch not in seen:
                    seen.add(ch)
                    frontier.append(ch)
    return g


def is_deadlock_free(cdg):
    """Dally & Seitz: deadlock-free when the dependency graph is acyclic.
    Kahn's algorithm: repeatedly remove a channel that no remaining channel
    waits on; the graph is acyclic when every channel goes."""
    waiters = dict.fromkeys(cdg.waits_on, 0)  # channel -> channels waiting on it
    for nxt in cdg.waits_on.values():
        for c in nxt:
            waiters[c] += 1
    free = [c for c, k in waiters.items() if k == 0]
    removed = 0
    while free:
        c = free.pop()
        removed += 1
        for d in cdg.waits_on[c]:
            waiters[d] -= 1
            if waiters[d] == 0:
                free.append(d)
    return removed == len(waiters)


# Canned routing relations for the CDG builder -----------------------------

def xy_relation(topology):
    """Deterministic XY on a mesh or torus (single VC)."""

    def next_hops(node, dst, in_vc, came_from):
        if node == dst:
            return []
        r = route_xy(topology, node, dst)
        return [(r[1], 0)]

    return next_hops


def dyxy_relation(topology):
    """DyXY's CDG-facing relation: the zero-congestion projection (all
    occupancies equal, ties to X), which coincides with XY. The unrestricted
    minimal-adaptive relation has a cyclic CDG; see minimal_adaptive_relation
    for that variant."""
    return xy_relation(topology)


def minimal_adaptive_relation(topology):
    """Fully adaptive minimal: every neighbor strictly closer (BFS) to the
    destination is a possible next hop, single VC."""
    dist_from = [topology.bfs_distances(u) for u in range(topology.node_count)]

    def next_hops(node, dst, in_vc, came_from):
        if node == dst:
            return []
        d = dist_from[dst]
        return [(v, 0) for v in topology.neighbors(node) if d[v] == d[node] - 1]

    return next_hops


def torus_xy_next(topology, node, dst, in_vc, came_from):
    """One wrap-aware XY hop on a torus with dateline escape VCs.

    Packets start each dimension on VC 0 and switch to VC 1 after crossing
    that ring's wrap link (the dateline). Returns (next_node, out_vc).
    """
    nxt = route_xy(topology, node, dst)[1]
    w, h = topology.grid_shape()
    x, y = node % w, node // w
    nx_, ny_ = nxt % w, nxt // w
    next_is_x = ny_ == y
    if came_from is None:
        vc = 0
    else:
        prev_was_x = came_from // w == y
        # VC carries over within a dimension; switching X->Y restarts at 0
        vc = in_vc if prev_was_x == next_is_x else 0
    if next_is_x:
        if (x == w - 1 and nx_ == 0) or (x == 0 and nx_ == w - 1):
            vc = 1
    else:
        if (y == h - 1 and ny_ == 0) or (y == 0 and ny_ == h - 1):
            vc = 1
    return nxt, vc


def torus_xy_dateline_relation(topology, vc_count=2):
    """CDG relation for wrap-aware XY with the dateline escape VC."""
    if vc_count < 2:
        return xy_relation(topology)

    def next_hops(node, dst, in_vc, came_from):
        if node == dst:
            return []
        return [torus_xy_next(topology, node, dst, in_vc, came_from)]

    return next_hops
