"""Routing algorithms and channel-dependency deadlock analysis.

``ALGORITHMS`` defines each algorithm the engine runs once: XY, DyXY,
greedy advance over virtual coordinates (alone or with a shortest-route
fallback), the neighborhood method and hierarchical multi-center routing.
The engine takes its decisions through an entry's one state transition,
the flat closure ``relation`` makes of it over a ``RoutingContext``;
``build_cdg`` explores every state the same closure reaches, so
``check-deadlock`` judges the engine's own relation, and ``walk`` follows
its first option from source to destination, the path a lone head takes
on an idle network. XY, DyXY and greedy advance route hop by hop, XY on
meshes and tori alike; only the neighborhood method and hierarchical
routing (and greedy_fallback past a local minimum) carry a source route.
Routes are loop-free node tuples (source..destination), valid over the
alive view they were built on; a packet carries its route from the head's
node on. Shortest routes and hierarchical up-routes are both
``topology.successor_route`` walks of tables from ``topology``'s one BFS
and lowest-id successor rule. A ``RoutingContext`` keeps its
per-destination tables over the base topology (hop distances, torus XY
next hops) across fault epochs and rebuilds only the shortest successors
over each new alive view. The dependency graph is a plain adjacency map
tested by Kahn's algorithm: no graph library.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import topology as topo
from .addressing import coordinate_distance
from .errors import (
    BudgetExceeded,
    ConfigError,
    CoordinateAliasing,
    InvalidParams,
    Unreachable,
    WrongTopologyKind,
)


@dataclass(frozen=True)
class RoutingDecision:
    kind: str  # "forward" | "arrived" | "local_minimum"
    port: int = None
    node: int = None


ARRIVED = RoutingDecision("arrived")
LOCAL_MINIMUM = RoutingDecision("local_minimum")


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


def torus_xy_next(ctx, node, dst, in_vc, came_from):
    """One wrap-aware XY hop on a torus with dateline escape VCs.

    Packets start each dimension on VC 0 and switch to VC 1 after crossing
    that ring's wrap link (the dateline). Returns (next_node, out_vc). The
    next node comes from ``ctx``'s XY table; a miss stores every hop of
    one ``route_xy``, as each suffix of an XY route is the XY route from
    its first node.
    """
    nexts = ctx.xy_next.get(dst)
    if nexts is None:
        nexts = ctx.xy_next[dst] = [None] * ctx.topology.node_count
    nxt = nexts[node]
    if nxt is None:
        route = route_xy(ctx.topology, node, dst)
        for u, v in zip(route, route[1:]):
            nexts[u] = v
        nxt = nexts[node]
    w, h = ctx.grid
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


# --------------------------------------------------------------------------
# Greedy advance over virtual coordinates
# --------------------------------------------------------------------------

def next_hop_greedy(coordinate_map, current, dst, alive_neighbors):
    """Forward to the alive neighbor strictly closest to the destination in
    coordinate space; ties break to the lowest port index.

    ``alive_neighbors`` is a sequence of (port, node) pairs. Raises
    CoordinateAliasing when a non-destination node carries the destination's
    coordinate vector (distance 0 at the wrong node).
    """
    if current == dst:
        return ARRIVED
    coords = coordinate_map.coords
    here = coordinate_distance(coords[current], coords[dst])
    if here == 0:
        raise CoordinateAliasing(
            f"node {current} has the coordinate vector of destination {dst}"
        )
    best = None
    for port, node in alive_neighbors:
        d = coordinate_distance(coords[node], coords[dst])
        if d < here and (best is None or d < best[0]):
            best = (d, port, node)
    if best is None:
        return LOCAL_MINIMUM
    return RoutingDecision("forward", best[1], best[2])


# --------------------------------------------------------------------------
# Neighborhood method
# --------------------------------------------------------------------------

DEFAULT_ROUTE_BUDGET = 4096


def neighborhood_routes(view, src, dst, budget=DEFAULT_ROUTE_BUDGET):
    """Two-stage neighborhood method: label every node with its hop distance
    from the source, then walk backward from the destination branching into
    every neighbor labeled exactly one less. Returns the set of all shortest
    routes; raises BudgetExceeded past the enumeration cap and
    InvalidParams for a node outside the topology."""
    view = _as_view(view)
    for node in (src, dst):
        if not 0 <= node < view.node_count:
            raise InvalidParams(f"node {node} not in 0..{view.node_count - 1}")
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

def hierarchical_route(trees, src, dst):
    """Best up-and-down route over the centers' shortest-path trees
    (``addressing.assign_hierarchical_addresses``), truncated at the
    deepest common tree node; ties go to the lowest-index center."""
    if src == dst:
        return (src,)
    best = None
    for tree in trees:
        up_src = topo.successor_route(tree, src)
        up_dst = topo.successor_route(tree, dst)
        pos = {node: i for i, node in enumerate(up_dst)}
        for i, node in enumerate(up_src):
            if node in pos:
                route = tuple(up_src[: i + 1]) + tuple(reversed(up_dst[: pos[node]]))
                break
        if best is None or len(route) < len(best):
            best = route
    return best


# --------------------------------------------------------------------------
# The routing table: one definition per algorithm
# --------------------------------------------------------------------------

class RoutingContext:
    """What routing reads besides the packet: the base topology and its
    grid shape, the alive view, the VC count, an algorithm's address maps,
    and per-destination tables. Two are over the base topology and kept
    across fault epochs: hop distances, and the XY next node of every
    node (torus XY ignores faults; the engine drops a packet whose next
    link is down). Two are over the alive view, so ``set_view`` clears
    them: shortest successors, and every node's greedy next node, filled by
    ``next_hop_greedy`` as heads ask."""

    def __init__(self, view, vc_count=1, coordinates=None):
        self.view = _as_view(view)
        self.topology = self.view.base
        # (width, height) of a mesh or torus, else None
        self.grid = (
            self.topology.grid_shape()
            if self.topology.kind in (topo.MESH, topo.TORUS) else None
        )
        self.vc_count = vc_count
        self.coordinates = coordinates
        self.addresses = None
        self.distances = {}
        self.xy_next = {}     # dst -> next node of each node, filled by route_xy
        self.successors = {}
        self.greedy_next = {}  # dst -> greedy next node of each node (-1: none)

    def set_view(self, view):
        self.view = view
        self.successors.clear()
        self.greedy_next.clear()

    def first_route(self, src, dst):
        """min(neighborhood_routes(view, src, dst)), or () if unreachable."""
        succ = self.successors.get(dst)
        if succ is None:
            succ = self.successors[dst] = self.view.shortest_successors(dst)[1]
        return topo.successor_route(succ, src)

    def distance_to(self, dst):
        """Every node's hop distance to dst over the fault-free topology."""
        d = self.distances.get(dst)
        if d is None:
            d = self.distances[dst] = self.topology.bfs_distances(dst)
        return d


@dataclass(frozen=True)
class Algorithm:
    """One routing algorithm, read alike by the engine and by ``build_cdg``.

    A head's state is (node, dst, in_vc, came_from, route); route is the
    source route its packet carries from the head's node on, followed on
    VC 0. ``source_route(ctx, src, dst)``, where an algorithm has one,
    fixes it at injection (() if dst is unreachable). Without one a head
    routes hop by hop: ``options(ctx, node, dst, in_vc, came_from)`` lists
    the (next node, out VC, route or None) a head may take, in order; a
    route, starting at the next node, switches to source routing from
    there on. ``relation`` makes the one transition between states from
    these two. Only minimal routing (DyXY, minimal_adaptive) lists more
    than one option, and a head takes the one ``pick`` chooses.
    """

    kinds: tuple = None         # topology kinds it runs on; None: any
    options: object = None
    source_route: object = None
    coordinates: bool = False   # reads virtual coordinates
    centers: bool = False       # reads hierarchical addresses

    @staticmethod
    def pick(options, congestion):
        """The option a head takes among two or more: the one whose next
        node is least congested, the first on ties."""
        return min(options, key=lambda option: congestion(option[0]))


def _xy(ctx, node, dst, in_vc, came_from):
    # a torus picks dateline VCs; a mesh steps X until the column matches,
    # then Y, on VC 0
    if ctx.topology.kind == topo.TORUS:
        nxt, vc = torus_xy_next(ctx, node, dst, in_vc, came_from)
        return [(nxt, min(vc, ctx.vc_count - 1), None)]
    w = ctx.grid[0]
    x, dx = node % w, dst % w
    if x != dx:
        return [(node + 1 if dx > x else node - 1, 0, None)]
    return [(node + w if dst > node else node - w, 0, None)]


def _minimal(ctx, node, dst, in_vc, came_from):
    # every neighbour one hop closer, in port order: X before Y on a mesh
    d = ctx.distance_to(dst)
    return [(v, 0, None) for v in ctx.topology.neighbors(node) if d[v] == d[node] - 1]


def _greedy(ctx, node, dst, in_vc, came_from):
    nexts = ctx.greedy_next.get(dst)
    if nexts is None:
        nexts = ctx.greedy_next[dst] = [None] * ctx.topology.node_count
    nxt = nexts[node]
    if nxt is None:
        try:
            d = next_hop_greedy(ctx.coordinates, node, dst, ctx.view.alive_neighbors(node))
        except CoordinateAliasing:
            d = LOCAL_MINIMUM
        nxt = nexts[node] = d.node if d.kind == "forward" else -1
    return [(nxt, 0, None)] if nxt >= 0 else []


def _greedy_fallback(ctx, node, dst, in_vc, came_from):
    # stuck at a local minimum: the smallest shortest route from here on
    options = _greedy(ctx, node, dst, in_vc, came_from)
    if options:
        return options
    route = ctx.first_route(node, dst)
    return [(route[1], 0, route[1:])] if route else []


ALGORITHMS = {
    "xy": Algorithm(kinds=(topo.MESH, topo.TORUS), options=_xy),
    "dyxy": Algorithm(kinds=(topo.MESH,), options=_minimal),
    "greedy": Algorithm(options=_greedy, coordinates=True),
    "greedy_fallback": Algorithm(options=_greedy_fallback, coordinates=True),
    "neighborhood": Algorithm(source_route=lambda ctx, src, dst: ctx.first_route(src, dst)),
    "hierarchical": Algorithm(
        source_route=lambda ctx, src, dst: hierarchical_route(ctx.addresses, src, dst),
        centers=True,
    ),
}

# check-deadlock also judges fully adaptive minimal routing, which no run uses
RELATIONS = dict(ALGORITHMS, minimal_adaptive=Algorithm(options=_minimal))


def lookup(name, kind, table=ALGORITHMS):
    """The entry for algorithm ``name`` on a topology of ``kind``."""
    algorithm = table.get(name)
    if algorithm is None:
        raise ConfigError(f"unknown routing algorithm {name!r}")
    if algorithm.kinds is not None and kind not in algorithm.kinds:
        raise ConfigError(f"{name} requires a {' or '.join(algorithm.kinds)}, got {kind}")
    return algorithm


def relation(algorithm, ctx):
    """``algorithm``'s one state transition over ``ctx``, the relation that
    the engine routes every head by and that ``build_cdg`` and ``walk``
    follow: ``next_hops(node, dst, in_vc, came_from, route)`` gives the
    (next node, out VC, route from the next node on or None) options of a
    head in that state; in_vc, came_from and route are None at injection.
    A carried route gives its next node, or none at its end; a head that
    carries none routes by the algorithm's options, after fixing its source
    route at injection when the algorithm has one."""
    options, source_route = algorithm.options, algorithm.source_route

    def next_hops(node, dst, in_vc, came_from, route):
        if route is None and came_from is None and source_route is not None:
            route = source_route(ctx, node, dst)
        if route is not None:
            return [(route[1], 0, route[1:])] if len(route) > 1 else []
        return options(ctx, node, dst, in_vc, came_from)

    return next_hops


def walk(next_hops, src, dst):
    """The nodes a lone head visits from src to dst under the relation
    ``next_hops`` (see ``relation``), taking the first option at every
    hop, as the engine does on an idle network. Links are not checked
    against the view: the engine drops a head whose next link is down.
    Raises Unreachable at a state with no option."""
    path, in_vc, came_from, route = [src], None, None, None
    while path[-1] != dst:
        options = next_hops(path[-1], dst, in_vc, came_from, route)
        if not options:
            raise Unreachable(f"{dst} not reachable from {path[-1]}")
        came_from = path[-1]
        nxt, in_vc, route = options[0]
        path.append(nxt)
    return tuple(path)


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

    def add_edge(self, channel, next_channel):
        self.waits_on.setdefault(next_channel, set())
        self.waits_on.setdefault(channel, set()).add(next_channel)

    def has_edge(self, channel, next_channel):
        return next_channel in self.waits_on.get(channel, ())

    def number_of_nodes(self):
        return len(self.waits_on)

    def number_of_edges(self):
        return sum(len(nxt) for nxt in self.waits_on.values())


def build_cdg(topology, next_hops_fn, vc_count=1):
    """Channel dependency graph over (src, dst, vc) virtual channels.

    ``next_hops_fn(node, dst, in_vc, came_from, route)`` returns the
    (next_node, out_vc, next_route) options of a packet at ``node`` heading
    to ``dst``, ``route`` being the source route it carries from ``node``
    on, if any; ``in_vc``/``came_from``/``route`` are None at injection.
    Dependencies are collected from the routing states actually reachable
    for each destination; every channel a state occupies is a node, even
    one outside the topology's links and VCs.
    """
    g = ChannelDependencyGraph()
    waits_on = g.waits_on
    for u in range(topology.node_count):
        for v in topology.neighbors(u):
            for vc in range(vc_count):
                waits_on[(u, v, vc)] = set()
    for dst in range(topology.node_count):
        seen = set()
        frontier = []
        for src in range(topology.node_count):
            if src == dst:
                continue
            for nxt, vc, route in next_hops_fn(src, dst, None, None, None):
                state = (src, nxt, vc, route)
                if state not in seen:
                    seen.add(state)
                    frontier.append(state)
        while frontier:
            u, v, vc, route = frontier.pop()
            deps = waits_on.get((u, v, vc))
            if deps is None:
                deps = waits_on[(u, v, vc)] = set()
            if v == dst:
                continue
            for nxt, out_vc, out_route in next_hops_fn(v, dst, vc, u, route):
                deps.add((v, nxt, out_vc))
                state = (v, nxt, out_vc, out_route)
                if state not in seen:
                    seen.add(state)
                    frontier.append(state)
    return g


def dependency_cycle(cdg):
    """One cycle of channels, each waiting on the next and the last on the
    first, or None when the graph is acyclic.

    Kahn's algorithm from the sinks: repeatedly remove a channel that waits
    on no remaining channel. Every channel left waits on another one left,
    so following the lowest of those from the lowest channel left comes
    round to a channel already passed."""
    left = {c: len(nxt) for c, nxt in cdg.waits_on.items()}  # waits still open
    waiters = {c: [] for c in left}
    for c, nxt in cdg.waits_on.items():
        for d in nxt:
            waiters[d].append(c)
    free = [c for c, k in left.items() if k == 0]
    while free:
        d = free.pop()
        del left[d]
        for c in waiters[d]:
            left[c] -= 1
            if not left[c]:
                free.append(c)
    if not left:
        return None
    path = [min(left)]
    while True:
        c = min(d for d in cdg.waits_on[path[-1]] if d in left)
        if c in path:
            return path[path.index(c):]
        path.append(c)


def is_deadlock_free(cdg):
    """Dally & Seitz: deadlock-free when the dependency graph is acyclic."""
    return dependency_cycle(cdg) is None


# Canned relations for the CDG builder -----------------------------------

def xy_relation(topology):
    """XY on a mesh or torus, single VC."""
    return relation(ALGORITHMS["xy"], RoutingContext(topology))


def minimal_adaptive_relation(topology):
    """Fully adaptive minimal: every neighbor strictly closer (BFS) to the
    destination is a possible next hop, single VC."""
    return relation(RELATIONS["minimal_adaptive"], RoutingContext(topology))


def torus_xy_dateline_relation(topology, vc_count=2):
    """Wrap-aware XY with the dateline escape VC (XY alone below 2 VCs)."""
    return relation(ALGORITHMS["xy"], RoutingContext(topology, vc_count))
