"""NoC interconnect graphs: generators, scoring, fault views, and synthesis.

Node ids are 0..N-1. Meshes and tori are row-major (id = y*width + x).
Every link is full-duplex and modeled as two directed links; the port index
of a directed link is its position in the source node's neighbor list.
"""

from __future__ import annotations

import itertools
import random
from collections import deque
from dataclasses import dataclass

from .errors import Disconnected, Infeasible, InvalidParams

MESH = "mesh"
TORUS = "torus"
CIRCULANT = "circulant"
FLATTENED_BUTTERFLY = "flattened_butterfly"
SYNTHESIZED = "synthesized"
CUSTOM = "custom"


def bfs(adjacency, start):
    """Hop distance from start to every node over ``adjacency``, one
    sequence of neighbour ids per node; -1 where unreachable. The one
    breadth-first search of the package."""
    dist = [-1] * len(adjacency)
    dist[start] = 0
    q = deque([start])
    while q:
        u = q.popleft()
        du = dist[u] + 1
        for v in adjacency[u]:
            if dist[v] < 0:
                dist[v] = du
                q.append(v)
    return dist


class Topology:
    """Immutable directed graph of routers plus generator metadata.

    ``adjacency[u]`` is the ordered neighbor tuple of node u; the position of
    a neighbor in that tuple is the port index of the outgoing link.
    """

    def __init__(self, adjacency, kind=CUSTOM, kind_params=None):
        adjacency = tuple(tuple(nbrs) for nbrs in adjacency)
        n = len(adjacency)
        for u, nbrs in enumerate(adjacency):
            if len(set(nbrs)) != len(nbrs):
                raise InvalidParams(f"duplicate link at node {u}")
            for v in nbrs:
                if v == u:
                    raise InvalidParams(f"self-loop at node {u}")
                if not 0 <= v < n:
                    raise InvalidParams(f"link target {v} out of range")
                if u not in adjacency[v]:
                    raise InvalidParams(f"asymmetric link {u}->{v}")
        self.adjacency = adjacency
        self.node_count = n
        self.kind = kind
        self.kind_params = dict(kind_params or {})
        self.port_of = [  # port_of[u][v]: port index of the link u->v
            {v: p for p, v in enumerate(nbrs)} for nbrs in adjacency
        ]

    # -- structure queries -------------------------------------------------

    def neighbors(self, u):
        return self.adjacency[u]

    def degree(self, u):
        return len(self.adjacency[u])

    def has_link(self, u, v):
        return v in self.port_of[u]

    @property
    def links(self):
        """Set of directed links as (src, dst, port-at-src)."""
        return {
            (u, v, p)
            for u, nbrs in enumerate(self.adjacency)
            for p, v in enumerate(nbrs)
        }

    def undirected_edges(self):
        return sorted(
            {(min(u, v), max(u, v)) for u, nbrs in enumerate(self.adjacency) for v in nbrs}
        )

    def __eq__(self, other):
        return (
            isinstance(other, Topology)
            and self.adjacency == other.adjacency
            and self.kind == other.kind
            and self.kind_params == other.kind_params
        )

    def __repr__(self):
        return f"Topology({self.kind}, n={self.node_count}, params={self.kind_params})"

    # -- traversal ---------------------------------------------------------

    def bfs_distances(self, start):
        """Hop distance from start to every node; -1 where unreachable."""
        return bfs(self.adjacency, start)

    # -- mesh/torus coordinate helpers ------------------------------------

    def grid_shape(self):
        if self.kind not in (MESH, TORUS):
            raise InvalidParams(f"{self.kind} topology has no grid shape")
        return self.kind_params["width"], self.kind_params["height"]

    def node_xy(self, node):
        w, _ = self.grid_shape()
        return node % w, node // w

    def xy_node(self, x, y):
        w, _ = self.grid_shape()
        return y * w + x


@dataclass(frozen=True)
class TopologyScore:
    diameter: int
    avg_distance: float
    max_degree: int
    edge_count: int


# --------------------------------------------------------------------------
# Generators
# --------------------------------------------------------------------------

def mesh(width, height):
    if width < 1 or height < 1:
        raise InvalidParams("mesh dimensions must be positive")
    adj = []
    for y in range(height):
        for x in range(width):
            nbrs = []
            if x + 1 < width:
                nbrs.append(y * width + x + 1)
            if x > 0:
                nbrs.append(y * width + x - 1)
            if y + 1 < height:
                nbrs.append((y + 1) * width + x)
            if y > 0:
                nbrs.append((y - 1) * width + x)
            adj.append(nbrs)
    return Topology(adj, MESH, {"width": width, "height": height})


def torus(width, height):
    if width < 2 or height < 2:
        raise InvalidParams("torus dimensions must be at least 2")
    adj = []
    for y in range(height):
        for x in range(width):
            nbrs = []
            for nx, ny in (
                ((x + 1) % width, y),
                ((x - 1) % width, y),
                (x, (y + 1) % height),
                (x, (y - 1) % height),
            ):
                node = ny * width + nx
                if node not in nbrs:  # width/height == 2 folds both directions
                    nbrs.append(node)
            adj.append(nbrs)
    return Topology(adj, TORUS, {"width": width, "height": height})


def circulant(n, generators):
    """C(N; s1..sk): node i links to (i +- sj) mod N."""
    generators = tuple(generators)
    if n < 2:
        raise InvalidParams("circulant needs at least 2 nodes")
    if not generators:
        raise InvalidParams("circulant needs at least one generator")
    if len(set(generators)) != len(generators):
        raise InvalidParams("duplicate circulant generators")
    for s in generators:
        if not 1 <= s <= n // 2:
            raise InvalidParams(f"generator {s} outside 1..{n // 2}")
    adj = []
    for i in range(n):
        nbrs = []
        for s in generators:
            for v in ((i + s) % n, (i - s) % n):
                if v not in nbrs:
                    nbrs.append(v)
        adj.append(nbrs)
    return Topology(adj, CIRCULANT, {"n": n, "generators": generators})


def ring(n):
    return circulant(n, (1,))


def flattened_butterfly(rows, cols):
    """Router grid with all-to-all links inside every row and every column;
    a router's core is its injection/ejection queue, not a graph node."""
    if rows < 1 or cols < 1:
        raise InvalidParams("flattened butterfly parameters must be positive")
    adj = []
    for r in range(rows):
        for c in range(cols):
            nbrs = [r * cols + c2 for c2 in range(cols) if c2 != c]
            nbrs += [r2 * cols + c for r2 in range(rows) if r2 != r]
            adj.append(nbrs)
    return Topology(adj, FLATTENED_BUTTERFLY, {"rows": rows, "cols": cols})


# --------------------------------------------------------------------------
# Scoring
# --------------------------------------------------------------------------

def score(topology):
    """Diameter, average distance (ordered pairs), max degree, edge count."""
    n = topology.node_count
    if n == 1:
        return TopologyScore(0, 0.0, 0, 0)
    total = 0
    diameter = 0
    for u in range(n):
        dist = topology.bfs_distances(u)
        if -1 in dist:
            raise Disconnected(f"node {dist.index(-1)} unreachable from {u}")
        total += sum(dist)
        diameter = max(diameter, max(dist))
    avg = total / (n * (n - 1))
    max_degree = max(topology.degree(u) for u in range(n))
    return TopologyScore(diameter, avg, max_degree, len(topology.undirected_edges()))


# --------------------------------------------------------------------------
# Fault views
# --------------------------------------------------------------------------

class TopologyView:
    """Read-only view of a topology with some nodes/directed links failed.

    The base topology is never mutated. Failed links are directed (u, v)
    pairs; a failed node implies all its incident directed links.
    ``alive_adjacency[u]`` lists the heads of u's alive outgoing links and
    ``reverse_adjacency[v]`` the tails of v's alive incoming links, both in
    the base topology's port order.
    """

    def __init__(self, base, failed_nodes=(), failed_links=()):
        self.base = base
        self.failed_nodes = frozenset(failed_nodes)
        for u in self.failed_nodes:
            if not 0 <= u < base.node_count:
                raise InvalidParams(f"failed node {u} not in topology")
        links = set()
        for u, v in failed_links:
            if not base.has_link(u, v):
                raise InvalidParams(f"failed link {u}->{v} not in topology")
            links.add((u, v))
        for u in self.failed_nodes:
            for v in base.neighbors(u):
                links.add((u, v))
                links.add((v, u))
        self.failed_links = frozenset(links)
        adjacency = base.adjacency
        self.alive_adjacency = self.reverse_adjacency = adjacency
        if links:
            self.alive_adjacency = tuple(
                tuple(v for v in nbrs if (u, v) not in links)
                for u, nbrs in enumerate(adjacency)
            )
            self.reverse_adjacency = tuple(
                tuple(u for u in nbrs if (u, v) not in links)
                for v, nbrs in enumerate(adjacency)
            )

    @property
    def node_count(self):
        return self.base.node_count

    def has_node(self, u):
        return u not in self.failed_nodes

    def has_link(self, u, v):
        return v in self.base.port_of[u] and (u, v) not in self.failed_links

    def alive_nodes(self):
        return [u for u in range(self.base.node_count) if u not in self.failed_nodes]

    def alive_neighbors(self, u):
        """(port, neighbor) pairs over alive outgoing links of u."""
        if u in self.failed_nodes:
            return []
        return [
            (p, v)
            for p, v in enumerate(self.base.neighbors(u))
            if (u, v) not in self.failed_links
        ]

    def bfs_distances(self, start):
        """Hop distance from start over alive links; all -1 from a failed
        start."""
        if start in self.failed_nodes:
            return [-1] * self.node_count
        return bfs(self.alive_adjacency, start)

    def shortest_successors(self, root):
        """(dist, succ): per node, its hop distance to root over alive links
        and its lowest-id alive neighbour one hop closer to root; root is its
        own successor, and a node that cannot reach root (every node, when
        root has failed) has distance -1 and successor None. Walking
        ``succ`` gives the lexicographically smallest shortest route."""
        n = self.node_count
        if root in self.failed_nodes:
            return [-1] * n, [None] * n
        dist = bfs(self.reverse_adjacency, root)
        succ = [None] * n
        succ[root] = root
        # heads in ascending id, so a tail's first successor is its lowest
        for v, tails in enumerate(self.reverse_adjacency):
            farther = dist[v] + 1
            for u in tails:
                if dist[u] == farther and succ[u] is None:
                    succ[u] = v
        return dist, succ

    def is_connected(self):
        alive = self.alive_nodes()
        if not alive:
            return True
        dist = self.bfs_distances(alive[0])
        return all(dist[u] >= 0 for u in alive)


def successor_route(succ, src):
    """Route from src to the root of a ``shortest_successors`` table; ()
    when src cannot reach it."""
    if succ[src] is None:
        return ()
    route = [src]
    while succ[src] != src:
        src = succ[src]
        route.append(src)
    return tuple(route)


# --------------------------------------------------------------------------
# Edge-list text format
# --------------------------------------------------------------------------

def to_edge_list_text(topology):
    """'nodes N' then one 'u v' line per undirected edge, sorted."""
    lines = [f"nodes {topology.node_count}"]
    lines += [f"{u} {v}" for u, v in topology.undirected_edges()]
    return "\n".join(lines) + "\n"


def from_edge_list_text(text, kind=CUSTOM):
    """Parse ``to_edge_list_text``'s format; ``InvalidParams`` names the
    first malformed line."""
    lines = [ln.split() for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0][0] != "nodes":
        raise InvalidParams("edge list must start with 'nodes N'")
    try:
        (n,) = map(int, lines[0][1:])
    except ValueError as exc:
        raise InvalidParams("bad node count line") from exc
    if n < 1:
        raise InvalidParams(f"node count {n} must be >= 1")
    adj = [[] for _ in range(n)]
    for parts in lines[1:]:
        try:
            u, v = map(int, parts)
        except ValueError as exc:
            raise InvalidParams(f"bad edge line {' '.join(parts)!r}") from exc
        if not (0 <= u < n and 0 <= v < n):
            raise InvalidParams(f"edge {u} {v} out of range")
        if u == v:
            raise InvalidParams(f"self-loop at node {u}")
        adj[u].append(v)
        adj[v].append(u)
    return Topology(adj, kind)


# --------------------------------------------------------------------------
# Constrained synthesis
# --------------------------------------------------------------------------

def _moore_bound(max_degree, max_diameter):
    """Maximum node count reachable with the given degree/diameter caps."""
    if max_degree <= 0:
        return 1
    total = 1
    layer = max_degree
    for _ in range(max_diameter):
        total += layer
        layer *= max_degree - 1
    return total


def _edge_adjacency(n, edges):
    adj = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    return adj


def _edges_feasible(n, edges, max_degree, max_diameter):
    """Check degree, connectivity, and diameter for an undirected edge set."""
    adj = _edge_adjacency(n, edges)
    if any(len(nbrs) > max_degree for nbrs in adj):
        return False
    for s in range(n):
        dist = bfs(adj, s)
        if -1 in dist or max(dist) > max_diameter:
            return False
    return True


def _avg_distance(n, edges):
    adj = _edge_adjacency(n, edges)
    return sum(sum(bfs(adj, s)) for s in range(n)) / (n * (n - 1))


def exhaustive_optimum(n, max_degree, max_diameter):
    """Exhaustive minimum edge count (tie-break: average distance).

    Oracle-grade search over all edge subsets of K_n, smallest sizes first.
    Returns (edges, avg_distance) or None when infeasible. Intended for
    n <= 8; cost grows as 2^C(n,2).
    """
    all_edges = list(itertools.combinations(range(n), 2))
    # connectivity needs >= n-1 edges; degree cap limits the maximum
    lo = n - 1
    hi = min(len(all_edges), n * max_degree // 2)
    for m in range(lo, hi + 1):
        best = None
        for edges in itertools.combinations(all_edges, m):
            if _edges_feasible(n, edges, max_degree, max_diameter):
                avg = _avg_distance(n, edges)
                if best is None or avg < best[1]:
                    best = (edges, avg)
        if best is not None:
            return best
    return None


def _local_minimize(n, edges, max_degree, max_diameter, rng):
    """Greedily remove removable edges, trying them last-first: remove the
    last edge whose removal stays feasible, and repeat until none is."""
    edges = list(edges)
    improved = True
    while improved:
        improved = False
        order = list(range(len(edges)))
        # sorting undoes the shuffle, which only advances the shared rng
        # that later restarts read; removing it changes synth output
        rng.shuffle(order)
        for i in sorted(order, reverse=True):
            trial = edges[:i] + edges[i + 1:]
            if trial and _edges_feasible(n, trial, max_degree, max_diameter):
                edges = trial
                improved = True
                break
    return edges


def synthesize(n, max_degree, max_diameter, seed=0, budget=200):
    """Connected graph on n nodes meeting degree/diameter caps, minimizing
    edge count with average distance as tie-breaker.

    Seeded random restarts with greedy edge removal; for n <= 8 an
    infeasibility verdict is certified exhaustively.
    """
    if not 4 <= n <= 12:
        raise InvalidParams("synthesis supports n in 4..12")
    if max_degree < 2:
        raise InvalidParams("max_degree must be >= 2")
    if max_diameter < 1:
        raise InvalidParams("max_diameter must be >= 1")
    if budget < 1:
        raise InvalidParams("budget must be >= 1")
    if _moore_bound(max_degree, max_diameter) < n:
        raise Infeasible(
            f"degree {max_degree} diameter {max_diameter} reaches at most "
            f"{_moore_bound(max_degree, max_diameter)} < {n} nodes"
        )

    all_edges = list(itertools.combinations(range(n), 2))
    rng = random.Random(seed)
    best = None  # (edge_count, avg_distance, edges)
    found_feasible = False
    for _ in range(budget):
        # start from a random maximal degree-capped graph
        deg = [0] * n
        edges = []
        order = all_edges[:]
        rng.shuffle(order)
        for u, v in order:
            if deg[u] < max_degree and deg[v] < max_degree:
                edges.append((u, v))
                deg[u] += 1
                deg[v] += 1
        if not _edges_feasible(n, edges, max_degree, max_diameter):
            continue
        found_feasible = True
        edges = _local_minimize(n, edges, max_degree, max_diameter, rng)
        key = (len(edges), _avg_distance(n, edges))
        if best is None or key < (best[0], best[1]):
            best = (key[0], key[1], sorted(edges))

    if not found_feasible:
        if n <= 8:
            exact = exhaustive_optimum(n, max_degree, max_diameter)
            if exact is None:
                raise Infeasible(
                    f"no graph on {n} nodes meets degree<={max_degree}, "
                    f"diameter<={max_diameter} (exhaustive check)"
                )
            best = (len(exact[0]), exact[1], sorted(exact[0]))
        else:
            raise Infeasible(
                f"no feasible graph found within budget {budget} "
                f"(n={n} too large for exhaustive certification)"
            )

    return Topology(
        _edge_adjacency(n, best[2]),
        SYNTHESIZED,
        {"n": n, "max_degree": max_degree, "max_diameter": max_diameter, "seed": seed},
    )
