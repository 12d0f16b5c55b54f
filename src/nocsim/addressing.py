"""Static virtual coordinates and hierarchical multi-center addresses.

Both maps are assigned once over the fault-free topology and never change,
mirroring an address system fixed at chip production time. A center's
tree is a successor table, walked by ``topology.successor_route``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import (
    DimensionMismatch,
    Disconnected,
    DuplicateAnchor,
    EmptyAnchors,
    EmptyCenters,
    KTooLarge,
)
from .topology import TopologyView


@dataclass(frozen=True)
class CoordinateMap:
    """Per-node hop-distance vectors to a fixed ordered anchor set."""

    coords: tuple  # coords[node] = tuple of hop distances, one per anchor

    def coord(self, node):
        return self.coords[node]

    def dump(self):
        """One line per node: 'id: c1 c2 ... ck'."""
        lines = [
            f"{node}: " + " ".join(str(c) for c in vec)
            for node, vec in enumerate(self.coords)
        ]
        return "\n".join(lines) + "\n"


def assign_virtual_coordinates(topology, anchors):
    """Exact BFS hop distances to each anchor, in anchor order."""
    anchors = tuple(anchors)
    if not anchors:
        raise EmptyAnchors("need at least one anchor")
    if len(set(anchors)) != len(anchors):
        raise DuplicateAnchor(f"anchors {anchors} contain duplicates")
    per_anchor = []
    for a in anchors:
        dist = topology.bfs_distances(a)
        if -1 in dist:
            raise Disconnected(f"node {dist.index(-1)} unreachable from anchor {a}")
        per_anchor.append(dist)
    coords = tuple(
        tuple(per_anchor[i][node] for i in range(len(anchors)))
        for node in range(topology.node_count)
    )
    return CoordinateMap(coords)


def default_anchors(topology, k):
    """Deterministic farthest-point sampling seeded at node 0.

    Each next anchor maximizes the minimum hop distance to the chosen set;
    ties break toward the lowest node id. Anchors for k are a prefix of
    anchors for k+1. Raises Disconnected when a node is unreachable.
    """
    n = topology.node_count
    if not 1 <= k <= n:
        raise KTooLarge(f"k={k} outside 1..{n}")
    anchors = [0]
    min_dist = topology.bfs_distances(0)
    if -1 in min_dist:
        raise Disconnected(f"node {min_dist.index(-1)} unreachable from node 0")
    while len(anchors) < k:
        best = max(range(n), key=lambda u: (min_dist[u], -u))
        anchors.append(best)
        d = topology.bfs_distances(best)
        min_dist = [min(a, b) for a, b in zip(min_dist, d)]
    return tuple(anchors)


def coordinate_distance(coord_u, coord_v):
    """Euclidean distance between two coordinate vectors."""
    if len(coord_u) != len(coord_v):
        raise DimensionMismatch(f"{len(coord_u)} vs {len(coord_v)} components")
    return math.dist(coord_u, coord_v)


def assign_hierarchical_addresses(topology, centers):
    """One BFS shortest-path tree per center, in center order: a tuple of
    ``TopologyView.shortest_successors`` tables, where a node's parent is
    its lowest-id neighbour one hop closer to the center and the center is
    its own parent, so the trees are deterministic."""
    centers = tuple(centers)
    if not centers:
        raise EmptyCenters("need at least one center")
    if len(set(centers)) != len(centers):
        raise DuplicateAnchor(f"centers {centers} contain duplicates")
    view = TopologyView(topology)
    trees = []
    for c in centers:
        dist, parent = view.shortest_successors(c)
        if -1 in dist:
            raise Disconnected(f"node {dist.index(-1)} unreachable from center {c}")
        trees.append(tuple(parent))
    return tuple(trees)
