"""Virtual coordinates, anchor selection, hierarchical addresses."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nocsim import addressing, topology as topo
from nocsim.errors import (
    DimensionMismatch,
    Disconnected,
    DuplicateAnchor,
    EmptyAnchors,
    EmptyCenters,
    KTooLarge,
)


# -- coordinate assignment ---------------------------------------------------

def test_coordinates_are_bfs_distances():
    t = topo.mesh(4, 4)
    cmap = addressing.assign_virtual_coordinates(t, (0, 15))
    for node in range(16):
        d0 = t.bfs_distances(0)[node]
        d15 = t.bfs_distances(15)[node]
        assert cmap.coord(node) == (d0, d15)


def test_anchor_coordinate_is_zero_at_itself():
    t = topo.circulant(10, (1, 3))
    cmap = addressing.assign_virtual_coordinates(t, (2, 7))
    assert cmap.coord(2) == (0, t.bfs_distances(7)[2])
    assert cmap.coord(7)[1] == 0


def test_coordinate_validation():
    t = topo.mesh(3, 3)
    with pytest.raises(EmptyAnchors):
        addressing.assign_virtual_coordinates(t, ())
    with pytest.raises(DuplicateAnchor):
        addressing.assign_virtual_coordinates(t, (0, 0))
    disconnected = topo.Topology([[1], [0], [3], [2]])
    with pytest.raises(Disconnected):
        addressing.assign_virtual_coordinates(disconnected, (0,))


def test_dump_format():
    t = topo.mesh(2, 2)
    cmap = addressing.assign_virtual_coordinates(t, (0, 3))
    assert cmap.dump() == "0: 0 2\n1: 1 1\n2: 1 1\n3: 2 0\n"


@given(st.integers(3, 6), st.integers(3, 6), st.integers(1, 4))
@settings(max_examples=20, deadline=None)
def test_coordinate_lipschitz_property(w, h, k):
    """Adjacent nodes differ by at most 1 in every coordinate component."""
    t = topo.mesh(w, h)
    k = min(k, t.node_count)
    cmap = addressing.assign_virtual_coordinates(t, addressing.default_anchors(t, k))
    for u in range(t.node_count):
        for v in t.neighbors(u):
            assert all(
                abs(a - b) <= 1 for a, b in zip(cmap.coord(u), cmap.coord(v))
            )


# -- anchor selection --------------------------------------------------------

def test_default_anchors_mesh_corners():
    t = topo.mesh(4, 4)
    assert addressing.default_anchors(t, 1) == (0,)
    assert addressing.default_anchors(t, 2) == (0, 15)
    # third anchor: corners 3 and 12 tie at min-distance 3; lowest id wins
    assert addressing.default_anchors(t, 3) == (0, 15, 3)


def test_default_anchors_prefix_property():
    t = topo.circulant(12, (1, 4))
    prev = ()
    for k in range(1, 7):
        anchors = addressing.default_anchors(t, k)
        assert anchors[: len(prev)] == prev
        assert len(set(anchors)) == k
        prev = anchors


def test_default_anchors_bounds():
    t = topo.mesh(2, 2)
    with pytest.raises(KTooLarge):
        addressing.default_anchors(t, 0)
    with pytest.raises(KTooLarge):
        addressing.default_anchors(t, 5)
    assert addressing.default_anchors(t, 4) == (0, 3, 1, 2)


# -- metric ------------------------------------------------------------------

def test_coordinate_distance_metrics():
    assert addressing.coordinate_distance((0, 0), (3, 4)) == pytest.approx(5.0)
    assert addressing.coordinate_distance((2, 2), (2, 2)) == 0.0


def test_coordinate_distance_validation():
    with pytest.raises(DimensionMismatch):
        addressing.coordinate_distance((1, 2), (1, 2, 3))


@given(
    st.lists(st.integers(0, 9), min_size=1, max_size=5),
    st.lists(st.integers(0, 9), min_size=1, max_size=5),
)
@settings(max_examples=50)
def test_euclidean_matches_math_dist(a, b):
    n = min(len(a), len(b))
    a, b = tuple(a[:n]), tuple(b[:n])
    assert addressing.coordinate_distance(a, b) == pytest.approx(math.dist(a, b))


# -- hierarchical addresses --------------------------------------------------

def depth(trees, node, ci):
    """A node's depth in center ci's tree: the hops of its walk up."""
    return len(topo.successor_route(trees[ci], node)) - 1


def test_hierarchical_depths_are_bfs_distances():
    t = topo.mesh(4, 4)
    centers = (5, 10)
    trees = addressing.assign_hierarchical_addresses(t, centers)
    assert len(trees) == len(centers)
    for ci, c in enumerate(centers):
        dist = t.bfs_distances(c)
        assert trees[ci][c] == c  # a center is its own parent
        for node in range(16):
            assert depth(trees, node, ci) == dist[node]


def test_hierarchical_parent_tie_break_lowest_id():
    t = topo.mesh(3, 3)
    trees = addressing.assign_hierarchical_addresses(t, (0,))
    # node 4 has parents 1 and 3 at depth 1; the lowest id wins
    assert trees[0][4] == 1


def test_path_to_center_is_valid_and_descending():
    t = topo.circulant(11, (1, 3))
    centers = (0, 6)
    trees = addressing.assign_hierarchical_addresses(t, centers)
    for ci in range(2):
        for node in range(11):
            path = topo.successor_route(trees[ci], node)
            assert path[0] == node and path[-1] == centers[ci]
            assert len(path) == depth(trees, node, ci) + 1
            for a, b in zip(path, path[1:]):
                assert t.has_link(a, b)
                assert depth(trees, b, ci) == depth(trees, a, ci) - 1


def test_hierarchical_validation():
    t = topo.mesh(3, 3)
    with pytest.raises(EmptyCenters):
        addressing.assign_hierarchical_addresses(t, ())
    with pytest.raises(DuplicateAnchor):
        addressing.assign_hierarchical_addresses(t, (1, 1))
    disconnected = topo.Topology([[1], [0], [3], [2]])
    with pytest.raises(Disconnected, match="node 2 unreachable from center 0"):
        addressing.assign_hierarchical_addresses(disconnected, (0,))


def test_assignments_deterministic():
    t = topo.torus(4, 4)
    a1 = addressing.assign_virtual_coordinates(t, addressing.default_anchors(t, 3))
    a2 = addressing.assign_virtual_coordinates(t, addressing.default_anchors(t, 3))
    assert a1 == a2
    h1 = addressing.assign_hierarchical_addresses(t, (0, 5))
    h2 = addressing.assign_hierarchical_addresses(t, (0, 5))
    assert h1 == h2
