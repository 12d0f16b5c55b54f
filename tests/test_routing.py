"""Routing algorithms and channel-dependency deadlock analysis."""

import random

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nocsim import addressing, engine, routing, topology as topo
from nocsim.errors import (
    BudgetExceeded,
    ConfigError,
    CoordinateAliasing,
    Unreachable,
    WrongTopologyKind,
)


def random_connected_topology(rng, max_nodes=32):
    """Seeded connected random graph (spanning tree plus extra edges)."""
    n = rng.randint(4, max_nodes)
    adj = [set() for _ in range(n)]
    order = list(range(n))
    rng.shuffle(order)
    for i in range(1, n):
        a, b = order[i], order[rng.randrange(i)]
        adj[a].add(b)
        adj[b].add(a)
    extra = rng.randint(0, n)
    for _ in range(extra):
        a, b = rng.randrange(n), rng.randrange(n)
        if a != b:
            adj[a].add(b)
            adj[b].add(a)
    return topo.Topology([sorted(s) for s in adj])


def grid_distance(t, src, dst):
    """Manhattan distance on a mesh, wrap-aware on a torus."""
    (w, h), wrap = t.grid_shape(), t.kind == topo.TORUS
    d = [abs(a - b) for a, b in zip(t.node_xy(src), t.node_xy(dst))]
    return sum(min(k, size - k) if wrap else k for k, size in zip(d, (w, h)))


def assert_valid_route(view, route, src, dst):
    assert route[0] == src and route[-1] == dst
    assert len(set(route)) == len(route)  # loop-free
    for a, b in zip(route, route[1:]):
        assert view.has_link(a, b)


def all_shortest_paths_oracle(view, src, dst):
    """Independent enumeration from the source side (networkx DAG walk);
    cross-checks neighborhood_routes."""
    view = view if isinstance(view, topo.TopologyView) else topo.TopologyView(view)
    g = nx.DiGraph()
    g.add_nodes_from(view.alive_nodes())
    for u in view.alive_nodes():
        for _, v in view.alive_neighbors(u):
            g.add_edge(u, v)
    try:
        return {tuple(p) for p in nx.all_shortest_paths(g, src, dst)}
    except (nx.NetworkXNoPath, nx.NodeNotFound) as exc:
        raise Unreachable(f"{dst} not reachable from {src}") from exc


# -- dimension-order XY ------------------------------------------------------

def test_route_xy_mesh_shape():
    t = topo.mesh(4, 4)
    # (0,0) -> (2,1): X first, then Y
    assert routing.route_xy(t, 0, 6) == (0, 1, 2, 6)


def test_route_xy_hop_count_is_manhattan_mesh_and_torus():
    for t in (topo.mesh(8, 8), topo.torus(6, 6)):
        for src in range(t.node_count):
            for dst in range(t.node_count):
                route = routing.route_xy(t, src, dst)
                assert len(route) - 1 == grid_distance(t, src, dst)
                assert_valid_route(topo.TopologyView(t), route, src, dst)


def test_route_xy_torus_takes_wrap_shortcut():
    t = topo.torus(6, 6)
    assert routing.route_xy(t, 0, 5) == (0, 5)  # 1 hop around, not 5 across


def test_route_xy_torus_tie_goes_positive():
    t = topo.torus(4, 4)
    # x distance 2 either way: positive direction wins
    assert routing.route_xy(t, 0, 2) == (0, 1, 2)


def test_route_xy_wrong_kind():
    with pytest.raises(WrongTopologyKind):
        routing.route_xy(topo.ring(6), 0, 3)


def reference_route_xy(t, src, dst):
    """XY route stepped through node_xy/xy_node, re-deciding the direction
    on every hop; the coordinate-helper form the arithmetic replaced."""
    w, h = t.grid_shape()
    wrap = t.kind == topo.TORUS

    def step(cur, to, size):
        if cur == to:
            return 0
        if not wrap:
            return 1 if to > cur else -1
        return 1 if (to - cur) % size <= (cur - to) % size else -1

    x, y = t.node_xy(src)
    dx, dy = t.node_xy(dst)
    route = [src]
    while x != dx:
        x = (x + step(x, dx, w)) % w
        route.append(t.xy_node(x, y))
    while y != dy:
        y = (y + step(y, dy, h)) % h
        route.append(t.xy_node(x, y))
    return tuple(route)


def reference_torus_xy_next(t, node, dst, in_vc, came_from):
    nxt = reference_route_xy(t, node, dst)[1]
    w, h = t.grid_shape()
    x, y = t.node_xy(node)
    nx_, ny_ = t.node_xy(nxt)
    next_is_x = ny_ == y
    vc = 0
    if came_from is not None and (t.node_xy(came_from)[1] == y) == next_is_x:
        vc = in_vc
    if next_is_x:
        if (x == w - 1 and nx_ == 0) or (x == 0 and nx_ == w - 1):
            vc = 1
    elif (y == h - 1 and ny_ == 0) or (y == 0 and ny_ == h - 1):
        vc = 1
    return nxt, vc


def torus_xy_cases(t, src):
    """(in_vc, upstream) of a head at src: injected, or arrived from any
    neighbour on either VC."""
    return [(None, None)] + [(in_vc, up) for up in t.neighbors(src) for in_vc in (0, 1)]


def test_arithmetic_xy_equals_the_coordinate_helper_reference():
    """Every (src, dst) pair; on tori every in_vc and upstream neighbour
    too. Even rings (torus 4x4) have distance ties on both axes; on 2-wide
    rings one link is both the direct link and the wrap link."""
    for t in (topo.mesh(5, 3), topo.torus(5, 4), topo.torus(4, 4),
              topo.torus(2, 2), topo.torus(2, 3), topo.torus(3, 2)):
        ctx = routing.RoutingContext(t)
        for src in range(t.node_count):
            for dst in range(t.node_count):
                assert routing.route_xy(t, src, dst) == reference_route_xy(t, src, dst)
                if t.kind != topo.TORUS or src == dst:
                    continue
                for in_vc, up in torus_xy_cases(t, src):
                    assert routing.torus_xy_next(ctx, src, dst, in_vc, up) == (
                        reference_torus_xy_next(t, src, dst, in_vc, up)
                    ), (t, src, dst, in_vc, up)


@pytest.mark.parametrize("w,h", [(2, 2), (2, 3), (3, 2), (4, 4), (5, 4), (8, 8)])
def test_xy_table_filled_in_any_order_gives_the_reference_hop(w, h):
    """Queries in shuffled order fill the XY table from whichever route
    misses first; every (node, dst, in_vc, came_from) still gets the
    reference hop and VC, and a full table costs at most one route_xy per
    (node, dst) pair."""
    t = topo.torus(w, h)
    ctx = routing.RoutingContext(t, vc_count=2)
    queries = [
        (src, dst, in_vc, up)
        for src in range(t.node_count) for dst in range(t.node_count) if src != dst
        for in_vc, up in torus_xy_cases(t, src)
    ]
    random.Random(w * 100 + h).shuffle(queries)
    calls = []
    real_route_xy = routing.route_xy
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(routing, "route_xy", lambda *a: calls.append(a[1:]) or real_route_xy(*a))
        for src, dst, in_vc, up in queries:
            assert routing.torus_xy_next(ctx, src, dst, in_vc, up) == (
                reference_torus_xy_next(t, src, dst, in_vc, up)
            ), (src, dst, in_vc, up)
    assert 0 < len(calls) <= t.node_count * (t.node_count - 1)
    assert len(set(calls)) == len(calls)


def test_xy_table_survives_a_new_view():
    """set_view keeps the XY table (XY ignores faults) and clears the
    shortest successors, which are over the alive view."""
    t = topo.torus(4, 4)
    ctx = routing.RoutingContext(t, vc_count=2)
    assert routing.torus_xy_next(ctx, 3, 1, None, None) == (0, 1)
    ctx.first_route(0, 5)
    table = ctx.xy_next
    filled = {dst: list(nexts) for dst, nexts in table.items()}
    ctx.set_view(topo.TopologyView(t, failed_links={(3, 0), (0, 3)}))
    assert ctx.xy_next is table and table == filled
    assert not ctx.successors
    assert routing.torus_xy_next(ctx, 3, 1, None, None) == (0, 1)


def test_greedy_table_follows_every_fault_change(monkeypatch):
    """Greedy options are computed once per (view, node, dst): asked again
    over one view, a head's options come from the table, and after each
    fault change, a heal included, they are those of the new view."""
    t = topo.mesh(4, 4)
    cmap = corner_coords(t)
    ctx = routing.RoutingContext(t, coordinates=cmap)
    next_hops = routing.relation(routing.ALGORITHMS["greedy"], ctx)
    pairs = [(node, dst) for node in range(16) for dst in range(16) if node != dst]

    def reference(view, node, dst):
        try:
            d = greedy(cmap, node, dst, view.alive_neighbors(node))
        except CoordinateAliasing:
            return []
        return [(d.node, 0, None)] if d.kind == "forward" else []

    greedy, calls = routing.next_hop_greedy, []
    monkeypatch.setattr(
        routing, "next_hop_greedy", lambda *args: calls.append(args) or greedy(*args)
    )
    views = [
        topo.TopologyView(t),
        topo.TopologyView(t, failed_links={(5, 6), (6, 5), (9, 13)}),
        topo.TopologyView(t, failed_nodes={10}),
        topo.TopologyView(t),
    ]
    seen = []
    for view in views:
        ctx.set_view(view)
        calls.clear()
        for _ in range(2):
            options = {pair: next_hops(*pair, None, None, None) for pair in pairs}
            assert options == {pair: reference(view, *pair) for pair in pairs}
        assert len(calls) == len(pairs)  # the second round read the table
        seen.append(options)
    # each fault change moves some head, so a table kept across it would show
    for before, after in zip(seen, seen[1:]):
        assert any(before[pair] != after[pair] for pair in pairs)


@pytest.mark.parametrize("w,h", [(5, 3), (1, 6), (6, 1), (4, 4)])
def test_xy_relation_walks_route_xy_on_a_mesh(w, h):
    """From every source to every destination, the xy entry's one option
    per hop follows route_xy node for node, on VC 0."""
    t = topo.mesh(w, h)
    next_hops = routing.xy_relation(t)
    for src in range(t.node_count):
        for dst in range(t.node_count):
            walk, in_vc, came_from, route = [src], None, None, None
            while walk[-1] != dst:
                options = next_hops(walk[-1], dst, in_vc, came_from, route)
                assert len(options) == 1
                came_from = walk[-1]
                nxt, in_vc, route = options[0]
                assert in_vc == 0
                walk.append(nxt)
            assert tuple(walk) == routing.route_xy(t, src, dst)


# -- DyXY --------------------------------------------------------------------

def dyxy_choice(t, src, dst, occupancy):
    """The next node DyXY takes from src: its table entry's options, picked
    by the buffered flits in ``occupancy``."""
    dyxy = routing.ALGORITHMS["dyxy"]
    options = dyxy.options(routing.RoutingContext(t), src, dst, None, None)
    return dyxy.pick(options, lambda v: occupancy.get(v, 0))[0]


def test_dyxy_arrived():
    t = topo.mesh(4, 4)
    dyxy = routing.ALGORITHMS["dyxy"]
    assert dyxy.options(routing.RoutingContext(t), 5, 5, None, None) == []


def test_dyxy_always_minimal():
    t = topo.mesh(5, 5)
    rng = random.Random(3)
    for _ in range(300):
        src, dst = rng.randrange(25), rng.randrange(25)
        if src == dst:
            continue
        occ = {v: rng.randint(0, 8) for v in t.neighbors(src)}
        nxt = dyxy_choice(t, src, dst, occ)
        assert t.has_link(src, nxt)
        assert grid_distance(t, nxt, dst) == \
            grid_distance(t, src, dst) - 1


def test_dyxy_prefers_less_congested_ties_to_x():
    t = topo.mesh(4, 4)
    # from (0,0) to (1,1): X neighbor is 1, Y neighbor is 4
    assert dyxy_choice(t, 0, 5, {1: 3, 4: 1}) == 4
    assert dyxy_choice(t, 0, 5, {1: 1, 4: 3}) == 1
    assert dyxy_choice(t, 0, 5, {1: 2, 4: 2}) == 1  # tie -> X


def test_dyxy_wrong_kind():
    with pytest.raises(ConfigError):
        routing.lookup("dyxy", topo.TORUS)


# -- greedy advance ----------------------------------------------------------

def corner_coords(t):
    return addressing.assign_virtual_coordinates(
        t, addressing.default_anchors(t, 3)
    )


def test_greedy_arrived():
    t = topo.mesh(3, 3)
    cmap = corner_coords(t)
    view = topo.TopologyView(t)
    assert routing.next_hop_greedy(cmap, 4, 4, view.alive_neighbors(4)) \
        is routing.ARRIVED


def test_greedy_forward_strictly_decreases_distance():
    t = topo.mesh(5, 5)
    cmap = corner_coords(t)
    view = topo.TopologyView(t)
    for src in range(25):
        for dst in range(25):
            if src == dst:
                continue
            d = routing.next_hop_greedy(cmap, src, dst, view.alive_neighbors(src))
            if d.kind != "forward":
                continue
            assert addressing.coordinate_distance(
                cmap.coord(d.node), cmap.coord(dst)
            ) < addressing.coordinate_distance(cmap.coord(src), cmap.coord(dst))


def test_greedy_tie_breaks_to_lowest_port():
    t = topo.ring(8)
    cmap = addressing.assign_virtual_coordinates(t, (0, 4))
    view = topo.TopologyView(t)
    # from 0 to 4 both neighbors (1 and 7) are symmetric; port 0 is node 1
    d = routing.next_hop_greedy(cmap, 0, 4, view.alive_neighbors(0))
    assert d.port == 0 and d.node == t.neighbors(0)[0]


def test_greedy_coordinate_aliasing_on_ring():
    # one anchor on a 6-ring: nodes 2 and 4 share coordinate (2,)
    t = topo.ring(6)
    cmap = addressing.assign_virtual_coordinates(t, (0,))
    view = topo.TopologyView(t)
    assert cmap.coord(4) == cmap.coord(2)
    with pytest.raises(CoordinateAliasing):
        routing.next_hop_greedy(cmap, 4, 2, view.alive_neighbors(4))


OBSTACLE_NODES = (7, 12, 17)  # column x=2, rows y=1..3 of mesh(5,5)


def obstacle_case():
    t = topo.mesh(5, 5)
    cmap = corner_coords(t)
    view = topo.TopologyView(t, failed_nodes=OBSTACLE_NODES)
    return t, cmap, view


def test_greedy_walk_hits_local_minimum_behind_obstacle():
    """Pure greedy from (1,2) to (3,2) stalls against the concave wall."""
    t, cmap, view = obstacle_case()
    src, dst = t.xy_node(1, 2), t.xy_node(3, 2)
    node = src
    seen = [node]
    while True:
        d = routing.next_hop_greedy(cmap, node, dst, view.alive_neighbors(node))
        if d.kind != "forward":
            break
        node = d.node
        seen.append(node)
        assert len(seen) <= 25
    assert d is routing.LOCAL_MINIMUM
    assert node != dst
    # every alive neighbor of the stuck node is at non-smaller distance
    here = addressing.coordinate_distance(cmap.coord(node), cmap.coord(dst))
    for _, v in view.alive_neighbors(node):
        assert addressing.coordinate_distance(cmap.coord(v), cmap.coord(dst)) >= here


# -- neighborhood method -----------------------------------------------------

def test_neighborhood_routes_mesh_counts():
    t = topo.mesh(4, 4)
    routes = routing.neighborhood_routes(t, 0, 15)
    # all monotone staircase paths on a 3+3 grid walk: C(6,3)
    assert len(routes) == 20
    for r in routes:
        assert_valid_route(topo.TopologyView(t), r, 0, 15)
        assert len(r) - 1 == 6


def test_neighborhood_routes_respect_faults():
    t = topo.mesh(3, 3)
    view = topo.TopologyView(t, failed_nodes=(4,))
    routes = routing.neighborhood_routes(view, 0, 8)
    assert routes == all_shortest_paths_oracle(view, 0, 8)
    for r in routes:
        assert 4 not in r


def test_neighborhood_routes_directed_fault():
    t = topo.ring(4)
    view = topo.TopologyView(t, failed_links=((0, 1),))
    routes = routing.neighborhood_routes(view, 0, 1)
    assert routes == {(0, 3, 2, 1)}


def test_neighborhood_unreachable():
    t = topo.ring(6)
    view = topo.TopologyView(t, failed_nodes=(1, 5))
    with pytest.raises(Unreachable):
        routing.neighborhood_routes(view, 0, 3)
    with pytest.raises(Unreachable):
        all_shortest_paths_oracle(view, 0, 3)


def test_neighborhood_budget_exceeded():
    t = topo.mesh(5, 5)
    with pytest.raises(BudgetExceeded):
        routing.neighborhood_routes(t, 0, 24, budget=10)


def test_neighborhood_matches_oracle_on_random_graphs():
    rng = random.Random(2024)
    for _ in range(40):
        t = random_connected_topology(rng)
        src = rng.randrange(t.node_count)
        dst = rng.randrange(t.node_count)
        if src == dst:
            continue
        assert routing.neighborhood_routes(t, src, dst) == \
            all_shortest_paths_oracle(t, src, dst)


@given(st.integers(0, 10_000))
@settings(max_examples=30, deadline=None)
def test_neighborhood_oracle_property(seed):
    rng = random.Random(seed)
    t = random_connected_topology(rng, max_nodes=16)
    src, dst = 0, t.node_count - 1
    assert routing.neighborhood_routes(t, src, dst) == \
        all_shortest_paths_oracle(t, src, dst)


# -- hierarchical routing ----------------------------------------------------

def test_hierarchical_route_trivial():
    t = topo.mesh(3, 3)
    amap = addressing.assign_hierarchical_addresses(t, (0,))
    assert routing.hierarchical_route(amap, 4, 4) == (4,)


def test_hierarchical_route_valid_and_bounded():
    t = topo.circulant(12, (1, 3))
    centers = addressing.default_anchors(t, 2)
    trees = addressing.assign_hierarchical_addresses(t, centers)
    view = topo.TopologyView(t)
    for src in range(12):
        for dst in range(12):
            if src == dst:
                continue
            route = routing.hierarchical_route(trees, src, dst)
            assert_valid_route(view, route, src, dst)
            # bounded by the best up-and-down trip over any center
            bound = min(
                len(topo.successor_route(tree, src)) - 1
                + len(topo.successor_route(tree, dst)) - 1
                for tree in trees
            )
            assert len(route) - 1 <= bound


def test_hierarchical_truncates_at_common_ancestor():
    t = topo.mesh(4, 4)
    amap = addressing.assign_hierarchical_addresses(t, (0,))
    # 1 and 2 share tree node 1; the route never climbs to the center
    assert routing.hierarchical_route(amap, 2, 1) == (2, 1)


# -- greedy with fallback ----------------------------------------------------

def fallback_walk(cmap, view, src, dst):
    """The path of a lone greedy_fallback head, from the engine's relation."""
    ctx = routing.RoutingContext(view, coordinates=cmap)
    return routing.walk(routing.relation(routing.ALGORITHMS["greedy_fallback"], ctx), src, dst)


def test_fallback_minimal_on_fault_free_mesh():
    t = topo.mesh(4, 4)
    cmap = corner_coords(t)
    view = topo.TopologyView(t)
    for src in range(16):
        for dst in range(16):
            if src == dst:
                continue
            route = fallback_walk(cmap, view, src, dst)
            assert_valid_route(view, route, src, dst)
            assert len(route) - 1 == grid_distance(t, src, dst)


def test_fallback_routes_around_obstacle():
    t, cmap, view = obstacle_case()
    src, dst = t.xy_node(1, 2), t.xy_node(3, 2)
    route = fallback_walk(cmap, view, src, dst)
    assert_valid_route(view, route, src, dst)
    assert not any(n in OBSTACLE_NODES for n in route)
    # greedy prefix + BFS distance from the stuck node
    assert len(route) - 1 == view.bfs_distances(src)[dst]


def test_successor_routes_are_the_smallest_shortest_routes_under_one_way_faults():
    """Walking shortest_successors gives min(neighborhood_routes), with
    distances to the root, also where a link has failed one way only."""
    rng = random.Random(7)
    for t in (topo.ring(6), topo.mesh(4, 3), topo.torus(3, 3)):
        links = sorted((u, v) for u, v, _ in t.links)
        for _ in range(8):
            view = topo.TopologyView(
                t, failed_nodes=rng.sample(range(t.node_count), rng.randint(0, 1)),
                failed_links=rng.sample(links, 3),
            )
            for dst in range(t.node_count):
                dist, succ = view.shortest_successors(dst)
                for src in range(t.node_count):
                    try:
                        expected = min(routing.neighborhood_routes(view, src, dst))
                    except Unreachable:
                        expected = ()
                    assert topo.successor_route(succ, src) == expected
                    assert dist[src] == len(expected) - 1


def test_fallback_walks_past_a_long_wall():
    """Column x=8 of a 16x16 mesh fails at y=1..15. Greedy from 0 to 190
    climbs the wall's west face and stalls; the fallback goes back to the
    gap at y=0 over the smallest shortest route from the stall, which has
    more shortest routes than any enumeration cap allows. The path keeps
    the greedy walk up to the stall: 51 hops, where BFS gives 25."""
    t = topo.mesh(16, 16)
    view = topo.TopologyView(t, failed_nodes=[t.xy_node(8, y) for y in range(1, 16)])
    cmap = addressing.assign_virtual_coordinates(t, addressing.default_anchors(t, 3))
    src, dst = 0, 190
    walk = [src]
    while True:
        d = routing.next_hop_greedy(cmap, walk[-1], dst, view.alive_neighbors(walk[-1]))
        if d.kind != "forward":
            break
        walk.append(d.node)
    assert d is routing.LOCAL_MINIMUM and walk[-1] != dst
    path = fallback_walk(cmap, view, src, dst)
    ctx = routing.RoutingContext(view)
    assert path == tuple(walk[:-1]) + ctx.first_route(walk[-1], dst)
    assert all(view.has_link(a, b) for a, b in zip(path, path[1:]))
    assert len(path) - 1 == 51 and view.bfs_distances(src)[dst] == 25


def test_fallback_unreachable():
    t = topo.ring(6)
    view = topo.TopologyView(t, failed_nodes=(1, 5))
    cmap = addressing.assign_virtual_coordinates(t, (0, 3))
    with pytest.raises(Unreachable):
        fallback_walk(cmap, view, 0, 3)


# -- channel dependency graph ------------------------------------------------

def test_cdg_xy_mesh_acyclic():
    cdg = routing.build_cdg(topo.mesh(4, 4), routing.xy_relation(topo.mesh(4, 4)))
    assert routing.is_deadlock_free(cdg)


def test_cdg_xy_edge_semantics():
    t = topo.mesh(3, 1)
    cdg = routing.build_cdg(t, routing.xy_relation(t))
    # a 1x3 line: the only dependencies chain left-to-right and right-to-left
    assert cdg.has_edge((0, 1, 0), (1, 2, 0))
    assert cdg.has_edge((2, 1, 0), (1, 0, 0))
    assert not cdg.has_edge((0, 1, 0), (1, 0, 0))  # no u-turns


def test_cdg_minimal_adaptive_cyclic_on_ring():
    t = topo.ring(4)
    cdg = routing.build_cdg(t, routing.minimal_adaptive_relation(t))
    assert not routing.is_deadlock_free(cdg)


def test_cdg_single_vc_torus_xy_cyclic():
    t = topo.torus(4, 4)
    cdg = routing.build_cdg(t, routing.xy_relation(t), vc_count=1)
    assert not routing.is_deadlock_free(cdg)


def test_cdg_torus_dateline_two_vcs_acyclic():
    t = topo.torus(4, 4)
    cdg = routing.build_cdg(
        t, routing.torus_xy_dateline_relation(t, 2), vc_count=2
    )
    assert routing.is_deadlock_free(cdg)


def test_torus_xy_next_crosses_dateline_to_vc1():
    ctx = routing.RoutingContext(topo.torus(4, 4), vc_count=2)
    # 3 -> 0 crosses the x wrap link
    nxt, vc = routing.torus_xy_next(ctx, 3, 1, None, None)
    assert (nxt, vc) == (0, 1)
    # interior hop stays on VC 0
    nxt, vc = routing.torus_xy_next(ctx, 0, 2, None, None)
    assert (nxt, vc) == (1, 0)


def test_torus_xy_next_resets_vc_on_dimension_switch():
    ctx = routing.RoutingContext(topo.torus(4, 4), vc_count=2)
    # arrived on x VC 1, now turning into y: restart at VC 0
    nxt, vc = routing.torus_xy_next(ctx, 0, 4, 1, 3)
    assert (nxt, vc) == (4, 0)


def test_dyxy_options_are_minimal_adaptive_in_x_first_order():
    """On a mesh DyXY chooses among exactly the minimal-adaptive options,
    the X neighbour listed first."""
    for w, h in ((4, 4), (5, 3), (1, 4), (6, 1)):
        t = topo.mesh(w, h)
        dyxy = routing.relation(routing.ALGORITHMS["dyxy"], routing.RoutingContext(t))
        minimal = routing.minimal_adaptive_relation(t)
        for src in range(t.node_count):
            for dst in range(t.node_count):
                if src == dst:
                    continue
                options = dyxy(src, dst, None, None, None)
                assert options == minimal(src, dst, None, None, None)
                x, y = t.node_xy(src)
                dx, dy = t.node_xy(dst)
                expected = [t.xy_node(x + (dx > x) - (dx < x), y)] if x != dx else []
                expected += [t.xy_node(x, y + (dy > y) - (dy < y))] if y != dy else []
                assert [nxt for nxt, _, _ in options] == expected


def test_cdg_nodes_cover_all_directed_links():
    t = topo.mesh(3, 3)
    cdg = routing.build_cdg(t, routing.xy_relation(t))
    expected = {(u, v, 0) for u, v, _ in t.links}
    assert set(cdg.nodes) == expected


def networkx_cdg(t, relation, vc_count):
    """The CDG by a second construction: per destination, the graph of
    routing states reached from the injection states (networkx
    descendants), projected onto its channels."""
    channels = [(u, v, vc) for u in range(t.node_count)
                for v in t.neighbors(u) for vc in range(vc_count)]
    g = nx.DiGraph()
    g.add_nodes_from(channels)
    for dst in range(t.node_count):
        state = nx.DiGraph()
        injected = {(src, *option) for src in range(t.node_count) if src != dst
                    for option in relation(src, dst, None, None, None)}
        todo, expanded = list(injected), set()
        while todo:
            s = todo.pop()
            u, v, vc, mode = s
            if v == dst or s in expanded:
                continue
            expanded.add(s)
            for option in relation(v, dst, vc, u, mode):
                state.add_edge(s, (v, *option))
                todo.append((v, *option))
        reached = set(injected)
        for s in injected:
            if s in state:
                reached |= nx.descendants(state, s)
        g.add_nodes_from(s[:3] for s in reached)
        g.add_edges_from((a[:3], b[:3]) for a, b in state.edges if a in reached)
    return g


def table_relation(name, vc_count=1, anchor_count=3, center_count=2):
    """Algorithm ``name`` of the routing table as a relation on t."""
    def make(t):
        algorithm = routing.ALGORITHMS[name]
        ctx = engine.routing_context(algorithm, t, vc_count, anchor_count, center_count)
        return routing.relation(algorithm, ctx)
    return make


CDG_CASES = {
    "xy mesh 4x3": (topo.mesh(4, 3), routing.xy_relation, 1),
    "dyxy mesh 3x3": (topo.mesh(3, 3), table_relation("dyxy"), 1),
    "minimal adaptive mesh 3x4": (topo.mesh(3, 4), routing.minimal_adaptive_relation, 1),
    "xy torus 4x3 1 VC": (topo.torus(4, 3), routing.xy_relation, 1),
    "dateline torus 4x4": (
        topo.torus(4, 4), lambda t: routing.torus_xy_dateline_relation(t, 2), 2),
    "dateline torus 5x3": (
        topo.torus(5, 3), lambda t: routing.torus_xy_dateline_relation(t, 2), 2),
    "minimal adaptive torus 3x3": (topo.torus(3, 3), routing.minimal_adaptive_relation, 1),
    "minimal adaptive ring 6": (topo.ring(6), routing.minimal_adaptive_relation, 1),
    "minimal adaptive ring 7, 2 VCs": (topo.ring(7), routing.minimal_adaptive_relation, 2),
    "greedy mesh 4x4": (topo.mesh(4, 4), table_relation("greedy"), 1),
    "greedy_fallback circulant 9": (
        topo.circulant(9, (1, 3)), table_relation("greedy_fallback"), 1),
    "neighborhood torus 3x4": (topo.torus(3, 4), table_relation("neighborhood", 2), 2),
    "hierarchical circulant 10": (
        topo.circulant(10, (1, 4)), table_relation("hierarchical"), 1),
    # two routes to one destination share a channel, then part: the walk
    # must key its states by the route carried, not by the channel alone
    "hierarchical 3 centers random 9": (
        random_connected_topology(random.Random(19), 10),
        table_relation("hierarchical", center_count=3), 1),
    "greedy_fallback 2 anchors random 9": (
        random_connected_topology(random.Random(68), 10),
        table_relation("greedy_fallback", anchor_count=2), 1),
}


@pytest.mark.parametrize("case", sorted(CDG_CASES))
def test_cdg_equals_a_networkx_oracle(case):
    t, make_relation, vc_count = CDG_CASES[case]
    relation = make_relation(t)
    cdg = routing.build_cdg(t, relation, vc_count)
    oracle = networkx_cdg(t, relation, vc_count)
    assert set(cdg.nodes) == set(oracle.nodes)
    assert cdg.number_of_nodes() == oracle.number_of_nodes()
    assert cdg.number_of_edges() == oracle.number_of_edges()
    assert all(cdg.has_edge(a, b) for a, b in oracle.edges)
    assert routing.is_deadlock_free(cdg) == nx.is_directed_acyclic_graph(oracle)


@given(st.integers(1, 9).flatmap(lambda n: st.lists(
    st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=3 * n)))
@settings(max_examples=200, deadline=None, derandomize=True)
def test_kahn_agrees_with_networkx_on_random_digraphs(edges):
    cdg = routing.ChannelDependencyGraph()
    g = nx.DiGraph()
    for a, b in edges:
        cdg.add_edge(a, b)
        g.add_edge(a, b)
    assert cdg.number_of_nodes() == g.number_of_nodes()
    assert cdg.number_of_edges() == g.number_of_edges()
    cycle = routing.dependency_cycle(cdg)
    assert (cycle is None) == nx.is_directed_acyclic_graph(g)
    assert routing.is_deadlock_free(cdg) == (cycle is None)
    if cycle is not None:
        assert all(g.has_edge(a, b) for a, b in zip(cycle, cycle[1:] + cycle[:1]))
        assert len(set(cycle)) == len(cycle)
