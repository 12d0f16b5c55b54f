"""Virtual coordinates, greedy forwarding, and shortest-route enumeration.

Nodes are addressed by their hop distances to a few anchor nodes; greedy
forwarding walks to any neighbor strictly closer to the destination in
that coordinate space. On an obstacle-free mesh this is always possible;
carve a hole in the mesh and greedy gets stuck at a local minimum, which
the fallback escapes by splicing in an explicit shortest route.
"""

from nocsim import addressing, routing, topology as topo


def main():
    t = topo.mesh(5, 5)
    anchors = addressing.default_anchors(t, 3)
    coords = addressing.assign_virtual_coordinates(t, anchors)
    print(f"anchors (farthest-point selection): {anchors}")
    for node in (0, 12, 24):
        print(f"  node {node:2d} -> coords {coords.coords[node]}")

    # All shortest routes between opposite corners, lexicographic order.
    paths = routing.neighborhood_routes(t, 0, 24)
    print(f"\n{len(paths)} shortest routes 0 -> 24; first three:")
    for p in sorted(paths)[:3]:
        print(f"  {p}")

    # Knock out the middle of column x=2 to build a concave wall.
    view = topo.TopologyView(t, failed_nodes=(7, 12, 17))
    src, dst = t.xy_node(1, 2), t.xy_node(3, 2)
    walk = [src]
    node = src
    while node != dst:
        decision = routing.next_hop_greedy(
            coords, node, dst, view.alive_neighbors(node)
        )
        if decision.kind != "forward":
            print(f"\ngreedy from {src} to {dst} stalls at node {node} "
                  f"({decision.kind}): every neighbor looks farther away")
            break
        node = decision.node
        walk.append(node)
    print(f"greedy walk so far: {walk}")

    # the path a lone greedy_fallback packet takes, from the engine's relation
    ctx = routing.RoutingContext(view, coordinates=coords)
    route = routing.walk(
        routing.relation(routing.ALGORITHMS["greedy_fallback"], ctx), src, dst
    )
    print(f"fallback route:     {list(route)}  (length {len(route) - 1} hops)")


if __name__ == "__main__":
    main()
