"""Channel-dependency-graph deadlock analysis of the simulator's routing.

A routing relation is deadlock-free if the graph of "holding channel A
may wait for channel B" dependencies is acyclic (Dally & Seitz). The graph
is built from the same routing table the simulator runs, for fault-free
wired routing. Dimension-ordered XY on a mesh is the classic safe case;
DyXY's choice between two minimal directions closes turn cycles; XY on a
torus is unsafe because wrap-around links close dependency rings, and a
second virtual channel with a dateline rule breaks them again.
"""

from nocsim import engine, routing, topology as topo


def check(label, name, t, vcs=1):
    algorithm = routing.lookup(name, t.kind, routing.RELATIONS)
    ctx = engine.routing_context(algorithm, t, vcs)
    cycle = routing.dependency_cycle(routing.build_cdg(t, routing.relation(algorithm, ctx), vcs))
    print(f"{label:<42} deadlock-free: {cycle is None}")
    if cycle:
        print("    cycle: " + " -> ".join(str(c) for c in cycle + cycle[:1]))


def main():
    mesh = topo.mesh(8, 8)
    torus = topo.torus(8, 8)
    for name in routing.ALGORITHMS:
        check(f"{name} on mesh(8,8)", name, mesh)
    check("minimal adaptive on ring(4)", "minimal_adaptive", topo.ring(4))
    check("xy on torus(8,8), 1 VC", "xy", torus, vcs=1)
    check("xy on torus(8,8), 2 VCs + dateline", "xy", torus, vcs=2)


if __name__ == "__main__":
    main()
