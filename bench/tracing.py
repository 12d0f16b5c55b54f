"""Outside-in layer tracing for the benchmark.

The tracer wraps public functions and methods of the ``nocsim`` modules
from outside the package: nothing under ``src/`` knows it is traced. Each
name is replaced where its callers look it up, which for a module-level
function means every ``nocsim`` module namespace that holds the same
object (``engine`` imports ``default_anchors`` by name, for example), and
for a method means the class attribute. ``restore()`` puts every original
back.

Calls are hot (millions per run), so spans are aggregated in memory per
layer name rather than stored one by one: call count, inclusive time, the
part of that time spent in wrapped children (for self time), and the
number of calls whose result counts as a useful outcome (for ratios).
"""

from __future__ import annotations

import functools
import sys
import time

from spec import LAYER_METRICS

# (layer name, module, attribute path, useful-outcome test or None).
# Several targets may share one layer name; their figures add up.
TARGETS = (
    ("engine.Simulation.init", "engine", "Simulation.__init__", None),
    ("engine.Simulation.run", "engine", "Simulation.run", None),
    ("workload.inject", "workload", "inject", lambda dst: dst is not None),
    ("workload.faults_at", "workload", "faults_at", None),
    ("topology.view_queries", "topology", "TopologyView.has_node", None),
    ("topology.view_queries", "topology", "TopologyView.has_link", None),
    ("topology.view_queries", "topology", "TopologyView.alive_neighbors", None),
    ("topology.TopologyView.init", "topology", "TopologyView.__init__", None),
    ("topology.bfs_distances", "topology", "Topology.bfs_distances", None),
    ("topology.bfs_distances", "topology", "TopologyView.bfs_distances", None),
    ("topology.score", "topology", "score", None),
    ("topology.synthesize", "topology", "synthesize", None),
    ("addressing.default_anchors", "addressing", "default_anchors", None),
    ("addressing.assign_virtual_coordinates", "addressing",
     "assign_virtual_coordinates", None),
    ("routing.route_xy", "routing", "route_xy", None),
    ("routing.torus_xy_next", "routing", "torus_xy_next", None),
    ("routing.next_hop_greedy", "routing", "next_hop_greedy",
     lambda decision: decision.kind == "forward"),
    ("routing.build_cdg", "routing", "build_cdg", None),
    ("routing.neighborhood_routes", "routing", "neighborhood_routes", None),
    ("fabric.flow_control_accept", "fabric", "flow_control_accept", bool),
    ("fabric.flit_ready", "fabric", "flit_ready", bool),
    ("fabric.make_flits", "fabric", "make_flits", None),
    ("fabric.WirelessHubState.step", "fabric", "WirelessHubState.step", None),
    ("config.parse_config", "config", "parse_config", None),
    ("cli.run_sweep", "cli", "run_sweep", None),
)

class Tracer:
    """Installs counting, timing wrappers over ``TARGETS`` and removes them."""

    def __init__(self):
        # layer name -> [calls, inclusive s, wrapped-children s, useful outcomes]
        self.stats = {name: [0, 0.0, 0.0, 0] for name, *_ in TARGETS}
        self._child_time = [0.0]  # one accumulator per open span, plus a root
        self._patches = []  # (owner, attribute, original), in install order

    def _wrap(self, name, fn, useful):
        stat = self.stats[name]
        child_time = self._child_time
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            child_time.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                children = child_time.pop()
                child_time[-1] += elapsed
                stat[0] += 1
                stat[1] += elapsed
                stat[2] += children
            if useful is not None and useful(result):
                stat[3] += 1
            return result

        return wrapper

    def install(self):
        """Wrap every target; ``nocsim`` must already be imported."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [
            m for key, m in sorted(sys.modules.items())
            if m is not None and (key == "nocsim" or key.startswith("nocsim."))
        ]
        for name, module_name, path, useful in TARGETS:
            module = sys.modules["nocsim." + module_name]
            if "." in path:
                cls_name, attr = path.split(".")
                owner = getattr(module, cls_name)
                original = owner.__dict__[attr]
                self._patch(owner, attr, original, self._wrap(name, original, useful))
                continue
            original = getattr(module, path)
            wrapper = self._wrap(name, original, useful)
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is original:
                        self._patch(m, attr, original, wrapper)

    def _patch(self, owner, attr, original, wrapper):
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def restore(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.restore()

    def metric(self, metric_name):
        """Value of one ``<layer>.<stat>`` metric from the aggregated spans."""
        layer, stat_name = metric_name.rsplit(".", 1)
        calls, inclusive, children, useful = self.stats[layer]
        if stat_name == "calls":
            return calls
        if stat_name == "s":
            return inclusive
        if stat_name == "self_s":
            return inclusive - children
        if stat_name.endswith("_ratio"):
            return useful / calls if calls else 0.0
        raise KeyError(metric_name)

    def layer_metrics(self):
        """Every per-layer metric the tracer itself can give (all but the
        overhead ratio, which compares traced and untraced runs)."""
        return {
            name: self.metric(name)
            for name, *_ in LAYER_METRICS
            if not name.startswith("trace.")
        }
