"""Flat dotted-key experiment configuration.

Format: UTF-8 text, one ``key = value`` pair per line, ``#`` comments.
Unknown keys are hard errors so typos never silently fall back to defaults.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace

from . import engine, topology as topo, workload
from .errors import (
    ConfigError,
    ConfigSyntaxError,
    MissingRequired,
    TypeMismatch,
    UnknownKey,
)


def _to_bool(s):
    if s in ("true", "yes", "1", "on"):
        return True
    if s in ("false", "no", "0", "off"):
        return False
    raise ValueError(s)


def _int_list(s):
    return tuple(int(x) for x in s.split(",") if x.strip())


def _float_list(s):
    return tuple(float(x) for x in s.split(",") if x.strip())


def _str_list(s):
    return tuple(x.strip() for x in s.split(",") if x.strip())


# key -> (converter, default); required keys have the REQUIRED marker.
# Defaults that the engine or the workload also has are read from there.
REQUIRED = object()
_SIM = engine.SimConfig
_WIRELESS = engine.WirelessConfig
_TRAFFIC = workload.TrafficSpec

KEYS = {
    "topology.kind": (str, REQUIRED),
    "topology.width": (int, None),
    "topology.height": (int, None),
    "topology.nodes": (int, None),
    "topology.generators": (_int_list, None),
    "topology.rows": (int, None),
    "topology.cols": (int, None),
    "topology.file": (str, None),
    "routing.algorithm": (str, REQUIRED),
    "routing.anchors": (int, _SIM.anchor_count),
    "routing.centers": (int, _SIM.center_count),
    "fabric.switching": (str, _SIM.switching),
    "fabric.buffer_depth": (int, _SIM.buffer_depth),
    "fabric.vc_count": (int, _SIM.vc_count),
    "fabric.pipeline": (int, _SIM.pipeline),
    "traffic.pattern": (str, _TRAFFIC.pattern),
    "traffic.rate": (float, _TRAFFIC.injection_rate),
    "traffic.packet_length": (int, _TRAFFIC.packet_length),
    "traffic.hotspot_node": (int, _TRAFFIC.hotspot_node),
    "traffic.hotspot_fraction": (float, _TRAFFIC.hotspot_fraction),
    "traffic.permutation_file": (str, None),
    "faults.file": (str, None),
    "wireless.enabled": (_to_bool, _WIRELESS.enabled),
    "wireless.hubs": (_int_list, _WIRELESS.hubs),
    "wireless.threshold": (int, _WIRELESS.distance_threshold),
    "wireless.w_cycles": (int, _WIRELESS.w_cycles),
    "wireless.queue_cap": (int, _WIRELESS.queue_cap),
    "sim.warmup_cycles": (int, _SIM.warmup_cycles),
    "sim.measure_cycles": (int, _SIM.measure_cycles),
    "sim.drain_cycles": (int, _SIM.drain_cycles),
    "sim.seed": (int, _TRAFFIC.seed),
    "sim.max_packets": (int, _SIM.max_packets),
    "sweep.rates": (_float_list, None),
    "sweep.seeds": (_int_list, None),
    "sweep.algorithms": (_str_list, None),
}


def parse_kv_text(text):
    """Raw dotted keys -> converted values, with defaults applied."""
    values = {}
    for ln_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigSyntaxError("expected 'key = value'", ln_no, 1)
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if not key:
            raise ConfigSyntaxError("empty key", ln_no, 1)
        if key not in KEYS:
            raise UnknownKey(f"line {ln_no}: unknown key {key!r}")
        if key in values:
            raise ConfigSyntaxError(f"duplicate key {key!r}", ln_no, 1)
        conv, _default = KEYS[key]
        try:
            values[key] = conv(value)
        except (ValueError, TypeError):
            raise TypeMismatch(
                f"line {ln_no}: key {key!r} expects {conv.__name__}, got {value!r}"
            ) from None
    for key, (_conv, default) in KEYS.items():
        if key not in values:
            if default is REQUIRED:
                raise MissingRequired(f"missing required key {key!r}")
            values[key] = default
    return values


def _build_topology(values, base_dir):
    kind = values["topology.kind"]
    if kind == "mesh":
        _need(values, "topology.width", "topology.height")
        return topo.mesh(values["topology.width"], values["topology.height"])
    if kind == "torus":
        _need(values, "topology.width", "topology.height")
        return topo.torus(values["topology.width"], values["topology.height"])
    if kind == "circulant":
        _need(values, "topology.nodes", "topology.generators")
        return topo.circulant(values["topology.nodes"], values["topology.generators"])
    if kind == "flattened_butterfly":
        _need(values, "topology.rows", "topology.cols")
        return topo.flattened_butterfly(values["topology.rows"], values["topology.cols"])
    if kind == "file":
        _need(values, "topology.file")
        path = os.path.join(base_dir, values["topology.file"])
        with open(path, encoding="utf-8") as fh:
            return topo.from_edge_list_text(fh.read())
    raise ConfigError(f"unknown topology.kind {kind!r}")


def _need(values, *keys):
    for key in keys:
        if values[key] is None:
            raise MissingRequired(f"topology.kind={values['topology.kind']} needs {key}")


def _build_traffic(values, topology, base_dir, seed):
    pattern = values["traffic.pattern"]
    permutation = None
    if pattern == "complement":
        pattern = workload.PERMUTATION
        permutation = tuple(
            workload.complement_destination(topology, u)
            for u in range(topology.node_count)
        )
    elif pattern == "permutation_file":
        _need(values, "traffic.permutation_file")
        pattern = workload.PERMUTATION
        path = os.path.join(base_dir, values["traffic.permutation_file"])
        with open(path, encoding="utf-8") as fh:
            permutation = _parse_permutation(fh.read(), topology.node_count)
    return workload.TrafficSpec(
        pattern=pattern,
        injection_rate=values["traffic.rate"],
        packet_length=values["traffic.packet_length"],
        seed=seed,
        hotspot_node=values["traffic.hotspot_node"],
        hotspot_fraction=values["traffic.hotspot_fraction"],
        permutation=permutation,
    )


def _parse_permutation(text, n):
    table = {}
    for ln_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            src, dst = map(int, line.split())
        except ValueError:  # not two integers
            raise ConfigSyntaxError("expected '<src> <dst>'", ln_no, 1) from None
        if not (0 <= src < n and 0 <= dst < n):
            raise ConfigError(f"permutation entry {src} {dst} out of range")
        if src in table:
            raise ConfigSyntaxError(f"second destination for source {src}", ln_no, 1)
        table[src] = dst
    return tuple(table.get(u, u) for u in range(n))


@dataclass(frozen=True)
class ExperimentConfig:
    template: engine.SimConfig
    rates: tuple
    seeds: tuple
    algorithms: tuple

    def variants(self):
        """SimConfigs in deterministic (algorithm, rate, seed) order."""
        for algorithm in self.algorithms:
            for rate in self.rates:
                for seed in self.seeds:
                    traffic = replace(
                        self.template.traffic, injection_rate=rate, seed=seed
                    )
                    yield replace(
                        self.template, algorithm=algorithm, traffic=traffic
                    )


def parse_config(text, base_dir=".", seed_override=None):
    """Full experiment config: a SimConfig template plus sweep axes, none
    listing a value twice; ``seed_override`` replaces the seed axis."""
    values = parse_kv_text(text)
    for key in ("sweep.rates", "sweep.seeds", "sweep.algorithms"):
        axis = values[key] or ()
        for i, value in enumerate(axis):
            if value in axis[:i]:
                raise ConfigError(f"{key} lists {value} twice")
    topology = _build_topology(values, base_dir)
    seed = values["sim.seed"] if seed_override is None else seed_override
    traffic = _build_traffic(values, topology, base_dir, seed)

    schedule = workload.FaultSchedule()
    if values["faults.file"] is not None:
        path = os.path.join(base_dir, values["faults.file"])
        with open(path, encoding="utf-8") as fh:
            schedule = workload.parse_fault_schedule(fh.read(), topology)

    wireless = engine.WirelessConfig(
        enabled=values["wireless.enabled"],
        hubs=values["wireless.hubs"],
        distance_threshold=values["wireless.threshold"],
        w_cycles=values["wireless.w_cycles"],
        queue_cap=values["wireless.queue_cap"],
    )

    template = engine.SimConfig(
        topology=topology,
        algorithm=values["routing.algorithm"],
        traffic=traffic,
        switching=values["fabric.switching"],
        buffer_depth=values["fabric.buffer_depth"],
        vc_count=values["fabric.vc_count"],
        pipeline=values["fabric.pipeline"],
        fault_schedule=schedule,
        wireless=wireless,
        warmup_cycles=values["sim.warmup_cycles"],
        measure_cycles=values["sim.measure_cycles"],
        drain_cycles=values["sim.drain_cycles"],
        max_packets=values["sim.max_packets"],
        anchor_count=values["routing.anchors"],
        center_count=values["routing.centers"],
    )
    template.validate()

    experiment = ExperimentConfig(
        template=template,
        rates=values["sweep.rates"] or (traffic.injection_rate,),
        seeds=(seed,) if seed_override is not None else values["sweep.seeds"] or (seed,),
        algorithms=values["sweep.algorithms"] or (template.algorithm,),
    )
    # every sweep variant must itself be valid
    for variant in experiment.variants():
        variant.validate()
    return experiment
