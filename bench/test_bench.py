"""Tests of the benchmark itself: its spec, tracing, pinned outputs and the
known defects that shaped its inputs.

    python -m pytest bench
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from dataclasses import replace

import pytest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, os.path.join(ROOT, "src"))

import run  # noqa: E402
import workloads  # noqa: E402
from nocsim import config, engine, fabric, topology, workload  # noqa: E402
from nocsim.errors import DeadlockDetected  # noqa: E402
from spec import END_TO_END, LAYER_METRICS, WORKLOADS  # noqa: E402
from tracing import TARGETS, Tracer  # noqa: E402


def test_benchmark_json_matches_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    assert bench["command"] == ["python3", "bench/run.py"]
    assert bench["paths"] == ["bench"]
    assert [(w["name"], w["why"]) for w in bench["workloads"]] == list(WORKLOADS)
    assert [
        (m["name"], m["unit"], m["better"], m["bound"]) for m in bench["end_to_end"]
    ] == list(END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] == [
        (layer.name, layer.unit, layer.better) for layer in LAYER_METRICS
    ]


def _nocsim_namespaces():
    """Every binding the tracer may replace: module globals and class dicts."""
    found = {}
    for key, module in sys.modules.items():
        if module is None or not (key == "nocsim" or key.startswith("nocsim.")):
            continue
        for attr, value in vars(module).items():
            found[(key, attr)] = value
            if isinstance(value, type):
                for cls_attr, cls_value in vars(value).items():
                    found[(key, attr, cls_attr)] = cls_value
    return found


def test_tracer_wraps_callers_lookups_and_restores_every_original():
    before = _nocsim_namespaces()
    original_anchors = engine.default_anchors
    original_init = engine.Simulation.__dict__["__init__"]
    with Tracer():
        # imported by name into engine and cli: wrapped there too
        assert engine.default_anchors is not original_anchors
        assert engine.Simulation.__dict__["__init__"] is not original_init
        changed = {k for k, v in _nocsim_namespaces().items() if before.get(k) is not v}
        assert {k[-1] for k in changed} >= {path.split(".")[-1] for _, _, path, _ in TARGETS}
    after = _nocsim_namespaces()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


TINY_CONFIGS = {
    "torus4_xy_vct": engine.SimConfig(
        topology=topology.torus(4, 4), algorithm="xy",
        traffic=workload.TrafficSpec(injection_rate=0.3, seed=3),
        switching=fabric.VCT, warmup_cycles=50, measure_cycles=250, drain_cycles=100,
    ),
    "mesh6_greedy_faults_wireless": engine.SimConfig(
        topology=topology.mesh(6, 6), algorithm="greedy_fallback",
        traffic=workload.TrafficSpec(injection_rate=0.05, seed=3),
        fault_schedule=workload.parse_fault_schedule(
            "link 14 15 0 inf\nlink 7 8 100 300\n", topology.mesh(6, 6)),
        wireless=engine.WirelessConfig(enabled=True, hubs=(7, 28), distance_threshold=4),
        warmup_cycles=50, measure_cycles=250, drain_cycles=100,
    ),
}


@pytest.mark.parametrize("name", sorted(TINY_CONFIGS))
def test_traced_tiny_config_gives_the_untraced_report(name):
    cfg = TINY_CONFIGS[name]
    untraced = engine.run(cfg).serialize()
    with Tracer() as tracer:
        traced = engine.run(cfg).serialize()
    assert traced == untraced
    assert tracer.metric("engine.Simulation.run.calls") == 1
    assert tracer.metric("fabric.flow_control_accept.calls") > 0


def test_failed_ops_count_mismatched_and_missing_outputs():
    expected = {"a": "1\n", "b": "2\n"}
    assert run.mismatched_ops({"a": "1\n", "b": "2\n"}, expected) == []
    assert run.mismatched_ops({"a": "1\n", "b": "3\n"}, expected) == ["b"]
    assert run.mismatched_ops({}, expected) == ["a", "b"]
    assert run.mismatched_ops({"a": "1\n", "b": "2\n", "c": ""}, expected) == ["c"]


@pytest.fixture(scope="module")
def pinned():
    with open(os.path.join(BENCH_DIR, "pinned.json"), encoding="utf-8") as fh:
        return json.load(fh)["outputs"]


@pytest.mark.parametrize("name", [w for w, _ in WORKLOADS])
def test_traced_workload_matches_pins_and_layer_mapping(name, pinned, tmp_path):
    """Full-size traced job at input set 0: outputs equal the pinned
    (untraced) ones byte for byte, and every layer metric is non-zero where
    the mapping puts most work and zero where it says there is none."""
    with Tracer() as tracer:
        outputs = workloads.prepare(name, 0, str(tmp_path)).run()
    assert outputs == pinned[name]["0"]
    values = tracer.layer_metrics()
    for layer in LAYER_METRICS:
        if layer.name == "trace.overhead_ratio":
            continue
        if name in layer.most_work_in:
            assert values[layer.name] > 0, layer.name
        if name in layer.zero_in:
            assert values[layer.name] == 0, layer.name


def test_run_refuses_a_checkout_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", WORKLOADS[0][0],
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


# -- known defects that shaped the sweep's inputs ----------------------------
# Strict: a fix makes these pass, which fails the suite until the case is
# moved back into the workload and these markers are removed.

@pytest.mark.xfail(strict=True, raises=DeadlockDetected,
                   reason="radio deliveries into a failed hub are never drained")
def test_defect_failed_hub_deadlocks_greedy_fallback():
    template = config.parse_config(workloads.sweep_config_text(0),
                                   workloads.INPUTS_DIR).template
    cfg = replace(template, fault_schedule=workload.parse_fault_schedule(
        "node 21 2500 5000\n", template.topology))
    engine.run(cfg)


@pytest.mark.xfail(strict=True, raises=DeadlockDetected,
                   reason="greedy_fallback has no deadlock-free relation (ROADMAP item 3)")
def test_defect_greedy_fallback_deadlocks_under_complement_traffic():
    template = config.parse_config(workloads.sweep_config_text(0),
                                   workloads.INPUTS_DIR).template
    cfg = replace(
        template,
        traffic=replace(template.traffic, pattern=workload.PERMUTATION, permutation=tuple(
            workload.complement_destination(template.topology, u) for u in range(64))),
        fault_schedule=workload.FaultSchedule(),
        wireless=engine.WirelessConfig(),
    )
    engine.run(cfg)
