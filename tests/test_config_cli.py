"""Experiment config parsing and the command-line interface."""

import os
import subprocess
import sys

import pytest

from nocsim import cli, config as cfgmod, engine, routing, topology as topo, workload
from nocsim.errors import (
    ConfigError,
    ConfigSyntaxError,
    MissingRequired,
    TypeMismatch,
    UnknownKey,
)

BASE = """
topology.kind = mesh
topology.width = 4
topology.height = 4
routing.algorithm = xy
traffic.rate = 0.05
sim.warmup_cycles = 50
sim.measure_cycles = 300
sim.drain_cycles = 200
"""


def parse(text, base_dir=".", seed_override=None):
    return cfgmod.parse_config(text, base_dir, seed_override)


# -- key/value layer ---------------------------------------------------------

def test_parse_defaults_and_comments():
    values = cfgmod.parse_kv_text(
        "topology.kind = mesh  # grid\nrouting.algorithm = xy\n\n# done\n"
    )
    assert values["topology.kind"] == "mesh"
    assert values["fabric.switching"] == "wormhole"
    assert values["traffic.rate"] == 0.1


def test_parse_unknown_key():
    with pytest.raises(UnknownKey):
        cfgmod.parse_kv_text("topology.kindd = mesh")


def test_parse_type_mismatch():
    with pytest.raises(TypeMismatch):
        cfgmod.parse_kv_text("topology.width = four")


def test_parse_wireless_enabled_is_a_boolean():
    assert parse(BASE + "wireless.enabled = false\n").template.wireless.enabled is False
    with pytest.raises(TypeMismatch, match="wireless.enabled"):
        cfgmod.parse_kv_text("wireless.enabled = maybe")


def test_parse_missing_required():
    with pytest.raises(MissingRequired):
        cfgmod.parse_kv_text("topology.kind = mesh")


def test_parse_syntax_and_duplicates():
    with pytest.raises(ConfigSyntaxError):
        cfgmod.parse_kv_text("just some words")
    with pytest.raises(ConfigSyntaxError):
        cfgmod.parse_kv_text("topology.kind = mesh\ntopology.kind = torus")


# -- full experiment configs -------------------------------------------------

def test_parse_full_config():
    exp = parse(BASE)
    assert exp.template.topology == topo.mesh(4, 4)
    assert exp.template.algorithm == "xy"
    assert exp.template.traffic.injection_rate == 0.05
    assert exp.rates == (0.05,) and exp.seeds == (0,) and exp.algorithms == ("xy",)


def test_parse_sweep_axes_and_variant_order():
    exp = parse(
        BASE + "sweep.rates = 0.02, 0.04\nsweep.seeds = 1, 2\n"
        "sweep.algorithms = xy, dyxy\n"
    )
    variants = list(exp.variants())
    assert len(variants) == 8
    assert [v.algorithm for v in variants[:4]] == ["xy"] * 4
    assert [v.traffic.injection_rate for v in variants[:4]] == [0.02, 0.02, 0.04, 0.04]
    assert [v.traffic.seed for v in variants[:2]] == [1, 2]


def test_seed_override():
    exp = parse(BASE + "sim.seed = 7\n", seed_override=99)
    assert exp.template.traffic.seed == 99
    # it replaces the seed axis too
    exp = parse(BASE + "sweep.seeds = 0, 1\n", seed_override=7)
    assert exp.seeds == (7,)
    assert [v.traffic.seed for v in exp.variants()] == [7]


@pytest.mark.parametrize("key,values,repeated", [
    ("sweep.seeds", "1, 2, 1", "1"),
    ("sweep.rates", "0.02, 0.05, 0.05", "0.05"),
    ("sweep.algorithms", "xy, xy", "xy"),
])
def test_parse_rejects_a_sweep_axis_listing_a_value_twice(key, values, repeated):
    """A repeated value would run one variant twice and write its row twice."""
    with pytest.raises(ConfigError) as caught:
        parse(BASE + f"{key} = {values}\n")
    assert str(caught.value) == f"{key} lists {repeated} twice"


def test_parse_complement_pattern():
    exp = parse(BASE.replace("traffic.rate = 0.05",
                             "traffic.rate = 0.05\ntraffic.pattern = complement"))
    perm = exp.template.traffic.permutation
    assert perm[0] == 15 and perm[15] == 0


PERMUTATION = BASE.replace(
    "traffic.rate = 0.05",
    "traffic.rate = 0.05\ntraffic.pattern = permutation_file\n"
    "traffic.permutation_file = perm.txt",
)


def test_parse_permutation_file(tmp_path):
    (tmp_path / "perm.txt").write_text("# src dst\n0 15\n\n15 0  # swap corners\n5 6\n")
    traffic = parse(PERMUTATION, base_dir=str(tmp_path)).template.traffic
    assert traffic.pattern == workload.PERMUTATION
    # listed entries are applied; unlisted nodes map to themselves
    assert traffic.permutation == (15, 1, 2, 3, 4, 6, *range(6, 15), 0)


@pytest.mark.parametrize("text,line", [
    ("0 15\n5\n", 2), ("0 1 2\n", 1), ("x 3\n", 1), ("0 15\n0 14\n", 2),
])
def test_parse_permutation_file_rejects_malformed_lines(tmp_path, text, line):
    (tmp_path / "perm.txt").write_text(text)
    with pytest.raises(ConfigSyntaxError) as exc:
        parse(PERMUTATION, base_dir=str(tmp_path))
    assert exc.value.line == line


@pytest.mark.parametrize("text", ["0 16\n", "16 0\n", "-1 3\n"])
def test_parse_permutation_file_rejects_entries_out_of_range(tmp_path, text):
    (tmp_path / "perm.txt").write_text(text)
    with pytest.raises(ConfigError, match="out of range"):
        parse(PERMUTATION, base_dir=str(tmp_path))


def test_parse_topology_kinds():
    text = "routing.algorithm = greedy\ntopology.kind = circulant\n" \
        "topology.nodes = 10\ntopology.generators = 1, 3\n"
    exp = parse(text)
    assert exp.template.topology.kind == topo.CIRCULANT
    with pytest.raises(MissingRequired):
        parse("routing.algorithm = greedy\ntopology.kind = circulant\n")
    fb = parse(
        "routing.algorithm = greedy\ntopology.kind = flattened_butterfly\n"
        "topology.rows = 2\ntopology.cols = 3\n"
    ).template.topology
    assert fb.kind == topo.FLATTENED_BUTTERFLY and fb.node_count == 6
    with pytest.raises(ConfigError):
        parse("routing.algorithm = greedy\ntopology.kind = moebius\n")


def test_parse_topology_file_and_faults(tmp_path):
    (tmp_path / "net.edges").write_text(topo.to_edge_list_text(topo.ring(6)))
    (tmp_path / "faults.txt").write_text("link 0 1 10 inf\n")
    text = (
        "topology.kind = file\ntopology.file = net.edges\n"
        "routing.algorithm = greedy_fallback\nfaults.file = faults.txt\n"
    )
    exp = parse(text, base_dir=str(tmp_path))
    assert exp.template.topology.node_count == 6
    assert len(exp.template.fault_schedule.events) == 1


def test_invalid_variant_rejected_up_front():
    """A sweep variant that could not run is rejected when the config is
    parsed, before any variant runs: dyxy on a torus, and an anchor or
    center count outside 1..16 for the variant that reads it (xy reads
    neither, so the template alone passed, and the sweep once ran the xy
    variant before failing with a message that named no key)."""
    for text, key in (
        (BASE.replace("mesh", "torus") + "sweep.algorithms = xy, dyxy\n", "dyxy"),
        (BASE + "routing.anchors = 0\nsweep.algorithms = xy, greedy\n", "routing.anchors"),
        (BASE + "routing.anchors = 17\nsweep.algorithms = xy, greedy_fallback\n",
         "routing.anchors"),
        (BASE + "routing.centers = 0\nsweep.algorithms = xy, hierarchical\n",
         "routing.centers"),
        (BASE + "routing.centers = 17\nsweep.algorithms = xy, hierarchical\n",
         "routing.centers"),
    ):
        with pytest.raises(ConfigError, match=key):
            parse(text)
    # a count only the unused scheme would read is not checked
    parse(BASE + "routing.centers = 0\nsweep.algorithms = xy, greedy\n")


# -- CLI ---------------------------------------------------------------------

def write_config(tmp_path, text=BASE, name="exp.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_cli_run_prints_report(tmp_path, capsys):
    rc = cli.main(["run", "--config", write_config(tmp_path)])
    out = capsys.readouterr().out
    assert rc == 0
    assert out.startswith("delivered=")
    assert "deadlock=0" in out


def test_cli_run_unknown_key_exit_1(tmp_path, capsys):
    rc = cli.main(["run", "--config", write_config(tmp_path, BASE + "bogus.key = 1\n")])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


def test_cli_run_concentration_is_an_unknown_key_exit_1(tmp_path, capsys):
    """``topology.concentration`` changed nothing the simulator did and is
    gone: a config that sets it is rejected, not silently run."""
    text = (BASE.replace("kind = mesh", "kind = flattened_butterfly")
            + "topology.rows = 4\ntopology.cols = 4\ntopology.concentration = 2\n")
    rc = cli.main(["run", "--config", write_config(tmp_path, text)])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert "unknown key 'topology.concentration'" in captured.err


def test_cli_run_off_grid_hotspot_exit_1(tmp_path, capsys):
    """A hotspot outside the 4×4 mesh once made xy route forever."""
    text = BASE + "traffic.pattern = hotspot\ntraffic.hotspot_node = 16\n"
    rc = cli.main(["run", "--config", write_config(tmp_path, text)])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.out == ""
    assert captured.err.startswith("error: ")


def test_cli_run_zero_cycle_radio_exit_1(tmp_path, capsys):
    """A zero-cycle radio once ran like a one-cycle one."""
    text = BASE + "wireless.enabled = true\nwireless.hubs = 0, 15\nwireless.w_cycles = 0\n"
    rc = cli.main(["run", "--config", write_config(tmp_path, text)])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.out == ""
    assert captured.err.startswith("error: ")


def test_cli_run_unknown_switching_exit_1(tmp_path, capsys):
    text = BASE + "fabric.switching = circuit\n"
    rc = cli.main(["run", "--config", write_config(tmp_path, text)])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.out == ""
    assert captured.err.startswith("error: ")


def test_cli_run_missing_file_exit_1(tmp_path, capsys):
    rc = cli.main(["run", "--config", str(tmp_path / "absent.cfg")])
    assert rc == 1


DEADLOCKING = """
topology.kind = torus
topology.width = 4
topology.height = 4
routing.algorithm = xy
fabric.vc_count = 1
fabric.buffer_depth = 2
traffic.rate = 0.5
sim.warmup_cycles = 100
sim.measure_cycles = 3000
sim.drain_cycles = 500
"""


def test_cli_run_deadlock_exit_2(tmp_path, capsys):
    rc = cli.main(["run", "--config", write_config(tmp_path, DEADLOCKING)])
    assert rc == 2
    assert "protocol violation" in capsys.readouterr().err


def test_cli_sweep_writes_byte_identical_csv(tmp_path, capsys):
    config = write_config(
        tmp_path, BASE + "sweep.rates = 0.02, 0.05\nsweep.seeds = 1, 2\n"
    )
    out_a, out_b = str(tmp_path / "a"), str(tmp_path / "b")
    assert cli.main(["sweep", "--config", config, "--out", out_a]) == 0
    assert cli.main(["sweep", "--config", config, "--out", out_b]) == 0
    for name in ("results.csv", "summary.csv"):
        a = open(os.path.join(out_a, name), "rb").read()
        b = open(os.path.join(out_b, name), "rb").read()
        assert a == b
    lines = open(os.path.join(out_a, "results.csv")).read().splitlines()
    assert lines[0] == ",".join(cli.CSV_COLUMNS)
    assert len(lines) == 1 + 4  # 2 rates x 2 seeds


def test_cli_sweep_seed_replaces_the_configs_seed_axis(tmp_path, capsys):
    config = write_config(tmp_path, BASE + "sweep.seeds = 0, 1\n")
    out = str(tmp_path / "out")
    assert cli.main(["sweep", "--config", config, "--seed", "7", "--out", out]) == 0
    rows = open(os.path.join(out, "results.csv")).read().splitlines()[1:]
    assert [row.split(",")[2] for row in rows] == ["7"]


def test_cli_sweep_failure_removes_partial_outputs(tmp_path):
    # second variant has an invalid rate at runtime: simulate via fault file
    # referencing a missing topology element is caught at parse time instead,
    # so use an output directory collision: point --out at a file path
    config = write_config(tmp_path)
    blocker = tmp_path / "blocked"
    blocker.write_text("not a directory")
    rc = cli.main(["sweep", "--config", config, "--out", str(blocker)])
    assert rc == 1


def test_cli_sweep_failure_removes_stale_outputs(tmp_path, capsys):
    """A variant that raises leaves no results.csv or summary.csv behind,
    not even those of an earlier sweep into the same directory."""
    out = tmp_path / "out"
    out.mkdir()
    for name in ("results.csv", "summary.csv"):
        (out / name).write_text("stale\n")
    config = write_config(tmp_path, DEADLOCKING + "sweep.rates = 0.05, 0.5\n")
    assert cli.main(["sweep", "--config", config, "--out", str(out)]) == 2
    assert "protocol violation" in capsys.readouterr().err
    assert os.listdir(out) == []


def test_cli_routes_lists_shortest_paths(tmp_path, capsys):
    net = tmp_path / "m.edges"
    net.write_text(topo.to_edge_list_text(topo.mesh(3, 3)))
    rc = cli.main(["routes", "--topology", str(net), "--src", "0", "--dst", "8"])
    out = capsys.readouterr().out.splitlines()
    assert rc == 0
    assert len(out) == 6  # C(4,2) staircase routes on a 2+2 walk
    assert out == sorted(out)
    assert all(line.startswith("0 ") and line.endswith(" 8") for line in out)


@pytest.mark.parametrize("src,dst", [("0", "-1"), ("9", "3")])
def test_cli_routes_rejects_nodes_outside_the_topology(tmp_path, capsys, src, dst):
    """On a 4-node line, --dst -1 once printed the route 0 1 2 -1 and
    --src 9 died with an IndexError."""
    net = tmp_path / "line.edges"
    net.write_text(topo.to_edge_list_text(topo.mesh(4, 1)))
    rc = cli.main(["routes", "--topology", str(net), "--src", src, "--dst", dst])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.out == ""
    assert captured.err.startswith("error: ")


def test_cli_coords_dump(tmp_path, capsys):
    net = tmp_path / "m.edges"
    net.write_text(topo.to_edge_list_text(topo.mesh(2, 2)))
    rc = cli.main(["coords", "--topology", str(net), "--anchors", "2"])
    out = capsys.readouterr().out
    assert rc == 0
    assert out == "0: 0 2\n1: 1 1\n2: 1 1\n3: 2 0\n"


def test_cli_check_deadlock(tmp_path, capsys):
    mesh_file = tmp_path / "mesh.edges"
    mesh_file.write_text(topo.to_edge_list_text(topo.mesh(4, 4)))

    def check(args):
        rc = cli.main(args)
        out = capsys.readouterr().out
        assert rc == 0
        return out.strip()

    # a mesh loaded from file lacks grid metadata; use the config path
    cfg = write_config(tmp_path)
    assert check(["check-deadlock", "--config", cfg, "--algorithm", "xy"]) \
        == "deadlock-free: true"
    # DyXY's two minimal options per hop close turn cycles; the verdict
    # comes with one witness cycle of channels
    dyxy = check(["check-deadlock", "--config", cfg, "--algorithm", "dyxy"])
    assert dyxy.splitlines()[0] == "deadlock-free: false"
    assert dyxy.splitlines()[1].startswith("cycle: (")
    for algorithm, verdict in (
        ("neighborhood", "true"), ("hierarchical", "true"),
        ("greedy", "false"), ("greedy_fallback", "false"),
    ):
        out = check(["check-deadlock", "--config", cfg, "--algorithm", algorithm])
        assert out.splitlines()[0] == f"deadlock-free: {verdict}", algorithm
    torus_cfg = write_config(tmp_path, BASE.replace("mesh", "torus"), "t.cfg")
    assert check(
        ["check-deadlock", "--config", torus_cfg, "--algorithm", "xy", "--vcs", "1"]
    ) == (
        "deadlock-free: false\n"
        "cycle: (0, 1, 0) -> (1, 2, 0) -> (2, 3, 0) -> (3, 0, 0) -> (0, 1, 0)"
    )
    assert check(
        ["check-deadlock", "--config", torus_cfg, "--algorithm", "xy", "--vcs", "2"]
    ) == "deadlock-free: true"


GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")
DEADLOCK_FAMILIES = {  # family: (kind, config text)
    "mesh 8x8": (topo.MESH, "topology.width = 8\ntopology.height = 8\n"),
    "torus 8x8": (topo.TORUS, "topology.width = 8\ntopology.height = 8\n"),
    "circulant 32 (1, 5)": (
        topo.CIRCULANT, "topology.nodes = 32\ntopology.generators = 1, 5\n"
    ),
}


def pinned_deadlock_table():
    """``golden/check_deadlock.txt`` as {(family, algorithm): output}."""
    with open(os.path.join(GOLDEN, "check_deadlock.txt"), encoding="utf-8") as fh:
        blocks = fh.read().split("== ")[1:]
    table = {}
    for block in blocks:
        header, output = block.split("\n", 1)
        family, algorithm = header.rsplit(" ", 1)
        table[(family, algorithm)] = output
    return table


DEADLOCK_TABLE = pinned_deadlock_table()


def test_deadlock_table_covers_every_relation_on_each_family():
    assert sorted(DEADLOCK_TABLE) == sorted(
        (family, name)
        for family, (kind, _) in DEADLOCK_FAMILIES.items()
        for name, algorithm in routing.RELATIONS.items()
        if algorithm.kinds is None or kind in algorithm.kinds
    )


@pytest.mark.parametrize("family,algorithm", sorted(DEADLOCK_TABLE))
def test_check_deadlock_output_is_pinned(tmp_path, capsys, family, algorithm):
    """Verdict and witness cycle of every relation on three families at the
    config's default VCs (2 on the torus, 1 elsewhere)."""
    kind, text = DEADLOCK_FAMILIES[family]
    # the run's own algorithm only has to be valid on the family
    text = f"topology.kind = {kind}\n{text}routing.algorithm = greedy\n"
    cfg = write_config(tmp_path, text)
    assert cli.main(["check-deadlock", "--config", cfg, "--algorithm", algorithm]) == 0
    assert capsys.readouterr().out == DEADLOCK_TABLE[(family, algorithm)]


def test_cli_check_deadlock_on_a_topology_file(tmp_path, capsys):
    """A file topology is judged at one VC; a ring closes the neighborhood
    method's dependency cycle and a line cannot, and --vcs 0 is refused."""
    ring, line = tmp_path / "ring.edges", tmp_path / "line.edges"
    ring.write_text(topo.to_edge_list_text(topo.ring(6)))
    line.write_text(topo.to_edge_list_text(topo.mesh(4, 1)))
    args = ["check-deadlock", "--algorithm", "neighborhood", "--topology"]
    assert cli.main(args + [str(ring)]) == 0
    assert capsys.readouterr().out == (
        "deadlock-free: false\ncycle: (0, 1, 0) -> (1, 2, 0) -> (2, 3, 0) -> "
        "(3, 4, 0) -> (4, 5, 0) -> (5, 0, 0) -> (0, 1, 0)\n"
    )
    assert cli.main(args + [str(line)]) == 0
    assert capsys.readouterr().out == "deadlock-free: true\n"
    assert cli.main(args + [str(line), "--vcs", "0"]) == 1
    assert capsys.readouterr().err == "error: --vcs must be >= 1\n"


def test_cli_synth_and_score(tmp_path, capsys):
    out_dir = str(tmp_path / "synth")
    rc = cli.main([
        "synth", "--n", "6", "--max-degree", "3", "--max-diameter", "2",
        "--out", out_dir,
    ])
    assert rc == 0
    capsys.readouterr()
    path = os.path.join(out_dir, "synthesized.edges")
    assert os.path.exists(path)
    rc = cli.main(["score", "--topology", path])
    out = capsys.readouterr().out
    assert rc == 0
    assert "diameter=2" in out

    rc = cli.main([
        "synth", "--n", "10", "--max-degree", "2", "--max-diameter", "2",
    ])
    out = capsys.readouterr().out
    assert rc == 0 and out.startswith("infeasible:")


@pytest.mark.parametrize("budget", ["0", "-5"])
def test_cli_synth_rejects_a_budget_below_one(budget, capsys):
    rc = cli.main([
        "synth", "--n", "6", "--max-degree", "3", "--max-diameter", "2",
        "--budget", budget,
    ])
    captured = capsys.readouterr()
    assert rc == 1 and captured.out == ""
    assert captured.err == "error: budget must be >= 1\n"


@pytest.mark.parametrize("argv,code", [
    (["routes", "--src", "1"], 1),            # missing --dst
    (["frobnicate"], 1),                      # unknown subcommand
    (["synth", "--n", "x", "--max-degree", "3", "--max-diameter", "2"], 1),
    (["run"], 1),                             # missing --config
    (["score", "--out", "d"], 1),             # flags that nothing read are gone
    (["check-deadlock", "--seed", "1"], 1),
    (["--help"], 0),
    (["sweep", "--help"], 0),
])
def test_cli_usage_errors_exit_1(argv, code, capsys):
    """A usage error exits 1, like any other configuration error; 2 stays
    reserved for deadlock and livelock, and --help still exits 0."""
    assert cli.main(argv) == code
    captured = capsys.readouterr()
    assert "usage:" in (captured.err if code else captured.out)


def test_cli_score_values(tmp_path, capsys):
    net = tmp_path / "m.edges"
    net.write_text(topo.to_edge_list_text(topo.mesh(4, 4)))
    rc = cli.main(["score", "--topology", str(net)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "diameter=6" in out and "edge_count=24" in out


@pytest.mark.parametrize("edges", ["nodes 3\n1 x\n", "nodes 0\n", "nodes 3\n1 1\n"],
                         ids=["non_integer_endpoint", "zero_nodes", "self_loop"])
def test_cli_malformed_topology_file_exit_1(edges, tmp_path, capsys):
    """Given to ``score`` directly or through ``topology.kind = file``."""
    (tmp_path / "bad.edges").write_text(edges)
    cfg_path = write_config(
        tmp_path,
        "topology.kind = file\ntopology.file = bad.edges\nrouting.algorithm = greedy\n",
    )
    for argv in (["score", "--topology", str(tmp_path / "bad.edges")],
                 ["score", "--config", cfg_path],
                 ["run", "--config", cfg_path]):
        assert cli.main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")


@pytest.mark.parametrize("rate,code", [("1.0", 1), ("0.1", 1), ("0", 0)])
def test_cli_run_traffic_on_one_node(rate, code, tmp_path, capsys):
    """Uniform traffic on a lone node once died dividing by n - 1; with
    no traffic the run still finishes."""
    (tmp_path / "one.edges").write_text("nodes 1\n")
    text = (
        "topology.kind = file\ntopology.file = one.edges\n"
        f"routing.algorithm = neighborhood\ntraffic.rate = {rate}\n"
    )
    rc = cli.main(["run", "--config", write_config(tmp_path, text)])
    captured = capsys.readouterr()
    assert rc == code
    if code:
        assert captured.out == ""
        assert captured.err == "error: traffic needs at least 2 nodes\n"
    else:
        assert captured.out.startswith("delivered=0\n")


def test_cli_disconnected_topology_exit_1(tmp_path, capsys):
    """Anchor placement once ran out of reachable nodes and blamed the
    anchors: "anchors (0, 1, 0) contain duplicates"."""
    (tmp_path / "split.edges").write_text("nodes 4\n0 1\n2 3\n")
    cfg_path = write_config(
        tmp_path,
        "topology.kind = file\ntopology.file = split.edges\nrouting.algorithm = greedy\n",
    )
    for argv in (["run", "--config", cfg_path],
                 ["coords", "--config", cfg_path],
                 ["check-deadlock", "--config", cfg_path, "--algorithm", "greedy"]):
        assert cli.main(argv) == 1, argv
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: node 2 unreachable from node 0\n", argv


NO_GRAPH_LIBRARY = """
import sys
import nocsim
from nocsim import cli, engine, topology, workload

engine.run(engine.SimConfig(
    topology=topology.mesh(4, 4), algorithm="greedy_fallback",
    traffic=workload.TrafficSpec(injection_rate=0.05, seed=1),
    warmup_cycles=20, measure_cycles=100, drain_cycles=100,
))
assert cli.main(["check-deadlock", "--config", sys.argv[1], "--algorithm", "xy"]) == 0
topology.synthesize(6, 3, 2)
print(sorted(m for m in sys.modules if m.split(".")[0] == "networkx"))
"""


def run_script(script, *args, environ=None):
    """stdout lines of ``script`` run in a fresh interpreter on this
    checkout's package, with ``environ``'s variables set over this
    process's environment (those mapped to None removed)."""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ)
    for name, value in (environ or {}).items():
        if value is None:
            env.pop(name, None)
        else:
            env[name] = value
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", script, *args],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


def test_package_runs_without_networkx(tmp_path):
    """A run, a deadlock check and a synthesis load no graph library."""
    lines = run_script(NO_GRAPH_LIBRARY, write_config(tmp_path))
    assert lines == ["deadlock-free: true", "[]"]


NO_NUMPY_UNTIL_A_RUN = """
import contextlib, io, sys
import nocsim
from nocsim import cli, config, engine

cfg_path, edges_path = sys.argv[1:]
with contextlib.redirect_stdout(io.StringIO()):
    for argv in (
        ["check-deadlock", "--config", cfg_path],
        ["check-deadlock", "--topology", edges_path, "--algorithm", "greedy"],
        ["routes", "--topology", edges_path, "--src", "0", "--dst", "15"],
        ["score", "--config", cfg_path],
        ["synth", "--n", "6", "--max-degree", "3", "--max-diameter", "2"],
        ["coords", "--topology", edges_path],
    ):
        assert cli.main(argv) == 0, argv
print(sorted(m for m in sys.modules if m.split(".")[0] == "numpy"))
with open(cfg_path, encoding="utf-8") as fh:
    report = engine.run(config.parse_config(fh.read()).template)
print("numpy" in sys.modules)
print(repr(report))
"""


def test_analysis_commands_load_no_numpy(tmp_path):
    """The analysis commands never import numpy; a run does, and its report
    equals the one from this process."""
    edges = tmp_path / "m.edges"
    edges.write_text(topo.to_edge_list_text(topo.mesh(4, 4)))
    lines = run_script(NO_NUMPY_UNTIL_A_RUN, write_config(tmp_path), str(edges))
    expected = engine.run(parse(BASE).template)
    assert lines == ["[]", "True", repr(expected)]


RUN_UNDER_A_THREAD_COUNT = """
import os, sys
path, base_dir, numpy_first = sys.argv[1:]
if numpy_first == "1":
    import numpy
from nocsim import config, engine, workload

before = {v: os.environ.get(v) for v in workload.BLAS_THREAD_COUNTS}
with open(path, encoding="utf-8") as fh:
    report = engine.run(config.parse_config(fh.read(), base_dir).template)
print(repr(report))
print({v: os.environ.get(v) for v in workload.BLAS_THREAD_COUNTS} == before)
print(os.environ.get("OPENBLAS_NUM_THREADS"))
print(len(os.listdir("/proc/self/task")) if os.path.isdir("/proc/self/task") else None)
"""

NO_THREAD_COUNT = dict.fromkeys(workload.BLAS_THREAD_COUNTS)


@pytest.mark.parametrize("case,environ,numpy_first,count", [
    # numpy is loaded with one BLAS thread and the variable is gone again
    ("no thread count", NO_THREAD_COUNT, False, None),
    # a user's setting stands and is honoured
    ("a user's count", {**NO_THREAD_COUNT, "OPENBLAS_NUM_THREADS": "2"}, False, "2"),
    # numpy loaded before nocsim: nothing to set
    ("numpy first", NO_THREAD_COUNT, True, None),
])
def test_numpy_loads_without_a_blas_pool_and_leaves_the_environment(
        case, environ, numpy_first, count):
    """A run loads numpy under ``OPENBLAS_NUM_THREADS=1`` only when numpy is
    not yet loaded and no thread count is set, and restores the
    environment after the import; the report is the same in every case."""
    path = os.path.join(GOLDEN, "mesh_xy_uniform.cfg")
    report, unchanged, after, threads = run_script(
        RUN_UNDER_A_THREAD_COUNT, path, GOLDEN, str(int(numpy_first)), environ=environ)
    with open(path, encoding="utf-8") as fh:
        assert report == repr(engine.run(parse(fh.read(), GOLDEN).template))
    assert unchanged == "True"
    assert after == str(count)
    if threads == "None":
        pytest.skip("no /proc/self/task to count threads")
    if case == "no thread count":
        assert threads == "1"  # OpenBLAS started no pool
    elif case == "a user's count" and len(os.sched_getaffinity(0)) >= 2:
        assert threads == "2"


RUN_WITHOUT_NUMPY_MA = """
import sys
from nocsim import config, engine

path, base_dir = sys.argv[1:]
with open(path, encoding="utf-8") as fh:
    report = engine.run(config.parse_config(fh.read(), base_dir).template)
print("numpy" in sys.modules)
print(sorted(m for m in sys.modules if m.split(".")[:2] == ["numpy", "ma"]))
print(repr(report))
"""


@pytest.mark.parametrize("name", ["mesh_xy_uniform", "torus_xy_faults"])
def test_a_run_never_loads_numpy_ma(name):
    """A run loads numpy for its injection draws, but its report statistics
    need no ``numpy.ma`` (which ``np.percentile`` imports); the report
    equals the one from this process."""
    path = os.path.join(GOLDEN, name + ".cfg")
    lines = run_script(RUN_WITHOUT_NUMPY_MA, path, GOLDEN)
    with open(path, encoding="utf-8") as fh:
        expected = engine.run(parse(fh.read(), GOLDEN).template)
    assert lines == ["True", "[]", repr(expected)]
