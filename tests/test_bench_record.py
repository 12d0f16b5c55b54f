"""scripts/bench_record.py on synthetic benchmark result files."""

import importlib.util
import json
import os
import shutil

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SPEC = importlib.util.spec_from_file_location(
    "bench_record", os.path.join(ROOT, "scripts", "bench_record.py")
)
bench_record = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(bench_record)

HOST = {"nproc": 2, "cpu_model": "test cpu", "python": "3.11.7", "numpy": "2.4.6"}


def write_checkout(path, src_lines, runs):
    """A checkout with ``src_lines`` lines under src/ and one results file
    per (workload, seed, {metric: median}, failed) in ``runs``."""
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), path)
    (path / "src" / "pkg").mkdir(parents=True)
    (path / "src" / "pkg" / "a.py").write_text("x = 1\n" * src_lines)
    results = path / "bench" / "results"
    results.mkdir(parents=True)
    for workload, seed, medians, failed in runs:
        stats = {name: {"median": value, "q1": value, "q3": value, "n": 3}
                 for name, value in medians.items()}
        (results / f"{workload}_seed{seed}_trace0.json").write_text(json.dumps({
            "workload": workload, "seed": seed, "trace": 0, "failed": failed,
            "environment": dict(HOST, git_commit="abc"), "stats": stats,
        }))
    # a traced run is no pair
    (results / f"{runs[0][0]}_seed{runs[0][1]}_trace1.json").write_text("{}")


def medians(wall, rss, setup=0.1):
    return {"setup_s": setup, "wall_s": wall, "peak_rss_mb": rss}


@pytest.fixture
def checkouts(tmp_path):
    parent, change = tmp_path / "parent", tmp_path / "change"
    parent.mkdir()
    change.mkdir()
    write_checkout(parent, 100, [
        ("torus8", 1, medians(2.0, 36.0), 0),
        ("torus8", 2, medians(2.4, 36.2), 0),
        ("torus8", 3, medians(2.2, 36.4), 0),
        ("torus8", 4, medians(2.6, 36.6), 0),
        ("mesh16", 1, medians(1.5, 36.7), 0),
        ("mesh16", 9, medians(1.5, 36.7), 0),   # no change run
    ])
    write_checkout(change, 93, [
        ("torus8", 1, medians(1.9, 34.7), 0),
        ("torus8", 2, medians(2.5, 34.6), 0),
        ("torus8", 3, medians(1.8, 34.8), 1),
        ("torus8", 4, medians(2.0, 34.7), 0),
        ("mesh16", 1, medians(1.5, 36.8, setup=0.05), 0),
        ("sweep", 5, medians(2.0, 35.0), 0),    # no parent run
    ])
    return parent, change


def test_record_pairs_runs_by_workload_and_seed(checkouts):
    parent, change = checkouts
    rec = bench_record.record(str(parent), str(change), 15)
    assert rec["pr"] == 15
    assert sorted(rec["workloads"]) == ["mesh16", "torus8"]
    torus = rec["workloads"]["torus8"]
    assert torus["seeds"] == [1, 2, 3, 4]
    assert torus["failed"] == {"parent": 0, "change": 1}
    wall = torus["metrics"]["wall_s"]
    assert wall["pairs"] == 4 and wall["change_better"] == 3
    assert wall["parent"]["median"] == pytest.approx(2.3)
    assert wall["change"]["median"] == pytest.approx(1.95)
    assert wall["parent"]["q1"] == pytest.approx(2.05)
    assert wall["parent"]["q3"] == pytest.approx(2.55)
    assert torus["metrics"]["peak_rss_mb"]["change_better"] == 4
    assert torus["metrics"]["setup_s"]["change_better"] == 0  # ties are no win
    mesh = rec["workloads"]["mesh16"]["metrics"]
    assert mesh["setup_s"]["change_better"] == 1 and mesh["setup_s"]["pairs"] == 1
    assert mesh["peak_rss_mb"]["change_better"] == 0
    assert rec["unpaired"] == [["change", "sweep", 5], ["parent", "mesh16", 9]]
    assert rec["host"] == {"parent": [HOST], "change": [HOST]}
    assert rec["tier1_s"] is None  # not measured
    assert rec["bytecode"] == {"parent": False, "change": False}
    assert rec["src_lines"] == {"parent": 100, "change": 93, "net": -7}
    assert rec["src_code_lines"] == {"parent": 100, "change": 93, "net": -7}


def test_code_lines_leave_out_docstrings_comments_and_blank_lines(tmp_path):
    """Of the 11 lines below, 4 hold code: the def, the statement with a
    trailing comment and both lines of the call. A string that is an
    argument, not a statement by itself, is code."""
    pkg = tmp_path / "src" / "pkg"
    pkg.mkdir(parents=True)
    (pkg / "a.py").write_text(
        '"""Module docstring,\n'
        'two lines."""\n'
        "\n"
        "# a comment\n"
        "def f():\n"
        "    '''One-line docstring.'''\n"
        "    # another comment\n"
        "\n"
        "    return 1  # trailing comment\n"
        "x = g(\n"
        "    'not a docstring')\n"
    )
    assert bench_record.src_lines(str(tmp_path)) == 11
    assert bench_record.src_code_lines(str(tmp_path)) == 4


def test_main_writes_the_record_and_refuses_bench(checkouts, tmp_path, capsys):
    parent, change = checkouts
    out = tmp_path / "BENCH_15.json"
    argv = ["--parent", str(parent), "--change", str(change), "--pr", "15"]
    assert bench_record.main(argv + ["--out", str(out)]) == 0
    assert json.loads(out.read_text()) == bench_record.record(str(parent), str(change), 15)
    assert json.loads(out.read_text())["tier1_s"] is None
    assert "torus8 wall_s: 2.3 -> 1.95, change better in 3/4" in capsys.readouterr().out
    under_bench = os.path.join(ROOT, "bench", "BENCH_15.json")
    assert bench_record.main(argv + ["--out", under_bench]) == 1
    assert not os.path.exists(under_bench)
    empty = tmp_path / "empty"
    empty.mkdir()
    assert bench_record.main(
        ["--parent", str(empty), "--change", str(change), "--pr", "15",
         "--out", str(tmp_path / "none.json")]
    ) == 1
    assert not (tmp_path / "none.json").exists()


def test_tier1_seconds_are_recorded_next_to_the_host(checkouts, tmp_path):
    parent, change = checkouts
    out = tmp_path / "BENCH_15.json"
    assert bench_record.main([
        "--parent", str(parent), "--change", str(change), "--pr", "15",
        "--tier1-s", "61.5", "58", "--out", str(out),
    ]) == 0
    rec = json.loads(out.read_text())
    assert rec["tier1_s"] == {"parent": 61.5, "change": 58.0}
    assert list(rec).index("tier1_s") == list(rec).index("host") + 1
    with pytest.raises(SystemExit):  # both sides or neither
        bench_record.main([
            "--parent", str(parent), "--change", str(change), "--pr", "15",
            "--tier1-s", "61.5", "--out", str(out),
        ])


def test_verdicts_against_the_bound_and_the_parent_quartiles(tmp_path, capsys):
    """wall_s 30 % slower is worse than its 0.25 bound, and outside the
    parent's q1-q3; peak_rss_mb 2 % larger is within its 0.05 bound, and
    inside; a higher-is-better metric is worse when it falls by more than
    its bound."""
    parent, change = tmp_path / "parent", tmp_path / "change"
    parent.mkdir()
    change.mkdir()
    write_checkout(parent, 10, [
        ("w", seed, medians(wall, rss), 0)
        for seed, wall, rss in ((1, 0.9, 49.0), (2, 1.0, 50.0), (3, 1.1, 51.0))
    ])
    write_checkout(change, 10, [
        ("w", seed, medians(wall, rss), 0)
        for seed, wall, rss in ((1, 1.2, 50.0), (2, 1.3, 51.0), (3, 1.4, 52.0))
    ])
    rec = bench_record.record(str(parent), str(change), 22)
    metrics = rec["workloads"]["w"]["metrics"]
    wall, rss, setup = metrics["wall_s"], metrics["peak_rss_mb"], metrics["setup_s"]
    assert (wall["bound"], wall["worse_than_bound"], wall["inside_parent_iqr"]) == (
        0.25, True, False)
    assert (rss["bound"], rss["worse_than_bound"], rss["inside_parent_iqr"]) == (
        0.05, False, True)
    assert (setup["worse_than_bound"], setup["inside_parent_iqr"]) == (False, True)

    assert bench_record.main([
        "--parent", str(parent), "--change", str(change), "--pr", "22",
        "--out", str(tmp_path / "BENCH_22.json"),
    ]) == 0
    out = capsys.readouterr().out
    assert ("w wall_s: 1 -> 1.3, change better in 0/3; WORSE than bound 0.25; "
            "outside parent q1-q3 [0.9, 1.1]") in out
    assert ("w peak_rss_mb: 50 -> 51, change better in 0/3; within bound 0.05; "
            "inside parent q1-q3 [49, 51]") in out

    runs = {
        side: {("w", 1): {"failed": 0, "stats": {"ratio": {"median": value}}}}
        for side, value in (("parent", 1.0), ("change", 0.85))
    }
    ratio = bench_record.compare(
        runs["parent"], runs["change"], [("ratio", "higher", 0.1)])["w"]["metrics"]["ratio"]
    assert ratio["worse_than_bound"] and ratio["change_better"] == 0


def test_bytecode_on_one_side_only_is_recorded_and_warned(checkouts, tmp_path, capsys):
    parent, change = checkouts
    cache = parent / "src" / "nocsim" / "__pycache__"
    cache.mkdir(parents=True)
    (cache / "engine.cpython-311.pyc").write_bytes(b"")
    argv = ["--parent", str(parent), "--change", str(change), "--pr", "15",
            "--out", str(tmp_path / "BENCH_15.json")]
    assert bench_record.main(argv) == 0
    rec = json.loads((tmp_path / "BENCH_15.json").read_text())
    assert rec["bytecode"] == {"parent": True, "change": False}
    assert "warning: src/nocsim/__pycache__" in capsys.readouterr().err
    cache = change / "src" / "nocsim" / "__pycache__"
    cache.mkdir(parents=True)
    (cache / "engine.cpython-311.pyc").write_bytes(b"")
    assert bench_record.main(argv) == 0
    assert "warning" not in capsys.readouterr().err


def claim_checkouts(tmp_path, change_walls):
    """Four pairs of workload ``w`` whose parent ``wall_s`` medians are
    1.0-1.3 (median 1.15, q1-q3 1.025-1.275) and the change's are
    ``change_walls``."""
    parent, change = tmp_path / "parent", tmp_path / "change"
    parent.mkdir()
    change.mkdir()
    write_checkout(parent, 10, [
        ("w", seed, medians(wall, 30.0), 0)
        for seed, wall in enumerate((1.0, 1.2, 1.1, 1.3), 1)
    ])
    write_checkout(change, 10, [
        ("w", seed, medians(wall, 30.0), 0) for seed, wall in enumerate(change_walls, 1)
    ])
    return parent, change


def test_a_claim_records_the_per_pair_ratios_and_whether_it_is_met(tmp_path, capsys):
    """0.7-1.0 against 1.0-1.3: every pair won, ratios 0.70-0.77, and the
    median gain 0.30 beats both the 0.25 bound (0.2875) and the parent's
    q1-q3 width (0.25)."""
    parent, change = claim_checkouts(tmp_path, (0.7, 0.9, 0.8, 1.0))
    out = tmp_path / "BENCH_23.json"
    assert bench_record.main([
        "--parent", str(parent), "--change", str(change), "--pr", "23",
        "--claim", "wall_s:w", "--out", str(out),
    ]) == 0
    claim = json.loads(out.read_text())["claim"]
    assert claim["ratio"] == pytest.approx(
        {"median": 0.738636, "q1": 0.706818, "q3": 0.764423}, abs=1e-6)
    assert {k: v for k, v in claim.items() if k != "ratio"} == {
        "metric": "wall_s", "workload": "w", "better": "lower", "bound": 0.25,
        "pairs": 4, "change_better": 4, "beats_bound": True, "beats_parent_iqr": True,
    }
    assert ("claim wall_s:w: change/parent ratio 0.7386 [q1 0.7068, q3 0.7644], "
            "change better in 4/4; beats bound 0.25; beats the parent q1-q3 width"
            ) in capsys.readouterr().out
    # no claim, no claim record
    assert "claim" not in bench_record.record(str(parent), str(change), 23)


def test_a_claim_that_falls_short_says_so(tmp_path, capsys):
    """0.8-1.4 against 1.0-1.3: one pair lost, and the median gain 0.20
    misses both the bound and the parent's q1-q3 width."""
    parent, change = claim_checkouts(tmp_path, (0.8, 1.0, 0.9, 1.4))
    rec = bench_record.record(str(parent), str(change), 23, claim=("wall_s", "w"))
    claim = rec["claim"]
    assert (claim["change_better"], claim["beats_bound"], claim["beats_parent_iqr"]) == (
        3, False, False)
    argv = ["--parent", str(parent), "--change", str(change), "--pr", "23",
            "--out", str(tmp_path / "BENCH_23.json")]
    assert bench_record.main(argv + ["--claim", "wall_s:w"]) == 0
    assert "misses bound 0.25; misses the parent q1-q3 width" in capsys.readouterr().out
    # a workload without pairs is an error, and nothing is written
    (tmp_path / "BENCH_23.json").unlink()
    assert bench_record.main(argv + ["--claim", "wall_s:torus8"]) == 1
    assert "error: no torus8 run in both checkouts" in capsys.readouterr().err
    assert not (tmp_path / "BENCH_23.json").exists()
    for bad in ("wall_s", "cycles_per_s:w", "wall_s:"):
        with pytest.raises(SystemExit):
            bench_record.main(argv + ["--claim", bad])
    # a higher-is-better metric is won by rising
    runs = {
        side: {("w", seed): {"failed": 0, "stats": {"rate": {"median": value * seed}}}
               for seed in (1, 2, 3)}
        for side, value in (("parent", 1.0), ("change", 1.5))
    }
    table = bench_record.compare(runs["parent"], runs["change"], [("rate", "higher", 0.25)])
    rate = bench_record.check_claim(table, runs["parent"], runs["change"], "w", "rate")
    assert rate["ratio"]["median"] == pytest.approx(1.5)
    assert (rate["change_better"], rate["beats_bound"], rate["beats_parent_iqr"]) == (
        3, True, False)
