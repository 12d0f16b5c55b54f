"""Every demo runs to completion against the package in ``src`` and prints
the bytes pinned in ``tests/golden/demos/<demo>.txt``."""

import glob
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEMOS = sorted(glob.glob(os.path.join(ROOT, "demos", "*.py")))
GOLDEN = os.path.join(ROOT, "tests", "golden", "demos")


@pytest.mark.parametrize("demo", DEMOS, ids=os.path.basename)
def test_demo_runs_cleanly(demo, tmp_path):
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    proc = subprocess.run(
        [sys.executable, demo], capture_output=True, env=env,
        cwd=tmp_path, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stderr == b""
    name = os.path.splitext(os.path.basename(demo))[0]
    with open(os.path.join(GOLDEN, name + ".txt"), "rb") as fh:
        assert proc.stdout == fh.read()
