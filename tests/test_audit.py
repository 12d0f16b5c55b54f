"""scripts/audit.py's coverage listing on a toy module."""

import importlib.util
import os
import runpy

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SPEC = importlib.util.spec_from_file_location(
    "audit", os.path.join(ROOT, "scripts", "audit.py")
)
audit = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(audit)

TOY = '''"""A toy module."""


def used(x):
    if x < 0:
        x = -x
    return x + 1
'''


def test_coverage_lists_the_one_line_no_call_reached(tmp_path):
    """Importing the toy and calling ``used(1)`` runs every executable line
    but the negative branch's assignment: the docstring and the ``def``
    line ran at import."""
    path = tmp_path / "toy.py"
    path.write_text(TOY)

    def run():
        return runpy.run_path(str(path))["used"](1)

    result, report = audit.coverage([str(path)], run)
    assert result == 2
    assert report == ["toy.py:6: x = -x"]
