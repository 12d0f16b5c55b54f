"""Audits of the test suite that need no package beyond pytest and the stdlib.

    python3 scripts/audit.py coverage

``coverage`` runs tier-1 (``pytest`` over this repository, as CI runs it)
in this process under ``trace.Trace``, then prints every executable line
of ``src/nocsim/*.py`` that no test ran, as ``module:line: text``, and
their count. It takes several minutes, so it is not part of tier-1, and
it exits 1 when tier-1 fails. ``trace`` sees only this process, so a line
that runs only in a child process is listed too: today ``cli``'s
``__main__`` guard, and ``workload._numpy``'s one-thread import, whose
branch runs only in an interpreter that has not loaded numpy yet (the
in-process tests have).
"""

from __future__ import annotations

import argparse
import dis
import glob
import os
import sys
import trace
import types

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SOURCES = os.path.join(ROOT, "src", "nocsim", "*.py")


def executable_lines(path):
    """Line numbers at which some instruction of the module at ``path``,
    or of a function or class in it, starts."""
    with open(path, encoding="utf-8") as fh:
        code = compile(fh.read(), path, "exec")
    lines, stack = set(), [code]
    while stack:
        code = stack.pop()
        lines.update(line for _, line in dis.findlinestarts(code) if line)
        stack += [c for c in code.co_consts if isinstance(c, types.CodeType)]
    return lines


def never_run(paths, counts):
    """``module:line: text`` for every executable line of ``paths`` that
    ``counts``, a ``trace`` count map keyed by (file name, line), lacks."""
    ran = {(os.path.realpath(name), line) for name, line in counts}
    report = []
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            text = fh.read().splitlines()
        real = os.path.realpath(path)
        report += [
            f"{os.path.basename(path)}:{line}: {text[line - 1].strip()}"
            for line in sorted(executable_lines(path))
            if (real, line) not in ran
        ]
    return report


def coverage(paths, run):
    """(``run()``'s result, ``never_run`` of ``paths``) with ``run`` traced."""
    # no ignoredirs: trace caches its verdict per module base name, so an
    # ignored site-packages errors.py or __init__.py would hide nocsim's
    tracer = trace.Trace(count=1, trace=0)
    outer = sys.gettrace()  # the audit's own tracer, when its test runs this
    try:
        result = tracer.runfunc(run)
    finally:
        sys.settrace(outer)
    return result, never_run(paths, tracer.results().counts)


def run_tier1():
    os.chdir(ROOT)
    return pytest.main(["-q", "-p", "no:cacheprovider", "--continue-on-collection-errors"])


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("coverage", help="list the lines of src/nocsim that tier-1 never runs")
    parser.parse_args(argv)
    status, report = coverage(sorted(glob.glob(SOURCES)), run_tier1)
    for line in report:
        print(line)
    print(f"{len(report)} executable lines of src/nocsim never run")
    return 1 if status else 0


if __name__ == "__main__":
    sys.exit(main())
