"""List the `raise` statements of `ssetkit` that the tests never run.

Every `raise` of `src/ssetkit` is found with `ast`.  pytest then runs in
this process under a `sys.settrace` line tracer that watches the library's
files only, and each module's unreached `raise` lines are printed.  Code
that a test runs in a subprocess (the console script, the recursion-limit
probes) is not seen.  Exits 1 if a module of GUARDED has an unreached
raise, else with pytest's status.  Arguments go to pytest; with none, it
runs the tier-1 suite from the repository root:

    python tests/unreached_raises.py [pytest arguments]

The name does not match `test_*.py`, so pytest does not collect it.
"""

import ast
import pathlib
import sys
import threading

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
LIBRARY = ROOT / "src" / "ssetkit"
# modules whose every raise some test reaches, planted defects included
GUARDED = ("cells.py", "colimits.py", "core.py", "factorization.py",
           "homology.py", "lifting.py")


def raise_lines(path):
    """The first line of each `raise` statement in the file at `path`."""
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    return sorted({node.lineno for node in ast.walk(tree)
                   if isinstance(node, ast.Raise)})


def run_traced(args):
    """pytest's exit status and the (module, line) pairs of the library
    that ran."""
    modules, reached = {}, set()

    def module(filename):
        # a code object's file name as imported, resolved once
        if filename not in modules:
            path = pathlib.Path(filename).resolve()
            modules[filename] = path.name if path.parent == LIBRARY else None
        return modules[filename]

    def line(frame, event, arg):
        if event == "line":
            reached.add((module(frame.f_code.co_filename), frame.f_lineno))
        return line

    def call(frame, event, arg):
        return line if module(frame.f_code.co_filename) else None

    threading.settrace(call)
    sys.settrace(call)
    try:
        status = pytest.main(["-q", "-p", "no:cacheprovider",
                              *(args or [str(ROOT)])])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return int(status), reached


def main(args):
    status, reached = run_traced(args)
    failing = []
    for path in sorted(LIBRARY.glob("*.py")):
        missed = [n for n in raise_lines(path) if (path.name, n) not in reached]
        print(f"{path.name}: {' '.join(map(str, missed)) or 'none'}")
        if missed and path.name in GUARDED:
            failing.append(path.name)
    if failing:
        print("unreached raises in " + ", ".join(failing), file=sys.stderr)
        return 1
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
