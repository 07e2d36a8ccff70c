"""Every function in `src/` is one that some command runs.

A subprocess installs a profiler before `poisson_forge.cli` is imported
(`series` builds its reference series at import), runs a fixed list of small
commands through `main` and one through `run_command`, and prints the (file, first line) of every code
object it saw called.  Each `def` in the package is matched by its `def`
line or its first decorator line.  A def that no command calls is either
a reference route or helper that belongs beside the test that uses it, or
a capability that nothing uses; only the allow-list below may stay.
"""

import ast
import json
import os
import subprocess
import sys

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "src")
PACKAGE = os.path.join(SRC, "poisson_forge")

# def -> why it stays although no command calls it
ALLOWED = {
    "linalg.ExactMatrix.cols": "read by bench/tracer.py for the slice table",
    "linalg.ExactMatrix.entries": "read by bench/tracer.py for nnz and coefficient bits",
}

COMMANDS = [
    ["verify", "--suite", "all", "--max-weight", "4", "--format", "json"],
    ["normalize", "--g", "1+x1+x2*x4+x3^3", "--max-weight", "4",
     "--format", "csv"],
    ["nf", "--poly", "x1^2*x3 + 2/3*x2"],
    ["nf", "--poly", "[dx1]"],
    ["division", "--p", "1", "--max-degree", "2", "--format", "json"],
    ["division", "--p", "3", "--max-degree", "2", "--format", "csv"],
    ["homology", "--degree", "2", "--max-weight", "4"],
    ["hilbert", "--group", "H1", "--max-weight", "4", "--format", "csv"],
    ["kernels", "--max-weight", "4", "--format", "json"],
]

SCRIPT = r"""
import contextlib, io, json, os, sys

package, commands = sys.argv[1], json.loads(sys.argv[2])
seen = set()


def profile(frame, event, arg):
    if event == "call":
        seen.add(frame.f_code)


sys.setprofile(profile)
from poisson_forge.cli import main, run_command

codes = []
for argv in commands:
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        codes.append(main(argv))
# the entry point that builds a report without writing it
codes.append(run_command(commands[-1])[1])
sys.setprofile(None)
called = sorted({(os.path.basename(c.co_filename), c.co_firstlineno)
                 for c in seen if os.path.dirname(c.co_filename) == package})
print(json.dumps({"codes": codes, "called": called}))
"""


def package_defs():
    """{(file, line): dotted name} for every def, at its def and decorator lines."""
    out = {}
    for fname in sorted(os.listdir(PACKAGE)):
        if not fname.endswith(".py"):
            continue
        with open(os.path.join(PACKAGE, fname)) as fh:
            tree = ast.parse(fh.read())

        def visit(node, prefix):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                      ast.ClassDef)):
                    name = prefix + "." + child.name
                    if not isinstance(child, ast.ClassDef):
                        for line in [child.lineno] + [d.lineno for d in
                                                      child.decorator_list]:
                            out[(fname, line)] = name
                    visit(child, name)
                else:
                    visit(child, prefix)

        visit(tree, fname[:-3])
    return out


def test_every_def_in_src_is_run_by_a_command():
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run([sys.executable, "-c", SCRIPT, PACKAGE,
                           json.dumps(COMMANDS)],
                          capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    assert result["codes"] == [1, 0, 0, 2, 0, 0, 0, 0, 0, 0]
    defs = package_defs()
    called = {defs[tuple(c)] for c in result["called"] if tuple(c) in defs}
    uncalled = set(defs.values()) - called
    assert len(ALLOWED) <= 2
    assert sorted(uncalled) == sorted(ALLOWED)
