"""Everything in src/cohprobe is reached from the command line.

One small invocation per README subcommand and flag, as text and as
``--json``, plus every ``BAD_INPUTS`` case, run under ``sys.setprofile``.
Every function and method defined in the package, dunder methods aside,
must be called.  Code that only the tests call belongs in ``tests/``
(``oracles.py``, ``windows.py``), not in the package.
"""

import ast
import io
import json
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import cohprobe
from cohprobe.cli import main

from test_cli import ALGEBRAS, BAD_INPUTS

PACKAGE = Path(cohprobe.__file__).resolve().parent


def defined_functions():
    """(file name, first line) -> qualified name of every def in the package, dunders aside.

    The first line is that of the code object: a decorated def starts at its
    first decorator.
    """
    found = {}

    def walk(node, prefix, fname):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                walk(child, f"{prefix}{child.name}.", fname)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if not (child.name.startswith("__") and child.name.endswith("__")):
                    first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                    found[(fname, first)] = prefix + child.name
                walk(child, f"{prefix}{child.name}.<locals>.", fname)
            else:
                walk(child, prefix, fname)

    for path in sorted(PACKAGE.glob("*.py")):
        walk(ast.parse(path.read_text(encoding="utf-8")), "", path.name)
    return found


def called_functions(run):
    """(file name, first line) of every package code object that run() calls."""
    codes = set()

    def profiler(frame, event, arg):
        if event == "call":
            codes.add(frame.f_code)

    previous = sys.getprofile()
    sys.setprofile(profiler)
    try:
        run()
    finally:
        sys.setprofile(previous)
    return {
        (Path(code.co_filename).name, code.co_firstlineno)
        for code in codes
        if Path(code.co_filename).resolve().parent == PACKAGE
    }


def invocations(tmp_path):
    """Small argv lists covering every README subcommand and flag."""
    alg = lambda name: str(ALGEBRAS / name)
    module = tmp_path / "mod.json"
    module.write_text(json.dumps({"shifts0": [0], "shifts1": [1], "matrix": [["x"]]}),
                      encoding="utf-8")
    return [
        ["hilbert", alg("free2.alg"), "-D", "3"],
        ["hilbert", alg("example1.alg"), "-D", "3", "--oracle-check", "--field", "F32003",
         "--order", "z>y>x"],
        ["gb", alg("remark.alg"), "-D", "4"],
        ["tor", alg("xy_zero.alg"), "-D", "3", "--length", "3"],
        ["tor", alg("xy_zero.alg"), "-D", "3", "--module", str(module)],
        ["probe", alg("example2.alg"), "-D", "3", "--side", "both", "--field", "F32003",
         "--gen-degree-bound", "1", "--max-ideals", "2"],
        ["probe", alg("example1.alg"), "-D", "3", "--side", "both", "--ideal", "x;y*y"],
        ["veronese", alg("remark.alg"), "--n", "2", "-D", "4", "--cross-check",
         "--pm-modules", "--max-ideals", "2"],
        ["zalg", alg("commutative.alg"), "-D", "2", "--window=-2..4", "--hom-range", "1"],
        ["corpus", "-D", "3", "--max-ideals", "2"],
    ]


def test_cli_reaches_every_package_function(tmp_path):
    def run():
        quiet = io.StringIO()
        with redirect_stdout(quiet), redirect_stderr(quiet):
            for argv in invocations(tmp_path):
                main(argv)
                main(argv + ["--json"])
            for case in BAD_INPUTS.values():
                main(case(tmp_path))

    called = called_functions(run)
    unreached = sorted(f"{key[0]}:{name}" for key, name in defined_functions().items()
                       if key not in called)
    assert not unreached, unreached


def test_no_unused_imports():
    # every name an import binds in the package is read in that module,
    # unless its line is marked `# noqa: F401`
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        text = path.read_text(encoding="utf-8")
        lines = text.splitlines()
        tree = ast.parse(text)
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    if name not in read and "# noqa: F401" not in lines[alias.lineno - 1]:
                        unused.append(f"{path.name}:{alias.lineno}: {name}")
    assert not unused, unused
