"""Rules the library's source must keep."""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "chaircodes"


def _is_assertion_error(node: ast.AST) -> bool:
    if not isinstance(node, ast.Raise) or node.exc is None:
        return False
    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
    return isinstance(exc, ast.Name) and exc.id == "AssertionError"


def test_no_asserts_in_library():
    # asserts vanish under python -O, and AssertionError escapes the CLI's
    # exit-code mapping: every invariant must raise a typed error instead
    paths = sorted(SRC.glob("*.py"))
    assert paths
    offenders = [
        f"{path.name}:{node.lineno}"
        for path in paths
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert) or _is_assertion_error(node)
    ]
    assert offenders == []


def _imported_roots(node: ast.AST) -> set[str]:
    if isinstance(node, ast.Import):
        return {alias.name.split(".")[0] for alias in node.names}
    if isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
        return {node.module.split(".")[0]}
    return set()


def test_numpy_not_imported():
    # the library runs on Python ints alone; numpy serves only as a test reference
    offenders = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if "numpy" in _imported_roots(node)
    ]
    assert offenders == []


def test_cli_import_leaves_numpy_unloaded():
    code = "import sys, chaircodes.cli; print('numpy' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_traced_names_resolve():
    # the benchmark's tracer wraps these names when it installs and fails on
    # a missing one; a deleted or renamed library function shows up here
    tree = ast.parse((SRC.parent.parent / "perfbench" / "tracer.py").read_text())
    (traced,) = [ast.literal_eval(node.value) for node in tree.body
                 if isinstance(node, ast.Assign) and ast.unparse(node.targets[0]) == "TRACED"]
    missing = []
    for mod_name, names in traced.items():
        module = importlib.import_module(f"chaircodes.{mod_name}")
        for qual in names:
            owner_name, _, attr = qual.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            if owner is None or not callable(vars(owner).get(attr)):
                missing.append(f"{mod_name}.{qual}")
    assert sum(map(len, traced.values())) > 30
    assert missing == []
