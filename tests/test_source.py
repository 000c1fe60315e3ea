"""Rules the library's source must keep."""

import ast
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
