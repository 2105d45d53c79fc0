"""Library source checks: results must not change under ``python -O``."""

import ast
from pathlib import Path

import iterk


def _nodes():
    for path in sorted(Path(iterk.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            yield path.name, node


def test_library_has_no_assert_statements():
    # -O strips assert statements, so no library check may rely on one
    found = [f"{name}:{node.lineno}" for name, node in _nodes() if isinstance(node, ast.Assert)]
    assert found == []


def test_library_raises_no_assertion_error():
    # a failed internal check is a RuntimeError; AssertionError reads as a
    # stripped assert and is what test frameworks treat as their own
    found = [
        f"{name}:{node.lineno}"
        for name, node in _nodes()
        if isinstance(node, ast.Raise)
        and node.exc is not None
        and "AssertionError" in {n.id for n in ast.walk(node.exc) if isinstance(n, ast.Name)}
    ]
    assert found == []
