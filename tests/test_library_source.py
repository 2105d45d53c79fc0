"""Library source checks: results must not change under ``python -O``."""

import ast
from pathlib import Path

import iterk


def test_library_has_no_assert_statements():
    # -O strips assert statements, so no library check may rely on one
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(Path(iterk.__file__).parent.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
