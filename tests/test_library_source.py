"""Library source checks: results must not change under ``python -O``, only
the package's lazy attributes decide which iterk modules load, and each text
format has one reader."""

import ast
from pathlib import Path

import iterk


def _nodes():
    for path in sorted(Path(iterk.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            yield path.name, node


def _raises(node, error: str) -> bool:
    return (
        isinstance(node, ast.Raise)
        and node.exc is not None
        and error in {n.id for n in ast.walk(node.exc) if isinstance(n, ast.Name)}
    )


def test_library_has_no_assert_statements():
    # -O strips assert statements, so no library check may rely on one
    found = [f"{name}:{node.lineno}" for name, node in _nodes() if isinstance(node, ast.Assert)]
    assert found == []


def test_library_raises_no_assertion_error():
    # a failed internal check is a RuntimeError; AssertionError reads as a
    # stripped assert and is what test frameworks treat as their own
    found = [f"{name}:{node.lineno}" for name, node in _nodes() if _raises(node, "AssertionError")]
    assert found == []


def test_only_the_package_imports_iterk_modules_inside_functions():
    # a module reaches an optional iterk module as an attribute of the
    # package (``iterk.affine``), which imports it on first use
    def imports_iterk(node):
        if isinstance(node, ast.ImportFrom):
            return node.level > 0 or (node.module or "").split(".")[0] == "iterk"
        return isinstance(node, ast.Import) and any(
            a.name.split(".")[0] == "iterk" for a in node.names
        )

    found = [
        f"{name}:{inner.lineno}"
        for name, node in _nodes()
        if name != "__init__.py" and isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        for inner in ast.walk(node)
        if imports_iterk(inner)
    ]
    assert found == []


def test_only_the_two_text_readers_raise_parse_errors():
    # the definition grammar (which also reads rendered cyclotomic values)
    # and the table file format are the only text the library reads
    found = {name for name, node in _nodes() if _raises(node, "ParseError")}
    assert found == {"parser.py", "tables.py"}


def test_budget_errors_are_raised_in_three_functions():
    # every work cost is refused through tables.check_budget; the other two
    # are the printable-digit guard on T(m) and the root-order cap
    found = {
        f"{name}:{fn.name}"
        for name, fn in _nodes()
        if isinstance(fn, ast.FunctionDef)
        for node in ast.walk(fn)
        if _raises(node, "BudgetError")
    }
    assert found == {
        "tables.py:check_budget", "tables.py:_telephone", "exactnum.py:cyclotomic_polynomial"
    }


def test_library_parses_as_python_3_10():
    # pyproject declares Python >= 3.10.7; this checks the grammar only
    # (no `except*`, no 3.11+ syntax), not which library APIs the code calls
    for path in sorted(Path(iterk.__file__).parent.glob("*.py")):
        ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=(3, 10))


def test_table_inputs_enter_through_two_rules():
    # in the table layer only tables._positive checks that a count, order or
    # arity is at least 1, and in tables.py only _symbols casts to int64
    # (recurrence casts state indices it computed, not inputs)
    def below_one(node):
        return isinstance(node, ast.Compare) and any(
            isinstance(op, ast.Lt) and isinstance(right, ast.Constant) and right.value == 1
            for op, right in zip(node.ops, node.comparators)
        )

    def int64_cast(node):
        return (
            isinstance(node, ast.Call)
            and ast.unparse(node.func) in {"np.fromiter", "np.ascontiguousarray"}
            and "int64" in ast.unparse(node)
        )

    found = {"below one": set(), "raised": set(), "cast": set()}
    for name, fn in _nodes():
        if name not in {"tables.py", "recurrence.py"} or not isinstance(fn, ast.FunctionDef):
            continue
        for node in ast.walk(fn):
            where = f"{name}:{fn.name}"
            if below_one(node):
                found["below one"].add(where)
            if isinstance(node, ast.Raise) and "must be >= 1" in ast.unparse(node):
                found["raised"].add(where)
            if int64_cast(node) and name == "tables.py":
                found["cast"].add(where)
    assert found == {
        "below one": {"tables.py:_positive"},
        "raised": {"tables.py:_positive"},
        "cast": {"tables.py:_symbols"},
    }


def test_integer_trial_division_is_one_function():
    # the Moebius function, totients, trace sums, the universal exponent and
    # the order descent all factor through exactnum._factor: no other loop
    # tries divisors up to a square root
    def square_bound(node):
        return isinstance(node, ast.While) and any(
            isinstance(n, ast.BinOp) and isinstance(n.op, ast.Mult)
            and ast.dump(n.left) == ast.dump(n.right)
            or isinstance(n, ast.BinOp) and isinstance(n.op, ast.Pow)
            or "isqrt" in {getattr(n, "id", None), getattr(n, "attr", None)}
            for n in ast.walk(node.test)
        )

    found = {
        f"{name}:{fn.name}"
        for name, fn in _nodes()
        if isinstance(fn, ast.FunctionDef)
        for node in ast.walk(fn)
        if square_bound(node)
    }
    assert found == {"exactnum.py:_factor"}
