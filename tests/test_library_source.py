"""Library source checks: results must not change under ``python -O``, only
the package's lazy attributes decide which iterk modules load, each text
format has one reader, and each kind of input one admission rule."""

import ast
import re
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


def test_library_raises_no_bare_value_error():
    # a caller's bad input is an errors.UsageError, which the CLI reports; a
    # bare ValueError from the library would read as a bug
    found = [f"{name}:{node.lineno}" for name, node in _nodes() if _raises(node, "ValueError")]
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
    # are the digit rule on every printed int (T(m) and the CLI's numbers)
    # and the root-order cap
    found = {
        f"{name}:{fn.name}"
        for name, fn in _nodes()
        if isinstance(fn, ast.FunctionDef)
        for node in ast.walk(fn)
        if _raises(node, "BudgetError")
    }
    assert found == {
        "tables.py:check_budget", "errors.py:_printable", "exactnum.py:cyclotomic_polynomial"
    }


def test_library_parses_as_python_3_10():
    # pyproject declares Python >= 3.10.7; this checks the grammar only
    # (no `except*`, no 3.11+ syntax), not which library APIs the code calls
    for path in sorted(Path(iterk.__file__).parent.glob("*.py")):
        ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=(3, 10))


def test_inputs_enter_through_one_rule_each():
    # in every module only errors._count checks a count, order, bound or
    # arity against its least value, only errors._state checks a state's
    # length, and in tables.py only _symbols casts to int64 (recurrence casts
    # state indices it computed, not inputs).  The CLI words its own --seed
    # check, and three checks compare with 0 for other reasons: a table's
    # negative iterates need a bijective map, and _h and _g are about floats
    def below(node):  # a name compared below 0 or 1
        return isinstance(node, ast.Compare) and isinstance(node.left, (ast.Name, ast.Attribute)) and any(
            isinstance(op, (ast.Lt, ast.LtE)) and isinstance(right, ast.Constant) and right.value in (0, 1)
            for op, right in zip(node.ops, node.comparators)
        )

    def length(node):  # len() of a state or seed compared with !=
        return isinstance(node, ast.Compare) and any(
            isinstance(op, ast.NotEq) for op in node.ops
        ) and any(
            isinstance(side, ast.Call) and ast.unparse(side.func) == "len"
            and any(word in ast.unparse(side.args[0]) for word in ("state", "seed"))
            for side in (node.left, *node.comparators)
        )

    def int64_cast(node):
        return (
            isinstance(node, ast.Call)
            and ast.unparse(node.func) in {"np.fromiter", "np.ascontiguousarray"}
            and "int64" in ast.unparse(node)
        )

    found = {"below": set(), "raised": set(), "length": set(), "cast": set()}
    for name, fn in _nodes():
        if not isinstance(fn, ast.FunctionDef):
            continue
        where = f"{name}:{fn.name}"
        for node in ast.walk(fn):
            raises = isinstance(node, ast.If) and any(isinstance(b, ast.Raise) for b in node.body)
            if raises and any(below(n) for n in ast.walk(node.test)):
                found["below"].add(where)
            if raises and any(length(n) for n in ast.walk(node.test)):
                found["length"].add(where)
            if isinstance(node, ast.Raise) and "must be >=" in ast.unparse(node):
                found["raised"].add(where)
            if int64_cast(node) and name == "tables.py":
                found["cast"].add(where)
    assert found == {
        "below": {"tables.py:table_iterate", "affine.py:_h", "affine.py:_g"},
        "raised": {"errors.py:_count"},
        "length": {"errors.py:_state", "cli.py:_seed"},
        "cast": {"tables.py:_symbols"},
    }


def test_only_errors_position_checks_an_argument_position():
    # a position is checked as a range lo <= j <= arity.  The grammar checks
    # its own variables x1..xk, as a ParseError at the variable's position
    def range_to_arity(node):
        return (
            isinstance(node, ast.Compare)
            and len(node.ops) == 2
            and re.fullmatch(r"(\w+\.)?(arity|k)", ast.unparse(node.comparators[-1])) is not None
        )

    found = {
        f"{name}:{fn.name}"
        for name, fn in _nodes()
        if isinstance(fn, ast.FunctionDef)
        for node in ast.walk(fn)
        if isinstance(node, ast.If)
        and any(isinstance(b, ast.Raise) and not _raises(b, "ParseError") for b in node.body)
        and any(range_to_arity(n) for n in ast.walk(node.test))
    }
    assert found == {"errors.py:_position"}


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
