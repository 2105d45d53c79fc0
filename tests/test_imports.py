"""Import paths: what ``import iterk`` and each kind of CLI command load.

Every check runs in a fresh interpreter, because this test process has long
since imported every iterk submodule and numpy.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import iterk

SRC = Path(iterk.__file__).resolve().parent.parent
DATA = SRC / "iterk" / "data"

# the names the package exports, first pinned when its __init__ imported them eagerly
EXPORTED = set("""
    AffineFirstIterate AffineMapSpec ArityError BudgetError CorrespondenceReport
    CorrespondenceRow CycleFinding CycleReport CycloPolynomial CyclotomicField
    CyclotomicNumber FiniteTable KaryMap MapDef NonAffineError Orbit ParseError
    RationalField RecurrenceSpec ResidualSummary SweepTallies UsageError
    affine_involutory_order affine_iterate as_permutation augment
    build_first_iterate conjugate consistency_check count_involutions
    count_involutions_brute cycle_correspondence_report cycle_correspondence_sweep
    cycle_report cyclotomic_polynomial decreasing_involution_residuals
    detect_minimal_period dump_table dumps_table enumerate_ii_tables fibonacci
    fibonacci_closed_form first_iterate generate hat_id induced_self_map involutions
    is_induced_involutory is_n_involutory is_symmetric iter_all_tables iterate
    join_fields linear_roots_checks load_table loads_table orbit parse_cyclo
    parse_map_def parse_scalar parse_seed point_involutory_order project_compose
    projection_family_iterate render render_def roots_map_spec
    state_from_index state_index sum_map_closed_form table_iterate to_affine
    to_kary_map
""".split())

SUBMODULES = ("engine", "errors", "exactnum", "tables", "affine", "recurrence", "parser",
              "_kernels")


def run_python(code: str):
    """Run ``code`` in a new interpreter and return the JSON it prints last."""
    path = os.pathsep.join(filter(None, (str(SRC), os.environ.get("PYTHONPATH"))))
    env = {**os.environ, "PYTHONPATH": path}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def loaded_after(argv: list[str]) -> tuple[int, set]:
    """Exit code of one CLI command run in-process, and the modules it left loaded."""
    code = (
        "import json, sys\nfrom iterk.cli import main\n"
        f"status = main({argv!r})\n"
        "print(json.dumps([status, sorted(sys.modules)]))"
    )
    status, modules = run_python(code)
    return status, set(modules)


@pytest.mark.parametrize("statement", ["import iterk", "import iterk.cli"])
def test_importing_the_package_or_cli_loads_no_numpy(statement):
    code = f"import json, sys\n{statement}\nprint(json.dumps(sorted(sys.modules)))"
    modules = set(run_python(code))
    assert "numpy" not in modules
    assert {m for m in modules if m.startswith("iterk.")} <= {"iterk.cli", "iterk.errors"}


@pytest.mark.parametrize(
    "argv",
    [
        ["iterate", "--def=f(x1,x2) = x1 + x2", "--seed=1,2", "--n=30"],
        ["orbit", "--def=f(x1,x2) = zeta(3)*x1 + x2", "--seed=1,0", "--max-steps=5"],
        ["point-order", "--def=f(x1,x2,x3) = 1/2 - x1 - x2 - x3", "--seed=1,2,3"],
        ["order", "--def=f(x1,x2) = zeta(3)*x1 + zeta(3)^2*x2"],
    ],
    ids=lambda argv: argv[0],
)
def test_definition_commands_load_no_numpy(argv):
    status, modules = loaded_after(argv)
    assert status == 0
    assert "numpy" not in modules


def test_table_command_skips_the_parser_and_the_exact_layers():
    status, modules = loaded_after(["cycles", f"--table={DATA / 'add_mod3.tbl'}"])
    assert status == 0
    assert "iterk.tables" in modules
    assert not {"iterk.parser", "iterk.exactnum", "iterk.affine", "iterk.recurrence"} & modules


def test_star_import_binds_every_exported_name():
    code = (
        "import json\nimport iterk\nns = {}\nexec('from iterk import *', ns)\n"
        "home = {n: getattr(__import__('iterk.' + m, fromlist=['_']), n)"
        " for m, names in iterk._EXPORTS.items() for n in names}\n"
        "print(json.dumps([sorted(iterk.__all__), sorted(set(ns) - {'__builtins__'}),"
        " sorted(n for n in iterk.__all__ if ns[n] is not home[n])]))"
    )
    exported, bound, mismatched = run_python(code)
    assert set(exported) == EXPORTED
    assert set(bound) == EXPORTED
    assert mismatched == []


def test_submodules_resolve_as_attributes():
    code = (
        "import json, sys\nimport iterk\n"
        f"names = {SUBMODULES!r}\n"
        "same = [getattr(iterk, n) is sys.modules['iterk.' + n] for n in names]\n"
        "listed = all(n in dir(iterk) for n in names + tuple(iterk.__all__))\n"
        "try:\n    iterk.no_such_name\n    missing = False\n"
        "except AttributeError:\n    missing = True\n"
        "print(json.dumps([same, listed, missing]))"
    )
    same, listed, missing = run_python(code)
    assert all(same) and listed and missing
