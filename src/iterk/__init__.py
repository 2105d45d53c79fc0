"""Iteration of k-argument maps as order-k recurrences, and their periodicity.

The package splits into:

* :mod:`iterk.engine` -- reference iteration semantics over any element
  domain with decidable equality.
* :mod:`iterk.tables` -- exhaustive exact analysis over finite domains
  (permutation structure, involutory orders, induced involutions,
  enumeration and counting), with vectorised numpy kernels.
* :mod:`iterk.exactnum` -- exact rationals and roots-of-unity arithmetic.
* :mod:`iterk.affine` -- exact matrix treatment of affine maps and their
  closed-form iterates.
* :mod:`iterk.recurrence` -- the represented sequences: generation, cycle
  detection, period correspondence, arity augmentation.
* :mod:`iterk.parser` / :mod:`iterk.cli` -- the textual surface.

Names resolve on first use: ``import iterk`` loads no submodule, and reading
``iterk.cycle_report`` (or ``iterk.tables``) imports :mod:`iterk.tables` then.
So a caller pays for numpy only once it touches a module that needs it.
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"

# the exported names, by the submodule that defines them
_EXPORTS = {
    "engine": (
        "InducedContext", "KaryMap", "Orbit", "first_iterate", "induced_self_map",
        "iterate", "orbit", "point_involutory_order",
    ),
    "errors": ("ArityError", "BudgetError", "NonAffineError", "ParseError"),
    "exactnum": (
        "CycloPolynomial", "CyclotomicField", "CyclotomicNumber", "RationalField",
        "cyclotomic_polynomial", "fibonacci", "join_fields",
    ),
    "tables": (
        "CycleReport", "FiniteTable", "PropertyProfile", "as_permutation", "conjugate",
        "count_involutions", "count_involutions_brute", "cycle_report", "dump_table",
        "dumps_table", "enumerate_ii_tables", "hat_id", "involutions",
        "is_induced_involutory", "is_n_involutory", "is_symmetric", "iter_all_tables",
        "load_table", "loads_table", "project_compose", "property_profile",
        "state_from_index", "state_index", "table_iterate",
    ),
    "affine": (
        "AffineFirstIterate", "AffineMapSpec", "ResidualSummary",
        "affine_involutory_order", "affine_iterate", "build_first_iterate",
        "decreasing_involution_residuals", "fibonacci_closed_form",
        "linear_roots_checks", "projection_family_iterate", "roots_map_spec",
        "sum_map_closed_form",
    ),
    "recurrence": (
        "CorrespondenceReport", "CorrespondenceRow", "CycleFinding", "RecurrenceSpec",
        "SweepTallies", "augment", "consistency_check", "cycle_correspondence_report",
        "cycle_correspondence_sweep", "detect_minimal_period", "generate",
    ),
    "parser": (
        "MapDef", "parse_cyclo", "parse_map_def", "parse_scalar", "parse_seed", "render",
        "render_def", "to_affine", "to_kary_map",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = (*_EXPORTS, "_kernels")

__all__ = list(_HOME)


def __getattr__(name: str):
    if name in _HOME:
        value = getattr(_import_module(f".{_HOME[name]}", __name__), name)
    elif name in _SUBMODULES:
        value = _import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_SUBMODULES})
