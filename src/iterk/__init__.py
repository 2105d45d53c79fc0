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
"""

from .engine import (
    InducedContext,
    KaryMap,
    Orbit,
    first_iterate,
    induced_self_map,
    iterate,
    orbit,
    point_involutory_order,
)
from .errors import ArityError, BudgetError, NonAffineError, ParseError
from .exactnum import (
    CycloPolynomial,
    CyclotomicField,
    CyclotomicNumber,
    RationalField,
    cyclotomic_polynomial,
    fibonacci,
    join_fields,
    parse_cyclo,
)
from .tables import (
    CycleReport,
    FiniteTable,
    PropertyProfile,
    as_permutation,
    conjugate,
    count_involutions,
    count_involutions_brute,
    cycle_report,
    dump_table,
    dumps_table,
    enumerate_ii_tables,
    hat_id,
    involutions,
    is_induced_involutory,
    is_n_involutory,
    is_symmetric,
    iter_all_tables,
    load_table,
    loads_table,
    project_compose,
    property_profile,
    state_from_index,
    state_index,
    table_iterate,
)
from .affine import (
    AffineFirstIterate,
    AffineMapSpec,
    ResidualSummary,
    affine_involutory_order,
    affine_iterate,
    build_first_iterate,
    decreasing_involution_residuals,
    fibonacci_closed_form,
    linear_roots_checks,
    projection_family_iterate,
    roots_map_spec,
    sum_map_closed_form,
)
from .recurrence import (
    CorrespondenceReport,
    CorrespondenceRow,
    CycleFinding,
    RecurrenceSpec,
    SweepTallies,
    augment,
    consistency_check,
    cycle_correspondence_report,
    cycle_correspondence_sweep,
    detect_minimal_period,
    generate,
)
from .parser import MapDef, parse_map_def, parse_scalar, parse_seed, render, render_def, to_affine, to_kary_map

__version__ = "0.1.0"
