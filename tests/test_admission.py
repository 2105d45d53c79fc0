"""Counts, positions and states outside the table layer: every count, order,
bound and arity of the engine, affine, sequence and scalar layers enters
through ``errors._count``, every argument position of every layer through
``errors._position``, and every state through ``errors._state``.  The table
layer's own matrix is ``tests/test_tables.py::TestAdmission``."""

from fractions import Fraction

import numpy as np
import pytest

from iterk.affine import (
    AffineMapSpec,
    affine_involutory_order,
    affine_iterate,
    build_first_iterate,
    decreasing_involution_residuals,
    fibonacci_closed_form,
    linear_roots_checks,
    projection_family_iterate,
    sum_map_closed_form,
)
from iterk.cli import main
from iterk.engine import (
    KaryMap,
    first_iterate,
    induced_self_map,
    iterate,
    orbit,
    point_involutory_order,
)
from iterk.errors import ArityError, UsageError
from iterk.exactnum import RationalField, cyclotomic_polynomial, fibonacci
from iterk.recurrence import RecurrenceSpec, augment, consistency_check, generate
from iterk.tables import FiniteTable, is_induced_involutory, table_iterate, table_point_order

PAIR_SUM = KaryMap(2, lambda s: s[0] + s[1], name="pair-sum")
SUCCESSOR = KaryMap(1, lambda s: s[0] + 1, name="successor")
NEGATION = KaryMap(1, lambda s: -s[0], name="negation")
# 1 - x1 - x2: its first iterate has order 3
NEGATED_SUM = build_first_iterate(AffineMapSpec.rational((-1, -1), 1))
PAIR_SPEC = RecurrenceSpec(PAIR_SUM, (0, 1))
ADD_MOD3 = FiniteTable(3, 2, [(a + b) % 3 for a in range(3) for b in range(3)])

# name -> (call, the count's name in the message, its least value)
COUNTS = {
    "KaryMap-arity": (lambda v: KaryMap(v, sum), "arity", 1),
    "AffineMapSpec-arity": (
        lambda v: AffineMapSpec(v, (1,) * int(v), 0, RationalField()), "arity", 1,
    ),
    "iterate": (lambda v: iterate(PAIR_SUM, (0, 1), v), "iterate count", 0),
    "affine_iterate": (lambda v: affine_iterate(NEGATED_SUM, (0, 1), v), "iterate count", 0),
    "fibonacci_closed_form": (lambda v: fibonacci_closed_form(v, (0, 1)), "iterate count", 0),
    "sum_map_closed_form": (lambda v: sum_map_closed_form(2, 1, v, (0, 1)), "iterate count", 0),
    "sum_map_closed_form-arity": (
        lambda v: sum_map_closed_form(v, 1, 1, (0,) * int(v)), "arity", 1,
    ),
    "projection_family_iterate": (
        lambda v: projection_family_iterate(lambda x: x + 1, 1, 2, v, (0, 1)), "iterate count", 0,
    ),
    "projection_family_iterate-arity": (
        lambda v: projection_family_iterate(lambda x: x + 1, 1, v, 1, (0,) * int(v)), "arity", 1,
    ),
    "linear_roots_checks": (
        lambda v: linear_roots_checks(3, "full", v, (0, 1)), "iterate count", 0,
    ),
    "consistency_check": (lambda v: consistency_check(PAIR_SPEC, v), "iterate count", 0),
    "orbit": (lambda v: orbit(PAIR_SUM, (0, 1), v), "max_steps", 1),
    "point_involutory_order": (
        lambda v: point_involutory_order(NEGATION, (1,), v), "bound", 1,
    ),
    "affine_involutory_order": (lambda v: affine_involutory_order(NEGATED_SUM, v), "bound", 1),
    "generate": (lambda v: generate(PAIR_SPEC, v), "count", 2),
    "augment": (lambda v: augment(SUCCESSOR, v).apply((0,) * int(v)), "target arity", 0),
    "fibonacci": (fibonacci, "index", 0),
    "cyclotomic_polynomial": (cyclotomic_polynomial, "order", 1),
    "decreasing_involution_residuals": (
        lambda v: decreasing_involution_residuals(v, 0.5, 2.0), "sample count", 1,
    ),
}
NOT_INTS = {"2.0": 2.0, "2.5": 2.5, "Fraction": Fraction(2), "str": "2"}


def outcome(call, value):
    # the result's repr, or the error's class and text: a count stored as
    # np.int64(3) shows in the repr where 3 would not
    try:
        return repr(call(value))
    except (TypeError, ValueError) as exc:
        return type(exc), str(exc)


class TestCounts:
    @pytest.mark.parametrize("entry", COUNTS)
    def test_integer_forms_are_ints(self, entry):
        call, _, least = COUNTS[entry]
        for v in (least + 2, 3):
            assert outcome(call, np.int64(v)) == outcome(call, np.uint8(v)) == outcome(call, v)
        if least <= 1:
            assert outcome(call, True) == outcome(call, 1)
            assert outcome(call, False) == outcome(call, 0)

    @pytest.mark.parametrize("entry", COUNTS)
    @pytest.mark.parametrize("kind", NOT_INTS)
    def test_other_types_are_type_errors(self, entry, kind):
        with pytest.raises(TypeError):
            COUNTS[entry][0](NOT_INTS[kind])

    @pytest.mark.parametrize("entry", COUNTS)
    def test_below_the_least_is_one_message(self, entry):
        call, name, least = COUNTS[entry]
        for v in (least - 1, np.int64(least - 2)):
            with pytest.raises(UsageError) as err:
                call(v)
            assert type(err.value) is UsageError
            assert str(err.value) == f"{name} must be >= {least}, got {v}"

    def test_each_former_disagreement_is_now_the_rule(self):
        # np.uint8 had no bit_length, a float bound was compared, a float
        # arity built a map that failed on first use, and a float root order
        # read the cache
        assert affine_iterate(NEGATED_SUM, (0, 0), np.uint8(3)) == iterate(
            AffineMapSpec.rational((-1, -1), 1).as_kary_map(), (0, 0), 3
        )
        assert affine_involutory_order(NEGATED_SUM, 3) == 3
        # cached under np.int64(2), which 2.0 and Fraction(2) equal: they must miss it
        assert cyclotomic_polynomial(np.int64(2)).coefficients == (1, 1)
        for build in (
            lambda: cyclotomic_polynomial(2.0),
            lambda: cyclotomic_polynomial(Fraction(2)),
            lambda: affine_involutory_order(NEGATED_SUM, 3.5),
            lambda: KaryMap(2.0, sum),
            lambda: AffineMapSpec(2.0, (1, 1), 0, RationalField()),
            lambda: augment(SUCCESSOR, 3.0),
        ):
            with pytest.raises(TypeError):
                build()

    def test_the_closed_forms_take_their_arity_as_a_count(self):
        # a map of no arguments returned (), and a float arity failed at a
        # slice or a range
        with pytest.raises(UsageError, match="^arity must be >= 1, got 0$"):
            sum_map_closed_form(0, 1, 5, ())
        for build in (
            lambda: sum_map_closed_form(2.0, 1, 1, (0, 1)),
            lambda: projection_family_iterate(abs, 1, 2.0, 1, (0, 1)),
        ):
            with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
                build()

    def test_counts_are_stored_as_ints(self):
        assert type(KaryMap(np.uint8(2), sum).arity) is int
        assert type(AffineMapSpec(np.int64(1), (1,), 0, RationalField()).arity) is int
        assert type(augment(SUCCESSOR, np.int64(3)).arity) is int

    def test_a_lift_to_0_arguments_is_the_lift_rules(self):
        # 0 is a count, so the lift rule names it, as the CLI reports it
        with pytest.raises(ArityError, match="must exceed the original arity 1, got 0"):
            augment(SUCCESSOR, 0)

    @pytest.mark.parametrize("source", [["--def", "f(x1,x2)=x1+x2"], ["--table", "TABLE"]])
    def test_cli_iterate_count(self, capsys, tmp_path, source):
        path = tmp_path / "t.tbl"
        path.write_text("3 2\n0 1 2\n1 2 0\n2 0 1\n")
        argv = ["iterate", *[str(path) if a == "TABLE" else a for a in source]]
        assert main([*argv, "--seed", "0,1", "--n", "-1"]) == 2
        assert capsys.readouterr().err == "error: iterate count must be >= 0, got -1\n"


# name -> call with an argument position; each map has arity 2
POSITIONS = {
    "induced_self_map": lambda j: induced_self_map(PAIR_SUM, j, (5,))(1),
    "projection_family_iterate": lambda j: projection_family_iterate(abs, j, 2, 3, (-1, 2)),
    "is_induced_involutory": lambda j: is_induced_involutory(ADD_MOD3, 3, j),
}


class TestPositions:
    @pytest.mark.parametrize("entry", POSITIONS)
    def test_integer_forms_are_ints(self, entry):
        call = POSITIONS[entry]
        for j in (1, 2):
            assert outcome(call, np.int64(j)) == outcome(call, np.uint8(j)) == outcome(call, j)
        assert outcome(call, True) == outcome(call, 1)

    @pytest.mark.parametrize("entry", POSITIONS)
    @pytest.mark.parametrize("kind", ["1.0", "Fraction", "str"])
    def test_other_types_are_type_errors(self, entry, kind):
        # a position of 1.0 was compared as a number, then failed at a slice
        with pytest.raises(TypeError):
            POSITIONS[entry]({"1.0": 1.0, "Fraction": Fraction(1), "str": "1"}[kind])

    @pytest.mark.parametrize("entry", POSITIONS)
    def test_out_of_range_is_one_message(self, entry):
        for j in (0, 3, -1, np.int64(3)):
            with pytest.raises(ArityError) as err:
                POSITIONS[entry](j)
            assert type(err.value) is ArityError
            assert str(err.value) == f"argument position {j} out of range 1..2"


# name -> call on a state; each map has arity 2
STATES = {
    "first_iterate": lambda s: first_iterate(PAIR_SUM, s),
    "iterate": lambda s: iterate(PAIR_SUM, s, 1),
    "iterate-0": lambda s: iterate(PAIR_SUM, s, 0),
    "orbit": lambda s: orbit(PAIR_SUM, s, 1),
    "point_involutory_order": lambda s: point_involutory_order(PAIR_SUM, s, 1),
    "FiniteTable.apply": ADD_MOD3.apply,
    "table_iterate": lambda s: table_iterate(ADD_MOD3, s, 1),
    "table_point_order": lambda s: table_point_order(ADD_MOD3, s),
    "affine_iterate": lambda s: affine_iterate(NEGATED_SUM, s, 1),
    "affine_iterate-0": lambda s: affine_iterate(NEGATED_SUM, s, 0),
    "AffineFirstIterate.apply": NEGATED_SUM.apply,
    "fibonacci_closed_form": lambda s: fibonacci_closed_form(1, s),
    "sum_map_closed_form": lambda s: sum_map_closed_form(2, 1, 1, s),
    "projection_family_iterate": lambda s: projection_family_iterate(abs, 1, 2, 1, s),
    "linear_roots_checks": lambda s: linear_roots_checks(3, "full", 1, s),
    "RecurrenceSpec": lambda s: RecurrenceSpec(PAIR_SUM, s),
}


class TestStates:
    @pytest.mark.parametrize("entry", STATES)
    def test_a_wrong_length_is_one_message(self, entry):
        for state in [(0,), (0, 1, 2), ()]:
            with pytest.raises(ArityError) as err:
                STATES[entry](state)
            assert str(err.value) == f"state has {len(state)} elements but map has arity 2"

    @pytest.mark.parametrize("entry", STATES)
    def test_any_iterable_of_the_arity_is_a_state(self, entry):
        assert outcome(STATES[entry], [0, 1]) == outcome(STATES[entry], (0, 1))
        assert outcome(STATES[entry], iter((0, 1))) == outcome(STATES[entry], (0, 1))

    def test_a_seed_is_stored_as_a_tuple(self):
        assert RecurrenceSpec(PAIR_SUM, [0, 1]).seed == (0, 1)
        assert RecurrenceSpec(PAIR_SUM, [0, 1]) == PAIR_SPEC
