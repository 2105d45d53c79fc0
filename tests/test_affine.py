"""Exact affine analysis: matrix first iterates, closed forms, the
floating-point conjugacy demo."""

import math
import random
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

from iterk.affine import (
    AffineFirstIterate,
    AffineMapSpec,
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
from iterk.engine import KaryMap, first_iterate, iterate
from iterk.errors import ArityError
from iterk.exactnum import CyclotomicField, CyclotomicNumber, RationalField, cyclotomic_polynomial
from iterk.parser import parse_map_def, to_affine


def rand_fraction(rng):
    return Fraction(rng.randint(-30, 30), rng.randint(1, 12))


class TestBuildFirstIterate:
    def test_pair_sum_matrix(self):
        it = build_first_iterate(AffineMapSpec.rational((1, 1)))
        assert it.matrix == ((1, 1), (1, 2))
        assert it.offset == (0, 0)

    def test_negated_sum_matrix(self):
        it = build_first_iterate(AffineMapSpec.rational((-1, -1)))
        assert it.matrix == ((-1, -1), (1, 0))

    def test_single_argument(self):
        it = build_first_iterate(AffineMapSpec.rational((7,), 3))
        assert it.matrix == ((7,),) and it.offset == (3,)

    def test_rows_agree_with_engine_on_random_specs(self):
        rng = random.Random(5)
        for _ in range(15):
            k = rng.randint(1, 4)
            spec = AffineMapSpec.rational(
                [rand_fraction(rng) for _ in range(k)], rand_fraction(rng)
            )
            it = build_first_iterate(spec)
            f = spec.as_kary_map()
            for _ in range(4):
                s = tuple(rand_fraction(rng) for _ in range(k))
                for n in range(13):
                    assert affine_iterate(it, s, n) == iterate(f, s, n)


class TestAffineIterate:
    def test_pair_sum(self):
        it = build_first_iterate(AffineMapSpec.rational((1, 1)))
        s = (Fraction(1), Fraction(1))
        assert affine_iterate(it, s, 5) == (89, 144)
        assert affine_iterate(it, s, 0) == s

    def test_negated_sum_one_step(self):
        it = build_first_iterate(AffineMapSpec.rational((-1, -1)))
        assert affine_iterate(it, (Fraction(1), Fraction(2)), 1) == (-3, 1)

    def test_zero_iterate_returns_the_state_as_given(self):
        it = build_first_iterate(AffineMapSpec.rational((1, 1), 2))
        out = affine_iterate(it, (1, 2), 0)
        assert out == (1, 2) and all(type(v) is int for v in out)

    def test_dimension_mismatch(self):
        it = build_first_iterate(AffineMapSpec.rational((1, 1)))
        with pytest.raises(ArityError):
            affine_iterate(it, (1, 2, 3), 1)


class TestMixedFields:
    """States whose elements lie outside the map's own field."""

    def test_rational_map_on_a_zeta3_state_raises_value_error(self):
        # the state enters through Q's coerce, and zeta3 is not rational
        z = CyclotomicField(3).zeta()
        it = build_first_iterate(AffineMapSpec.rational((2,), 1))
        for n in (0, 1, 2):
            with pytest.raises(ValueError):
                affine_iterate(it, (z,), n)
        with pytest.raises(ValueError):
            it.apply((z,))
        # a rational value of Q(zeta3) is admitted, and the result is in Q
        spec = AffineMapSpec.rational((Fraction(-1, 2), 3), Fraction(2, 7))
        it, f = build_first_iterate(spec), spec.as_kary_map()
        state = (Fraction(1, 2), z + z * z + Fraction(4, 3))
        for n in (1, 2, 5, 8):
            got = affine_iterate(it, state, n)
            assert got == iterate(f, (Fraction(1, 2), Fraction(1, 3)), n)
            assert all(type(v) is Fraction for v in got)

    def test_zeta3_map_on_int_and_fraction_states(self):
        spec = roots_map_spec()
        it, f = build_first_iterate(spec), spec.as_kary_map()
        for state in [(1, 2), (Fraction(1, 2), Fraction(-3)), (0, Fraction(5, 4))]:
            for n in (1, 3, 4):
                got = affine_iterate(it, state, n)
                assert got == iterate(f, state, n)
                assert all(type(v) is CyclotomicNumber and v.order == 3 for v in got)

    def test_other_root_orders_raise_value_error(self):
        z3, z4 = CyclotomicField(3).zeta(), CyclotomicField(4).zeta()
        it = build_first_iterate(roots_map_spec())
        with pytest.raises(ValueError):
            affine_iterate(it, (z4, 1), 1)
        with pytest.raises(ValueError):
            it.apply((z4, 1))
        rational = build_first_iterate(AffineMapSpec.rational((1, 1)))
        with pytest.raises(ValueError):
            affine_iterate(rational, (z3, z4), 3)

    def test_inexact_state_elements_raise_type_error(self):
        it = build_first_iterate(AffineMapSpec.rational((1, 1)))
        with pytest.raises(TypeError):
            affine_iterate(it, (0.5, 1), 1)

    def test_zero_iterate_returns_each_element_as_given(self):
        z3, z4 = CyclotomicField(3).zeta(), CyclotomicField(4).zeta()
        cases = [
            (AffineMapSpec.rational((1, 1), 2), (1, Fraction(1, 3))),
            (AffineMapSpec.rational((1, 1), 2), (z4 * z4, 5)),
            (roots_map_spec(), (Fraction(2), 7)),
            (roots_map_spec(12), (z4, z3)),
        ]
        for spec, state in cases:
            got = affine_iterate(build_first_iterate(spec), state, 0)
            assert type(got) is tuple and len(got) == len(state)
            assert all(g is s for g, s in zip(got, state))
        # a state the field does not admit raises at n = 0 too
        for spec, state in [(AffineMapSpec.rational((1, 1), 2), (z4, 5)),
                            (roots_map_spec(), (z4, z3))]:
            with pytest.raises(ValueError):
                affine_iterate(build_first_iterate(spec), state, 0)

    def test_apply_is_the_first_iterate(self):
        z3 = CyclotomicField(3).zeta()
        cases = [
            (AffineMapSpec.rational((Fraction(1, 2), -3), Fraction(5, 6)), (1, Fraction(2, 3))),
            (AffineMapSpec.rational((Fraction(1, 2), -3), 1), (z3 + z3 * z3, 2)),
            (roots_map_spec(), (Fraction(1, 2), z3 - 1)),
            (roots_map_spec(5, 3), (2, 3)),
        ]
        for spec, state in cases:
            it = build_first_iterate(spec)
            got, want = it.apply(state), affine_iterate(it, state, 1)
            assert got == want == first_iterate(spec.as_kary_map(), state)
            assert [type(v) for v in got] == [type(v) for v in want]
        with pytest.raises(ArityError):
            build_first_iterate(roots_map_spec()).apply((1,))
        with pytest.raises(ValueError):
            build_first_iterate(AffineMapSpec.rational((Fraction(1, 2), -3), 1)).apply((z3, 2))


INEXACT = [0.5, np.float64(0.5), Decimal("0.5"), "1/2"]

ENTRY_POINTS = {
    "RationalField.coerce": lambda v: RationalField().coerce(v),
    "CyclotomicField.coerce": lambda v: CyclotomicField(12).coerce(v),
    "from_rational": lambda v: CyclotomicNumber.from_rational(v),
    "from_rational-order-5": lambda v: CyclotomicNumber.from_rational(v, 5),
    "AffineMapSpec.rational-coefficient": lambda v: AffineMapSpec.rational((1, v)),
    "AffineMapSpec.rational-constant": lambda v: AffineMapSpec.rational((1, 2), v),
    "AffineMapSpec-coefficient": lambda v: AffineMapSpec(1, (v,), 0, RationalField()),
    "AffineMapSpec-constant": lambda v: AffineMapSpec(1, (1,), v, CyclotomicField(3)),
    "AffineFirstIterate-matrix": lambda v: AffineFirstIterate(((v,),), (0,), RationalField()),
    "AffineFirstIterate-offset": lambda v: AffineFirstIterate(((1,),), (v,), CyclotomicField(4)),
    "affine_iterate-n0": lambda v: affine_iterate(
        build_first_iterate(AffineMapSpec.rational((1, 1))), (1, v), 0),
    "affine_iterate-n3": lambda v: affine_iterate(
        build_first_iterate(roots_map_spec()), (v, 1), 3),
    "apply": lambda v: build_first_iterate(AffineMapSpec.rational((1, 1))).apply((v, 1)),
    "apply-zeta3": lambda v: build_first_iterate(roots_map_spec()).apply((1, v)),
}


class TestOneAdmissionRule:
    """Every value enters a field through its coerce, which admits only
    ints, Fractions and CyclotomicNumbers."""

    @pytest.mark.parametrize("value", INEXACT, ids=lambda v: type(v).__name__)
    @pytest.mark.parametrize("entry", ENTRY_POINTS.values(), ids=ENTRY_POINTS.keys())
    def test_inexact_values_raise_type_error(self, entry, value):
        with pytest.raises(TypeError):
            entry(value)

    def test_stored_values_are_field_elements(self):
        spec = AffineMapSpec.rational((1, 2), 3)
        if not all(type(v) is Fraction for v in spec.coefficients + (spec.constant,)):
            pytest.fail(f"rational spec stores {spec}")
        fld = CyclotomicField(3)
        spec = AffineMapSpec(2, (1, Fraction(1, 2)), CyclotomicField(1).one(), fld)
        it = build_first_iterate(spec)
        values = spec.coefficients + (spec.constant,) + it.offset + sum(it.matrix, ())
        if not all(type(v) is CyclotomicNumber and v.order == 3 for v in values):
            pytest.fail(f"Q(zeta3) spec stores {spec} and {it}")
        it = AffineFirstIterate(((1, Fraction(1, 2)), (1, 0)), (2, 0), RationalField())
        if not all(type(v) is Fraction for v in sum(it.matrix, ()) + it.offset):
            pytest.fail(f"first iterate stores {it}")

    def test_mixed_states_match_the_engine_on_the_coerced_state(self):
        # Q(zeta6) pairs on states of ints, Fractions, Q(zeta2) and Q(zeta3)
        # elements, which Q(zeta6) holds
        rng = random.Random(19)
        fld, z2, z3 = CyclotomicField(6), CyclotomicField(2), CyclotomicField(3)
        makers = [
            lambda: rng.randint(-5, 5),
            lambda: rand_fraction(rng),
            lambda: z2.coerce(rand_fraction(rng)),
            lambda: z3.zeta(rng.randrange(3)) * rand_fraction(rng) + rng.randint(-2, 2),
        ]
        wrong = []
        for _ in range(40):
            k = rng.randint(1, 4)
            spec = random_spec(rng, fld, k)
            it, f = build_first_iterate(spec), spec.as_kary_map()
            state = tuple(rng.choice(makers)() for _ in range(k))
            if any(g is not s for g, s in zip(affine_iterate(it, state, 0), state)):
                wrong.append(f"{spec} at n = 0 did not return {state} as given")
            for n in (1, 2, 3, 5, 8, 13):
                got = affine_iterate(it, state, n)
                want = iterate(f, tuple(map(fld.coerce, state)), n)
                if got != want or any(type(v) is not CyclotomicNumber or v.order != 6
                                      for v in got):
                    wrong.append(f"{spec} on {state} at n = {n}: {got} != {want}")
        if wrong:
            pytest.fail("\n".join(wrong[:5]))


class TestInvolutoryOrder:
    def test_negated_sum_is_k_plus_1(self):
        rng = random.Random(9)
        for k in range(1, 6):
            spec = AffineMapSpec.rational([-1] * k, rand_fraction(rng))
            assert affine_involutory_order(build_first_iterate(spec), 50) == k + 1

    def test_growing_map_has_none(self):
        it = build_first_iterate(AffineMapSpec.rational((1, 1)))
        assert affine_involutory_order(it, 50) is None

    def test_root_coefficient_map_has_none(self):
        it = build_first_iterate(roots_map_spec())
        assert affine_involutory_order(it, 50) is None


FIELDS = (RationalField(),) + tuple(CyclotomicField(n) for n in (3, 4, 5, 12))


def random_element(rng, fld, unit=False):
    """A small rational, plus a multiple of a root of unity outside Q; with
    ``unit`` one of 0, +-1 or +-zeta**p, so that finite orders are common."""
    if unit:
        q = Fraction(rng.choice((-1, 0, 1)))
    else:
        q = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
    if isinstance(fld, RationalField):
        return q
    z = fld.zeta(rng.randrange(fld.order))
    return z * rng.choice((-1, 1)) if unit and q else q + z * rng.randint(-1, 1)


def random_spec(rng, fld, k, unit=False):
    coeffs = tuple(random_element(rng, fld, unit) for _ in range(k))
    return AffineMapSpec(k, coeffs, random_element(rng, fld, unit), fld)


def engine_order(spec, bound):
    # an affine map that fixes the zero state and every unit vector is the
    # identity, so its order is the first n returning those k + 1 points
    k, zero, one = spec.arity, spec.field.zero(), spec.field.one()
    f = spec.as_kary_map()
    points = [(zero,) * k] + [
        tuple(one if i == j else zero for i in range(k)) for j in range(k)
    ]
    current = points
    for n in range(1, bound + 1):
        current = [first_iterate(f, p) for p in current]
        if current == points:
            return n
    return None


class TestDifferentialAgainstEngine:
    @pytest.mark.parametrize("fld", FIELDS, ids=str)
    def test_matrix_powers_match_engine_steps(self, fld):
        rng = random.Random(str(fld))
        for k in range(1, 5):
            spec = random_spec(rng, fld, k)
            it = build_first_iterate(spec)
            f = spec.as_kary_map()
            state = tuple(random_element(rng, fld) for _ in range(k))
            current = state
            for n in range(21):
                assert affine_iterate(it, state, n) == current
                current = first_iterate(f, current)

    @pytest.mark.parametrize("fld", FIELDS, ids=str)
    def test_involutory_order_matches_engine(self, fld):
        # random maps over units, and A - sum(x), whose order k + 1 lies
        # past the bound k and within the bound 12
        rng = random.Random(str(fld))
        specs = [random_spec(rng, fld, 1 + t % 4, unit=True) for t in range(12)]
        specs += [
            AffineMapSpec(k, (-fld.one(),) * k, random_element(rng, fld), fld)
            for k in range(1, 5)
        ]
        for spec in specs:
            it = build_first_iterate(spec)
            for bound in (spec.arity, 12):
                assert affine_involutory_order(it, bound) == engine_order(spec, bound)


def homogeneous_iterate(it, state, n):
    """The n-th power of the homogeneous (k+1)-matrix [[A, b], [0, 1]]
    applied to (state, 1): the reference formulation for the pair powers."""
    zero, one, k = it.field.zero(), it.field.one(), it.arity
    h = np.array(
        [row + (off,) for row, off in zip(it.matrix, it.offset)] + [(zero,) * k + (one,)],
        dtype=object,
    )
    return tuple(np.linalg.matrix_power(h, n) @ np.array(tuple(state) + (one,), dtype=object))[:k]


# n = 0 and 1, and either side of every power of two up to 2**8: each place
# where square-and-multiply gains a bit or stops squaring
BIT_BOUNDARIES = sorted({0, 1} | {2**j + d for j in range(1, 9) for d in (-1, 0, 1)})


def monomial_spec(rng, fld, k):
    """x -> u * x_j + A for a random unit u = +-zeta**p and position j: every
    power of its matrix has one nonzero entry per row, a unit, so the numbers
    stay small however large n is."""
    u = fld.coerce(rng.choice((-1, 1)))
    if not isinstance(fld, RationalField):
        u = u * fld.zeta(rng.randrange(fld.order))
    coeffs = [fld.zero()] * k
    coeffs[rng.randrange(k)] = u
    return AffineMapSpec(k, tuple(coeffs), random_element(rng, fld), fld)


class TestBitBoundaries:
    @pytest.mark.parametrize("fld", FIELDS, ids=str)
    def test_pair_powers_match_homogeneous_powers_and_engine(self, fld):
        rng = random.Random(f"bits {fld}")
        specs = [monomial_spec(rng, fld, k) for k in range(1, 6)]
        if isinstance(fld, RationalField):
            # dense maps whose numbers pass a few hundred bits by n = 257:
            # the homogeneous reference takes seconds per map over Q(zeta)
            specs += [random_spec(rng, fld, k) for k in range(1, 6)]
        for spec in specs:
            it = build_first_iterate(spec)
            f = spec.as_kary_map()
            state = tuple(random_element(rng, fld) for _ in range(spec.arity))
            current = state
            for n in range(BIT_BOUNDARIES[-1] + 1):
                if n in BIT_BOUNDARIES:
                    got = affine_iterate(it, state, n)
                    want = homogeneous_iterate(it, state, n)
                    assert got == want == current
                    assert [type(v) for v in got] == [type(v) for v in want]
                current = first_iterate(f, current)

    @pytest.mark.parametrize("fld", FIELDS, ids=str)
    def test_finite_order_map_at_n_1000(self, fld):
        # A - sum(x) has order k + 1, so the 1000-th iterate is a short one
        rng = random.Random(f"order {fld}")
        for k in range(1, 6):
            spec = AffineMapSpec(k, (-fld.one(),) * k, random_element(rng, fld), fld)
            it = build_first_iterate(spec)
            state = tuple(random_element(rng, fld) for _ in range(k))
            got = affine_iterate(it, state, 1000)
            assert got == homogeneous_iterate(it, state, 1000)
            assert got == iterate(spec.as_kary_map(), state, 1000 % (k + 1))


def object_array_iterate(it, state, n):
    """Square-and-multiply on numpy object arrays of the exact elements, with
    one Fraction or CyclotomicNumber product per entry product: the
    formulation the integral pair over one denominator replaced."""
    a, b = np.array(it.matrix, dtype=object), np.array(it.offset, dtype=object)
    v = np.array(state, dtype=object)
    while n:
        if n & 1:
            v = a @ v + b
        n >>= 1
        if n:
            a, b = a @ a, a @ b + b
    return tuple(v)


def object_array_order(it, bound):
    """The object-array formulation of the least n <= bound whose pair power
    is the identity pair."""
    a, b = np.array(it.matrix, dtype=object), np.array(it.offset, dtype=object)
    ident = np.identity(it.arity, dtype=object)
    power, shift = a, b
    for n in range(1, bound + 1):
        if (power == ident).all() and (shift == it.field.zero()).all():
            return n
        power, shift = a @ power, a @ shift + b
    return None


# Q, and Q(zeta_N) from the smallest fields to the largest root orders
DIFF_FIELDS = (RationalField(),) + tuple(
    CyclotomicField(n) for n in (1, 3, 4, 5, 7, 8, 12, 53, 60, 64)
)


def sparse_spec(rng, fld, k):
    """A random map reading one or two of its arguments."""
    coeffs = [fld.zero()] * k
    for j in rng.sample(range(k), min(k, 2)):
        coeffs[j] = random_element(rng, fld)
    return AffineMapSpec(k, tuple(coeffs), random_element(rng, fld), fld)


def assert_canonical(values, fld):
    """Elements of ``fld`` with lowest-terms coefficients, phi(N) of them."""
    for v in values:
        if isinstance(fld, RationalField):
            coeffs = (v,)
        else:
            assert type(v) is CyclotomicNumber and v.order == fld.order
            assert v.den > 0 and math.gcd(v.den, *v.nums) == 1
            coeffs = v.coeffs
            assert len(coeffs) == cyclotomic_polynomial(fld.order).degree
        for c in coeffs:
            assert type(c) is Fraction
            assert c.denominator > 0 and math.gcd(c.numerator, c.denominator) == 1


def conjugated_sum_map(rng, fld, k):
    """The first iterate of A - sum(x), conjugated by a random unipotent
    upper-triangular P: dense, and still of order k + 1."""
    base = build_first_iterate(
        AffineMapSpec(k, (-fld.one(),) * k, random_element(rng, fld), fld)
    )
    nil = np.array(
        [[random_element(rng, fld) if j > i else fld.zero() for j in range(k)] for i in range(k)],
        dtype=object,
    )
    ident = np.array([[fld.one() if i == j else fld.zero() for j in range(k)] for i in range(k)],
                     dtype=object)
    p, p_inv, term = ident + nil, ident, ident
    for _ in range(k - 1):
        term = -(term @ nil)
        p_inv = p_inv + term
    matrix = p @ np.array(base.matrix, dtype=object) @ p_inv
    offset = p @ np.array(base.offset, dtype=object)
    return AffineFirstIterate(
        tuple(tuple(fld.coerce(x) for x in row) for row in matrix),
        tuple(fld.coerce(x) for x in offset),
        fld,
    )


class TestDifferentialAgainstObjectArrays:
    @pytest.mark.parametrize("fld", DIFF_FIELDS, ids=str)
    def test_pair_powers_match(self, fld):
        rng = random.Random(f"object arrays {fld}")
        # the reference takes seconds per map once the numbers grow, and
        # longest over the large fields, so only monomial maps go far
        large = isinstance(fld, CyclotomicField) and fld.order > 12
        tops = (33, 9, 9) if large else (BIT_BOUNDARIES[-1], 65, 33)
        for k in range(1, 5):
            specs = [monomial_spec(rng, fld, k), sparse_spec(rng, fld, k), random_spec(rng, fld, k)]
            for spec, top in zip(specs, tops):
                it = build_first_iterate(spec)
                state = tuple(random_element(rng, fld) for _ in range(k))
                for n in BIT_BOUNDARIES:
                    if n > top:
                        break
                    got = affine_iterate(it, state, n)
                    want = object_array_iterate(it, state, n)
                    assert got == want
                    assert [type(v) for v in got] == [type(v) for v in want]
                    assert_canonical(got, fld)

    @pytest.mark.parametrize("fld", DIFF_FIELDS, ids=str)
    def test_orders_match(self, fld):
        rng = random.Random(f"object array orders {fld}")
        cases = [(conjugated_sum_map(rng, fld, k), k + 1) for k in range(1, 5)]
        cases += [
            (build_first_iterate(AffineMapSpec(2, (fld.one(),) * 2, fld.zero(), fld)), None),
            (build_first_iterate(random_spec(rng, fld, 2)), None),
        ]
        for it, order in cases:
            assert affine_involutory_order(it, 50) == object_array_order(it, 50) == order
            assert affine_involutory_order(it, order or 50) == order
            if order:
                assert affine_involutory_order(it, order - 1) is None

    def test_root_of_unity_multiples(self):
        # zeta_N * x1 has order N: found within the bound 50, and none past it
        for n in range(1, 65):
            fld = CyclotomicField(n)
            it = build_first_iterate(AffineMapSpec(1, (fld.zeta(),), fld.zero(), fld))
            want = n if n <= 50 else None
            assert affine_involutory_order(it, 50) == object_array_order(it, 50) == want
        d = parse_map_def("f(x1) = zeta(3)*x1 + zeta(4)")
        it = build_first_iterate(to_affine(d))
        assert affine_involutory_order(it, 50) == object_array_order(it, 50) == 3


class TestFibonacciClosedForm:
    def test_first_step(self):
        assert fibonacci_closed_form(1, (Fraction(1), Fraction(1))) == (2, 3)

    def test_zero_is_identity(self):
        s = (Fraction(4, 7), Fraction(-2))
        assert fibonacci_closed_form(0, s) == s

    def test_matches_engine_for_thirty_steps(self):
        f = AffineMapSpec.rational((1, 1)).as_kary_map()
        rng = random.Random(13)
        for _ in range(10):
            s = (rand_fraction(rng), rand_fraction(rng))
            current = s
            for n in range(31):
                assert fibonacci_closed_form(n, s) == current
                current = iterate(f, current, 1)


class TestSumMapClosedForm:
    def test_full_cycle_is_identity(self):
        s = (Fraction(1), Fraction(2), Fraction(3))
        assert sum_map_closed_form(3, Fraction(0), 4, s) == s

    def test_one_step(self):
        s = (Fraction(1), Fraction(2), Fraction(3))
        assert sum_map_closed_form(3, Fraction(0), 1, s) == (-6, 1, 2)

    def test_matches_matrix_iterate(self):
        rng = random.Random(17)
        for k in range(1, 6):
            a = rand_fraction(rng)
            spec = AffineMapSpec.rational([-1] * k, a)
            it = build_first_iterate(spec)
            s = tuple(rand_fraction(rng) for _ in range(k))
            for idx in range(2 * (k + 1) + 1):
                assert sum_map_closed_form(k, a, idx, s) == affine_iterate(it, s, idx)


class TestProjectionFamily:
    def test_first_argument_closed_form(self):
        g = lambda x: (x + 1) % 5
        assert projection_family_iterate(g, 1, 3, 2, (0, 1, 2)) == (2, 3, 4)

    def test_identity_map(self):
        # reading the first argument with g = id is the projection whose
        # iterates fix everything; reading a later argument is not
        assert projection_family_iterate(lambda x: x, 1, 3, 4, (5, 6, 7)) == (5, 6, 7)
        assert projection_family_iterate(lambda x: x, 3, 3, 1, (5, 6, 7)) == (7, 7, 7)

    def test_last_argument_closed_form(self):
        g = lambda x: (x + 1) % 5
        assert projection_family_iterate(g, 2, 2, 1, (0, 3)) == (4, 0)

    def test_middle_argument_falls_back_to_engine(self):
        g = lambda x: (x * 2 + 1) % 7
        f = KaryMap(3, lambda s: g(s[1]))
        for n in range(5):
            assert projection_family_iterate(g, 2, 3, n, (1, 2, 3)) == iterate(
                f, (1, 2, 3), n
            )

    def test_closed_forms_match_engine(self):
        g = lambda x: (x + 2) % 7
        for j, k in [(1, 3), (3, 3), (1, 2), (2, 2)]:
            f = KaryMap(k, lambda s, j=j: g(s[j - 1]))
            s = tuple(range(k))
            for n in range(5):
                assert projection_family_iterate(g, j, k, n, s) == iterate(f, s, n)


class TestRootsOfUnityChecks:
    def setup_method(self):
        self.fld = CyclotomicField(3)
        self.pts = [
            self.fld.coerce(0),
            self.fld.coerce(1),
            self.fld.coerce(-1),
            self.fld.zeta(),
            self.fld.one() + self.fld.zeta(),
        ]

    def test_induced_triple_application_returns_argument(self):
        for x1 in self.pts:
            for x2 in self.pts:
                s = (x1, x2)
                assert linear_roots_checks(3, "induced-1", 3, s) == (x1, x2)
                assert linear_roots_checks(3, "induced-2", 3, s) == (x1, x2)

    def test_induced_matches_stepping(self):
        a, b = self.fld.zeta(), self.fld.zeta(2)
        for x1 in self.pts[:3]:
            for x2 in self.pts[:3]:
                v = x1
                for c in range(1, 7):
                    v = a * v + b * x2
                    assert linear_roots_checks(3, "induced-1", c, (x1, x2))[0] == v

    def test_full_first_step_by_hand(self):
        one, z = self.fld.one(), self.fld.zeta()
        x1, x2 = one + z, self.fld.coerce(2)
        expected = (z * x1 + z**2 * x2, x1 + 2 * z * x2)
        assert linear_roots_checks(3, "full", 1, (x1, x2)) == expected

    def test_full_matches_engine_on_random_points(self):
        rng = random.Random(23)
        f = roots_map_spec().as_kary_map()
        for _ in range(50):
            s = tuple(
                self.fld.coerce(rand_fraction(rng)) + self.fld.zeta() * rng.randint(-3, 3)
                for _ in range(2)
            )
            n = rng.randint(0, 12)
            assert linear_roots_checks(3, "full", n, s) == iterate(f, s, n)

    def test_product_form_is_specific_to_order_three(self):
        # for fourth roots with the conjugate coefficient the displayed
        # product form no longer tracks the engine
        fld = CyclotomicField(4)
        f = roots_map_spec(4, 3).as_kary_map()
        s = (fld.one(), fld.one())
        assert linear_roots_checks(4, "full", 1, s, b_power=3) != iterate(f, s, 1)

    def test_asymmetry_witness(self):
        f = roots_map_spec().as_kary_map()
        one, zero = self.fld.one(), self.fld.zero()
        assert f.apply((one, zero)) != f.apply((zero, one))

    def test_degenerate_coefficients_rejected(self):
        with pytest.raises(ValueError):
            linear_roots_checks(1, "induced-1", 1, (self.pts[0], self.pts[1]))
        with pytest.raises(ValueError):
            linear_roots_checks(3, "induced-1", 1, self.pts[:2], b_power=3)
        with pytest.raises(ValueError):
            linear_roots_checks(3, "induced-1", 1, self.pts[:2], b_power=1)


class TestDecreasingInvolutionDemo:
    def test_single_point(self):
        r = decreasing_involution_residuals(1, 1.0, 2.0)
        e = math.e
        assert abs(math.log((e + 1) / (e - 1)) - 0.77194) < 1e-5
        assert r.max_involution_residual < 1e-12

    def test_residuals_below_tolerance(self):
        r = decreasing_involution_residuals(100, 0.1, 10.0)
        assert r.max_involution_residual < 1e-9
        assert r.max_conjugacy_residual < 1e-9

    def test_fixed_point(self):
        r = decreasing_involution_residuals(10, 0.5, 2.0)
        assert r.fixed_point_residual < 1e-12
        # independent description of the symmetric point: exp(x) = 1 + sqrt(2)
        assert abs(r.fixed_point - math.log(1.0 + math.sqrt(2.0))) < 1e-12

    def test_domain_validation(self):
        with pytest.raises(ValueError):
            decreasing_involution_residuals(10, -1.0, 2.0)
        with pytest.raises(ValueError):
            decreasing_involution_residuals(0, 0.1, 1.0)
