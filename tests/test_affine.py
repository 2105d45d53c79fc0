"""Exact affine analysis: matrix first iterates, closed forms, the
floating-point conjugacy demo."""

import functools
import math
import random
import re
import sys
import threading
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
from iterk.exactnum import (
    CyclotomicField,
    CyclotomicNumber,
    RationalField,
    _root_orders_lcm,
    cyclotomic_polynomial,
)
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


EXACT_FIELDS = (RationalField(),) + tuple(CyclotomicField(n) for n in (3, 4, 5, 6, 8, 12))


@functools.lru_cache(maxsize=None)
def universal_exponent(n, k):
    """The lcm of every d with phi(lcm(n, d)) <= k*phi(n), trying every d up
    to 2*(k*phi(n))**2, past which phi(d) alone is larger."""
    def phi(m):
        out, p = m, 2
        while p * p <= m:
            if m % p == 0:
                out -= out // p
                while m % p == 0:
                    m //= p
            p += 1
        return out - out // m if m > 1 else out
    cap = k * phi(n)
    return math.lcm(*(d for d in range(1, 2 * cap * cap + 1) if phi(math.lcm(n, d)) <= cap))


def scan_order(it, steps):
    """The least n <= steps with the pair's n-th power the identity pair,
    one product per step."""
    pair = power = it._square(0)
    zero = [0] * len(pair.offset[0])
    ident = [[[int(i == j)] + zero[1:] for j in range(it.arity)] for i in range(it.arity)]
    for n in range(1, steps + 1):
        if power.den == 1 and power.matrix == ident and all(x == zero for x in power.offset):
            return n
        power = pair.after(power)
    return None


def unit_root_spec(rng, fld, k, repeat):
    """The map whose one-term shift has as characteristic polynomial a
    product of factors x - r, r a root of unity in the field, and cyclotomic
    polynomials, so every eigenvalue is a root of unity.  With ``repeat``
    (k >= 2) one x - r comes twice: a Jordan block and no finite order,
    unless the constant or another factor makes the scan say else."""
    order = getattr(fld, "order", 1)
    roots = [fld.zeta(j) * s for j in range(order) for s in (1, -1)] if order > 1 else [1, -1]
    factors = [[-fld.coerce(rng.choice(roots)), fld.one()]] * (2 if repeat else 0)
    while (room := k + len(factors) - sum(map(len, factors))) > 0:
        cyclo = [d for d in (3, 4, 5, 6, 8, 10, 12) if cyclotomic_polynomial(d).degree <= room]
        if cyclo and rng.random() < 0.4:
            factors.append([fld.coerce(c) for c in cyclotomic_polynomial(rng.choice(cyclo)).coefficients])
        else:
            factors.append([-fld.coerce(rng.choice(roots)), fld.one()])
    poly = [fld.one()]
    for f in factors:
        prod = [fld.zero()] * (len(poly) + len(f) - 1)
        for i, x in enumerate(poly):
            for j, y in enumerate(f):
                prod[i + j] = prod[i + j] + x * y
        poly = prod
    # poly is x^k - a_k x^(k-1) - ... - a_1
    constant = rng.choice((fld.zero(), fld.one(), fld.coerce(Fraction(1, 2))))
    return AffineMapSpec(k, tuple(-c for c in poly[:k]), constant, fld)


class TestExactOrder:
    """The decided order against a scan of at least L steps, L the lcm of
    every possible eigenvalue order; pytest.fail keeps it under python -O."""

    @pytest.mark.parametrize("fld", EXACT_FIELDS, ids=str)
    def test_decision_matches_a_scan_past_the_universal_exponent(self, fld):
        rng = random.Random(f"exact orders {fld}")
        tops = 4 if isinstance(fld, RationalField) else 3
        cases = []
        for t in range(60):
            k = 1 + t % tops
            kind = ("unit", "roots", "repeated", "conjugated", "dense")[t % 5]
            if kind == "unit":
                it = build_first_iterate(random_spec(rng, fld, k, unit=True))
            elif kind == "roots":
                it = build_first_iterate(unit_root_spec(rng, fld, k, False))
            elif kind == "repeated":
                it = build_first_iterate(unit_root_spec(rng, fld, max(k, 2), True))
            elif kind == "conjugated":
                it = conjugated_sum_map(rng, fld, k)
            else:
                it = build_first_iterate(random_spec(rng, fld, k))
            cases.append((kind, it))
        found, wrong = {}, []
        for kind, it in cases:
            steps = universal_exponent(getattr(fld, "order", 1), it.arity)
            got, want = affine_involutory_order(it, None), scan_order(it, steps)
            if got != want:
                wrong.append(f"{kind} {it.matrix} {it.offset}: {got} != scan {want}")
            for bound in (1, 2, 5, 12):
                if affine_involutory_order(it, bound) != (want if want and want <= bound else None):
                    wrong.append(f"{kind} {it.matrix} at bound {bound}")
            found.setdefault(kind, []).append(want)
        if wrong:
            pytest.fail("\n".join(wrong[:5]))
        # finite orders, and maps that meet the coefficient conditions with
        # no finite order, both turn up
        finite = [n for ns in found.values() for n in ns if n]
        if len(finite) < 20 or None in found["conjugated"] or None not in found["repeated"]:
            pytest.fail(f"too few cases of each kind: {found}")

    @pytest.mark.parametrize("body", [
        "3/2*x1",  # the trace is not an algebraic integer
        "(1 + zeta(4))*x1",  # |a_1| = sqrt 2
        "zeta(3)*x1 + 1/2*x2",  # a_2 is not an algebraic integer
        "2*x1 + x2",  # a_1 is not a root of unity
        "x1 + 3*x2",  # |a_2| > C(2, 1)
        "x1 + x2 + x10",
        # the shift's characteristic polynomial is (x^6 - 3x^3 + 1)(x - 1)^m:
        # a root of unity times r, r^3 = (3 + sqrt 5)/2, and the traces of
        # the 2^j-th powers, j >= 0, are those of roots of unity
        "x1 - x2 - 3*x4 + 3*x5 + x7",
        "-x1 + 10*x2 - 45*x3 + 123*x4 - 240*x5 + 387*x6 - 571*x7 + 760*x8 - 846*x9"
        " + 760*x10 - 571*x11 + 387*x12 - 240*x13 + 123*x14 - 45*x15 + 10*x16",
    ])
    def test_no_finite_order_forms_no_square(self, body):
        k = max(int(x) for x in re.findall(r"x(\d+)", body))
        xs = ",".join(f"x{i}" for i in range(1, k + 1))
        it = build_first_iterate(to_affine(parse_map_def(f"f({xs}) = {body}")))
        if affine_involutory_order(it, None) is not None or len(it._squares) != 1:
            pytest.fail(f"{body}: squares were formed, or an order was found")

    def test_powers_stop_at_the_orders_found(self):
        # 1 - x1 - ... - x24 has order 25: its eigenvalues' orders divide 25,
        # so pair**25 needs 5 kept squares, where the 38 bits of L(1, 24) need 38
        xs = [f"x{i}" for i in range(1, 25)]
        it = build_first_iterate(to_affine(parse_map_def(f"f({','.join(xs)}) = 1 - {' - '.join(xs)}")))
        assert affine_involutory_order(it, None) == 25 and len(it._squares) <= 5

    def test_universal_exponents(self):
        for (n, k), want in {(64, 2): 384, (1, 6): 2520, (64, 4): 3840, (1, 10): 55440}.items():
            if universal_exponent(n, k) != want or _root_orders_lcm(n, k) != want:
                pytest.fail(f"L at {(n, k)} is not {want}")


SQUARES_FIELDS = (RationalField(),) + tuple(CyclotomicField(n) for n in (3, 4, 8))
SQUARES_TOP = 1000


@functools.cache
def squares_cases(fld):
    """Maps whose numbers stay small at every n <= SQUARES_TOP, k <= 4: a
    monomial map and A - sum(x), of order k + 1, each with a state and its
    engine orbit up to SQUARES_TOP."""
    rng = random.Random(f"squares {fld}")
    cases = []
    for k in range(1, 5):
        for spec in (
            monomial_spec(rng, fld, k),
            AffineMapSpec(k, (-fld.one(),) * k, random_element(rng, fld), fld),
        ):
            f, state = spec.as_kary_map(), tuple(random_element(rng, fld) for _ in range(k))
            orbit = [state]
            for _ in range(SQUARES_TOP):
                orbit.append(first_iterate(f, orbit[-1]))
            cases.append((spec, state, orbit))
    return cases


class TestKeptSquares:
    """The powers pair**(2**j) kept on a first iterate serve every later
    call, in any order of n and from several threads.  These checks fail
    through pytest.fail, so they hold under python -O too."""

    @pytest.mark.parametrize("fld", SQUARES_FIELDS, ids=str)
    def test_any_call_order_matches_a_fresh_iterate_and_the_engine(self, fld):
        rng = random.Random(f"call order {fld}")
        for spec, state, orbit in squares_cases(fld):
            it = build_first_iterate(spec)
            descending = list(range(SQUARES_TOP, -1, -1))
            repeats = [n for n in rng.sample(descending, 30) for _ in range(3)]
            shuffled = rng.sample(descending, 100)
            # a fresh first iterate squares from scratch: slow, so sampled
            fresh_ns = set(rng.sample(descending, 50) + repeats[:30])
            for n in descending + repeats + shuffled:
                got = affine_iterate(it, state, n)
                if got != orbit[n]:
                    pytest.fail(f"n={n}: {got} != engine {orbit[n]}")
                if n in fresh_ns:
                    want = affine_iterate(build_first_iterate(spec), state, n)
                    if got != want or list(map(type, got)) != list(map(type, want)):
                        pytest.fail(f"n={n}: {got} != fresh {want}")

    @pytest.mark.parametrize("fld", SQUARES_FIELDS, ids=str)
    def test_used_and_fresh_iterates_compare_equal(self, fld):
        for spec, state, _ in squares_cases(fld):
            it, fresh = build_first_iterate(spec), build_first_iterate(spec)
            affine_iterate(it, state, SQUARES_TOP)
            if len(it._squares) <= len(fresh._squares):
                pytest.fail("no powers were kept")
            if not (it == fresh and fresh == it):
                pytest.fail(f"{it!r} != {fresh!r}")
            if hash(it) != hash(fresh) or repr(it) != repr(fresh):
                pytest.fail(f"hash or repr of {it!r} changed once used")

    @pytest.mark.parametrize("fld", SQUARES_FIELDS, ids=str)
    def test_four_threads_share_one_iterate(self, fld):
        for spec, state, orbit in squares_cases(fld):
            # the threads' n differ, and each thread starts past 2**9, so
            # all four extend the kept powers at once
            ns = [[SQUARES_TOP - t - 4 * i for i in range(12)] for t in range(4)]
            it, results, errors = build_first_iterate(spec), [{} for _ in ns], []
            barrier = threading.Barrier(len(ns))

            def work(t):
                try:
                    barrier.wait()
                    for n in ns[t]:
                        results[t][n] = affine_iterate(it, state, n)
                except BaseException as exc:  # reported below, not lost in the thread
                    errors.append(exc)

            threads = [threading.Thread(target=work, args=(t,)) for t in range(len(ns))]
            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-6)  # switch threads often, inside each squaring
            try:
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60)
            finally:
                sys.setswitchinterval(interval)
            if errors or any(thread.is_alive() for thread in threads):
                pytest.fail(f"threads raised {errors} or did not finish")
            serial = build_first_iterate(spec)
            for t, got in enumerate(results):
                for n in ns[t]:
                    want = affine_iterate(serial, state, n)
                    if not got.get(n) == want == orbit[n]:
                        pytest.fail(f"thread {t}, n={n}: {got.get(n)} != serial {want}")


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

    @pytest.mark.parametrize(
        "j, k", [(j, k) for k in range(1, 6) for j in range(1, k + 1)]
    )
    def test_lag_rule_matches_engine(self, j, k):
        # g is not a permutation (0 and 6 both go to 1), so no branch can
        # lean on an inverse; the lag rule calls it at most n*k + k times
        calls = []

        def g(x):
            calls.append(x)
            return (x * x + 1) % 7

        f = KaryMap(k, lambda s: g(s[j - 1]))
        s = tuple(range(2, k + 2))
        for n in range(7):
            want = iterate(f, s, n)
            calls.clear()
            assert projection_family_iterate(g, j, k, n, s) == want
            assert len(calls) <= n * k + k


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
