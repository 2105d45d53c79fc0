"""Exact arithmetic: cyclotomic polynomials, field laws, Fibonacci numbers."""

import copy
import math
import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from iterk.errors import BudgetError, ParseError
from iterk.exactnum import (
    MAX_ROOT_ORDER,
    CyclotomicField,
    CyclotomicNumber,
    RationalField,
    cyclotomic_polynomial,
    fibonacci,
    join_fields,
)
from iterk.parser import parse_cyclo


def euler_phi(n: int) -> int:
    # independent oracle: count residues coprime to n
    return sum(1 for i in range(1, n + 1) if math.gcd(i, n) == 1)


def poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


class TestCyclotomicPolynomial:
    def test_small_orders(self):
        assert cyclotomic_polynomial(1).coefficients == (-1, 1)
        assert cyclotomic_polynomial(2).coefficients == (1, 1)
        assert cyclotomic_polynomial(3).coefficients == (1, 1, 1)
        assert cyclotomic_polynomial(4).coefficients == (1, 0, 1)
        assert cyclotomic_polynomial(6).coefficients == (1, -1, 1)
        assert cyclotomic_polynomial(12).coefficients == (1, 0, -1, 0, 1)

    def test_degree_is_euler_phi(self):
        for n in range(1, 65):
            assert cyclotomic_polynomial(n).degree == euler_phi(n)

    def test_product_over_divisors_gives_x_to_n_minus_1(self):
        for n in range(1, MAX_ROOT_ORDER + 1):
            prod = [1]
            for d in range(1, n + 1):
                if n % d == 0:
                    prod = poly_mul(prod, list(cyclotomic_polynomial(d).coefficients))
            expected = [0] * (n + 1)
            expected[0], expected[n] = -1, 1
            assert prod == expected

    def test_order_bound(self):
        with pytest.raises(BudgetError):
            cyclotomic_polynomial(65)
        with pytest.raises(ValueError):
            cyclotomic_polynomial(0)


class TestRootsOfUnity:
    def test_forced_identities_order_three(self):
        z = CyclotomicNumber.zeta(3)
        assert z + z**2 == -1
        assert z * z * z == 1

    def test_inverse_cancels(self):
        z = CyclotomicNumber.zeta(3)
        one = CyclotomicNumber.one(3)
        assert (one - z).inverse() * (one - z) == one

    def test_subtraction_is_coefficientwise(self):
        z = CyclotomicNumber.zeta(12)
        c = (z**5 + 3) / 3 + Fraction(2, 7)
        d = 5 * (z**7 - 2) / 2
        head, tail = c.coeffs[0], c.coeffs[1:]
        for got, want in [
            (c - d, [a - b for a, b in zip(c.coeffs, d.coeffs)]),
            (d - c, [b - a for a, b in zip(c.coeffs, d.coeffs)]),
            (c - 1, [head - 1, *tail]),
            (1 - c, [1 - head, *(-a for a in tail)]),
            (Fraction(1, 3) - c, [Fraction(1, 3) - head, *(-a for a in tail)]),
            (c + 1, [head + 1, *tail]),
            (1 + c, [head + 1, *tail]),
            (Fraction(2, 5) + c, [head + Fraction(2, 5), *tail]),
        ]:
            assert got.order == 12 and list(got.coeffs) == want
            assert all(type(a) is Fraction for a in got.coeffs)

    def test_primitive_root_order_is_exact(self):
        for n in range(1, 13):
            z = CyclotomicNumber.zeta(n)
            assert z**n == 1
            for d in range(1, n):
                assert z**d != 1

    def test_mixed_orders_need_embedding(self):
        z3, z4 = CyclotomicNumber.zeta(3), CyclotomicNumber.zeta(4)
        with pytest.raises(ValueError):
            z3 + z4
        assert z3.embed(12) == CyclotomicNumber.zeta(12, 4)
        assert z3.embed(12) * z4.embed(12) == CyclotomicNumber.zeta(12, 7)

    def test_zero_inverse_rejected(self):
        with pytest.raises(ZeroDivisionError):
            CyclotomicNumber.zero(5).inverse()

    def test_equals_requires_shared_order(self):
        z3, z6 = CyclotomicNumber.zeta(3), CyclotomicNumber.zeta(6)
        with pytest.raises(ValueError):
            z3.equals(z6)
        assert z3.equals(CyclotomicNumber.zeta(3))

    @pytest.mark.parametrize("value, orders", [(1, (3, 6)), (Fraction(-3, 2), (4, 12))])
    def test_rational_values_are_equal_across_orders(self, value, orders):
        a, b = (CyclotomicField(n).coerce(value) for n in orders)
        if not (a == b and b == a and a == value and hash(a) == hash(b) == hash(value)):
            pytest.fail(f"{a!r} and {b!r} at orders {orders} differ from {value!r}")

    def test_equality_is_transitive_through_the_rationals(self):
        ones = {CyclotomicField(3).one(), CyclotomicField(6).one(), Fraction(1), 1}
        if len(ones) != 1:
            pytest.fail(f"one is {len(ones)} distinct values: {ones!r}")

    def test_non_rational_values_of_different_orders_are_unequal(self):
        # embed to compare: zeta(3) is zeta(6)**2, but only once both share an order
        z3 = CyclotomicNumber.zeta(3)
        if z3 == CyclotomicNumber.zeta(6, 2) or z3 == CyclotomicNumber.zeta(6):
            pytest.fail("values of different root orders compared equal")
        if z3.embed(6) != CyclotomicNumber.zeta(6, 2):
            pytest.fail("embedded values differ")


def cyclo_values(order):
    coeff = st.fractions(
        min_value=-4, max_value=4, max_denominator=6
    )
    deg = cyclotomic_polynomial(order).degree
    return st.lists(coeff, min_size=deg, max_size=deg).map(
        lambda cs: CyclotomicNumber(order, tuple(Fraction(c) for c in cs))
    )


@st.composite
def cyclo_triples(draw):
    order = draw(st.sampled_from([3, 4, 5, 6, 8, 12]))
    vals = cyclo_values(order)
    return draw(vals), draw(vals), draw(vals)


def reference_residue(order, coeffs):
    """The residue by long division by the monic integer cyclotomic polynomial."""
    phi = cyclotomic_polynomial(order).coefficients
    d = len(phi) - 1
    r = [Fraction(c) for c in coeffs] + [Fraction(0)] * d
    for i in range(len(r) - 1, d - 1, -1):
        q = r[i]
        if q:
            for j in range(d + 1):
                r[i - d + j] -= q * phi[j]
    return tuple(r[:d])


def reference_product(a, b):
    return CyclotomicNumber(a.order, reference_residue(a.order, poly_mul(a.coeffs, b.coeffs)))


def max_bits(x):
    # the largest numerator or denominator bit length, as the benchmark counts it
    return max(max(abs(c.numerator).bit_length(), c.denominator.bit_length()) for c in x.coeffs)


def assert_canonical_form(x):
    # the stored form: phi(N) integer numerators over one positive denominator, gcd 1
    assert len(x.nums) == euler_phi(x.order)
    assert all(type(c) is int for c in x.nums) and type(x.den) is int
    assert x.den > 0 and math.gcd(x.den, *x.nums) == 1
    assert len(x.coeffs) == euler_phi(x.order)
    for c in x.coeffs:
        assert type(c) is Fraction
        assert c.denominator > 0 and math.gcd(c.numerator, c.denominator) == 1


def assert_canonical(x, reference):
    assert_canonical_form(x)
    assert x.coeffs == reference.coeffs
    assert x == reference and hash(x) == hash(reference)
    assert x.render() == reference.render()
    assert max_bits(x) == max_bits(reference)


def random_element(rng, order, bits=8, max_den=12):
    span = 1 << bits
    coeffs = tuple(
        Fraction(rng.randint(-span, span), rng.randint(1, max_den))
        for _ in range(euler_phi(order))
    )
    return CyclotomicNumber(order, coeffs)


def operand_pairs(rng, order):
    """Random pairs plus zero, rational-only, huge and embedded operands."""
    zero = CyclotomicNumber.zero(order)
    rational = CyclotomicNumber.from_rational(Fraction(-7, 3), order)
    # numerators past 200 bits over a shared 206-bit factor, as matrix powers make them
    wide = random_element(rng, order, bits=220)
    huge = CyclotomicNumber(order, tuple(c / 3**130 for c in wide.coeffs))
    divisors = [d for d in range(1, order + 1) if order % d == 0]
    embedded = random_element(rng, rng.choice(divisors)).embed(order)
    pairs = [(random_element(rng, order), random_element(rng, order)) for _ in range(2)]
    pairs += [(zero, random_element(rng, order)), (random_element(rng, order), zero)]
    pairs += [(rational, random_element(rng, order)), (rational, rational)]
    pairs += [(huge, random_element(rng, order)), (huge, huge)]
    pairs += [(embedded, random_element(rng, order)), (embedded, embedded)]
    return pairs


class TestIntegerArithmeticMatchesFractionReference:
    @pytest.mark.parametrize("order", range(1, MAX_ROOT_ORDER + 1))
    def test_products(self, order):
        pairs = operand_pairs(random.Random(order), order)
        assert max(max_bits(a) for a, _ in pairs) > 200
        for a, b in pairs:
            assert_canonical(a * b, reference_product(a, b))

    @pytest.mark.parametrize("order", range(1, MAX_ROOT_ORDER + 1))
    def test_zeta_embed_and_inverse(self, order):
        rng = random.Random(1000 + order)
        for p in range(-order - 1, 2 * order + 1):
            monomial = [0] * (p % order) + [1]
            assert_canonical(
                CyclotomicNumber.zeta(order, p),
                CyclotomicNumber(order, reference_residue(order, monomial)),
            )
        for d in range(1, order + 1):
            if order % d:
                continue
            x = random_element(rng, d)
            step = order // d
            spread = [Fraction(0)] * (len(x.coeffs) * step)
            spread[::step] = x.coeffs
            assert_canonical(
                x.embed(order), CyclotomicNumber(order, reference_residue(order, spread))
            )
        z = CyclotomicNumber.zeta(order)
        dense = random_element(rng, order, bits=2, max_den=3) + z**3
        for x in [z, z**3 / 3 - 2 * z + 1, dense]:
            if x.is_zero():
                continue
            # an inverse in a field is unique, so the product check is complete
            inv = x.inverse()
            assert_canonical_form(inv)
            assert reference_product(x, inv) == 1


def reference_mul(order, a, b):
    return reference_residue(order, poly_mul(list(a), list(b)))


def reference_pow(order, a, e):
    acc = (Fraction(1),) + (Fraction(0),) * (euler_phi(order) - 1)
    for _ in range(e):
        acc = reference_mul(order, acc, a)
    return acc


def rational(order, q):
    return (Fraction(q),) + (Fraction(0),) * (euler_phi(order) - 1)


def assert_stored(x, coeffs):
    """``x`` is canonical, holds the Fraction-coefficient reference, and a
    rational value equals and hashes like its Fraction and int."""
    assert_canonical_form(x)
    assert x.coeffs == tuple(coeffs)
    rebuilt = CyclotomicNumber(x.order, tuple(coeffs))
    assert x == rebuilt and hash(x) == hash(rebuilt)
    assert (rebuilt.nums, rebuilt.den) == (x.nums, x.den)
    if x.is_rational():
        q = x.rational_value()
        assert x == q and hash(x) == hash(q)
        if q.denominator == 1:
            assert x == int(q) and hash(x) == hash(int(q))
    else:
        assert x != x.coeffs[0]


scalars = st.one_of(
    st.integers(-10**6, 10**6),
    st.fractions(min_value=-10**4, max_value=10**4, max_denominator=10**4),
)


@st.composite
def stored_operands(draw):
    """Two values of one order from :func:`operand_pairs`, an int or Fraction
    scalar, an exponent and a multiple of the order to embed into."""
    order = draw(st.sampled_from([1, 2, 3, 4, 5, 6, 7, 8, 9, 12, 15, 16, 20, 30, 64]))
    pairs = operand_pairs(random.Random(draw(st.integers(0, 2**32))), order)
    a, b = draw(st.sampled_from(pairs))
    target = order * draw(st.integers(1, MAX_ROOT_ORDER // order))
    return a, b, draw(scalars), draw(st.integers(-3, 3)), target


class TestStoredFormMatchesFractionReference:
    @settings(max_examples=60, deadline=None)
    @given(stored_operands())
    def test_operations(self, drawn):
        a, b, s, e, target = drawn
        n, ca, cb = a.order, a.coeffs, b.coeffs
        head, tail = ca[0], ca[1:]
        assert_stored(a + b, [x + y for x, y in zip(ca, cb)])
        assert_stored(a - b, [x - y for x, y in zip(ca, cb)])
        assert_stored(a * b, reference_mul(n, ca, cb))
        for got, want in [
            (a + s, (head + s, *tail)),
            (s + a, (head + s, *tail)),
            (a - s, (head - s, *tail)),
            (s - a, (s - head, *(-x for x in tail))),
            (-a, tuple(-x for x in ca)),
            (a * s, tuple(x * s for x in ca)),
            (s * a, tuple(x * s for x in ca)),
        ]:
            assert_stored(got, want)
        if s:
            assert_stored(a / s, tuple(x / s for x in ca))
        if e >= 0:
            assert_stored(a**e, reference_pow(n, ca, e))
        one = rational(n, 1)
        spread = [Fraction(0)] * (len(ca) * (target // n))
        spread[:: target // n] = ca
        assert_stored(a.embed(target), reference_residue(target, spread))
        if a.is_zero():
            with pytest.raises(ZeroDivisionError):
                a.inverse()
            return
        # an inverse in a field is unique, so a product check is complete
        checks = [(a.inverse(), ca, one), (b / a, ca, cb), (s / a, ca, rational(n, s))]
        if e < 0:
            checks.append((a**e, reference_pow(n, ca, -e), one))
        for got, times, want in checks:
            assert_canonical_form(got)
            assert reference_mul(n, got.coeffs, times) == want


class TestStoredForm:
    def test_constructor_takes_exactly_phi_coordinates(self):
        # with fewer or more than phi(N) coordinates a value has no canonical
        # form: (1,) at order 3 would not equal 1, six at order 5 would render z^5
        for order, coords in [(3, (1,)), (5, (1, 0, 0, 0, 0, 1)), (1, ())]:
            with pytest.raises(ValueError):
                CyclotomicNumber(order, coords)

    def test_constructor_stores_lowest_integer_form(self):
        x = CyclotomicNumber(3, (Fraction(2, 4), 3))
        assert (x.nums, x.den) == ((1, 6), 2)
        assert CyclotomicNumber(3, (1, 0)) == CyclotomicNumber.from_rational(1, 3) == 1
        c = CyclotomicNumber(5, (Fraction(-6, 9), 0, 2, 0))
        assert (c.nums, c.den) == ((-2, 0, 6, 0), 3)
        assert c == c * 1 and c.render() == "2*z^2 - 2/3"
        with pytest.raises(TypeError):
            CyclotomicNumber(3, (0.5, 0))

    def test_values_are_immutable_and_copy(self):
        x = CyclotomicNumber.zeta(7, 3) / 5
        with pytest.raises(AttributeError):
            x.den = 1
        with pytest.raises(AttributeError):
            del x.nums
        assert copy.deepcopy(x) == x and pickle.loads(pickle.dumps(x)) == x


class TestPower:
    def test_powers_match_repeated_products(self):
        x = CyclotomicNumber.zeta(12) + 1
        one = CyclotomicNumber.one(12)
        assert x**0 == one and x**1 == x
        assert x**5 == x * x * x * x * x
        assert x**-3 == (x * x * x).inverse() == x.inverse() ** 3
        assert CyclotomicNumber.zero(12) ** 0 == one

    def test_square_and_multiply_takes_no_extra_product(self, monkeypatch):
        mul = CyclotomicNumber.__mul__
        calls = []

        def counting(a, b):
            calls.append(1)
            return mul(a, b)

        x = CyclotomicNumber.zeta(12) + 1
        want = x
        for _ in range(6):
            want = mul(want, want)
        monkeypatch.setattr(CyclotomicNumber, "__mul__", counting)
        assert x**64 == want
        assert len(calls) == 6
        calls.clear()
        assert x**5 == mul(mul(mul(mul(x, x), x), x), x)
        assert len(calls) == 3


class TestFieldLaws:
    @settings(max_examples=80, deadline=None)
    @given(cyclo_triples())
    def test_associativity_and_distributivity(self, triple):
        a, b, c = triple
        assert (a * b) * c == a * (b * c)
        assert (a + b) + c == a + (b + c)
        assert a * (b + c) == a * b + a * c

    @settings(max_examples=80, deadline=None)
    @given(cyclo_triples())
    def test_inverse_cancellation(self, triple):
        a, _, _ = triple
        if not a.is_zero():
            assert a * a.inverse() == 1

    @settings(max_examples=60, deadline=None)
    @given(cyclo_triples())
    def test_render_parse_round_trip(self, triple):
        a, _, _ = triple
        assert parse_cyclo(a.render(), a.order) == a


class TestRendering:
    def test_canonical_examples(self):
        x = CyclotomicNumber(3, (Fraction(3), Fraction(-1, 2)))
        assert x.render() == "-1/2*z + 3"
        assert parse_cyclo("-1/2*z + 3", 3) == x
        assert CyclotomicNumber.zero(4).render() == "0"
        assert CyclotomicNumber.zeta(4).render() == "z"
        assert (-CyclotomicNumber.zeta(4)).render() == "-z"

    def test_round_trip_at_every_order(self):
        rng = random.Random(13)
        for order in range(1, MAX_ROOT_ORDER + 1):
            values = [random_element(rng, order) for _ in range(3)]
            values += [CyclotomicNumber.zeta(order, p) for p in range(order)]
            values += [CyclotomicNumber.from_rational(q, order) for q in (0, Fraction(-7, 3))]
            for x in values:
                assert parse_cyclo(x.render(), order) == x

    def test_parse_rejects_garbage(self):
        # a malformed value is a ParseError at its line and column
        for text, at in [("z +", (1, 4)), ("1/0", (1, 3)), ("", (1, 1)), ("2 z", (1, 3)),
                         ("1 +\n  z^", (2, 5))]:
            with pytest.raises(ParseError) as err:
                parse_cyclo(text, 3)
            assert (err.value.line, err.value.column) == at

    def test_any_constant_expression_parses(self):
        z = CyclotomicNumber.zeta(3)
        assert parse_cyclo("(1 + z)*z", 3) == (1 + z) * z == -1
        assert parse_cyclo("z ^ 2", 3) == z * z
        z6 = CyclotomicNumber.zeta(6)
        assert parse_cyclo("zeta(3) - z", 6) == z6 * z6 - z6

    def test_a_root_outside_the_field_is_a_parse_error(self):
        with pytest.raises(ParseError) as err:
            parse_cyclo("1 + zeta(5)", 3)
        assert (err.value.line, err.value.column) == (1, 5)


class TestFields:
    def test_join(self):
        q = RationalField()
        f3, f4 = CyclotomicField(3), CyclotomicField(4)
        assert join_fields(q, q) == RationalField()
        assert join_fields(q, f3) == f3
        assert join_fields(f3, f4) == CyclotomicField(12)

    def test_coerce(self):
        f6 = CyclotomicField(6)
        assert f6.coerce(Fraction(1, 2)) == Fraction(1, 2)
        assert f6.coerce(CyclotomicNumber.zeta(3)) == f6.zeta(2)
        assert RationalField().coerce(CyclotomicNumber.one(3)) == 1

    def test_rational_outputs_stay_canonical(self):
        a = Fraction(6, -4)
        assert (a.numerator, a.denominator) == (-3, 2)
        b = RationalField().coerce(4) / 6
        assert (b.numerator, b.denominator) == (2, 3)


class TestFibonacci:
    def test_anchors(self):
        assert fibonacci(0) == 0
        assert fibonacci(1) == 1
        assert fibonacci(11) == 89

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            fibonacci(-1)

    def test_fast_doubling_matches_the_plain_recurrence(self):
        a, b = 0, 1
        for n in range(301):
            assert fibonacci(n) == a
            a, b = b, a + b

    def test_index_addition_law(self):
        for m in range(1, 21):
            for n in range(0, 21):
                assert fibonacci(m + n) == (
                    fibonacci(m) * fibonacci(n + 1)
                    + fibonacci(m - 1) * fibonacci(n)
                )
