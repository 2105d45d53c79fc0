"""Engine semantics: the componentwise recursion, iteration rules, orbits."""

import random
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from iterk.affine import AffineMapSpec
from iterk.engine import (
    KaryMap,
    first_iterate,
    induced_self_map,
    iterate,
    orbit,
    point_involutory_order,
)
from iterk.errors import ArityError
from iterk.exactnum import CyclotomicField
from iterk.tables import FiniteTable

ADD_MOD3 = FiniteTable.from_values(3, 2, [0, 1, 2, 1, 2, 0, 2, 0, 1])


def pair_sum() -> KaryMap:
    return KaryMap(2, lambda s: s[0] + s[1], name="pair-sum")


def first_projection(k: int) -> KaryMap:
    return KaryMap(k, lambda s: s[0], name="first-projection")


def recurrence_terms(fn, seed, count):
    # independent oracle: run the recurrence itself, term by term
    terms = list(seed)
    k = len(seed)
    while len(terms) < count:
        terms.append(fn(tuple(terms[-k:])))
    return terms


class TestFirstIterate:
    def test_pair_sum_by_hand(self):
        # component 1 is f(1,1) = 2; component 2 is f(1, 2) = 3
        assert first_iterate(pair_sum(), (1, 1)) == (2, 3)

    def test_first_projection_fixes_every_state(self):
        for s in [(1,), (1, 2), (5, 6, 7), ("a", "b")]:
            assert first_iterate(first_projection(len(s)), s) == s

    def test_mod3_table(self):
        assert first_iterate(ADD_MOD3.as_map(), (0, 1)) == (1, 2)

    def test_arity_mismatch_rejected(self):
        with pytest.raises(ArityError):
            first_iterate(pair_sum(), (1, 2, 3))

    def test_component_j_consumes_trailing_inputs_then_feedback(self):
        calls = []

        def probe(args):
            calls.append(args)
            return sum(args)

        out = first_iterate(KaryMap(3, probe), (10, 20, 30))
        assert calls == [
            (10, 20, 30),
            (20, 30, out[0]),
            (30, out[0], out[1]),
        ]

    def test_arity_one_degenerates_to_ordinary_iteration(self):
        f = KaryMap(1, lambda s: 2 * s[0] + 1)
        assert first_iterate(f, (3,)) == (7,)
        x = 3
        for _ in range(6):
            x = 2 * x + 1
        assert iterate(f, (3,), 6) == (x,)


class TestIterate:
    def test_pair_sum_window(self):
        terms = recurrence_terms(lambda s: s[0] + s[1], (1, 1), 12)
        assert terms[10:12] == [89, 144]
        assert iterate(pair_sum(), (1, 1), 5) == (89, 144)

    def test_zero_iterations_is_identity(self):
        assert iterate(pair_sum(), (4, 9), 0) == (4, 9)

    def test_negated_sum_cycles_with_period_three(self):
        f = KaryMap(2, lambda s: -s[0] - s[1])
        assert iterate(f, (1, 2), 3) == (1, 2)

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            iterate(pair_sum(), (1, 1), -1)


class TestOrbit:
    def test_mod3_four_cycle(self):
        orb = orbit(ADD_MOD3.as_map(), (0, 1), 10)
        assert orb.recurred
        assert orb.states == ((0, 1), (1, 2), (0, 2), (2, 1))

    def test_projection_orbit_is_trivial(self):
        orb = orbit(first_projection(2), (3, 4), 10)
        assert orb.states == ((3, 4),) and orb.recurred

    def test_growing_orbit_never_recurs(self):
        expected = []
        terms = recurrence_terms(lambda s: s[0] + s[1], (1, 1), 8)
        for n in range(4):
            expected.append(tuple(terms[2 * n : 2 * n + 2]))
        orb = orbit(pair_sum(), (1, 1), 4)
        assert list(orb.states) == expected and not orb.recurred


class TestPointInvolutoryOrder:
    def test_mod3_orders(self):
        f = ADD_MOD3.as_map()
        assert point_involutory_order(f, (0, 1), 10) == 4
        assert point_involutory_order(f, (0, 0), 10) == 1

    def test_growing_orbit_has_no_order(self):
        # oracle: the recurrence is strictly increasing from (1, 1)
        terms = recurrence_terms(lambda s: s[0] + s[1], (1, 1), 44)
        assert all(a < b for a, b in zip(terms[2:], terms[3:]))
        assert point_involutory_order(pair_sum(), (1, 1), 20) is None


def loop_orbit(f, state, max_steps):
    # reference: orbit as its own loop, apart from point_involutory_order
    state = tuple(state)
    states = [state]
    current = state
    for _ in range(max_steps):
        current = first_iterate(f, current)
        if current == state:
            return tuple(states), True
        if len(states) == max_steps:
            break
        states.append(current)
    return tuple(states), False


def loop_point_order(f, state, bound):
    # reference: point_involutory_order as its own loop
    state = tuple(state)
    current = state
    for n in range(1, bound + 1):
        current = first_iterate(f, current)
        if current == state:
            return n
    return None


def walk_cases():
    # (map, state) pairs on random tables and on rational affine maps with
    # coefficients in {-1, 0, 1}, many of them of finite order
    rng = random.Random(29)
    for _ in range(40):
        m, k = rng.randint(1, 4), rng.randint(1, 3)
        t = FiniteTable.from_values(m, k, [rng.randrange(m) for _ in range(m**k)])
        yield t.as_map(), tuple(rng.randrange(m) for _ in range(k))
    for _ in range(40):
        k = rng.randint(1, 4)
        spec = AffineMapSpec.rational(
            [rng.choice((-1, 0, 1)) for _ in range(k)], Fraction(rng.randint(-3, 3), 2)
        )
        yield spec.as_kary_map(), tuple(Fraction(rng.randint(-5, 5), 3) for _ in range(k))


class TestFirstReturnWalk:
    def test_orbit_and_order_match_their_own_loops(self):
        for f, s in walk_cases():
            # the cycle length through s, or a stand-in when no cycle passes through it
            length = loop_point_order(f, s, 100) or 6
            for bound in {max(1, length - 1), length, length + 1}:
                orb = orbit(f, s, bound)
                assert (orb.states, orb.recurred) == loop_orbit(f, s, bound)
                assert point_involutory_order(f, s, bound) == loop_point_order(f, s, bound)

    def test_order_keeps_no_list_of_states(self):
        f = KaryMap(1, lambda s: s[0] + 1)
        tracemalloc.start()
        try:
            assert point_involutory_order(f, (0,), 10**5) is None
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20


class TestInducedSelfMap:
    def test_mod3_column_cycle(self):
        g = induced_self_map(ADD_MOD3.as_map(), 1, (2,))
        assert (g(2), g(1), g(0)) == (1, 0, 2)
        assert all(g(g(g(x))) == x for x in range(3))

    def test_pair_sum_with_zero_context_is_identity(self):
        g = induced_self_map(pair_sum(), 2, (Fraction(0),))
        for x in (Fraction(3, 7), Fraction(-2), Fraction(0)):
            assert g(x) == x

    def test_root_coefficients_cycle_in_three(self):
        fld = CyclotomicField(3)
        a, b = fld.zeta(), fld.zeta(2)
        f = KaryMap(2, lambda s: a * s[0] + b * s[1])
        x2 = fld.coerce(Fraction(5, 3)) + fld.zeta()
        g = induced_self_map(f, 1, (x2,))
        for x1 in (fld.one(), fld.zeta(), fld.coerce(-2)):
            assert g(g(g(x1))) == x1

    def test_position_validation(self):
        with pytest.raises(ArityError):
            induced_self_map(pair_sum(), 3, (1,))
        with pytest.raises(ArityError):
            induced_self_map(pair_sum(), 1, (1, 2))


@st.composite
def table_and_state(draw):
    m = draw(st.integers(2, 4))
    k = draw(st.integers(1, 3))
    entries = draw(
        st.lists(st.integers(0, m - 1), min_size=m**k, max_size=m**k)
    )
    state = tuple(draw(st.lists(st.integers(0, m - 1), min_size=k, max_size=k)))
    return FiniteTable.from_values(m, k, entries), state


class TestIterationRules:
    @settings(max_examples=60, deadline=None)
    @given(table_and_state(), st.integers(0, 4), st.integers(0, 4))
    def test_addition_rule(self, ts, a, b):
        t, s = ts
        f = t.as_map()
        assert iterate(f, iterate(f, s, b), a) == iterate(f, s, a + b)

    @settings(max_examples=60, deadline=None)
    @given(table_and_state(), st.integers(0, 3), st.integers(0, 3))
    def test_multiplication_rule(self, ts, a, b):
        t, s = ts
        f = t.as_map()
        state = s
        for _ in range(b):
            state = iterate(f, state, a)
        assert state == iterate(f, s, a * b)
