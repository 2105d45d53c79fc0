"""Sequence generation, period detection, and the period correspondence."""

import math
import random
import tracemalloc
from fractions import Fraction

import pytest

from iterk.affine import AffineMapSpec
from iterk.engine import KaryMap, first_iterate, iterate
from iterk.errors import ArityError, BudgetError
from iterk.exactnum import CyclotomicField, CyclotomicNumber
from iterk.recurrence import (
    DETECT_BOUND,
    RecurrenceSpec,
    SweepTallies,
    augment,
    augment_table,
    consistency_check,
    cycle_correspondence_report,
    cycle_correspondence_sweep,
    detect_minimal_period,
    generate,
)
from iterk.tables import (
    FiniteTable,
    as_permutation,
    is_symmetric,
    iter_all_tables,
    state_from_index,
)

ADD_MOD3 = FiniteTable.from_values(3, 2, [0, 1, 2, 1, 2, 0, 2, 0, 1])


def pair_sum_spec(seed=(1, 1)):
    f = AffineMapSpec.rational((1, 1)).as_kary_map()
    return RecurrenceSpec(f, tuple(Fraction(x) for x in seed))


def negated_sum_spec(seed=(1, 2)):
    f = AffineMapSpec.rational((-1, -1)).as_kary_map()
    return RecurrenceSpec(f, tuple(Fraction(x) for x in seed))


class TestGenerate:
    def test_pair_sum(self):
        assert generate(pair_sum_spec(), 6) == [1, 1, 2, 3, 5, 8]

    def test_negated_sum_shows_three_cycle(self):
        assert generate(negated_sum_spec(), 7) == [1, 2, -3, 1, 2, -3, 1]

    def test_projection_repeats_the_seed(self):
        f = KaryMap(3, lambda s: s[0])
        assert generate(RecurrenceSpec(f, (4, 5, 6)), 9) == [4, 5, 6] * 3

    def test_count_below_arity_rejected(self):
        with pytest.raises(ValueError):
            generate(pair_sum_spec(), 1)

    def test_seed_arity_checked(self):
        with pytest.raises(ArityError):
            RecurrenceSpec(KaryMap(2, sum), (1, 2, 3))


class TestConsistency:
    def test_pair_sum_window(self):
        spec = pair_sum_spec()
        assert consistency_check(spec, 5)
        assert generate(spec, 12)[10:12] == [89, 144]

    def test_zero_window(self):
        assert consistency_check(pair_sum_spec(), 0)

    def test_every_seed_of_the_mod3_table(self):
        f = ADD_MOD3.as_map()
        for idx in range(9):
            spec = RecurrenceSpec(f, state_from_index(idx, 3, 2))
            for n in range(9):
                assert consistency_check(spec, n)


class TestDetectMinimalPeriod:
    def test_negated_sum(self):
        found = detect_minimal_period(negated_sum_spec())
        assert found.minimal_period == 3
        assert found.preperiod == 0
        assert found.witness_index == 3

    def test_constant_map(self):
        f = KaryMap(2, lambda s: 7)
        found = detect_minimal_period(RecurrenceSpec(f, (1, 2)))
        assert found.minimal_period == 1
        assert found.preperiod <= 2

    def test_growing_sequence_has_no_period(self):
        found = detect_minimal_period(pair_sum_spec(), bound=1000)
        assert found.minimal_period is None

    def test_preperiod_of_an_eventually_periodic_orbit(self):
        # 0, 5, 1, 1, 1, ... : one transient term before the fixed point
        f = KaryMap(1, lambda s: {0: 5, 5: 1, 1: 1}[s[0]])
        found = detect_minimal_period(RecurrenceSpec(f, (0,)))
        assert found.minimal_period == 1 and found.preperiod == 2


def reference_detect(spec, bound):
    # the two-pass search: walk the states under the first iterate, then
    # generate two state periods of terms and scan the divisors
    k = spec.map.arity
    seen, state, step = {}, tuple(spec.seed), 0
    while (step + 1) * k <= bound and state not in seen:
        seen[state] = step
        state = first_iterate(spec.map, state)
        step += 1
    if state not in seen:
        return None, 0, None
    start, full = seen[state] * k, (step - seen[state]) * k
    terms = generate(spec, start + 2 * full)
    j = next(
        d for d in range(1, full + 1)
        if full % d == 0
        and all(terms[start + i] == terms[start + i + d] for i in range(full))
    )
    r = start
    while r > 0 and terms[r - 1] == terms[r - 1 + j]:
        r -= 1
    return j, r, r + j


class TestDetectMatchesTwoPassReference:
    def test_random_table_maps(self):
        rng = random.Random(11)
        for _ in range(400):
            m, k = rng.randint(1, 5), rng.randint(1, 3)
            entries = [rng.randrange(m) for _ in range(m**k)]
            f = FiniteTable.from_values(m, k, entries).as_map()
            spec = RecurrenceSpec(f, tuple(rng.randrange(m) for _ in range(k)))
            # a period is found exactly when its witness index is within the
            # bound: try bounds about the witness and 16 windows past it, one
            # under the arity and random bounds
            want = reference_detect(spec, 10**9)
            witness = want[2]
            bounds = {*near(witness), max(1, k - 1)}
            bounds |= {rng.randint(1, 3 * k * m**k) for _ in range(3)}
            for bound in sorted(bounds):
                assert finding(spec, bound) == expected(*want, bound), (entries, spec.seed, bound)

    def test_rho_maps_across_the_mark_stride(self):
        # 0 -> 1 -> ... -> mu + lam - 1 -> mu: every preperiod and period up to
        # 40, so both fall on either side of every 16th window; a preperiod
        # costs at most 15 map calls past the witness
        for mu in range(41):
            for lam in range(1, 41):
                f, calls = counted(1, rho(list(range(mu + lam)), mu))
                spec = RecurrenceSpec(f, (0,))
                witness = mu + lam
                assert reference_detect(spec, 10**9) == (lam, mu, witness)
                for bound in near(witness):
                    calls[0] = 0
                    assert finding(spec, bound) == expected(lam, mu, witness, bound)
                    assert calls[0] <= min(bound, witness + 15), (mu, lam, bound)

    def test_fraction_and_cyclotomic_terms(self):
        # hashable exact values with no truth value of their own, compared by value
        ring = [CyclotomicNumber.zeta(9, i) + i for i in range(37)]
        fld = CyclotomicField(12)
        cases = [
            (KaryMap(1, rho([Fraction(i, 3) for i in range(37)], 19)), (Fraction(0),)),
            (KaryMap(1, rho(ring, 5)), (ring[0],)),
            (KaryMap(2, lambda s, step=rho(ring, 20): step(s[1:])), (ring[36], ring[3])),
            (AffineMapSpec.rational((-1, -1)).as_kary_map(), (Fraction(1, 2), Fraction(-3, 7))),
            (AffineMapSpec(1, (fld.zeta(),), fld.one(), fld).as_kary_map(), (fld.zero(),)),
            (AffineMapSpec(2, (fld.zeta(5), 0), fld.zeta(), fld).as_kary_map(), (fld.one(), fld.zero())),
            (AffineMapSpec(3, (fld.zeta(3), 0, 0), 0, fld).as_kary_map(), (fld.one(), 0, fld.zeta())),
        ]
        for f, seed in cases:
            spec = RecurrenceSpec(f, seed)
            want = reference_detect(spec, 10**9)
            for bound in near(want[2]):
                assert finding(spec, bound) == expected(*want, bound), (f, seed, bound)

    def test_a_term_equal_only_to_itself(self):
        # windows compare their terms as the same object first, so a nan that
        # is its own image is a fixed point after one transient term
        nan = float("nan")
        spec = RecurrenceSpec(KaryMap(1, lambda s: nan), (0.0,))
        for bound in (1, 2, 17, 40):
            assert finding(spec, bound) == expected(1, 1, 2, bound)

    def test_each_term_applies_the_map_once(self):
        # a(n+2) = 7 a(n) + a(n+1) mod 31 has a primitive characteristic
        # polynomial, so from a nonzero seed the period is 31**2 - 1 = 960
        f, calls = counted(2, lambda s: (7 * s[0] + s[1]) % 31)
        assert finding(RecurrenceSpec(f, (0, 1)), 2000) == (960, 0, 960)
        assert calls[0] == 960

    def test_three_argument_windows_apply_the_map_once_per_term(self):
        # a(n+3) = 2 a(n) + a(n+2) mod 5 has a primitive characteristic
        # polynomial, so from a nonzero seed the period is 5**3 - 1 = 124
        f, calls = counted(3, lambda s: (2 * s[0] + s[2]) % 5)
        assert finding(RecurrenceSpec(f, (0, 0, 1)), DETECT_BOUND) == (124, 0, 124)
        assert calls[0] == 124

    def test_a_sequence_without_period_applies_the_map_bound_times(self):
        f, calls = counted(1, lambda s: s[0] + 1)
        for bound in (1, 15, 16, 17, 1000):
            calls[0] = 0
            assert finding(RecurrenceSpec(f, (0,)), bound) == (None, 0, None)
            assert calls[0] == bound

    def test_a_long_period_keeps_a_small_window_memory(self):
        # a(n+2) = 3 a(n) + a(n+1) mod 317 has period 317**2 - 1 = 100,488;
        # remembering every window took 10.6 MiB
        spec = RecurrenceSpec(KaryMap(2, lambda s: (3 * s[0] + s[1]) % 317), (0, 1))
        tracemalloc.start()
        try:
            found = finding(spec, 2 * (317**2 + 1))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert found == (100_488, 0, 100_488)
        assert peak < 4 * 2**20


def counted(k, fn):
    """A k-argument map counting its applications in ``calls[0]``."""
    calls = [0]

    def counting(s):
        calls[0] += 1
        return fn(s)

    return KaryMap(k, counting), calls


def rho(values, mu):
    """One step through ``values``, from the last one back to ``values[mu]``."""
    after = dict(zip(values, values[1:] + [values[mu]]))
    return lambda s: after[s[0]]


def near(witness):
    """Bounds either side of ``witness`` and of its 16th window past."""
    return sorted({max(1, witness - 1), witness, witness + 1, witness + 15, witness + 16, witness + 17})


def finding(spec, bound):
    found = detect_minimal_period(spec, bound)
    return found.minimal_period, found.preperiod, found.witness_index


def expected(period, preperiod, witness, bound):
    return (period, preperiod, witness) if witness <= bound else (None, 0, None)


class TestCorrespondenceReport:
    def test_mod3_rows(self):
        rep = cycle_correspondence_report(ADD_MOD3)
        assert rep.bijective and rep.states_checked == 9
        by_state = {r.state: r for r in rep.rows}
        r01 = by_state[(0, 1)]
        assert (r01.state_period, r01.sequence_period) == (4, 8)
        assert r01.direction1_ok and not r01.j_divides_n and r01.j_divides_nk
        r00 = by_state[(0, 0)]
        assert (r00.state_period, r00.sequence_period) == (1, 1)
        assert rep.direction1_violations == 0
        assert rep.j_divides_nk_violations == 0

    def test_negated_sum_mod3_table(self):
        t = FiniteTable.from_function(3, 2, lambda i, j: (-i - j) % 3)
        rep = cycle_correspondence_report(t)
        for row in rep.rows:
            if row.state[0] == row.state[1]:
                # constant tuples are fixed points seeding constant sequences
                assert (row.state_period, row.sequence_period) == (1, 1)
            else:
                assert (row.state_period, row.sequence_period) == (3, 3)
            assert row.direction1_ok

    def test_projection_fixed_point_with_distinct_coordinates(self):
        t = FiniteTable.from_function(2, 2, lambda a, b: a)
        rep = cycle_correspondence_report(t)
        r = {row.state: row for row in rep.rows}[(0, 1)]
        # the sequence 0,1,0,1,... has period 2 while the state is fixed
        assert (r.state_period, r.sequence_period) == (1, 2)
        assert not r.j_divides_n and r.j_divides_nk and r.direction1_ok

    def test_non_bijective_table_reports_cyclic_states_only(self):
        t = FiniteTable.from_function(2, 2, lambda a, b: b)
        rep = cycle_correspondence_report(t)
        assert not rep.bijective
        assert {r.state for r in rep.rows} == {(0, 0), (1, 1)}

    def test_matches_generated_sequences_on_random_tables(self):
        # reference: a state is cyclic with period n when the window at
        # term n*k is the seed again, and j is the first term d at which it
        # is, since the recurrence is deterministic
        rng = random.Random(43)
        for _ in range(120):
            m, k = rng.randint(1, 4), rng.randint(1, 3)
            t = FiniteTable.from_values(m, k, [rng.randrange(m) for _ in range(m**k)])
            size = m**k
            want = []
            for idx in range(size):
                seed = state_from_index(idx, m, k)
                terms = generate(RecurrenceSpec(t.as_map(), seed), (size + 1) * k)
                windows = [tuple(terms[d : d + k]) for d in range(size * k + 1)]
                n = next((n for n in range(1, size + 1) if windows[n * k] == seed), None)
                if n is not None:
                    j = next(d for d in range(1, n * k + 1) if windows[d] == seed)
                    want.append((idx, seed, n, j))
            rep = cycle_correspondence_report(t)
            got = [
                (r.state_index, r.state, r.state_period, r.sequence_period)
                for r in rep.rows
            ]
            assert got == want
            assert rep.bijective == (len(want) == size)
            for r in rep.rows:
                n, j = r.state_period, r.sequence_period
                assert (r.direction1_ok, r.j_divides_n, r.j_divides_nk) == (
                    n == j // math.gcd(j, k), n % j == 0, n * k % j == 0
                )
            tallies = (
                rep.states_checked, rep.direction1_violations,
                rep.j_divides_n_count, rep.j_divides_nk_violations,
            )
            assert [type(v) for v in tallies] == [int] * 4
            assert tallies == (
                len(rep.rows), sum(not r.direction1_ok for r in rep.rows),
                sum(r.j_divides_n for r in rep.rows), sum(not r.j_divides_nk for r in rep.rows),
            )


class TestFixedPointStructure:
    def test_fixed_points_correspond_to_periods_dividing_k(self):
        rng = random.Random(31)
        for _ in range(40):
            m, k = rng.randint(2, 3), rng.randint(1, 3)
            t = FiniteTable.from_values(
                m, k, [rng.randrange(m) for _ in range(m**k)]
            )
            rep = cycle_correspondence_report(t)
            for row in rep.rows:
                if row.state_period == 1:
                    assert k % row.sequence_period == 0
                if k % row.sequence_period == 0:
                    assert row.state_period == 1

    def test_symmetric_tables_have_constant_fixed_points(self):
        for t in iter_all_tables(2, 2):
            if not is_symmetric(t):
                continue
            perm = as_permutation(t)
            rep = cycle_correspondence_report(t)
            for row in rep.rows:
                if row.state_period == 1:
                    assert len(set(row.state)) == 1
                    assert row.sequence_period == 1


class TestSweep:
    def test_matches_per_table_reports(self):
        # (1, *) and (*, 1) make m or m**(k-1) equal 1 in the window shift
        for m, k in [(1, 1), (2, 1), (3, 1), (1, 3), (2, 2), (2, 3)]:
            states = dir1 = jn = jn_fail = jnk = bij = 0
            for t in iter_all_tables(m, k):
                rep = cycle_correspondence_report(t)
                if not rep.bijective:
                    continue
                bij += 1
                states += rep.states_checked
                dir1 += rep.direction1_violations
                jn += rep.j_divides_n_count
                jn_fail += rep.states_checked - rep.j_divides_n_count
                jnk += rep.j_divides_nk_violations
            sweep = cycle_correspondence_sweep(m, k)
            assert sweep.tables == m ** (m**k)
            assert sweep.bijective_tables == bij
            assert sweep.cyclic_states == states
            assert sweep.direction1_violations == dir1
            assert sweep.j_divides_n_count == jn
            assert sweep.j_divides_n_failures == jn_fail
            assert sweep.j_divides_nk_violations == jnk

    def test_four_argument_tallies(self):
        assert cycle_correspondence_sweep(2, 4) == SweepTallies(
            2, 4, 65536, 256, 4096, 0, 2238, 1858, 0
        )

    def test_budget(self):
        with pytest.raises(BudgetError):
            cycle_correspondence_sweep(4, 2)


class TestAugment:
    def test_negated_sum_lift_projects_to_first_argument(self):
        rng = random.Random(37)
        f = AffineMapSpec.rational((-1, -1), Fraction(5, 3)).as_kary_map()
        lifted = augment(f, 3)
        for _ in range(200):
            s = tuple(
                Fraction(rng.randint(-50, 50), rng.randint(1, 9)) for _ in range(3)
            )
            assert lifted.apply(s) == s[0]

    def test_consistent_input_extends_the_sequence(self):
        rng = random.Random(41)
        for _ in range(20):
            k = rng.randint(1, 3)
            t = FiniteTable.from_values(
                3, k, [rng.randrange(3) for _ in range(3**k)]
            )
            f = t.as_map()
            seed = tuple(rng.randrange(3) for _ in range(k))
            terms = generate(RecurrenceSpec(f, seed), k + 2)
            lifted = augment(f, k + 1)
            assert lifted.apply(tuple(terms[: k + 1])) == terms[k + 1]

    def test_projection_lift_to_a_multiple_of_k_is_projection(self):
        f = KaryMap(2, lambda s: s[0])
        lifted = augment(f, 4)
        for a in range(2):
            for rest in range(8):
                s = (a,) + state_from_index(rest, 2, 3)
                assert lifted.apply(s) == a

    def test_target_arity_must_grow(self):
        with pytest.raises(ArityError):
            augment(KaryMap(2, sum), 2)
        with pytest.raises(ArityError, match="original arity 2, got 2"):
            augment_table(ADD_MOD3, 2)

    def test_table_lift_matches_the_engine_lift(self):
        rng = random.Random(43)
        for m in range(1, 5):
            for k in range(1, 4):
                t = FiniteTable.from_values(m, k, [rng.randrange(m) for _ in range(m**k)])
                for to in range(k + 1, k + 8):
                    if m**to > 5_000:
                        break
                    lifted = augment(t.as_map(), to)
                    want = FiniteTable.from_function(m, to, lambda *xs: lifted.apply(xs))
                    assert augment_table(t, to) == want, (m, k, to)

    def test_iterates_of_the_lift_track_the_same_sequence(self):
        f = ADD_MOD3.as_map()
        lifted = augment(f, 3)
        seed = (0, 1)
        terms = generate(RecurrenceSpec(f, seed), 15)
        lifted_terms = generate(RecurrenceSpec(lifted, tuple(terms[:3])), 15)
        assert lifted_terms == terms
        assert iterate(lifted, tuple(terms[:3]), 2) == tuple(terms[6:9])
