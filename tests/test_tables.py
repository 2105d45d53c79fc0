"""Finite-table analysis: permutation structure, predicates, enumeration."""

import inspect
import itertools
import math
import random
import sys
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from iterk import _kernels, tables
from iterk.engine import first_iterate, induced_self_map, point_involutory_order
from iterk.errors import BudgetError, ParseError
from iterk.recurrence import augment_table, cycle_correspondence_sweep
from iterk.tables import (
    FiniteTable,
    as_permutation,
    check_budget,
    check_state_budget,
    conjugate,
    count_involutions,
    count_involutions_brute,
    cycle_report,
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
    state_from_index,
    state_index,
    table_iterate,
    table_point_order,
)

ADD_MOD3 = FiniteTable.from_values(3, 2, [0, 1, 2, 1, 2, 0, 2, 0, 1])
II3_M4 = FiniteTable.from_values(
    4, 2, [0, 2, 3, 1, 2, 0, 1, 3, 3, 1, 0, 2, 1, 3, 2, 0]
)


class TestStateIndexing:
    def test_examples(self):
        assert state_index((0, 0), 3) == 0
        assert state_index((1, 2), 3) == 5

    def test_round_trip_exhaustive(self):
        m, k = 4, 3
        for idx in range(m**k):
            s = state_from_index(idx, m, k)
            assert state_index(s, m) == idx

    def test_range_checks(self):
        with pytest.raises(ValueError):
            state_index((0, 3), 3)
        with pytest.raises(ValueError):
            state_from_index(9, 3, 2)


class TestFiniteTable:
    def test_validation(self):
        with pytest.raises(ValueError):
            FiniteTable.from_values(3, 2, [0] * 8)
        with pytest.raises(ValueError):
            FiniteTable.from_values(2, 2, [0, 1, 2, 0])

    @pytest.mark.parametrize("m, k, values, got", [
        (3, 100, [0], 1),  # 3**100 entries, far past any int64 count
        (2, 2, [0], 1),
        (2, 2, [0, 1, 0, 1, 1, 1], 6),  # the extra values are not dropped
    ])
    def test_wrong_value_count_is_the_tables_own_error(self, m, k, values, got):
        with pytest.raises(ValueError, match=rf"^expected {m}\*\*{k} entries, got {got}$"):
            FiniteTable.from_values(m, k, values)

    def test_entries_are_immutable(self):
        with pytest.raises(ValueError):
            ADD_MOD3.entries[0] = 1

    def test_a_contiguous_int64_array_is_adopted_and_frozen(self):
        a = np.array([0, 1, 1, 0], dtype=np.int64)
        table = FiniteTable(2, 2, a)
        assert np.shares_memory(table.entries, a) and not a.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            a[0] = 1

    @pytest.mark.parametrize("given", [
        [0, 1, 1, 0],
        np.array([0, 1, 1, 0], dtype=np.int32),
        np.array([0, 9, 1, 9, 1, 9, 0, 9], dtype=np.int64)[::2],  # not contiguous
    ], ids=["list", "int32", "strided"])
    def test_other_inputs_are_copied_and_stay_writable(self, given):
        table = FiniteTable(2, 2, given)
        given[0] = 1
        assert given[0] == 1 and table.values() == (0, 1, 1, 0)

    def test_equality_and_hash(self):
        other = FiniteTable.from_values(3, 2, [0, 1, 2, 1, 2, 0, 2, 0, 1])
        assert other == ADD_MOD3 and hash(other) == hash(ADD_MOD3)


# every way a symbol array enters the table layer, given the bad symbol list
SYMBOL_ENTRIES = {
    "FiniteTable": lambda bad: FiniteTable(2, 1, bad),
    "from_values": lambda bad: FiniteTable.from_values(2, 1, bad),
    "from_function": lambda bad: FiniteTable.from_function(2, 1, lambda x: bad[x]),
    "project_compose": lambda bad: project_compose(bad, 2),
    "conjugate": lambda bad: conjugate(hat_id(2, 1), bad),
}
# a bad symbol list for each class and the error it must raise; a float,
# Fraction or text is refused, never truncated or parsed
BAD_SYMBOLS = {
    "float": ([1.0, 0.0], TypeError),
    "np.float64": ([np.float64(1), np.float64(0)], TypeError),
    "Fraction": ([Fraction(1), Fraction(0)], TypeError),
    "str": (["1", "0"], TypeError),
    "2**70": ([2**70, 0], ValueError),
    "2**64-1": ([2**64 - 1, 0], ValueError),  # numpy reads [2**64 - 1, 0] as floats
    "2-D": (np.array([[1, 0]]), ValueError),
}
# every scalar entry point, given the bad value in the place of m, k, n, j
# or the target arity, and its message for 0
SCALAR_ENTRIES = {
    "FiniteTable-m": (lambda v: FiniteTable(v, 1, [0]), "m"),
    "FiniteTable-k": (lambda v: FiniteTable(1, v, [0]), "k"),
    "from_function-m": (lambda v: FiniteTable.from_function(v, 1, lambda x: 0), "m"),
    "from_function-k": (lambda v: FiniteTable.from_function(1, v, lambda *x: 0), "k"),
    "hat_id-m": (lambda v: hat_id(v, 1), "m"),
    "hat_id-k": (lambda v: hat_id(1, v), "k"),
    "project_compose-k": (lambda v: project_compose([0], v), "k"),
    "iter_all_tables-m": (lambda v: next(iter_all_tables(v, 1)), "m"),
    "iter_all_tables-k": (lambda v: next(iter_all_tables(1, v)), "k"),
    "enumerate_ii_tables-m": (lambda v: next(enumerate_ii_tables(v, 1)), "m"),
    "enumerate_ii_tables-k": (lambda v: next(enumerate_ii_tables(1, v)), "k"),
    "involutions": (lambda v: involutions(v), "m"),
    "count_involutions": (lambda v: count_involutions(v), "m"),
    "count_involutions_brute": (lambda v: count_involutions_brute(v), "m"),
    "is_n_involutory": (lambda v: is_n_involutory(ADD_MOD3, v), "order"),
    "is_induced_involutory-n": (lambda v: is_induced_involutory(ADD_MOD3, v), "order"),
    "cycle_correspondence_sweep-m": (lambda v: cycle_correspondence_sweep(v, 1), "m"),
    "cycle_correspondence_sweep-k": (lambda v: cycle_correspondence_sweep(1, v), "k"),
    "augment_table": (lambda v: augment_table(ADD_MOD3, v), "target arity"),
}
# j keeps its own range message, n may be any int, and 0 is a valid
# component and index
INDEX_ENTRIES = {
    "is_induced_involutory-j": lambda v: is_induced_involutory(ADD_MOD3, 2, v),
    "table_iterate": lambda v: table_iterate(ADD_MOD3, (0, 1), v),
    "table_point_order": lambda v: table_point_order(ADD_MOD3, (0, v)),
    "apply": lambda v: ADD_MOD3.apply((v, 0)),
    "state_index": lambda v: state_index((v, 0), 3),
    "state_from_index": lambda v: state_from_index(v, 3, 2),
}
NOT_INTS = {"2.0": 2.0, "np.float64": np.float64(2), "Fraction": Fraction(2), "str": "2"}


class TestAdmission:
    @pytest.mark.parametrize(
        "entry, kind",
        # a function gives one value per state, never a 2-D array
        [(e, b) for e in SYMBOL_ENTRIES for b in BAD_SYMBOLS if (e, b) != ("from_function", "2-D")],
    )
    def test_bad_symbols_are_refused(self, entry, kind):
        bad, error = BAD_SYMBOLS[kind]
        with pytest.raises(error):
            SYMBOL_ENTRIES[entry](bad)

    @pytest.mark.parametrize("entry", SCALAR_ENTRIES)
    @pytest.mark.parametrize("kind", ["0", *NOT_INTS])
    def test_bad_scalars_are_refused(self, entry, kind):
        call, name = SCALAR_ENTRIES[entry]
        if kind == "0":
            with pytest.raises(ValueError) as err:
                call(0)
            assert str(err.value) == f"{name} must be >= 1, got 0"
            return
        with pytest.raises(TypeError):
            call(NOT_INTS[kind])

    @pytest.mark.parametrize("entry", INDEX_ENTRIES)
    @pytest.mark.parametrize("kind", NOT_INTS)
    def test_indices_that_are_not_ints_are_refused(self, entry, kind):
        with pytest.raises(TypeError):
            INDEX_ENTRIES[entry](NOT_INTS[kind])

    @pytest.mark.parametrize(
        "call, error, message",
        [
            (lambda: FiniteTable.from_function(2, 2, lambda a, b: (a + b) / 2), TypeError, "0.0"),
            (lambda: FiniteTable(2, 1, [Fraction(1, 2), 0]), TypeError, "Fraction"),
            (lambda: FiniteTable(2, 1, ["1", "0"]), TypeError, "'1'"),
            (lambda: project_compose([0.9, 1.1], 2), TypeError, "0.9"),
            (lambda: state_from_index(2.5, 2, 2), TypeError, "float"),
            (lambda: FiniteTable(2.0, 2, [0, 1, 1, 0]), TypeError, "float"),
            (lambda: hat_id(2.0, 2), TypeError, "float"),
            (lambda: FiniteTable(2, 1, [2**70, 0]), ValueError, "entries must lie in 0..1"),
            (lambda: next(iter_all_tables(0, 1)), ValueError, "m must be >= 1, got 0"),
            (lambda: involutions(-2), ValueError, "m must be >= 1, got -2"),
        ],
        ids=[
            "from_function-halves", "Fraction-entries", "text-entries", "project_compose-floats",
            "state_from_index-float", "FiniteTable-float-m", "hat_id-float-m", "entries-2**70",
            "iter_all_tables-m0", "involutions-negative",
        ],
    )
    def test_each_silent_or_stray_error_is_now_the_rules(self, call, error, message):
        with pytest.raises(error) as err:
            call()
        assert message in str(err.value)

    def test_integer_forms_build_the_same_tables_and_answers(self):
        i64, u8 = np.int64, np.uint8
        table = FiniteTable(i64(3), u8(2), np.array(ADD_MOD3.values(), dtype=u8))
        assert table == ADD_MOD3 and table.values() == (0, 1, 2, 1, 2, 0, 2, 0, 1)
        assert table.entries.dtype == np.int64 and hash(table) == hash(ADD_MOD3)
        assert FiniteTable(True, True, [False]) == FiniteTable(1, 1, [0])
        assert FiniteTable(2, 1, [True, False]).values() == (1, 0)
        assert FiniteTable.from_values(i64(3), 2, map(i64, ADD_MOD3.values())) == ADD_MOD3
        assert FiniteTable(3, 2, np.array(ADD_MOD3.values(), dtype=np.int64)) == ADD_MOD3
        assert FiniteTable.from_function(u8(3), i64(2), lambda a, b: u8((a + b) % 3)) == ADD_MOD3
        assert hat_id(i64(2), u8(2)).values() == (0, 0, 1, 1)
        assert project_compose(np.array([1, 0], dtype=u8), i64(2)).values() == (1, 1, 0, 0)
        shift = FiniteTable(3, 1, [1, 2, 0])
        assert conjugate(shift, np.array([0, 2, 1], dtype=u8)).values() == (2, 0, 1)
        assert involutions(i64(3)) == [(0, 1, 2), (0, 2, 1), (1, 0, 2), (2, 1, 0)]
        assert count_involutions(i64(5)) == 26 and count_involutions_brute(i64(4)) == 10
        assert is_n_involutory(ADD_MOD3, i64(4)) and not is_n_involutory(ADD_MOD3, u8(2))
        assert is_induced_involutory(II3_M4, i64(3), u8(2))
        assert not is_induced_involutory(II3_M4, u8(2))
        assert table_iterate(ADD_MOD3, (i64(0), True), u8(3)) == (2, 1)
        assert table_point_order(ADD_MOD3, (u8(0), i64(1))) == 4
        assert state_index((i64(1), u8(2)), 3) == 5 and state_from_index(i64(5), 3, 2) == (1, 2)
        assert len(list(iter_all_tables(i64(2), u8(1)))) == 4
        assert [t.values() for t in enumerate_ii_tables(i64(2), u8(2))] == [
            (0, 1, 1, 0), (1, 0, 0, 1),
        ]
        assert augment_table(ADD_MOD3, i64(3)) == augment_table(ADD_MOD3, 3)

    def test_numpy_scalars_are_read_as_python_ints(self):
        # the kernels need Python ints: a uint8 m would overflow the scan's
        # chunk arithmetic, and numpy ints have no bit_length
        table = FiniteTable(np.int64(3), np.uint8(2), ADD_MOD3.entries)
        assert type(table.m) is int and type(table.k) is int
        assert count_involutions(np.uint8(5)) == 26
        sweep = cycle_correspondence_sweep(np.int64(2), np.uint8(2))
        assert sweep == cycle_correspondence_sweep(2, 2) and sweep.tables == 16


class TestAsPermutation:
    def test_mod3_is_bijective(self):
        assert as_permutation(ADD_MOD3) is not None

    def test_second_projection_is_not(self):
        # f(x1, x2) = x2 collapses (0,0) and (1,0) onto the same state
        t = FiniteTable.from_function(2, 2, lambda x1, x2: x2)
        assert as_permutation(t) is None

    def test_first_projection_gives_identity(self):
        for m, k in [(2, 2), (3, 2), (2, 3)]:
            perm = as_permutation(hat_id(m, k))
            assert np.array_equal(perm, np.arange(m**k))

    def test_kernel_agrees_with_engine(self):
        from iterk._kernels import table_perm

        # k up to 9 runs the powering through every bit pattern up to 1001
        rng = random.Random(7)
        for m, k in itertools.product(range(1, 5), range(1, 10)):
            if m**k > 5_000:
                continue
            t = FiniteTable.from_values(
                m, k, [rng.randrange(m) for _ in range(m**k)]
            )
            perm, _ = table_perm(t.entries, m, k)
            f = t.as_map()
            for idx in range(m**k):
                s = state_from_index(idx, m, k)
                assert perm[idx] == state_index(first_iterate(f, s), m)


@st.composite
def random_tables(draw):
    m = draw(st.integers(1, 4))
    k = draw(st.integers(1, 3))
    entries = draw(st.lists(st.integers(0, m - 1), min_size=m**k, max_size=m**k))
    return FiniteTable.from_values(m, k, entries)


def walked_cycle_report(t):
    # one engine step per state, then a walk from every state
    f = t.as_map()
    nxt = [
        state_index(first_iterate(f, state_from_index(i, t.m, t.k)), t.m)
        for i in range(t.n_states)
    ]
    cycles = []
    for s in range(t.n_states):
        walk = [s]
        while len(walk) <= t.n_states and nxt[walk[-1]] != s:
            walk.append(nxt[walk[-1]])
        if len(walk) <= t.n_states and s == min(walk):
            cycles.append(tuple(walk))
    periods = {s: len(c) for c in cycles for s in c}
    bijective = len(periods) == t.n_states
    order = math.lcm(*map(len, cycles)) if bijective else None
    return bijective, tuple(cycles), periods, order


class TestCycleReport:
    @settings(max_examples=150, deadline=None)
    @given(random_tables())
    def test_matches_walk_over_engine_steps(self, t):
        rep = cycle_report(t)
        assert (
            rep.bijective, rep.cycles, rep.per_point_period, rep.minimal_order
        ) == walked_cycle_report(t)

    def test_mod3(self):
        rep = cycle_report(ADD_MOD3)
        assert rep.bijective
        assert rep.cycle_lengths == (4, 4, 1)
        assert rep.minimal_order == 4

    def test_ii3_m4(self):
        rep = cycle_report(II3_M4)
        assert rep.cycle_lengths == (15, 1)
        assert rep.minimal_order == 15

    def test_identity_table(self):
        rep = cycle_report(hat_id(3, 2))
        assert rep.cycle_lengths == (1,) * 9 and rep.minimal_order == 1

    def test_non_bijective_reports_cyclic_part_only(self):
        t = FiniteTable.from_function(2, 2, lambda x1, x2: x2)
        rep = cycle_report(t)
        assert not rep.bijective and rep.minimal_order is None
        # (0,0) and (1,1) are the only states on cycles
        assert set(rep.per_point_period) == {0, 3}

    def test_minimal_order_is_lcm_of_cycle_lengths(self):
        rng = random.Random(3)
        found = 0
        while found < 10:
            m, k = rng.randint(2, 3), rng.randint(1, 2)
            t = FiniteTable.from_values(
                m, k, [rng.randrange(m) for _ in range(m**k)]
            )
            rep = cycle_report(t)
            if rep.bijective:
                found += 1
                assert rep.minimal_order == math.lcm(*rep.cycle_lengths)
                assert sorted(i for c in rep.cycles for i in c) == list(
                    range(m**k)
                )

    def test_matches_walked_labels_on_seeded_tables(self):
        rng = np.random.default_rng(50)
        for i in range(50):
            m, k = int(rng.integers(2, 7)), int(rng.integers(1, 5))
            if i % 3:
                entries = rng.integers(0, m, size=m**k)
            else:  # (c + sum x) mod m, whose first iterate is a bijection
                entries = (int(rng.integers(m)) + _kernels.digits(0, m**k, m, k).sum(axis=1)) % m
            t = FiniteTable(m, k, entries)
            perm, bijective = _kernels.table_perm(t.entries, m, k)
            labels = walked_cycle_labels(perm.tolist())
            cycles = []
            for s, (head, _, length) in enumerate(labels):
                if length and head == s:
                    cycles.append([s])
                    while len(cycles[-1]) < length:
                        cycles[-1].append(int(perm[cycles[-1][-1]]))
            periods = {s: length for s, (_, _, length) in enumerate(labels) if length}
            order = math.lcm(*map(len, cycles)) if bijective else None
            want = tables.CycleReport(bijective, tuple(map(tuple, cycles)), order)
            rep = cycle_report(t)
            assert rep == want and rep.per_point_period == periods


def walked_cycle_labels(perm):
    # (head, steps to head, cycle length) per state by walking each state's
    # trajectory once, and (0, 0, 0) for states on no cycle
    labels = [(0, 0, 0)] * len(perm)
    seen = [False] * len(perm)
    for s in range(len(perm)):
        walk, x = {}, s
        while not seen[x] and x not in walk:
            walk[x] = len(walk)
            x = perm[x]
        for y in walk:
            seen[y] = True
        if x in walk:  # the walk closed a new cycle at x
            cycle = list(walk)[walk[x]:]
            head = cycle.index(min(cycle))
            for i, y in enumerate(cycle):
                labels[y] = (cycle[head], (head - i) % len(cycle), len(cycle))
    return labels


def random_self_map(rng, n, kind):
    if kind == "random":
        return rng.integers(0, n, size=n)
    if kind == "bijective":
        return rng.permutation(n)
    if kind == "fixed":
        return np.arange(n)
    if kind == "one-cycle":
        order = rng.permutation(n)
        perm = np.empty(n, np.int64)
        perm[order] = np.roll(order, -1)
        return perm
    if kind == "path":
        # each state steps to the one before it in a random order, down to the
        # one fixed point: the tail is n - 1 steps, the longest there is
        order = rng.permutation(n)
        perm = np.empty(n, np.int64)
        perm[order] = order[np.maximum(np.arange(n) - 1, 0)]
        return perm
    if kind == "lollipop":
        # a tail of n - c states runs into a cycle of c, both about n / 2 long
        order, c = rng.permutation(n), (n + 1) // 2
        perm = np.empty(n, np.int64)
        perm[order] = np.concatenate([np.roll(order[:c], -1), order[c - 1 : n - 1]])
        return perm
    # "one-cyclic-state": a random tree, each state pointing to one earlier
    # in a random order, whose first state is the one fixed point
    order = rng.permutation(n)
    perm = np.empty(n, np.int64)
    perm[order] = order[rng.integers(0, np.maximum(np.arange(n), 1))]
    return perm


class TestCycleKernel:
    KINDS = ["random", "bijective", "fixed", "one-cycle", "one-cyclic-state", "path", "lollipop"]

    @staticmethod
    def assert_matches_walk(perm, size):
        head, to_head, length = _kernels.cycles(perm, size)
        labels = walked_cycle_labels(perm.tolist())
        assert length.tolist() == [c for _, _, c in labels]
        on = length > 0
        assert head[on].tolist() == [h for h, _, c in labels if c]
        assert to_head[on].tolist() == [d for _, d, c in labels if c]

    @pytest.mark.parametrize("kind", KINDS)
    def test_one_block_matches_walk(self, kind):
        rng = np.random.default_rng(self.KINDS.index(kind))
        for n in [1, 2, 3, 7, 64, 65, *rng.integers(1, 301, size=20).tolist()]:
            self.assert_matches_walk(random_self_map(rng, n, kind), n)

    @pytest.mark.parametrize("kind", KINDS + ["mixed"])
    def test_batched_blocks_match_walk(self, kind):
        # blocks of ``size`` states, each mapping into itself, as cycle_sweep builds them
        rng = np.random.default_rng(10 + (self.KINDS + ["mixed"]).index(kind))
        for _ in range(10):
            size, blocks = int(rng.integers(1, 40)), int(rng.integers(1, 8))
            perm = np.concatenate([
                b * size + random_self_map(rng, size, rng.choice(self.KINDS) if kind == "mixed" else kind)
                for b in range(blocks)
            ])
            self.assert_matches_walk(perm, size)


def walked_power(g, n):
    # g applied n times to each point, read off the point's walked orbit
    out = []
    for x in range(len(g)):
        seen = {x: 0}
        path = [x]
        while g[path[-1]] not in seen:
            seen[g[path[-1]]] = len(path)
            path.append(g[path[-1]])
        tail = seen[g[path[-1]]]
        out.append(path[n] if n < len(path) else path[tail + (n - tail) % (len(path) - tail)])
    return out


class TestBatchedKernels:
    @pytest.mark.parametrize("n", [1, 2, 3, 7, 2**20 + 1])
    def test_induced_power_matches_per_table_indexing(self, n):
        rng = np.random.default_rng(n)
        for _ in range(12):
            m, k, count = int(rng.integers(1, 5)), int(rng.integers(1, 4)), int(rng.integers(2, 6))
            batch = rng.integers(0, m, size=(count, m**k))
            for axis in range(k):
                # the flat power has one block of m per table and context; a value
                # that left its block is out of range once the offsets are removed
                flat = _kernels._induced(batch, m, k, axis, n)
                got = (flat - np.arange(flat.size) // m * m).reshape(count, m ** (k - 1), m)
                involutory = []
                for entries, power in zip(batch, got):
                    want = []
                    # the induced map at each context of the other arguments, row-major
                    for c in itertools.product(range(m), repeat=k - 1):
                        states = (c[:axis] + (x,) + c[axis:] for x in range(m))
                        g = [int(entries[state_index(s, m)]) for s in states]
                        want.append(walked_power(g, n))
                    assert power.tolist() == want
                    involutory.append(all(row == list(range(m)) for row in want))
                if n == 2 and axis == k - 1:  # ii_filter's check
                    assert _kernels.ii_filter(batch, m, k).tolist() == involutory

    @pytest.mark.parametrize("k", range(1, 10))
    def test_first_iterate_matches_k_steps_per_table(self, k):
        rng = np.random.default_rng(k)
        for m in range(2, 5):
            if m**k > 5_000:
                break
            batch = rng.integers(0, m, size=(int(rng.integers(2, 6)), m**k))
            got = _kernels._first_iterate(_kernels._flat(batch), m, k).reshape(batch.shape)
            for block, (entries, perm) in enumerate(zip(batch, got)):
                # the reference: k one-term steps of the window on this table alone
                w = np.arange(m**k)
                for _ in range(k):
                    w = _kernels._step(entries, w, m, k)
                assert (perm - block * m**k).tolist() == w.tolist(), (m, k, block)

    def test_is_bijective_on_mixed_batches(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            size, count = int(rng.integers(1, 30)), int(rng.integers(1, 9))
            blocks = [rng.permutation(size) for _ in range(count)]
            for block in blocks:
                if size > 1 and rng.random() < 0.5:  # repeat one value
                    i, j = rng.choice(size, 2, replace=False)
                    block[i] = block[j]
            flat = np.concatenate([b * size + block for b, block in enumerate(blocks)])
            want = [len(set(block.tolist())) == size for block in blocks]
            assert _kernels._is_bijective(flat, size).tolist() == want


class TestInvolutoryPredicates:
    def test_mod3_orders(self):
        assert is_n_involutory(ADD_MOD3, 4)
        assert not is_n_involutory(ADD_MOD3, 2)
        assert is_n_involutory(ADD_MOD3, 8)

    def test_ii3_m4_orders(self):
        assert is_n_involutory(II3_M4, 15)
        assert not is_n_involutory(II3_M4, 5)

    def test_identity_has_every_order(self):
        for n in range(1, 8):
            assert is_n_involutory(hat_id(3, 2), n)

    def test_multiples_of_the_minimal_order(self):
        for mult in range(1, 6):
            assert is_n_involutory(ADD_MOD3, 4 * mult)

    def test_point_orders_divide_global_order(self):
        rep = cycle_report(II3_M4)
        for idx, period in rep.per_point_period.items():
            assert 15 % period == 0

    def test_n_involutory_iff_every_point_period_divides_n(self):
        rng = random.Random(29)
        checked = 0
        while checked < 12:
            m, k = rng.randint(2, 3), rng.randint(1, 2)
            t = FiniteTable.from_values(
                m, k, [rng.randrange(m) for _ in range(m**k)]
            )
            rep = cycle_report(t)
            if not rep.bijective:
                continue
            checked += 1
            for n in range(1, 13):
                expected = all(
                    n % p == 0 for p in rep.per_point_period.values()
                )
                assert is_n_involutory(t, n) == expected

    def test_iterate_power_has_order_n_over_gcd(self):
        # the cube of the 15-cycle first iterate has order 15/gcd(15,3) = 5
        perm = as_permutation(II3_M4)
        cubed = perm[perm[perm]]
        t = II3_M4
        lengths = []
        seen = set()
        for s in range(t.n_states):
            if s not in seen:
                c, ln = s, 0
                while True:
                    c, ln = int(cubed[c]), ln + 1
                    seen.add(c)
                    if c == s:
                        break
                lengths.append(ln)
        assert math.lcm(*lengths) == 5

    def test_coprime_orders_force_the_projection_table(self):
        for t in iter_all_tables(2, 2):
            if is_n_involutory(t, 2) and is_n_involutory(t, 3):
                assert t == hat_id(2, 2)


def _ii_cases(rng):
    # random tables, and (c - sum(x)) mod m, an involution in every argument,
    # conjugated so that the entries are scrambled and that property is kept
    cases = []
    for _ in range(30):
        m, k = rng.randint(1, 4), rng.randint(1, 3)
        cases.append(FiniteTable.from_values(m, k, [rng.randrange(m) for _ in range(m**k)]))
    for m, k in [(2, 2), (3, 2), (3, 3), (4, 2), (5, 1)]:
        for c in range(m):
            g = list(range(m))
            rng.shuffle(g)
            t = FiniteTable.from_function(m, k, lambda *x, c=c: (c - sum(x)) % m)
            cases.append(conjugate(t, g))
    return cases


class TestInducedInvolutory:
    def test_mod3(self):
        assert is_induced_involutory(ADD_MOD3, 3)
        assert not is_induced_involutory(ADD_MOD3, 2)
        assert is_induced_involutory(ADD_MOD3, 3, j=1)
        assert is_induced_involutory(ADD_MOD3, 3, j=2)

    def test_ii3_m4(self):
        assert is_induced_involutory(II3_M4, 3)

    def test_negated_sum_mod3_is_induced_involutory(self):
        t = FiniteTable.from_function(3, 2, lambda i, j: (-i - j) % 3)
        assert is_induced_involutory(t, 2)

    def test_bad_position(self):
        with pytest.raises(ValueError):
            is_induced_involutory(ADD_MOD3, 2, j=3)

    def test_matches_engine_induced_self_maps(self):
        def reference(t, n, j):
            f = t.as_map()
            for pos in [j] if j else range(1, t.k + 1):
                for fixed in itertools.product(range(t.m), repeat=t.k - 1):
                    g = induced_self_map(f, pos, fixed)
                    for x in range(t.m):
                        v = x
                        for _ in range(n):
                            v = g(v)
                        if v != x:
                            return False
            return True

        for t in _ii_cases(random.Random(11)):
            for n in range(1, 5):
                for j in [None, *range(1, t.k + 1)]:
                    assert is_induced_involutory(t, n, j) == reference(t, n, j)

    def test_large_orders_match_cycle_lengths(self):
        def reference(t, n):
            # every induced map is a permutation whose cycle lengths divide n
            for pos in range(t.k):
                for fixed in itertools.product(range(t.m), repeat=t.k - 1):
                    g = [t.apply(fixed[:pos] + (x,) + fixed[pos:]) for x in range(t.m)]
                    if sorted(g) != list(range(t.m)):
                        return False
                    for x in range(t.m):
                        length, y = 1, g[x]
                        while y != x:
                            length, y = length + 1, g[y]
                        if n % length:
                            return False
            return True

        rng = random.Random(12)
        orders = [1, 2, 3, 4, 6, 12, 60, 2**29, 3 * 10**8, 10**9 - 1, 10**9]
        orders += [rng.randrange(1, 10**9) for _ in range(4)]
        # induced maps x -> 2x + b and x -> 3x + b give cycles up to length 10
        cases = _ii_cases(rng) + [
            FiniteTable.from_function(m, 2, lambda a, b, m=m: (2 * a + 3 * b + 1) % m)
            for m in (5, 7, 11)
        ]
        for t in cases:
            for n in orders:
                assert is_induced_involutory(t, n) == reference(t, n), (t, n)


class TestSymmetry:
    def test_examples(self):
        assert is_symmetric(ADD_MOD3)
        assert is_symmetric(II3_M4)
        assert not is_symmetric(FiniteTable.from_function(2, 2, lambda a, b: b))
        assert not is_symmetric(hat_id(2, 2))

    def test_three_arguments(self):
        t = FiniteTable.from_function(2, 3, lambda a, b, c: (a + b + c) % 2)
        assert is_symmetric(t)
        u = FiniteTable.from_function(2, 3, lambda a, b, c: (a + c) % 2)
        assert not is_symmetric(u)


class TestConstructions:
    def test_project_compose_swap(self):
        t = project_compose([1, 0], k=3)
        assert is_n_involutory(t, 2)

    def test_project_compose_identity_is_projection(self):
        assert project_compose([0, 1, 2], k=2) == hat_id(3, 2)
        assert cycle_report(project_compose([0, 1], k=2)).minimal_order == 1

    def test_project_compose_negation_mod5(self):
        g = [(2 - i) % 5 for i in range(5)]
        t = project_compose(g, k=2)
        # exhaustive order check: every point returns within two steps
        rep = cycle_report(t)
        assert rep.bijective and 2 % rep.minimal_order == 0

    def test_project_compose_rejects_non_involutions(self):
        with pytest.raises(ValueError):
            project_compose([1, 2, 0], k=2)

    def test_conjugate_preserves_cycle_lengths(self):
        assert cycle_report(conjugate(ADD_MOD3, [1, 2, 0])).cycle_lengths == (4, 4, 1)
        assert cycle_report(conjugate(II3_M4, [3, 1, 2, 0])).cycle_lengths == (15, 1)

    def test_conjugate_by_identity(self):
        assert conjugate(ADD_MOD3, [0, 1, 2]) == ADD_MOD3

    def test_conjugate_random_bijections(self):
        rng = random.Random(11)
        for _ in range(20):
            m, k = rng.randint(2, 4), rng.randint(1, 2)
            t = FiniteTable.from_values(
                m, k, [rng.randrange(m) for _ in range(m**k)]
            )
            g = list(range(m))
            rng.shuffle(g)
            assert cycle_report(conjugate(t, g)).cycle_lengths == cycle_report(t).cycle_lengths

    def test_conjugate_rejects_non_bijections(self):
        with pytest.raises(ValueError):
            conjugate(ADD_MOD3, [0, 0, 1])

    def test_conjugate_matches_its_definition(self):
        rng = random.Random(12)
        for m, k in [(2, 1), (3, 2), (2, 4), (4, 3)]:
            t = FiniteTable.from_values(m, k, [rng.randrange(m) for _ in range(m**k)])
            g = list(range(m))
            rng.shuffle(g)
            ginv = [g.index(v) for v in range(m)]
            want = FiniteTable.from_function(
                m, k, lambda *y: ginv[t.apply(tuple(g[v] for v in y))]
            )
            assert conjugate(t, g) == want

    def test_more_arguments_than_numpy_axes(self):
        t = hat_id(1, 70)
        assert is_symmetric(t) and is_induced_involutory(t, 2)
        assert conjugate(t, [0]) == t


class TestNegativeIterates:
    def test_inverse_of_forward(self):
        for idx in range(9):
            s = state_from_index(idx, 3, 2)
            back = table_iterate(ADD_MOD3, s, -1)
            assert table_iterate(ADD_MOD3, back, 1) == s

    def test_large_counts_reduce_modulo_the_order(self):
        assert table_iterate(ADD_MOD3, (0, 1), 4 * 10**9) == (0, 1)
        assert table_iterate(ADD_MOD3, (0, 1), -8000001) == table_iterate(
            ADD_MOD3, (0, 1), 3
        )

    def test_non_bijective_rejects_negative(self):
        t = FiniteTable.from_function(2, 2, lambda a, b: b)
        with pytest.raises(ValueError):
            table_iterate(t, (0, 1), -1)


def trajectory_tables(seed):
    """Seeded random tables for m 1..4, k 1..3, and for each shape one
    bijective (c - sum x) mod m table relabelled by a permutation."""
    rng = np.random.default_rng(seed)
    for m in range(1, 5):
        for k in range(1, 4):
            for _ in range(2):
                yield FiniteTable(m, k, rng.integers(0, m, size=m**k))
            c = int(rng.integers(m))
            base = FiniteTable.from_function(m, k, lambda *x: (c - sum(x)) % m)
            yield conjugate(base, rng.permutation(m).tolist())


class TestTrajectoryQueries:
    """table_iterate and table_point_order against the reference engine."""

    def test_iterates_match_the_engine(self):
        for t in trajectory_tables(41):
            f = t.as_map()
            for idx in range(0, t.n_states, -(-t.n_states // 16)):
                # engine.iterate(f, s, n) for n = 0, 1, ..., one step at a time
                walk = [state_from_index(idx, t.m, t.k)]
                for _ in range(3 * t.n_states):
                    walk.append(first_iterate(f, walk[-1]))
                for n, want in enumerate(walk):
                    assert table_iterate(t, walk[0], n) == want
                # far counts reduce through the tail and the cycle of the walk
                first = {}
                for i, s in enumerate(walk):
                    if s in first:
                        break
                    first[s] = i
                tail, cycle = first[s], i - first[s]
                for n in (10**9, 10**9 + 1, 10**9 + 7):
                    assert table_iterate(t, walk[0], n) == walk[tail + (n - tail) % cycle]

    def test_negative_counts_undo_positive_ones(self):
        for t in trajectory_tables(43):
            if as_permutation(t) is None:
                continue
            for idx in range(t.n_states):
                s = state_from_index(idx, t.m, t.k)
                for n in (1, 2, t.n_states + 3, 10**9 + 7):
                    assert table_iterate(t, table_iterate(t, s, n), -n) == s
                    assert table_iterate(t, table_iterate(t, s, -n), n) == s

    def test_point_order_matches_the_engine_scan(self):
        for t in trajectory_tables(47):
            f = t.as_map()
            for idx in range(t.n_states):
                s = state_from_index(idx, t.m, t.k)
                assert table_point_order(t, s) == point_involutory_order(f, s, t.n_states)


class TestInvolutionCounting:
    def test_involution_list(self):
        assert involutions(1) == [(0,)]
        assert involutions(2) == [(0, 1), (1, 0)]
        assert len(involutions(4)) == 10
        assert involutions(3) == sorted(involutions(3))

    def test_count_matches_enumeration_and_brute_force(self):
        expected = {1: 1, 2: 2, 3: 4, 4: 10, 5: 26, 6: 76}
        for m, value in expected.items():
            assert count_involutions(m) == value
            assert len(involutions(m)) == value
            assert count_involutions_brute(m) == value

    @pytest.mark.parametrize("m", range(1, 7))
    def test_scan_matches_direct_count(self, m):
        g = np.array(list(itertools.product(range(m), repeat=m)), np.int64)
        direct = (np.take_along_axis(g, g, axis=1) == np.arange(m)).all(axis=1).sum()
        assert _kernels.involution_scan(m) == direct

    def test_brute_force_at_eight(self):
        assert count_involutions_brute(8) == 764

    def test_brute_budget(self):
        with pytest.raises(BudgetError):
            count_involutions_brute(12)

    def test_brute_budget_is_read_at_call_time(self, monkeypatch):
        monkeypatch.setattr(tables, "SCAN_BUDGET", 27)
        assert count_involutions_brute(3) == 4
        with pytest.raises(BudgetError, match="4\\*\\*4 self-maps exceed the scan budget of 27"):
            count_involutions_brute(4)
        assert count_involutions_brute(4, budget=256) == 10

    def test_failed_cross_check_raises(self, monkeypatch):
        # the check must survive python -O
        monkeypatch.setattr(_kernels, "involution_scan", lambda m: 0)
        with pytest.raises(RuntimeError):
            count_involutions(4)

    def test_count_past_the_digit_limit_is_a_budget_error(self):
        limit = sys.get_int_max_str_digits()
        with pytest.raises(BudgetError, match=rf"T\(3000\) .* {limit}"):
            count_involutions(3000)
        sys.set_int_max_str_digits(0)
        try:
            assert count_involutions(3000).bit_length() > limit * math.log2(10)
        finally:
            sys.set_int_max_str_digits(limit)
        assert len(str(count_involutions(2000))) == 2886

def reference_digits(start, stop, base, width):
    # plain repeated division, one row at a time
    rows = []
    for r in range(start, stop):
        row = []
        for _ in range(width):
            r, d = divmod(r, base)
            row.append(d)
        rows.append(row[::-1])
    return np.array(rows, np.int64).reshape(stop - start, width)


def assert_digits(start, stop, base, width):
    got = _kernels.digits(start, stop, base, width)
    assert got.dtype == np.int64 and got.flags.f_contiguous
    assert np.array_equal(got, reference_digits(start, stop, base, width))


class TestDigitKernel:
    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 9), st.integers(1, 9), st.integers(0, 10**6), st.integers(0, 300))
    def test_random_ranges(self, base, width, start, rows):
        assert_digits(start, start + rows, base, width)

    @pytest.mark.parametrize(
        "start, stop, base, width",
        [
            (0, 1, 2, 3), (5, 6, 3, 4), (7, 8, 7, 7),  # one row
            (0, 5, 1, 3), (3, 9, 1, 1),  # base 1
            (0, 12, 10, 1), (123, 130, 2, 1),  # width 1
            (95, 1005, 10, 4), (1, 70, 2, 7), (0, 3**7, 3, 7),  # several place values
            (4, 4, 3, 2),  # no rows
            (0, 5, 2, 70), (2**62, 2**62 + 3, 2, 70),  # top place values past int64
        ],
    )
    def test_edge_cases(self, start, stop, base, width):
        assert_digits(start, stop, base, width)

    def test_chunk_edges(self):
        # the batches of involution_scan (m digits) and cycle_sweep (m**k digits)
        for m, width in [(6, 6), (7, 7), (8, 8), (3, 9), (2, 8), (2, 16)]:
            total = m**width
            starts = range(0, total, _kernels._CHUNK // width)
            for start in [*starts[1:3], *starts[-2:]]:
                assert_digits(max(start - 5, 0), min(start + 5, total), m, width)
            assert_digits(starts[-1], total, m, width)


class TestIterAllTables:
    @pytest.mark.parametrize("m, k", [(1, 1), (2, 1), (2, 2), (3, 1), (3, 2)])
    def test_every_table_in_row_major_order(self, m, k):
        # (3, 2) has 19,683 tables, more than one chunk of the digit kernel
        assert [t.values() for t in iter_all_tables(m, k)] == list(
            itertools.product(range(m), repeat=m**k)
        )

    def test_budget_is_checked_before_the_first_table(self):
        tables_seen = iter_all_tables(4, 2)
        with pytest.raises(BudgetError, match=r"4\*\*\(4\*\*2\) tables"):
            next(tables_seen)


def brute_ii_tables(m, k):
    # oracle for the fiber-built enumeration: filter every table directly
    return [
        t.values()
        for t in iter_all_tables(m, k)
        if is_induced_involutory(t, 2)
    ]


class TestEnumerateII:
    def test_degenerate_domain(self):
        only = list(enumerate_ii_tables(1, 2))
        assert len(only) == 1 and only[0].values() == (0,)

    def test_matches_brute_force_filter(self):
        for m, k in [(2, 2), (3, 2), (2, 3)]:
            fast = [t.values() for t in enumerate_ii_tables(m, k)]
            assert fast == brute_ii_tables(m, k)

    def test_emitted_in_ascending_order(self):
        vals = [t.values() for t in enumerate_ii_tables(4, 2)]
        assert vals == sorted(vals)

    def test_all_emitted_are_symmetric_and_shift_involutory(self):
        for m in (2, 3, 4):
            for t in enumerate_ii_tables(m, 2):
                assert is_symmetric(t)
                assert is_n_involutory(t, 3)

    def test_single_argument_tables_are_the_involutions(self):
        # at arity 1 induced involutivity is plain involutivity, and the
        # identity involution has minimal order 1 rather than k + 1
        got = [t.values() for t in enumerate_ii_tables(3, 1)]
        assert got == involutions(3)
        orders = [cycle_report(t).minimal_order for t in enumerate_ii_tables(3, 1)]
        assert orders == [1, 2, 2, 2]

    def test_budget_guard(self):
        with pytest.raises(BudgetError):
            list(enumerate_ii_tables(4, 3))

    def test_symmetric_with_one_involutory_argument_is_involutory_in_all(self):
        # checked exhaustively for two arguments over 2 and 3 symbols
        for m in (2, 3):
            for t in iter_all_tables(m, 2):
                if not is_symmetric(t):
                    continue
                for n in range(1, 5):
                    if is_induced_involutory(t, n, j=1):
                        assert is_induced_involutory(t, n)


def minus_sum_tables(m, k):
    # (c - sum x) mod m for each c: for (3,3), (2,4) and (2,5) these are
    # all the induced-involutory tables
    states = list(itertools.product(range(m), repeat=k))
    return sorted(tuple((c - sum(s)) % m for s in states) for c in range(m))


class TestEnumerateSliceBySlice:
    def test_matches_brute_force_filter_at_small_shapes(self):
        for m, k in [(2, 1), (3, 1), (1, 3)]:
            assert [t.values() for t in enumerate_ii_tables(m, k)] == brute_ii_tables(m, k)

    def test_larger_shapes(self):
        for m, k in [(3, 3), (2, 4), (2, 5)]:
            assert [t.values() for t in enumerate_ii_tables(m, k)] == minus_sum_tables(m, k)

    def test_filter_sees_few_candidates(self, monkeypatch):
        seen = []
        ii_filter = _kernels.ii_filter

        def counting(batch, m, k):
            seen.append(batch.shape[0])
            return ii_filter(batch, m, k)

        monkeypatch.setattr(_kernels, "ii_filter", counting)
        assert len(list(enumerate_ii_tables(3, 3))) == 3
        assert sum(seen) <= 100

    def test_budget_is_checked_before_listing_involutions(self, monkeypatch):
        def refuse(m):
            raise AssertionError("involutions listed before the budget check")

        monkeypatch.setattr(tables, "involutions", refuse)
        start = time.perf_counter()
        with pytest.raises(BudgetError, match=r"46206736\*\*\(16\*\*0\) candidate tables"):
            next(enumerate_ii_tables(16, 1))
        assert time.perf_counter() - start < 1.0

    def test_filter_accepts_an_empty_batch(self):
        mask = _kernels.ii_filter(np.empty((0, 9), np.int64), 3, 2)
        assert mask.shape == (0,) and mask.dtype == bool


def reference_loads_table(text):
    """The loader token by token: a column-tracked tuple and an int() per value."""
    tokens, header = [], None
    for ln, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if header is None:
            parts = stripped.split()
            if len(parts) != 2:
                raise ParseError("header must be two integers: m k", ln, 1)
            try:
                m, k = int(parts[0]), int(parts[1])
            except ValueError:
                raise ParseError("header must be two integers: m k", ln, 1) from None
            if m < 1 or k < 1:
                raise ParseError("m and k must both be >= 1", ln, 1)
            header = (m, k)
            continue
        col = 1
        for tok in line.split():
            col = line.index(tok, col - 1) + 1
            tokens.append((tok, ln, col))
            col += len(tok)
    if header is None:
        raise ParseError("missing header line")
    m, k = header
    if len(tokens) != m**k:
        last = tokens[-1][1:] if tokens else (1, 1)
        raise ParseError(f"expected {m ** k} values for m={m}, k={k}, found {len(tokens)}", *last)
    values = []
    for tok, ln, col in tokens:
        try:
            v = int(tok)
        except ValueError:
            raise ParseError(f"bad value {tok!r}", ln, col) from None
        if not 0 <= v < m:
            raise ParseError(f"value {v} out of range 0..{m - 1}", ln, col)
        values.append(v)
    return FiniteTable.from_values(m, k, values)


def load_outcome(load, text):
    try:
        return load(text)
    except ParseError as err:
        return (err.message, err.line, err.column)


class TestTextFormat:
    def test_round_trip(self):
        assert loads_table(dumps_table(ADD_MOD3)) == ADD_MOD3
        assert loads_table(dumps_table(II3_M4)) == II3_M4

    def test_reference_serialization(self):
        text = dumps_table(ADD_MOD3)
        header, *rest = text.strip().splitlines()
        assert header == "3 2"
        assert " ".join(rest).split() == list("012120201")

    def test_comments_and_whitespace(self):
        t = loads_table("# heading\n  3 2\n0 1 2 1 2 0\n# middle\n2 0 1\n")
        assert t == ADD_MOD3

    @pytest.mark.parametrize("newline", [b"\n", b"\r\n", b"\r"])
    def test_file_line_breaks(self, tmp_path, newline):
        path = tmp_path / "t.tbl"
        path.write_bytes(newline.join([b"# sum mod 3", b"3 2", b"0 1 2", b"1 2 0", b"2 0 1", b""]))
        assert load_table(path) == ADD_MOD3

    @pytest.mark.parametrize(
        "raw, message, line, column",
        [
            (b"3 2\n0 1 2\n1 2 \xff0\n2 0 1\n", "invalid UTF-8 byte 0xff", 3, 5),
            (b"\xfe3 2\n", "invalid UTF-8 byte 0xfe", 1, 1),
            # columns count characters, and "\xc3\xa9" is one
            (b"# caf\xc3\xa9 \xe9\r\n3 2\n", "invalid UTF-8 byte 0xe9", 1, 8),
        ],
    )
    def test_a_file_that_is_not_utf8_is_a_parse_error(self, tmp_path, raw, message, line, column):
        path = tmp_path / "t.tbl"
        path.write_bytes(raw)
        with pytest.raises(ParseError) as err:
            load_table(path)
        assert (err.value.message, err.value.line, err.value.column) == (message, line, column)

    def test_malformed_header(self):
        with pytest.raises(ParseError):
            loads_table("3\n0 1 2\n")
        with pytest.raises(ParseError):
            loads_table("a b\n0\n")
        with pytest.raises(ParseError):
            loads_table("# only a comment\n")

    def test_wrong_count(self):
        with pytest.raises(ParseError) as err:
            loads_table("3 2\n0 1 2 1 2 0 2 0\n")
        assert "expected 9" in str(err.value)

    def test_out_of_range_value_with_position(self):
        with pytest.raises(ParseError) as err:
            loads_table("3 2\n0 1 2\n1 5 0\n2 0 1\n")
        assert err.value.line == 3

    @pytest.mark.parametrize(
        "text, message, line, column",
        [
            ("3 2\n0 1 2\n1 x 0\n2 0 1\n", "bad value 'x'", 3, 3),
            ("3 2\n0 1 2\n1 5 0\n2 0 1\n", "value 5 out of range 0..2", 3, 3),
            ("3 2\n0 1 2\n1 -1 0\n2 0 1\n", "value -1 out of range 0..2", 3, 3),
            (
                "3 2\n0 1 2\n1 0 100000000000000000000\n2 0 1\n",
                "value 100000000000000000000 out of range 0..2", 3, 5,
            ),
            # repeated tokens: the column is the token's own, not its first copy's
            ("3 2\n1 1 1 1\n1 1 1 1 3\n", "value 3 out of range 0..2", 3, 9),
            # the first bad token wins, whichever kind
            ("3 1\n0 7 x\n", "value 7 out of range 0..2", 2, 3),
            ("3 1\n0 x 7\n", "bad value 'x'", 2, 3),
            # a wrong count is reported at the last token, before any bad value
            ("3 2\n0 1 2\n1 2 0\n2 0 1 2\n", "expected 9 values for m=3, k=2, found 10", 4, 7),
            ("3 2\n0 1 2\n1 2 0\n2  0\n", "expected 9 values for m=3, k=2, found 8", 4, 4),
            ("3 2\nx 1 2\n1 2 0\n2 0\n", "expected 9 values for m=3, k=2, found 8", 4, 3),
            ("# c\n3 2\n# d\n", "expected 9 values for m=3, k=2, found 0", 1, 1),
            ("3 2\n0\t1\t2\n1\t2\t0\n\t2 \t0\t9\n", "value 9 out of range 0..2", 4, 7),
            ("3 2\r\n0 1 2\r\n1 2 0\r\n2 0 x\r\n", "bad value 'x'", 4, 5),
            ("3 2\n0 1 2\n# note 7\n\n  1 2 0\n\n# z\n2 0 7\n", "value 7 out of range 0..2", 8, 5),
        ],
    )
    def test_error_message_line_and_column(self, text, message, line, column):
        with pytest.raises(ParseError) as err:
            loads_table(text)
        assert (err.value.message, err.value.line, err.value.column) == (message, line, column)

    @pytest.mark.parametrize(
        "text, message, line",
        [
            ("3\n0 1 2\n", "header must be two integers: m k", 1),
            ("# c\n\n  a b\n0\n", "header must be two integers: m k", 3),
            ("0 2\n", "m and k must both be >= 1", 1),
            ("# only a comment\n", "missing header line", 1),
        ],
    )
    def test_header_errors_at_column_one(self, text, message, line):
        with pytest.raises(ParseError) as err:
            loads_table(text)
        assert (err.value.message, err.value.line, err.value.column) == (message, line, 1)

    def test_oversized_header_is_refused_before_any_value(self):
        with pytest.raises(BudgetError, match=r"^10\*\*7 states exceed the analysis budget of 1000000$"):
            loads_table("10 7\nx\n")

    def test_matches_token_by_token_reference(self):
        rng = random.Random(21)
        bad = ["x", "1.0", "0x1", "_1", "²", "-1", "100000000000000000000", "#"]
        good = ["+{}", "0{}", "{}", "\N{ARABIC-INDIC DIGIT ZERO}{}"]
        for _ in range(400):
            m, k = rng.randint(1, 4), rng.randint(1, 3)
            toks = [rng.choice(good).format(rng.randrange(m)) for _ in range(m**k)]
            fault = rng.randrange(5)
            if fault == 1 and toks:
                toks[rng.randrange(len(toks))] = rng.choice(bad + [str(m)])
            elif fault == 2:
                toks.insert(rng.randrange(len(toks) + 1), "0")
            elif fault == 3:
                del toks[rng.randrange(len(toks))]
            lines = [f"{m} {k}"]
            while toks:
                n = rng.randint(1, 4)
                sep = rng.choice([" ", "  ", "\t", " \t"])
                lines.append(rng.choice(["", " ", "\t"]) + sep.join(toks[:n]))
                toks = toks[n:]
                if rng.random() < 0.2:
                    lines.append(rng.choice(["", "  ", "# 7 x", "  # 9"]))
            text = rng.choice(["\n", "\r\n"]).join(lines) + "\n"
            assert load_outcome(loads_table, text) == load_outcome(reference_loads_table, text), text

    def test_plain_digit_texts_match_token_by_token_reference(self):
        # only ASCII digits and ASCII blanks, so every text that holds a digit
        # can take the one-pass numpy parse
        rng = random.Random(22)
        seps = [" ", "\t", "\x0b", "\x0c", "\r\n"]
        for _ in range(400):
            m, k = rng.randint(1, 4), rng.randint(1, 3)
            toks = [rng.choice(["{}", "0{}"]).format(rng.randrange(m)) for _ in range(m**k)]
            fault = rng.randrange(6)
            if fault == 1:
                toks.insert(rng.randrange(len(toks) + 1), "0")
            elif fault == 2:
                del toks[rng.randrange(len(toks))]
            elif fault == 3:
                toks[rng.randrange(len(toks))] = str(rng.randint(m, 99))
            elif fault == 4:
                toks[rng.randrange(len(toks))] = rng.choice(
                    ["99999999999999999999", "10000000000000000000", "00000000000000000000"]
                )
            lines = [f"{m} {k}"]
            while toks:
                n = rng.randint(1, 4)
                line = rng.choice(["", " ", "\t"])
                for tok in toks[:n]:
                    line += tok + rng.choice(seps)
                lines.append(line[:-1] if rng.random() < 0.5 else line)
                toks = toks[n:]
                if rng.random() < 0.2:
                    lines.append(rng.choice(["", "  ", "# 7 x", "  # 9"]))
            text = rng.choice(["\n", "\r\n"]).join(lines) + rng.choice(["", "\n"])
            assert load_outcome(loads_table, text) == load_outcome(reference_loads_table, text), text

    @pytest.mark.parametrize(
        "text, outcome",
        [
            # blanks only: no value, reported at 1:1
            ("1 1\n \n", ("expected 1 values for m=1, k=1, found 0", 1, 1)),
            ("1 1\n\t\x0b\x0c\n", ("expected 1 values for m=1, k=1, found 0", 1, 1)),
            ("2 1\n1\x0b0", (1, 0)),
            ("2 1\n00000000000000000001 0\n", (1, 0)),
            ("3 1\n0 1 99999999999999999999\n", ("value 99999999999999999999 out of range 0..2", 2, 5)),
            # \x85, \x1c and U+2028 break lines; \xa0 is a blank inside one
            ("2 1\n1\x850\n", (1, 0)),
            ("2 1\n1\x852\n", ("value 2 out of range 0..1", 3, 1)),
            ("2 1\x851 0\n", (1, 0)),
            ("2 1\n1\xa00\n", (1, 0)),
            ("2 1\n1\xa02\n", ("value 2 out of range 0..1", 2, 3)),
            ("2 1\xa01 0\n", ("header must be two integers: m k", 1, 1)),
            ("2 2\n1 0\x1c0 1\n", (1, 0, 0, 1)),
            ("2 1\n1\x1c2\n", ("value 2 out of range 0..1", 3, 1)),
            ("2 1\x1c1 0\n", (1, 0)),
            ("2 2\n1 0 0 1\n", (1, 0, 0, 1)),
            ("2 1\n1 2\n", ("value 2 out of range 0..1", 3, 1)),
            ("2 1 1 0\n", (1, 0)),
        ],
    )
    def test_blank_and_line_break_edge_cases(self, text, outcome):
        got = load_outcome(loads_table, text)
        assert (got.values() if isinstance(got, FiniteTable) else got) == outcome
        assert got == load_outcome(reference_loads_table, text)

    @pytest.mark.parametrize(
        "text, values",
        [
            ("3 2\n+0 1 +2\n1 2 0\n2 0 1\n", ADD_MOD3.values()),
            ("11 1\n0 1 2 3 4 5 6 7 8 9 1_0\n", tuple(range(11))),
            ("4 1\n٣ 0 1 2\n", (3, 0, 1, 2)),
            ("3 2\r\n0\t1 2\r\n# c\r\n\r\n1 2 0 2 0 1\r\n", ADD_MOD3.values()),
        ],
    )
    def test_python_integer_syntax_loads(self, text, values):
        assert loads_table(text).values() == values


class TestBudgets:
    def test_state_budget(self):
        t = hat_id(2, 2)
        with pytest.raises(BudgetError):
            cycle_report(t, budget=3)
        with pytest.raises(BudgetError):
            list(enumerate_ii_tables(2, 25, state_budget=10**6))

    def test_state_budget_is_exact_and_forms_no_huge_power(self):
        check_state_budget(10, 6)
        check_state_budget(1, 10**12)
        with pytest.raises(BudgetError):
            check_state_budget(10, 6, budget=10**6 - 1)
        with pytest.raises(BudgetError, match=r"2\*\*1000000000 states"):
            check_state_budget(2, 10**9)

    def test_table_counts_are_refused_without_forming_the_power(self):
        with pytest.raises(BudgetError, match=r"2\*\*\(2\*\*25\) tables"):
            next(iter_all_tables(2, 25))
        with pytest.raises(BudgetError, match=r"2\*\*\(2\*\*18\) candidate tables"):
            next(enumerate_ii_tables(2, 19))
        with pytest.raises(BudgetError, match=r"2000\*\*2000 self-maps"):
            count_involutions_brute(2000)

    @pytest.mark.parametrize(
        "base, exponent, limit, refused",
        [
            (10, 7, 10**7, False), (10, 7, 10**7 - 1, True),
            (2, 23, 2**23, False), (2, 24, 2**23, True),
            (1, 10**12, 1, False), (0, 5, 0, False),
            (3, 10**18, 10**7, True),
            # m**(m**k) tables
            (2, (2, 2), 16, False), (2, (2, 2), 15, True),
            (1, (1, 10**12), 1, False), (3, (3, 10**12), 10**7, True),
        ],
    )
    def test_check_budget_is_exact_at_the_limit(self, base, exponent, limit, refused):
        if not refused:
            check_budget(base, exponent, None, limit, "tables", "test")
            return
        with pytest.raises(BudgetError, match=rf"^{base}\*\*\S+ tables exceed the test budget of {limit}$"):
            check_budget(base, exponent, None, limit, "tables", "test")

    @pytest.mark.parametrize(
        "call, message",
        [
            (lambda: cycle_report(hat_id(2, 2), budget=3), "2**2 states exceed the analysis budget of 3"),
            (lambda: as_permutation(hat_id(2, 2), budget=3), "2**2 states exceed the analysis budget of 3"),
            (
                lambda: is_induced_involutory(hat_id(2, 2), 2, budget=3),
                "2**2 states exceed the analysis budget of 3",
            ),
            (lambda: augment_table(ADD_MOD3, 13), "3**13 states exceed the analysis budget of 1000000"),
            (lambda: loads_table("1000001 1\n"), "1000001**1 states exceed the analysis budget of 1000000"),
            (lambda: count_involutions_brute(9), "9**9 self-maps exceed the scan budget of 50000000"),
            (
                lambda: next(iter_all_tables(2, 25)),
                "2**(2**25) tables exceed the enumeration budget of 10000000",
            ),
            (
                lambda: next(enumerate_ii_tables(2, 19)),
                "2**(2**18) candidate tables exceed the enumeration budget of 10000000",
            ),
            (
                lambda: next(enumerate_ii_tables(16, 1)),
                "46206736**(16**0) candidate tables exceed the enumeration budget of 10000000",
            ),
            (
                lambda: cycle_correspondence_sweep(2, 25),
                "2**(2**25) tables exceed the sweep budget of 10000000",
            ),
            (lambda: hat_id(2, 20), "2**20 states exceed the analysis budget of 1000000"),
            (lambda: project_compose([1, 0], 20), "2**20 states exceed the analysis budget of 1000000"),
            (
                lambda: FiniteTable.from_function(2, 20, lambda *s: s[0]),
                "2**20 states exceed the analysis budget of 1000000",
            ),
        ],
        ids=[
            "cycle_report", "as_permutation", "is_induced_involutory", "augment_table",
            "loads_table", "count_involutions_brute", "iter_all_tables", "enumerate_ii_tables",
            "enumerate_ii_tables-candidates", "cycle_correspondence_sweep", "hat_id",
            "project_compose", "from_function",
        ],
    )
    def test_every_refusal_comes_before_the_work_in_one_form(self, monkeypatch, call, message):
        def refuse(*args):
            raise AssertionError("work started before the budget check")

        for name, fn in inspect.getmembers(_kernels, inspect.isfunction):
            monkeypatch.setattr(_kernels, name, refuse)
        monkeypatch.setattr(tables, "involutions", refuse)
        with pytest.raises(BudgetError) as err:
            call()
        assert str(err.value) == message
