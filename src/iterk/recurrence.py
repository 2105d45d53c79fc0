"""Sequence-level view of a k-argument map: generate the order-k recurrence
it represents, detect cycles, and relate sequence periods to point periods
of the first iterate.

The binding contract with the engine is the window identity: the terms at
positions nk+1 .. nk+k (1-based) of the generated sequence equal the n-th
iterate of the seed.  For a state s whose orbit under the first iterate is a
cycle of length n, the seeded sequence is purely periodic and its minimal
period j divides n*k; the checker records how j relates to n (j | n versus
j | n*k) rather than asserting one reading, and separately checks claim 1's
first direction, which gives n from j and k.  The three relations are written
once, as ``_kernels.claim1``'s masks, for one table's report and for the
all-tables sweep alike.

One rule gives every sequence period: the terms repeat after d steps exactly
when their k-term window does.  :func:`detect_minimal_period` walks the
windows once, remembering every 16th, until one recurs; the table report and
the all-tables sweep read j off as the seed's cycle length under the shift.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from itertools import chain

import numpy as np

from . import _kernels
from .engine import Element, KaryMap, iterate as engine_iterate
from .errors import ArityError, _count, _state
from .tables import FiniteTable, check_budget, check_state_budget, cycle_report

#: Largest number of tables a full sweep will visit.
SWEEP_BUDGET = 10**7

#: Default largest witness index (window position) searched for a period.
DETECT_BOUND = 10_000

#: :func:`detect_minimal_period` remembers every this-many-th window.
_MARK_EVERY = 16


@dataclass(frozen=True)
class RecurrenceSpec:
    """A k-argument map together with the k seed terms of its recurrence."""

    map: KaryMap
    seed: tuple

    def __post_init__(self):
        object.__setattr__(self, "seed", _state(self.seed, self.map.arity))


@dataclass(frozen=True)
class CycleFinding:
    """Minimal eventual period of a generated sequence.

    ``minimal_period`` is None when no repetition was found within the
    search bound.  ``preperiod`` is the first index (0-based) from which the
    periodicity holds; ``witness_index`` is the first index of the repeated
    block, i.e. preperiod + minimal_period.
    """

    minimal_period: int | None
    preperiod: int
    witness_index: int | None


def generate(spec: RecurrenceSpec, count: int) -> list[Element]:
    """First ``count`` terms, starting with the seed tuple."""
    k = spec.map.arity
    count = _count(count, "count", k)
    terms = list(spec.seed)
    for _ in range(count - k):
        terms.append(spec.map.apply(terms[-k:]))
    return terms


def consistency_check(spec: RecurrenceSpec, n: int) -> bool:
    """Window identity: terms nk+1 .. nk+k equal the n-th iterate of the seed."""
    n, k = _count(n, "iterate count", 0), spec.map.arity
    terms = generate(spec, (n + 1) * k)
    window = tuple(terms[n * k : (n + 1) * k])
    return window == engine_iterate(spec.map, spec.seed, n)


def detect_minimal_period(
    spec: RecurrenceSpec, bound: int = DETECT_BOUND
) -> CycleFinding:
    """Minimal eventual period of the generated sequence.

    Walks the k-term windows, each the previous one shifted by one term (one
    application of the map; elements must be hashable), keeping the terms in
    a list and every ``_MARK_EVERY``-th window in a dict by index.  Terms
    repeat after d steps from r on exactly when window r + d equals window r,
    and no window before the preperiod recurs, so the first window t in the
    dict repeats mark i, the first at or past the preperiod: t - i is the
    minimal period, and i stepped back while the term a period on is the same
    object or equal is the preperiod.  Window ``bound``, if reached, takes its
    period from its latest match among the earlier windows.  A period is
    found exactly when its witness index is at most ``bound``; the map is
    applied at most ``bound`` times.
    """
    bound = _count(bound, "bound")
    apply, k = spec.map.apply, spec.map.arity
    terms, window, marks = list(spec.seed), tuple(spec.seed), {}
    for t in range(bound):
        i = marks.get(window)
        if i is not None:
            break
        if t % _MARK_EVERY == 0:
            marks[window] = t
        terms.append(apply(window))
        window = window[1:] + (terms[-1],)
    else:
        t, i, j, last = bound, None, -1, terms[bound:]
        # C-level scans to each earlier place of window bound's first term
        for _ in range(terms.count(last[0]) - last.count(last[0])):
            j = terms.index(last[0], j + 1)
            if terms[j : j + k] == last:
                i = j
        if i is None:
            return CycleFinding(None, 0, None)
    period = t - i
    while i and terms[i - 1 : i] == terms[i - 1 + period : i + period]:
        i -= 1
    return CycleFinding(period, i, i + period)


# ---------------------------------------------------------------------------
# correspondence between point periods and sequence periods

@dataclass(frozen=True)
class CorrespondenceRow:
    """Measurements for one cyclic state of a finite table: its period n,
    the period j of the sequence seeded there, and the claim-1 relations."""

    state_index: int
    state: tuple[int, ...]
    state_period: int
    sequence_period: int
    # the claim-1 relations: this state's entries of _kernels.claim1's masks
    direction1_ok: bool
    j_divides_n: bool
    j_divides_nk: bool


@dataclass(frozen=True, eq=False)
class CorrespondenceReport:
    """One table's cyclic states in ascending index order, as one array per
    :class:`CorrespondenceRow` field in the same order (``state`` is [S, k]
    digits); the rows and the tallies are read off them."""

    bijective: bool
    state_index: np.ndarray
    state: np.ndarray
    state_period: np.ndarray
    sequence_period: np.ndarray
    direction1_ok: np.ndarray
    j_divides_n: np.ndarray
    j_divides_nk: np.ndarray

    def columns(self) -> dict[str, list]:
        """The columns as Python lists by field name in row order, states as tuples."""
        cols = {f.name: getattr(self, f.name).tolist() for f in fields(CorrespondenceRow)}
        cols["state"] = list(map(tuple, cols["state"]))
        return cols

    @property
    def rows(self) -> tuple[CorrespondenceRow, ...]:
        return tuple(map(CorrespondenceRow, *self.columns().values()))

    @property
    def states_checked(self) -> int:
        return self.state_index.size

    @property
    def direction1_violations(self) -> int:
        return self.states_checked - int(np.count_nonzero(self.direction1_ok))

    @property
    def j_divides_n_count(self) -> int:
        return int(np.count_nonzero(self.j_divides_n))

    @property
    def j_divides_nk_violations(self) -> int:
        return self.states_checked - int(np.count_nonzero(self.j_divides_nk))


def cycle_correspondence_report(t: FiniteTable) -> CorrespondenceReport:
    """For every state on a cycle of the first iterate, as columns in ascending
    index order: its state period n, read off the report's cycles; the period j
    of the sequence seeded there, its cycle length under the one-term window
    shift; and the claim-1 relations between them, ``_kernels.claim1``'s masks
    as in :func:`cycle_correspondence_sweep`."""
    rep = cycle_report(t)
    sizes = [len(c) for c in rep.cycles]
    n = np.zeros(t.n_states, np.int64)
    n[np.fromiter(chain.from_iterable(rep.cycles), np.int64)] = np.repeat(sizes, sizes)
    idx = np.flatnonzero(n)
    n = n[idx]
    j = _kernels.cycles(_kernels._shift(t.entries, t.m, t.k), t.n_states)[2][idx]
    state = idx[:, None] // t.m ** np.arange(t.k - 1, -1, -1) % t.m
    return CorrespondenceReport(rep.bijective, idx, state, n, j, *_kernels.claim1(n, j, t.k))


@dataclass(frozen=True)
class SweepTallies:
    """Aggregated correspondence results over every table of a given shape."""

    m: int
    k: int
    tables: int
    bijective_tables: int
    cyclic_states: int
    direction1_violations: int
    j_divides_n_count: int
    j_divides_n_failures: int
    j_divides_nk_violations: int


def cycle_correspondence_sweep(
    m: int, k: int, budget: int | None = None
) -> SweepTallies:
    """Tally :func:`cycle_correspondence_report` over all m**(m**k) tables
    whose first iterate is bijective, reading n and j as cycle lengths under
    the first iterate and under the one-term window shift."""
    m, k = _count(m, "m"), _count(k, "k")
    check_budget(m, (m, k), budget, SWEEP_BUDGET, "tables", "sweep")
    return SweepTallies(m, k, *(int(v) for v in _kernels.cycle_sweep(m, k)))


# ---------------------------------------------------------------------------
# arity augmentation

def augment(f: KaryMap, target_arity: int) -> KaryMap:
    """Lift a k-argument map to more arguments without changing the
    recurrence it represents.

    The lifted map forward-fills from its first k arguments using the
    original recurrence rule and then evaluates the original map on the last
    k filled values; the extra trailing arguments are thereby replaced by
    the values the recurrence forces for them.
    """
    k = f.arity
    # at least 0: a target of 0 lifts nothing, and the lift rule says so
    target_arity = _count(target_arity, "target arity", 0)
    _check_lift(k, target_arity)

    def fn(state):
        tilde = list(state[:k])
        for _ in range(target_arity - k):
            tilde.append(f.apply(tuple(tilde[-k:])))
        return f.apply(tuple(tilde[-k:]))

    return KaryMap(target_arity, fn, name=f"{f.name or 'map'}~{target_arity}")


def augment_table(t: FiniteTable, target_arity: int) -> FiniteTable:
    """The table of :func:`augment` of ``t``, for every state at once.

    A lifted value depends on x1..xk alone: it is the term target_arity - k + 1
    recurrence steps past that window, the last digit of the window then, and
    the same for each of the m**(target_arity - k) values of the other arguments.
    """
    target_arity = _count(target_arity, "target arity")
    check_state_budget(t.m, target_arity)
    _check_lift(t.k, target_arity)
    w = _kernels._power(_kernels._shift(t.entries, t.m, t.k), target_arity - t.k + 1)
    return FiniteTable(t.m, target_arity, np.repeat(w % t.m, t.m ** (target_arity - t.k)))


def _check_lift(k: int, target_arity: int) -> None:
    if target_arity <= k:
        raise ArityError(
            f"target arity must exceed the original arity {k}, got {target_arity}"
        )
