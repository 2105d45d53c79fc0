"""Exhaustive, exact analysis of maps on a finite domain {0, ..., m-1}.

A :class:`FiniteTable` stores all m**k values of a map with k arguments in
row-major order (last argument fastest), so the whole state space can be
analyzed: the first iterate becomes a map on m**k state indices, involutory
orders reduce to lcm-of-cycle-lengths questions, and induced-involution and
symmetry predicates are decided by enumeration.

Elements are 0-based integers.  Every exhaustive operation prices its work as
a power before it starts, and :func:`check_budget` refuses work past its limit
(a module-level budget, or the caller's ``budget=``) with one message form:
``<cost> <what> exceed the <name> budget of <limit>``, the cost as a power.
"""

from __future__ import annotations

import math
import re
import sys
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from . import _kernels
from .engine import KaryMap
from .errors import ArityError, BudgetError, ParseError

#: Largest number of states m**k an exhaustive per-table analysis will touch.
STATE_BUDGET = 10**6
#: Largest number of candidate tables an enumeration will generate.
CANDIDATE_BUDGET = 10**7
#: Largest number of self-maps m**m a brute-force involution count will scan.
SCAN_BUDGET = 5 * 10**7
# one line of table text and its break, at every break str.splitlines knows
_LINE = re.compile("[^{0}]*(?:\r\n|[{0}])?".format("\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"))


# ---------------------------------------------------------------------------
# state indexing

def state_index(state: Sequence[int], m: int) -> int:
    """Row-major index of a state tuple: sum of x_i * m**(k-1-i)."""
    idx = 0
    for x in state:
        if not 0 <= x < m:
            raise ValueError(f"component {x} out of range 0..{m - 1}")
        idx = idx * m + x
    return idx


def state_from_index(idx: int, m: int, k: int) -> tuple[int, ...]:
    """Inverse of :func:`state_index`."""
    if not 0 <= idx < _screened_power(m, k, int(idx)):
        raise ValueError(f"index {idx} out of range 0..{m}**{k} - 1")
    out = []
    for _ in range(k):
        idx, r = divmod(idx, m)
        out.append(r)
    return tuple(reversed(out))


# ---------------------------------------------------------------------------
# the table itself

@dataclass(frozen=True, eq=False)
class FiniteTable:
    """Dense value table of a map {0..m-1}**k -> {0..m-1}."""

    m: int
    k: int
    entries: np.ndarray

    def __post_init__(self):
        if self.m < 1 or self.k < 1:
            raise ValueError("m and k must both be >= 1")
        arr = np.ascontiguousarray(self.entries, dtype=np.int64)
        if arr.ndim != 1 or _screened_power(self.m, self.k, arr.size) != arr.size:
            raise ValueError(f"expected {self.m}**{self.k} entries, got {arr.size}")
        if arr.size and (arr.min() < 0 or arr.max() >= self.m):
            raise ValueError(f"entries must lie in 0..{self.m - 1}")
        arr.setflags(write=False)
        object.__setattr__(self, "entries", arr)

    @classmethod
    def from_values(cls, m: int, k: int, values: Iterable[int]) -> "FiniteTable":
        return cls(m, k, np.fromiter(values, dtype=np.int64))

    @classmethod
    def from_function(cls, m: int, k: int, fn: Callable[..., int]) -> "FiniteTable":
        check_state_budget(m, k)
        vals = [fn(*state_from_index(i, m, k)) for i in range(m**k)]
        return cls.from_values(m, k, vals)

    @property
    def n_states(self) -> int:
        return self.m**self.k

    def apply(self, state: Sequence[int]) -> int:
        if len(state) != self.k:
            raise ArityError(f"state length {len(state)} != arity {self.k}")
        return int(self.entries[state_index(state, self.m)])

    def as_map(self) -> KaryMap:
        return KaryMap(self.k, lambda s: self.apply(s), name=f"table{self.m}x{self.k}")

    def values(self) -> tuple[int, ...]:
        return tuple(self.entries.tolist())

    def __eq__(self, other):
        if not isinstance(other, FiniteTable):
            return NotImplemented
        return (
            self.m == other.m
            and self.k == other.k
            and np.array_equal(self.entries, other.entries)
        )

    def __hash__(self):
        return hash((self.m, self.k, self.entries.tobytes()))

    def __repr__(self):
        return f"FiniteTable(m={self.m}, k={self.k}, entries={self.values()})"


def _screened_power(base: int, exponent: int, cap: int) -> int:
    # base**exponent, or cap + 1 once exponent*log2(base) passes cap's bit
    # length: either way above cap exactly when the power is, and no power
    # past that bit length is formed
    if base > 1 and exponent > cap.bit_length() / math.log2(base):
        return cap + 1
    return base**exponent


def check_budget(
    base: int, exponent: int | tuple, budget: int | None, default: int, what: str, name: str
) -> None:
    """Raise :class:`BudgetError` when base**exponent ``what`` exceed the ``name``
    budget: ``budget``, or ``default`` when it is None.  ``exponent`` is an int
    or a pair (b, e) standing for b**e, as in the m**(m**k) tables on m symbols.
    The cost is screened in log space and compared exactly at the limit, so no
    power past the limit's bit length is formed."""
    limit = default if budget is None else budget
    nested = type(exponent) is tuple
    e = _screened_power(*exponent, limit.bit_length()) if nested else exponent
    if _screened_power(base, e, limit) > limit:
        power = "({}**{})".format(*exponent) if nested else exponent
        raise BudgetError(f"{base}**{power} {what} exceed the {name} budget of {limit}")


def check_state_budget(m: int, k: int, budget: int | None = None) -> None:
    """Refuse m**k states past ``budget`` (:data:`STATE_BUDGET` by default)."""
    check_budget(m, k, budget, STATE_BUDGET, "states", "analysis")


# ---------------------------------------------------------------------------
# permutation structure of the first iterate

@dataclass(frozen=True)
class CycleReport:
    """Cycle decomposition of the first iterate over state indices.

    When the first iterate is bijective the cycles partition all indices and
    ``minimal_order`` (the lcm of the cycle lengths) is the smallest positive
    n with the n-th iterate equal to the identity.  Otherwise no positive
    involutory order exists: ``minimal_order`` is None and ``cycles`` lists
    only the genuinely cyclic states.

    ``cycles`` is the one stored form of the decomposition: ``cycle_lengths``
    and ``per_point_period`` are derived from it on each access, so equality
    and the repr show the three fields alone.
    """

    bijective: bool
    cycles: tuple[tuple[int, ...], ...]
    minimal_order: int | None

    @property
    def cycle_lengths(self) -> tuple[int, ...]:
        return tuple(sorted((len(c) for c in self.cycles), reverse=True))

    @property
    def per_point_period(self) -> dict[int, int]:
        """Each cyclic state's period, its cycle's length, in cycle order."""
        return {s: len(c) for c in self.cycles for s in c}


def _first_iterate(t: FiniteTable, budget: int | None = None) -> tuple[np.ndarray, bool]:
    # the first iterate as a map on state indices, and whether it is injective
    check_state_budget(t.m, t.k, budget)
    return _kernels.table_perm(t.entries, t.m, t.k)


def as_permutation(t: FiniteTable, budget: int | None = None) -> np.ndarray | None:
    """The first iterate as a permutation array, or None if not injective."""
    perm, injective = _first_iterate(t, budget)
    return perm if injective else None


def cycle_report(t: FiniteTable, budget: int | None = None) -> CycleReport:
    """Decompose the first iterate into cycles over state indices.

    Cycles are listed by ascending smallest member and each starts at its
    smallest member, so the output is canonical.
    """
    perm, bijective = _first_iterate(t, budget)
    head, to_head, length = _kernels.cycles(perm, perm.shape[0])
    on = np.flatnonzero(length)
    head, to_head, length = head[on], to_head[on], length[on]
    is_head = head == on
    sizes = length[is_head]
    ends = np.cumsum(sizes)
    end = np.empty(perm.shape[0], np.int64)
    end[on[is_head]] = ends
    # a state to_head steps before its head sits at end - to_head; a head starts its cycle
    pos = end[head] - to_head
    pos[is_head] -= sizes
    order = np.empty_like(on)
    order[pos] = on
    states = tuple(order.tolist())
    bounds = [0] + ends.tolist()
    cycles = tuple(states[a:b] for a, b in zip(bounds, bounds[1:]))
    minimal = math.lcm(*set(sizes.tolist())) if bijective else None
    return CycleReport(bijective, cycles, minimal)


def is_n_involutory(t: FiniteTable, n: int, budget: int | None = None) -> bool:
    """True when the n-th iterate is the identity on every state.

    Decided as: the first iterate is bijective and its minimal order
    divides n.
    """
    if n < 1:
        raise ValueError(f"order must be >= 1, got {n}")
    report = cycle_report(t, budget)
    return report.bijective and n % report.minimal_order == 0


def _trajectory(t: FiniteTable, state: Sequence[int]) -> tuple[list[int], int, bool]:
    # the state indices from ``state`` up to the first repeat, how many of
    # them lead into the cycle, and whether the first iterate is injective
    if len(state) != t.k:
        raise ArityError(f"state length {len(state)} != arity {t.k}")
    idx = state_index(state, t.m)
    perm, injective = _first_iterate(t)
    seen: dict[int, int] = {}
    while idx not in seen:
        seen[idx] = len(seen)
        idx = perm.item(idx)
    return list(seen), seen[idx], injective


def table_iterate(t: FiniteTable, state: Sequence[int], n: int) -> tuple[int, ...]:
    """n-th iterate at one state, read off its trajectory: past the path, n
    is reduced modulo its cycle.  Negative n needs a bijective first iterate."""
    path, tail, injective = _trajectory(t, state)
    if n < 0 and not injective:
        raise ValueError("negative iterates need a bijective first iterate")
    i = n if 0 <= n < len(path) else tail + (n - tail) % (len(path) - tail)
    return state_from_index(path[i], t.m, t.k)


def table_point_order(t: FiniteTable, state: Sequence[int]) -> int | None:
    """Smallest n >= 1 with the n-th iterate fixing ``state``: its cycle
    length, or None when no cycle passes through it.  Exact, not bounded."""
    path, tail, _ = _trajectory(t, state)
    return len(path) if tail == 0 else None


# ---------------------------------------------------------------------------
# induced involutions, symmetry

def is_induced_involutory(
    t: FiniteTable, n: int, j: int | None = None, budget: int | None = None
) -> bool:
    """Check induced involutivity of order n.

    With ``j`` (1-based): for every frozen assignment of the other arguments,
    applying the induced self-map n times must return every element to
    itself.  Without ``j``: the same for every argument position.
    """
    if n < 1:
        raise ValueError(f"order must be >= 1, got {n}")
    if j is not None and not 1 <= j <= t.k:
        raise ValueError(f"argument position {j} out of range 1..{t.k}")
    check_state_budget(t.m, t.k, budget)
    positions = [j - 1] if j is not None else range(t.k)
    return all(
        (_kernels._induced(t.entries[None], t.m, t.k, pos, n) == np.arange(t.n_states)).all()
        for pos in positions
    )


def is_symmetric(t: FiniteTable) -> bool:
    """True when the value is unchanged by any permutation of the arguments.

    Checked on adjacent transpositions only, which generate all permutations.
    """
    m, k = t.m, t.k
    grids = (t.entries.reshape(m**i, m, m, m ** (k - 2 - i)) for i in range(k - 1))
    return all(np.array_equal(grid, grid.swapaxes(1, 2)) for grid in grids)


@dataclass(frozen=True)
class PropertyProfile:
    """Symmetry plus induced-involutivity flags for a table."""

    symmetric: bool
    ii_orders: dict[tuple[int, int], bool]  # (n, j) -> II-n in argument j
    ii: bool  # induced involutory: II-2 in every argument


def property_profile(
    t: FiniteTable, orders: Sequence[int] = (1, 2, 3, 4)
) -> PropertyProfile:
    orders = sorted(set(orders) | {2})
    flags = {
        (n, j): is_induced_involutory(t, n, j)
        for n in orders
        for j in range(1, t.k + 1)
    }
    ii = all(flags[(2, j)] for j in range(1, t.k + 1))
    return PropertyProfile(is_symmetric(t), flags, ii)


# ---------------------------------------------------------------------------
# constructions

def hat_id(m: int, k: int) -> FiniteTable:
    """The first-projection table; its first iterate is the identity."""
    if m < 1 or k < 1:
        raise ValueError("m and k must both be >= 1")
    check_state_budget(m, k)
    return FiniteTable(m, k, np.repeat(np.arange(m, dtype=np.int64), m ** (k - 1)))


def _as_self_map(g: Sequence[int], m: int) -> np.ndarray:
    arr = np.ascontiguousarray(g, dtype=np.int64)
    if arr.shape != (m,):
        raise ValueError(f"expected a self-map table of length {m}")
    if arr.size and (arr.min() < 0 or arr.max() >= m):
        raise ValueError(f"self-map values must lie in 0..{m - 1}")
    return arr


def project_compose(g: Sequence[int], k: int, m: int | None = None) -> FiniteTable:
    """Table of (x1, ..., xk) -> g(x1) for an involution g on the domain.

    The resulting table satisfies ``is_n_involutory(result, 2)``.
    """
    m = len(g) if m is None else m
    check_state_budget(m, k)
    arr = _as_self_map(g, m)
    if not np.array_equal(arr[arr], np.arange(m)):
        raise ValueError("g must satisfy g(g(x)) = x for every x")
    return FiniteTable(m, k, np.repeat(arr, m ** (k - 1)))


def conjugate(t: FiniteTable, g: Sequence[int]) -> FiniteTable:
    """Relabel the domain by a bijection g: new(y) = g^-1(f(g(y1), ..., g(yk))).

    Preserves every involutory order and the cycle-length multiset of the
    first iterate.
    """
    arr = _as_self_map(g, t.m)
    if np.unique(arr).size != t.m:
        raise ValueError("g must be a bijection")
    ginv = np.empty_like(arr)
    ginv[arr] = np.arange(t.m)
    grid = t.entries
    for i in range(t.k):  # substitute g(y_i) for argument i
        grid = grid.reshape(t.m**i, t.m, -1)[:, arr]
    return FiniteTable(t.m, t.k, ginv[grid.reshape(-1)])


# ---------------------------------------------------------------------------
# involution counting and enumeration

def involutions(m: int) -> list[tuple[int, ...]]:
    """All involutions of {0..m-1} in ascending lexicographic order."""
    out: list[tuple[int, ...]] = []
    g = [-1] * m

    def fill(i: int) -> None:
        if i == m:
            out.append(tuple(g))
            return
        if g[i] >= 0:
            fill(i + 1)
            return
        for j in range(i, m):
            if j == i:
                g[i] = i
                fill(i + 1)
                g[i] = -1
            elif g[j] < 0:
                g[i], g[j] = j, i
                fill(i + 1)
                g[i] = g[j] = -1

    fill(0)
    return out


def _telephone(m: int) -> int:
    # T(m) by T(i) = T(i-1) + (i-1) * T(i-2), stopped once the count has
    # more digits than the interpreter converts to text (0: no limit)
    digits = sys.get_int_max_str_digits()
    max_bits = digits * math.log2(10) if digits else math.inf
    a, b = 1, 1  # T(0), T(1)
    for i in range(2, m + 1):
        a, b = b, b + (i - 1) * a
        if b.bit_length() > max_bits:
            raise BudgetError(
                f"T({m}) exceeds the int-to-str digit budget {digits}"
                " (PYTHONINTMAXSTRDIGITS)"
            )
    return b


def count_involutions(m: int) -> int:
    """Number of involutions of an m-element set (the telephone numbers).

    Uses the recursion T(m) = T(m-1) + (m-1) * T(m-2); for small m the count
    is cross-checked against brute-force enumeration of all self-maps.
    Raises :class:`BudgetError` when T(m) has more digits than
    ``sys.get_int_max_str_digits()`` allows to print.
    """
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    count = _telephone(m)
    if m <= 5:
        brute = count_involutions_brute(m)
        if brute != count:
            raise RuntimeError(f"recursion {count} != brute force {brute} at m={m}")
    return count


def count_involutions_brute(m: int, budget: int = SCAN_BUDGET) -> int:
    """Count involutions by scanning all m**m self-maps."""
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    check_budget(m, m, budget, SCAN_BUDGET, "self-maps", "scan")
    return int(_kernels.involution_scan(m))


def iter_all_tables(m: int, k: int, budget: int | None = None) -> Iterator[FiniteTable]:
    """Every table on m symbols with k arguments, ascending row-major order."""
    check_budget(m, (m, k), budget, CANDIDATE_BUDGET, "tables", "enumeration")
    n_states = m**k
    total = m**n_states
    rows = max(1, _kernels._CHUNK // n_states)
    for start in range(0, total, rows):
        for row in _kernels.digits(start, min(start + rows, total), m, n_states):
            yield FiniteTable(m, k, row)


def enumerate_ii_tables(
    m: int,
    k: int,
    state_budget: int | None = None,
    candidate_budget: int | None = None,
) -> Iterator[FiniteTable]:
    """All induced-involutory tables (involution in every argument, every
    context), in ascending row-major encoding order.

    Fixing the last argument cuts a table into m slices of one argument
    fewer, and the table is induced-involutory exactly when every slice is
    and its induced map in the last argument is an involution.  So the
    tables are built one arity at a time from the T(m) involutions: every
    m-tuple of the previous arity's tables is a candidate, and the last
    argument is filtered.  The budget is checked, before any involution is
    listed, against T(m)**(m**(k-1)), which bounds the candidates of every
    arity.
    """
    if m < 1 or k < 1:
        raise ValueError("m and k must both be >= 1")
    check_state_budget(m, k, state_budget)
    check_budget(
        _telephone(m), (m, k - 1), candidate_budget, CANDIDATE_BUDGET,
        "candidate tables", "enumeration",
    )
    rows = np.array(involutions(m), dtype=np.int64).reshape(-1, m)
    for kk in range(2, k + 1):
        n_rows = rows.shape[0]
        choice = _kernels.digits(0, n_rows**m, n_rows, m)
        # cand[c, i * m + v] is entry i of slice choice[c, v]: x_kk = v is fastest
        cand = rows[choice].transpose(0, 2, 1).reshape(n_rows**m, m**kk)
        rows = cand[_kernels.ii_filter(cand, m, kk)]
    for row in sorted(map(tuple, rows.tolist())):
        yield FiniteTable.from_values(m, k, row)


# ---------------------------------------------------------------------------
# text format

def dumps_table(t: FiniteTable) -> str:
    """Serialize: header "m k", then all entries row-major."""
    rows = t.entries.reshape(-1, t.m).tolist()
    return "\n".join([f"{t.m} {t.k}"] + [" ".join(map(str, row)) for row in rows]) + "\n"


def loads_table(text: str) -> FiniteTable:
    """Parse the table text format.

    Lines whose first non-blank character is ``#`` are comments.  The first
    data line must hold the two integers m and k; the following tokens are
    the m**k values in row-major order (last argument fastest), in Python
    integer syntax.  A header with more than :data:`STATE_BUDGET` states
    raises :class:`BudgetError` before any value is read.

    A body of ASCII digits and blanks is converted in one C pass.  Any other
    body, or one that fails there (a wrong count, a value out of range), is
    walked token by token: each value by ``int``, or a :class:`ParseError`
    at the first bad token's line and column.
    """
    for ln, line in enumerate(_LINE.finditer(text), start=1):
        stripped = line[0].strip()
        if not stripped or stripped.startswith("#"):
            continue
        parts = stripped.split()
        if len(parts) != 2:
            raise ParseError("header must be two integers: m k", ln, 1)
        try:
            m, k = int(parts[0]), int(parts[1])
        except ValueError:
            raise ParseError("header must be two integers: m k", ln, 1) from None
        if m < 1 or k < 1:
            raise ParseError("m and k must both be >= 1", ln, 1)
        check_state_budget(m, k)
        break
    else:
        raise ParseError("missing header line")
    body = text[line.end():]
    data = enumerate((x[0] for x in _LINE.finditer(body)), start=ln + 1)  # split when read
    if "#" in body:
        data = [(i, line) for i, line in data if not line.lstrip().startswith("#")]
        body = "".join(line for _, line in data)
    # non-ASCII characters encode as "?", which sends the body to the walk;
    # a blank-only body would read as [0], so it needs at least one digit
    raw = body.encode("ascii", "replace")
    if not raw.translate(None, b"0123456789 \t\n\r\x0b\x0c") and not raw.isspace():
        try:
            # FiniteTable checks the count and the range
            return FiniteTable(m, k, np.fromstring(raw, np.int64, sep=" "))
        except ValueError:
            pass
    return FiniteTable(m, k, _walk_tokens(data, m, k))


def _walk_tokens(data: Iterable[tuple[int, str]], m: int, k: int) -> list[int]:
    # walk the numbered data lines, tracking columns, and return the values,
    # or raise the ParseError for a wrong count (at the last token) or the
    # first bad value
    tokens: list[tuple[str, int, int]] = []
    for ln, line in data:
        col = 1
        for tok in line.split():
            col = line.index(tok, col - 1) + 1
            tokens.append((tok, ln, col))
            col += len(tok)
    expected = m**k
    if len(tokens) != expected:
        raise ParseError(
            f"expected {expected} values for m={m}, k={k}, found {len(tokens)}",
            tokens[-1][1] if tokens else 1,
            tokens[-1][2] if tokens else 1,
        )
    values = []
    for tok, ln, col in tokens:
        try:
            v = int(tok)
        except ValueError:
            raise ParseError(f"bad value {tok!r}", ln, col) from None
        if not 0 <= v < m:
            raise ParseError(f"value {v} out of range 0..{m - 1}", ln, col)
        values.append(v)
    return values


def load_table(path) -> FiniteTable:
    with open(path, "r", encoding="utf-8") as fh:
        return loads_table(fh.read())


def dump_table(t: FiniteTable, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps_table(t))
