"""Exact linear-algebra treatment of affine maps sum(a_i * x_i) + A.

For an affine map the first iterate is itself affine: an exact k-by-k
matrix plus offset vector, read off :func:`engine.first_iterate` at the zero
state and the unit vectors.  The n-th iterate is the n-th power of the
(matrix, offset) pair by square-and-multiply.  The first iterate keeps the
powers pair**(2**j), in less than twice the memory of the largest, which one
call builds anyway; they are replaced whole, never changed in place.  Those of
the set bits of n are applied to the state; no (k+1)-matrix is formed.

The powers run in integers.  When the first iterate is built, its pair is
lifted once to an integral pair (A, b) over one positive denominator D: each
entry is the list of its integer power-basis numerators, phi(N) of them in
Q(zeta_N) as a ``CyclotomicNumber`` stores them and one in Q, so the
rationals and every cyclotomic field share one path.  An entry of a product
is :func:`exactnum._poly_mul` added up over the inner index and reduced once
by :func:`exactnum._reduce`; a square is (A*A, A*b + D*b) over D**2, and the
pair applied to a state u/s is (A*u + s*b)/(D*s).  Each square and
application takes one common gcd out of its entries and denominator; result
values take one gcd each.

The involutory order is decided, not searched for.  The traces of the
matrix's first k powers give its characteristic polynomial, which taken down
to Q must be a product of cyclotomic polynomials Phi_d, d | L: else an
eigenvalue is no root of unity, the order is None, and no square is kept.
L is the lcm of the d with phi(lcm(N, d)) <= k*phi(N), the orders of the
roots of unity of degree <= k over Q(zeta_N).  Every eigenvalue's order is
one of the d found, so a finite order divides their lcm D.  Then the powers
grow at most polynomially, and the order is the lcm of the point orders of 0
and the unit vectors, each the least divisor of D that works, or None when
pair**D moves one of them.

Nothing here touches floating point except
:func:`decreasing_involution_residuals`, which numerically probes a conjugacy
identity between a strictly decreasing involution on the positive reals and
the negation map.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dataclass_field
from fractions import Fraction
from typing import Callable, Sequence

from .engine import Element, KaryMap, State, first_iterate
from .errors import UsageError, _count, _position, _state
from .exactnum import (
    CyclotomicField,
    CyclotomicNumber,
    Field,
    RationalField,
    _canonical,
    _fibonacci_pair,
    _least_exponent,
    _poly_mul,
    _reduce,
    _root_orders_lcm,
    _roots_of_unity,
)


@dataclass(frozen=True)
class AffineMapSpec:
    """Coefficients a_1..a_k and constant A of an affine map, coerced into ``field``."""

    arity: int
    coefficients: tuple
    constant: Element
    field: Field

    def __post_init__(self):
        object.__setattr__(self, "arity", _count(self.arity, "arity"))
        if len(self.coefficients) != self.arity:
            raise UsageError(
                f"expected {self.arity} coefficients, got {len(self.coefficients)}"
            )
        object.__setattr__(self, "coefficients", tuple(map(self.field.coerce, self.coefficients)))
        object.__setattr__(self, "constant", self.field.coerce(self.constant))

    @classmethod
    def rational(cls, coefficients, constant=0) -> "AffineMapSpec":
        return cls(len(c := tuple(coefficients)), c, constant, RationalField())

    def as_kary_map(self) -> KaryMap:
        coeffs, const = self.coefficients, self.constant

        def fn(state):
            acc = const
            for a, x in zip(coeffs, state):
                acc = acc + a * x
            return acc

        return KaryMap(self.arity, fn, name="affine")


# ---------------------------------------------------------------------------
# integral pairs

def _dot(row: list, col: list, order: int) -> list[int]:
    """One entry of a product: the coordinate products over the inner index,
    added into one list and reduced once modulo the cyclotomic polynomial."""
    acc = [0] * (2 * len(row[0]) - 1)
    for x, y in zip(row, col):
        _poly_mul(x, y, acc)
    return _reduce(order, acc)


def _lowest(den: int, *blocks: list) -> tuple[int, tuple]:
    """``den`` and the entry lists of ``blocks`` divided by their common gcd,
    which is taken only until it reaches 1."""
    g = den
    for block in blocks:
        for x in block:
            g = math.gcd(g, *x)
            if g == 1:
                return den, blocks
    return den // g, tuple([[c // g for c in x] for x in block] for block in blocks)


def _integral(elements) -> tuple[list, int]:
    """Integer coordinate lists of field elements over their least common
    denominator; a Fraction has the one coordinate of Q."""
    stored = [(x.nums, x.den) if isinstance(x, CyclotomicNumber)
              else ((x.numerator,), x.denominator) for x in elements]
    den = math.lcm(*(q for _, q in stored))
    return [[c * (den // q) for c in nums] for nums, q in stored], den


@dataclass(frozen=True)
class _IntegralPair:
    """x -> (A x + b) / den, with A as a list of rows.  An entry is the list
    of its integer power-basis coordinates in the field of root order
    ``order`` (1 for Q)."""

    order: int
    matrix: list
    offset: list
    den: int

    def image(self, v: list, s: int) -> list:
        """A v + s b: the pair applied to v / s, over den * s and not yet in
        lowest terms."""
        return [
            [c + s * y for c, y in zip(_dot(row, v, self.order), b)]
            for row, b in zip(self.matrix, self.offset)
        ]

    def after(self, inner: "_IntegralPair") -> "_IntegralPair":
        """This pair applied after ``inner``: (A P, A t + E b) over den * E."""
        cols = list(zip(*inner.matrix))
        rows = [[_dot(row, col, self.order) for col in cols] for row in self.matrix]
        offset = self.image(inner.offset, inner.den)
        den, (*rows, offset) = _lowest(self.den * inner.den, *rows, offset)
        return _IntegralPair(self.order, rows, offset, den)


@dataclass(frozen=True)
class AffineFirstIterate:
    """The first iterate of an affine map: state -> matrix @ state + offset.

    ``matrix`` and ``offset`` hold elements of ``field``, coerced on entry;
    the integral pair that the powers run on is lifted from them once, here.
    The powers pair**(2**j) kept in ``_squares`` are replaced whole: threads read a prefix.
    """

    matrix: tuple
    offset: tuple
    field: Field
    _squares: tuple = dataclass_field(init=False, repr=False, compare=False)

    def __post_init__(self):
        order = self.field.order if isinstance(self.field, CyclotomicField) else 1
        k, coerce = len(self.offset), self.field.coerce
        object.__setattr__(self, "matrix", tuple(tuple(map(coerce, row)) for row in self.matrix))
        object.__setattr__(self, "offset", tuple(map(coerce, self.offset)))
        coords, den = _integral([x for row in self.matrix for x in row] + list(self.offset))
        rows = [coords[i * k : (i + 1) * k] for i in range(k)]
        object.__setattr__(self, "_squares", (_IntegralPair(order, rows, coords[k * k :], den),))

    def _square(self, j: int) -> _IntegralPair:
        """pair**(2**j), squaring the last kept power as needed."""
        squares = self._squares
        while len(squares) <= j:
            squares += (squares[-1].after(squares[-1]),)
            object.__setattr__(self, "_squares", squares)
        return squares[j]

    @property
    def arity(self) -> int:
        return len(self.offset)

    def apply(self, state: Sequence[Element]) -> State:
        return _power_image(self, state, 1)


def build_first_iterate(spec: AffineMapSpec) -> AffineFirstIterate:
    """Read (matrix, offset) off the engine's first iterate: the offset is
    the image of the zero state, column i the image of e_i minus the offset."""
    k = spec.arity
    zero, one = spec.field.zero(), spec.field.one()
    f = spec.as_kary_map()
    offset = first_iterate(f, (zero,) * k)
    columns = [
        first_iterate(f, tuple(one if i == j else zero for i in range(k)))
        for j in range(k)
    ]
    matrix = tuple(tuple(col[i] - offset[i] for col in columns) for i in range(k))
    return AffineFirstIterate(matrix, offset, spec.field)


def _power_image(it: AffineFirstIterate, state: Sequence[Element], n: int) -> State:
    """The n-th iterate of ``state``, taken in through ``it.field.coerce``:
    bit j of n applies the kept 2**j-th power of the pair."""
    v, s = _integral(map(it.field.coerce, _state(state, it.arity)))
    for pair in (it._square(j) for j in range(n.bit_length()) if n >> j & 1):
        s, (v,) = _lowest(pair.den * s, pair.image(v, s))
    if isinstance(it.field, RationalField):
        return tuple(Fraction(x[0], s) for x in v)
    return tuple(_canonical(it._square(0).order, x, s) for x in v)


def affine_iterate(it: AffineFirstIterate, state: Sequence[Element], n: int) -> State:
    """n-th iterate by square-and-multiply on the integral (matrix, offset)
    pair.  The state enters through ``it.field.coerce``, so an element the
    field does not hold is an error (a float or str is a TypeError) and the
    result is in the pair's field; at n = 0 the state's own objects come back."""
    state, n = _state(state, it.arity), _count(n, "iterate count", 0)
    image = _power_image(it, state, n)  # at n = 0: the state, admitted and coerced
    return image if n else state


def affine_involutory_order(it: AffineFirstIterate, bound: int | None) -> int | None:
    """The least n >= 1 with pair**n the identity pair, decided as the module
    docstring says; None if there is none, or none up to ``bound``."""
    bound = bound if bound is None else _count(bound, "bound")
    first, k = it._square(0), it.arity
    power, sums = first, []
    for m in range(k):
        # the trace of matrix**(m+1), the eigenvalues' power sum: for roots of
        # unity an algebraic integer, so its coordinates are integers
        power = first.after(power) if m else first
        t = [sum(c) for c in zip(*(row[i] for i, row in enumerate(power.matrix)))]
        if any(c % power.den for c in t):
            return None
        sums.append([c // power.den for c in t])
    # every eigenvalue's order divides top, so a finite order does too
    top = _roots_of_unity(first.order, sums, _root_orders_lcm(first.order, k))
    if top is None:
        return None
    n, zero, one = 1, it.field.zero(), it.field.one()
    for v in [tuple(one if j == i else zero for j in range(k)) for i in range(-1, k)]:
        if _power_image(it, v, n) != v:  # a point the lcm so far fixes needs no descent
            if _power_image(it, v, top) != v:
                return None
            n = math.lcm(n, _least_exponent(top, lambda m, v=v: _power_image(it, v, m) == v))
    return n if bound is None or n <= bound else None


# ---------------------------------------------------------------------------
# closed forms

def _fib_triple(n: int) -> tuple[int, int, int]:
    # (F[2n-1], F[2n], F[2n+1]), F[2n-1] = F[2n+1] - F[2n] (F[-1] = 1 at n = 0)
    g, h = _fibonacci_pair(2 * n)
    return h - g, g, h


def fibonacci_closed_form(n: int, state: Sequence[Element]) -> State:
    """n-th iterate of the pair-sum map: (F[2n-1]x1 + F[2n]x2, F[2n]x1 + F[2n+1]x2)."""
    x1, x2 = _state(state, 2)
    a, b, c = _fib_triple(_count(n, "iterate count", 0))
    return (a * x1 + b * x2, b * x1 + c * x2)


def sum_map_closed_form(
    k: int, constant: Element, iterate_index: int, state: Sequence[Element]
) -> State:
    """Iterates of (x1, ..., xk) -> A - sum(x): cyclic with period k + 1.

    Reduces the index modulo k+1; step p maps the state to
    (x[k-p+2], ..., xk, A - sum(x), x1, ..., x[k-p]).
    """
    k = _count(k, "arity")
    state = _state(state, k)
    p = _count(iterate_index, "iterate count", 0) % (k + 1)
    if p == 0:
        return state
    total = state[0]
    for x in state[1:]:
        total = total + x
    fresh = constant - total
    return state[k - p + 1 :] + (fresh,) + state[: k - p]


def projection_family_iterate(
    g: Callable[[Element], Element],
    j: int,
    k: int,
    n: int,
    state: Sequence[Element],
) -> State:
    """Iterates of (x1, ..., xk) -> g(x_j).

    The recurrence is the lag rule a[t] = g(a[t-d]), d = k - j + 1, so the
    terms split into d chains, one from each of the seed's last d terms, and
    the n-th iterate is terms nk .. nk+k-1.  Each chain is walked once: g is
    applied n*k times in all.
    """
    k = _count(k, "arity")
    j, state, n = _position(j, k), _state(state, k), _count(n, "iterate count", 0)
    d, out = k - j + 1, list(state)
    for s in range(k - d, k):
        v = state[s]
        for t in range(s + d, n * k + k, d):
            v = g(v)
            if t >= n * k:
                out[t - n * k] = v
    return tuple(out)


def linear_roots_checks(
    order: int,
    which: str,
    iterate_count: int,
    state: Sequence[Element],
    b_power: int = 2,
) -> State:
    """Closed-form iterates of (x1, x2) -> a*x1 + b*x2 with a, b distinct
    non-unit roots of unity of the given order (a the primitive root, b its
    ``b_power``-th power).

    ``which`` selects what is evaluated:

    * ``"induced-1"``: c applications in the first argument only:
      (a**c x1 + b (1-a**c)/(1-a) x2, x2).
    * ``"induced-2"``: same in the second argument.
    * ``"full"``: the product form
      (F[2c-1] a**c x1 + F[2c] a**(c+1) x2, F[2c] a**(c+2) x1 + F[2c+1] a**c x2),
      which reproduces the true iterate when b is the square of a and a cubes
      to one; for other roots it is just the displayed expression.

    When a full induced cycle is requested (count divisible by the order) the
    result is checked to reproduce the input exactly.
    """
    state, c = _state(state, 2), _count(iterate_count, "iterate count", 0)
    fld = CyclotomicField(order)
    a = fld.zeta()
    b = fld.zeta(b_power)
    one = fld.one()
    if a == one or b == one:
        raise UsageError("coefficients must not be unity (division by 1 - a)")
    if a == b:
        raise UsageError("coefficients must be distinct roots")
    x1, x2 = (fld.coerce(x) for x in state)
    if which == "induced-1":
        res = (a**c) * x1 + b * ((one - a**c) / (one - a)) * x2
        if c % order == 0 and not res.equals(x1):
            raise RuntimeError("induced cycle failed to return its argument")
        return (res, x2)
    if which == "induced-2":
        res = (b**c) * x2 + a * ((one - b**c) / (one - b)) * x1
        if c % order == 0 and not res.equals(x2):
            raise RuntimeError("induced cycle failed to return its argument")
        return (x1, res)
    if which == "full":
        f0, f1, f2 = _fib_triple(c)
        return (
            f0 * (a**c) * x1 + f1 * (a ** (c + 1)) * x2,
            f1 * (a ** (c + 2)) * x1 + f2 * (a**c) * x2,
        )
    raise UsageError(f"unknown check kind {which!r}")


def roots_map_spec(order: int = 3, b_power: int = 2) -> AffineMapSpec:
    """The map (x1, x2) -> zeta*x1 + zeta**b_power*x2 as an affine spec."""
    fld = CyclotomicField(order)
    return AffineMapSpec(2, (fld.zeta(), fld.zeta(b_power)), fld.zero(), fld)


# ---------------------------------------------------------------------------
# floating-point demo: a strictly decreasing involution conjugate to negation

def _h(x: float) -> float:
    if x <= 0:
        raise UsageError("h is defined for positive x only")
    e = math.exp(x)
    return math.log((e + 1.0) / (e - 1.0))


def _g(x: float) -> float:
    if x <= 0:
        raise UsageError("g is defined for positive x only")
    return math.log2(math.exp(x) - 1.0) - 0.5


@dataclass(frozen=True)
class ResidualSummary:
    """Worst-case residuals of the involution and conjugacy identities."""

    max_involution_residual: float
    max_conjugacy_residual: float
    fixed_point: float
    fixed_point_residual: float
    samples: int


def decreasing_involution_residuals(
    sample_count: int, lo: float, hi: float
) -> ResidualSummary:
    """Probe h(x) = log((e^x+1)/(e^x-1)) on log-spaced samples in [lo, hi].

    Reports max |h(h(x)) - x| (involution) and max |g(h(x)) + g(x)| with
    g(x) = log2(e^x - 1) - 1/2, i.e. the conjugacy between h and negation
    written at evaluation level, plus the fixed point of h: h(x) = x exactly
    when e^x = 1 + sqrt(2), so x = log(1 + sqrt(2)) = asinh(1).
    """
    sample_count = _count(sample_count, "sample count")
    if not 0 < lo < hi:
        raise UsageError("need 0 < lo < hi")
    max_inv = 0.0
    max_conj = 0.0
    llo, lhi = math.log(lo), math.log(hi)
    for i in range(sample_count):
        t = llo if sample_count == 1 else llo + (lhi - llo) * i / (sample_count - 1)
        x = math.exp(t)
        max_inv = max(max_inv, abs(_h(_h(x)) - x))
        max_conj = max(max_conj, abs(_g(_h(x)) + _g(x)))
    xstar = math.asinh(1.0)
    return ResidualSummary(
        max_inv, max_conj, xstar, abs(_h(xstar) - xstar), sample_count
    )
