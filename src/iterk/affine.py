"""Exact linear-algebra treatment of affine maps sum(a_i * x_i) + A.

For an affine map the first iterate is itself affine: an exact k-by-k
matrix plus offset vector, read off :func:`engine.first_iterate` at the zero
state and the unit vectors.  Matrix products are numpy ``dtype=object``
products over the exact scalars.  The n-th iterate is the n-th power of the
(matrix, offset) pair, taken by square-and-multiply and applied to the state
as it goes; no homogeneous (k+1)-matrix is formed.  The scalar domain is either the rationals or a
cyclotomic field, both through the same code; nothing here touches floating
point except :func:`decreasing_involution_residuals`, which numerically
probes a conjugacy identity between a strictly decreasing involution on the
positive reals and the negation map.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

import numpy as np

from .engine import Element, KaryMap, State, first_iterate, iterate as engine_iterate
from .errors import ArityError
from .exactnum import CyclotomicField, Field, RationalField, fibonacci


@dataclass(frozen=True)
class AffineMapSpec:
    """Coefficients a_1..a_k and constant A of an affine map, over ``field``."""

    arity: int
    coefficients: tuple
    constant: Element
    field: Field

    def __post_init__(self):
        if self.arity < 1:
            raise ArityError(f"arity must be >= 1, got {self.arity}")
        if len(self.coefficients) != self.arity:
            raise ValueError(
                f"expected {self.arity} coefficients, got {len(self.coefficients)}"
            )

    @classmethod
    def rational(cls, coefficients, constant=0) -> "AffineMapSpec":
        coeffs = tuple(Fraction(c) for c in coefficients)
        return cls(len(coeffs), coeffs, Fraction(constant), RationalField())

    def as_kary_map(self) -> KaryMap:
        coeffs, const = self.coefficients, self.constant

        def fn(state):
            acc = const
            for a, x in zip(coeffs, state):
                acc = acc + a * x
            return acc

        return KaryMap(self.arity, fn, name="affine")


@dataclass(frozen=True)
class AffineFirstIterate:
    """The first iterate of an affine map: state -> matrix @ state + offset."""

    matrix: tuple
    offset: tuple
    field: Field

    @property
    def arity(self) -> int:
        return len(self.offset)

    def apply(self, state: Sequence[Element]) -> State:
        if len(state) != self.arity:
            raise ArityError(f"state length {len(state)} != arity {self.arity}")
        product = np.array(self.matrix, dtype=object) @ np.array(state, dtype=object)
        return tuple(product + self.offset)


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


def affine_iterate(it: AffineFirstIterate, state: Sequence[Element], n: int) -> State:
    """n-th iterate by square-and-multiply on the (matrix, offset) pair.

    Bit j of n applies (A_j, b_j), the 2**j-th iterate, to the state; the
    next pair is its square, (A_j @ A_j, A_j @ b_j + b_j).  At n = 0 the
    state comes back with its own element types.
    """
    if len(state) != it.arity:
        raise ArityError(f"state length {len(state)} != arity {it.arity}")
    if n < 0:
        raise ValueError(f"iterate count must be >= 0, got {n}")
    a, b = np.array(it.matrix, dtype=object), np.array(it.offset, dtype=object)
    v = np.array(state, dtype=object)
    while n:
        if n & 1:
            v = a @ v + b
        n >>= 1
        if n:
            a, b = a @ a, a @ b + b
    return tuple(v)


def affine_involutory_order(it: AffineFirstIterate, bound: int) -> int | None:
    """Least n <= bound with matrix**n the identity and zero accumulated
    offset, or None if no such n exists within the bound."""
    if bound < 1:
        raise ValueError(f"bound must be >= 1, got {bound}")
    zero = it.field.zero()
    a, b = np.array(it.matrix, dtype=object), np.array(it.offset, dtype=object)
    ident = np.identity(it.arity, dtype=object)
    power, shift = a, b
    for n in range(1, bound + 1):
        # compare elementwise: a CyclotomicNumber defines no __bool__, so
        # even a zero one is truthy
        if (power == ident).all() and (shift == zero).all():
            return n
        power, shift = a @ power, a @ shift + b
    return None


# ---------------------------------------------------------------------------
# closed forms

def _fib_triple(n: int) -> tuple[int, int, int]:
    # (F[2n-1], F[2n], F[2n+1]); at n = 0 use F[-1] = 1 so the identity drops out
    if n == 0:
        return 1, 0, 1
    f = fibonacci(2 * n - 1)
    g = fibonacci(2 * n)
    return f, g, f + g


def fibonacci_closed_form(n: int, state: Sequence[Element]) -> State:
    """n-th iterate of the pair-sum map: (F[2n-1]x1 + F[2n]x2, F[2n]x1 + F[2n+1]x2)."""
    if len(state) != 2:
        raise ArityError("the pair-sum closed form needs a state of 2 elements")
    if n < 0:
        raise ValueError(f"iterate count must be >= 0, got {n}")
    x1, x2 = state
    a, b, c = _fib_triple(n)
    return (a * x1 + b * x2, b * x1 + c * x2)


def sum_map_closed_form(
    k: int, constant: Element, iterate_index: int, state: Sequence[Element]
) -> State:
    """Iterates of (x1, ..., xk) -> A - sum(x): cyclic with period k + 1.

    Reduces the index modulo k+1; step p maps the state to
    (x[k-p+2], ..., xk, A - sum(x), x1, ..., x[k-p]).
    """
    if len(state) != k:
        raise ArityError(f"state length {len(state)} != arity {k}")
    state = tuple(state)
    p = iterate_index % (k + 1)
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

    Closed forms exist when the map reads its first argument (componentwise
    application of the n-th iterate of g) or its last (a window of nk
    successive applications of g to x_k); any other position falls back to
    the step-by-step engine.
    """
    if not 1 <= j <= k:
        raise ArityError(f"position {j} out of range 1..{k}")
    if len(state) != k:
        raise ArityError(f"state length {len(state)} != arity {k}")
    if n < 0:
        raise ValueError(f"iterate count must be >= 0, got {n}")
    state = tuple(state)
    if n == 0:
        return state
    if j == 1:
        out = []
        for x in state:
            for _ in range(n):
                x = g(x)
            out.append(x)
        return tuple(out)
    if j == k:
        v = state[-1]
        for _ in range(n * k - k + 1):
            v = g(v)
        out = [v]
        for _ in range(k - 1):
            v = g(v)
            out.append(v)
        return tuple(out)
    fallback = KaryMap(k, lambda xs: g(xs[j - 1]), name=f"proj{j}")
    return engine_iterate(fallback, state, n)


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
    if len(state) != 2:
        raise ArityError("roots-of-unity checks need a state of 2 elements")
    if iterate_count < 0:
        raise ValueError(f"iterate count must be >= 0, got {iterate_count}")
    fld = CyclotomicField(order)
    a = fld.zeta()
    b = fld.zeta(b_power)
    one = fld.one()
    if a == one or b == one:
        raise ValueError("coefficients must not be unity (division by 1 - a)")
    if a == b:
        raise ValueError("coefficients must be distinct roots")
    x1, x2 = (fld.coerce(x) for x in state)
    c = iterate_count
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
    raise ValueError(f"unknown check kind {which!r}")


def roots_map_spec(order: int = 3, b_power: int = 2) -> AffineMapSpec:
    """The map (x1, x2) -> zeta*x1 + zeta**b_power*x2 as an affine spec."""
    fld = CyclotomicField(order)
    return AffineMapSpec(2, (fld.zeta(), fld.zeta(b_power)), fld.zero(), fld)


# ---------------------------------------------------------------------------
# floating-point demo: a strictly decreasing involution conjugate to negation

def _h(x: float) -> float:
    if x <= 0:
        raise ValueError("h is defined for positive x only")
    e = math.exp(x)
    return math.log((e + 1.0) / (e - 1.0))


def _g(x: float) -> float:
    if x <= 0:
        raise ValueError("g is defined for positive x only")
    return math.log2(math.exp(x) - 1.0) - 0.5


@dataclass(frozen=True)
class ResidualSummary:
    """Worst-case residuals of the involution and conjugacy identities."""

    max_involution_residual: float
    max_conjugacy_residual: float
    fixed_point: float
    fixed_point_residual: float
    samples: int


def decreasing_involution_fixed_point(lo: float = 0.5, hi: float = 1.5) -> float:
    """Locate the symmetric point h(x) = x by bisection; h(x) - x is
    strictly decreasing so the root is unique."""
    flo, fhi = _h(lo) - lo, _h(hi) - hi
    if flo < 0 or fhi > 0:
        raise ValueError("bisection bracket does not straddle the fixed point")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if _h(mid) - mid > 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def decreasing_involution_residuals(
    sample_count: int, lo: float, hi: float
) -> ResidualSummary:
    """Probe h(x) = log((e^x+1)/(e^x-1)) on log-spaced samples in [lo, hi].

    Reports max |h(h(x)) - x| (involution) and max |g(h(x)) + g(x)| with
    g(x) = log2(e^x - 1) - 1/2, i.e. the conjugacy between h and negation
    written at evaluation level, plus the bisection fixed point of h.
    """
    if sample_count < 1:
        raise ValueError(f"sample count must be >= 1, got {sample_count}")
    if not 0 < lo < hi:
        raise ValueError("need 0 < lo < hi")
    max_inv = 0.0
    max_conj = 0.0
    llo, lhi = math.log(lo), math.log(hi)
    for i in range(sample_count):
        t = llo if sample_count == 1 else llo + (lhi - llo) * i / (sample_count - 1)
        x = math.exp(t)
        max_inv = max(max_inv, abs(_h(_h(x)) - x))
        max_conj = max(max_conj, abs(_g(_h(x)) + _g(x)))
    xstar = decreasing_involution_fixed_point()
    return ResidualSummary(
        max_inv, max_conj, xstar, abs(_h(xstar) - xstar), sample_count
    )
