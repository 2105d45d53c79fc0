"""Exact scalar arithmetic: integers, rationals, and roots of unity.

Rationals are stdlib :class:`fractions.Fraction` values (always in lowest
terms, positive denominator).  Roots of unity live in the field obtained by
adjoining a primitive n-th root ``z`` to the rationals.  An element is its
residue modulo the n-th cyclotomic polynomial Phi_n, stored as phi(n) integer
power-basis numerators over one positive denominator, with gcd 1 (H. Cohen,
*A Course in Computational Algebraic Number Theory*, section 4.2).  A value
has one stored form, so equality is exact and order checks are honest
equality tests rather than floating-point tolerances.

Every operation is integer work ending in at most one gcd: sums cross-multiply
the numerators, an int or Fraction operand scales or shifts them, and a product
multiplies two integer polynomials and folds the high powers back with cached
integer rows ``z^i mod Phi_n`` (Phi_n is monic and integral).  No polynomial is
divided: ``Phi_n`` is the Moebius product of the ``(1 - x^d)^mu(n/d)``, and an
inverse is the product of the other Galois conjugates over the norm.

All values in one computation must share a single root order n; callers mix
orders by embedding into a common multiple first (``z_a -> z_lcm^(lcm/a)``).

This module is arithmetic only and reads no text: a rendered value parses
back through the definition grammar, with :func:`iterk.parser.parse_cyclo`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm

from .errors import BudgetError

#: Largest root order for which the reduction modulus is computed.
MAX_ROOT_ORDER = 64


def fibonacci(n: int) -> int:
    """n-th Fibonacci number with F0 = 0 and F1 = 1."""
    if n < 0:
        raise ValueError(f"index must be >= 0, got {n}")
    return _fibonacci_pair(n)[0]


def _fibonacci_pair(n: int) -> tuple[int, int]:
    # (F[n], F[n+1]) by fast doubling, from the top bit of n down
    a, b = 0, 1
    for bit in bin(n)[2:]:
        a, b = a * (2 * b - a), a * a + b * b  # (F[2m], F[2m+1]) from (F[m], F[m+1])
        if bit == "1":
            a, b = b, a + b
    return a, b


# ---------------------------------------------------------------------------
# polynomials as ascending coefficient lists of integers: one product and one
# reduction modulo the cyclotomic polynomial, and no division anywhere

def _poly_mul(a, b, out: list[int] | None = None) -> list[int]:
    """The product of two integer polynomials, added into ``out`` when given."""
    out = [0] * (len(a) + len(b) - 1) if out is None else out
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] += ai * bj
    return out


def _mobius(n: int) -> int:
    # 0 unless n is squarefree, else -1 to the number of its prime factors
    mu, p = 1, 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            mu = -mu
        p += 1
    return -mu if n > 1 else mu


@dataclass(frozen=True)
class CycloPolynomial:
    """The n-th cyclotomic polynomial: monic, integer, divides x^n - 1."""

    order: int
    coefficients: tuple[int, ...]  # ascending powers

    @property
    def degree(self) -> int:
        return len(self.coefficients) - 1


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int) -> CycloPolynomial:
    """Compute the n-th cyclotomic polynomial.

    For n > 1 it is the Moebius product over the divisors d of n of
    (1 - x^d)^mu(n/d), whose signs against the (x^d - 1)^mu(n/d) cancel
    because the mu(n/d) sum to 0.  It is expanded as a power series up to
    its degree phi(n) = sum d*mu(n/d).  A factor 1 - x^d is a descending pass
    ``c[i] -= c[i-d]`` and a factor 1/(1 - x^d) an ascending pass
    ``c[i] += c[i-d]``, so every step is an integer addition.
    """
    if n < 1:
        raise ValueError(f"order must be >= 1, got {n}")
    if n > MAX_ROOT_ORDER:
        raise BudgetError(
            f"root order {n} exceeds the supported bound {MAX_ROOT_ORDER}"
        )
    if n == 1:
        return CycloPolynomial(1, (-1, 1))
    factors = [(d, _mobius(n // d)) for d in range(1, n + 1) if n % d == 0]
    deg = sum(d * mu for d, mu in factors)
    c = [1] + [0] * deg
    for d, mu in factors:
        if mu == 1:
            for i in range(deg, d - 1, -1):
                c[i] -= c[i - d]
        elif mu == -1:
            for i in range(d, deg + 1):
                c[i] += c[i - d]
    return CycloPolynomial(n, tuple(c))


@lru_cache(maxsize=None)
def _reduction_rows(order: int) -> tuple[int, tuple[tuple[tuple[int, int], ...], ...]]:
    """d and z^i mod the order-th cyclotomic polynomial for d <= i < max(2d-1, order).

    d is the polynomial's degree.  Row i - d lists the nonzero (power,
    coefficient) pairs of the residue; the polynomial is monic and integral,
    so every coefficient is an integer.  The range covers a product of two
    residues (degree <= 2d-2) and any power of the root below ``order``.
    """
    phi = cyclotomic_polynomial(order).coefficients
    d = len(phi) - 1
    row = [-c for c in phi[:d]]  # z^d
    rows = []
    for _ in range(d, max(2 * d - 1, order)):
        rows.append(tuple((j, c) for j, c in enumerate(row) if c))
        top = row[-1]  # times z: shift up, fold the z^d term back
        row = [0] + row[:-1]
        if top:
            row = [c - top * p for c, p in zip(row, phi)]
    return d, tuple(rows)


def _reduce(order: int, coeffs: list[int]) -> list[int]:
    """The residue of a fresh integer polynomial, as d integers: the list is
    folded in place and returned, unchanged when it has no power to fold."""
    d, rows = _reduction_rows(order)
    if len(coeffs) != d:
        for i in range(d, len(coeffs)):
            c = coeffs[i]
            if c:
                for j, r in rows[i - d]:
                    coeffs[j] += c * r
        del coeffs[d:]
        coeffs += [0] * (d - len(coeffs))
    return coeffs


def _canonical(order: int, nums, den: int) -> "CyclotomicNumber":
    """The value ``nums / den`` (den > 0) with one gcd taken out."""
    g = gcd(den, *nums)
    return _make(order, tuple([c // g for c in nums] if g != 1 else nums), den // g)


@dataclass(frozen=True, slots=True, init=False, repr=False, eq=False)
class CyclotomicNumber:
    """Element of the rationals extended by a primitive ``order``-th root of unity.

    An immutable ``sum(nums[i] * z**i) / den``: phi(order) integers ``nums`` over
    a positive ``den`` with ``gcd(den, *nums) == 1``.  The constructor takes
    phi(order) int or Fraction coordinates, which ``coeffs`` returns as
    lowest-terms Fractions.  Two values must share their order (see :meth:`embed`);
    ints and Fractions mix freely, and a rational value equals and hashes like
    its Fraction, at any order.  Non-rational values of different orders are
    unequal: embed to compare.
    """

    order: int
    nums: tuple[int, ...]
    den: int

    def __new__(cls, order: int, coeffs):
        d = cyclotomic_polynomial(order).degree
        if len(coeffs) != d:
            raise ValueError(f"root order {order} takes {d} coordinates, got {len(coeffs)}")
        for c in coeffs:
            if not isinstance(c, (int, Fraction)):
                raise TypeError(f"coordinate {c!r} is not an int or Fraction")
        # over the lcm of lowest-terms denominators the gcd is already 1
        den = lcm(*(c.denominator for c in coeffs))
        return _make(order, tuple([c.numerator * (den // c.denominator) for c in coeffs]), den)

    def __reduce__(self):
        return _make, (self.order, self.nums, self.den)

    # -- constructors -------------------------------------------------------

    @classmethod
    def from_rational(cls, value, order: int = 1) -> "CyclotomicNumber":
        """An int, Fraction or rational CyclotomicNumber as a value of root
        order ``order``; any other type (float, str, ...) is a TypeError."""
        q = _rational(value)
        pad = (0,) * (cyclotomic_polynomial(order).degree - 1)
        return _make(order, (q.numerator,) + pad, q.denominator)

    @classmethod
    def zero(cls, order: int) -> "CyclotomicNumber":
        return cls.from_rational(0, order)

    @classmethod
    def one(cls, order: int) -> "CyclotomicNumber":
        return cls.from_rational(1, order)

    @classmethod
    def zeta(cls, order: int, power: int = 1) -> "CyclotomicNumber":
        """The primitive root raised to ``power`` (any integer)."""
        return _make(order, tuple(_reduce(order, [0] * (power % order) + [1])), 1)

    # -- helpers ------------------------------------------------------------

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """The coordinates as lowest-terms Fractions, ascending powers."""
        return tuple(Fraction(c, self.den) for c in self.nums)

    def is_zero(self) -> bool:
        return not any(self.nums)

    def is_rational(self) -> bool:
        return not any(self.nums[1:])

    def rational_value(self) -> Fraction:
        if not self.is_rational():
            raise ValueError(f"{self} is not rational")
        return Fraction(self.nums[0], self.den)

    def embed(self, order: int) -> "CyclotomicNumber":
        """Re-express this value in the field of a multiple root order."""
        if order % self.order != 0:
            raise ValueError(f"{order} is not a multiple of {self.order}")
        if order == self.order:
            return self
        step = order // self.order
        out = [0] * (len(self.nums) * step)
        out[::step] = self.nums
        return _canonical(order, _reduce(order, out), self.den)

    # -- field operations ---------------------------------------------------

    def _check_order(self, other: "CyclotomicNumber") -> None:
        if other.order != self.order:
            raise ValueError(f"mixed root orders {self.order} and {other.order}; embed first")

    def _add(self, other, sign: int):
        """self + sign * other; an integer shifts numerator 0 and needs no gcd."""
        a, da = self.nums, self.den
        if isinstance(other, (int, Fraction)):
            if other.denominator == 1:
                return _make(self.order, (a[0] + sign * other.numerator * da,) + a[1:], da)
            b, db = (other.numerator,) + (0,) * (len(a) - 1), other.denominator
        elif isinstance(other, CyclotomicNumber):
            self._check_order(other)
            b, db = other.nums, other.den
        else:
            return NotImplemented
        if da == db:
            return _canonical(self.order, [x + sign * y for x, y in zip(a, b)], da)
        return _canonical(self.order, [x * db + sign * y * da for x, y in zip(a, b)], da * db)

    def __add__(self, other):
        return self._add(other, 1)

    __radd__ = __add__

    def __sub__(self, other):
        return self._add(other, -1)

    def __rsub__(self, other):
        return (-self)._add(other, 1)

    def __neg__(self):
        return _make(self.order, tuple(-c for c in self.nums), self.den)

    def __mul__(self, other):
        if isinstance(other, CyclotomicNumber):
            self._check_order(other)
            prod = _reduce(self.order, _poly_mul(self.nums, other.nums))
            return _canonical(self.order, prod, self.den * other.den)
        if isinstance(other, (int, Fraction)):
            p, q = other.numerator, other.denominator
            return _canonical(self.order, [c * p for c in self.nums], self.den * q)
        return NotImplemented

    __rmul__ = __mul__

    def inverse(self) -> "CyclotomicNumber":
        """Multiplicative inverse from the Galois norm.

        With x = nums/den and R the product of the conjugates x(z^u) of nums
        for the units u != 1 modulo the order, R*nums is the norm of nums, a
        nonzero integer, so 1/x = den*R / norm.
        """
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero")
        n, nums = self.order, self.nums
        r = [1]
        for u in range(2, n):
            if gcd(u, n) == 1:
                conj = [0] * n
                for i, c in enumerate(nums):
                    conj[i * u % n] = c
                r = _reduce(n, _poly_mul(r, _reduce(n, conj)))
        norm = _reduce(n, _poly_mul(r, nums))[0]
        den = self.den if norm > 0 else -self.den
        return _canonical(n, [c * den for c in r], abs(norm))

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            return self * (1 / Fraction(other))
        return self * other.inverse() if isinstance(other, CyclotomicNumber) else NotImplemented

    def __rtruediv__(self, other):
        return self.inverse() * other if isinstance(other, (int, Fraction)) else NotImplemented

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int):
            return NotImplemented
        base = self if exponent >= 0 else self.inverse()
        acc = base if exponent else CyclotomicNumber.one(self.order)
        for bit in bin(abs(exponent))[3:]:
            acc = acc * acc
            if bit == "1":
                acc = acc * base
        return acc

    def equals(self, other: "CyclotomicNumber") -> bool:
        """Equality of two values of the same order; mixed orders are an error."""
        if not isinstance(other, CyclotomicNumber):
            raise TypeError(f"expected CyclotomicNumber, got {type(other)!r}")
        self._check_order(other)
        return self == other

    def __eq__(self, other):
        if isinstance(other, CyclotomicNumber):
            if self.order != other.order and self.is_rational():
                return other == self.rational_value()
            return (self.order, self.den, self.nums) == (other.order, other.den, other.nums)
        if isinstance(other, (int, Fraction)):
            q = other.numerator, other.denominator
            return self.is_rational() and (self.nums[0], self.den) == q
        return NotImplemented

    def __hash__(self):
        if self.is_rational():
            return hash(Fraction(self.nums[0], self.den))
        return hash((self.order, self.nums, self.den))

    # -- rendering ----------------------------------------------------------

    def render(self) -> str:
        """Canonical polynomial string in ``z``, e.g. ``-1/2*z + 3``;
        :func:`iterk.parser.parse_cyclo` reads it back given the order."""
        terms = []
        for p, c in reversed(list(enumerate(self.coeffs))):
            base = "z" if p == 1 else f"z^{p}"
            if c and p:
                terms.append(base if c == 1 else f"-{base}" if c == -1 else f"{c}*{base}")
            elif c:
                terms.append(str(c))
        out = terms[0] if terms else "0"
        for t in terms[1:]:
            out += f" - {t[1:]}" if t.startswith("-") else f" + {t}"
        return out

    def __str__(self):
        return self.render()

    def __repr__(self):
        return f"CyclotomicNumber({self.order}, {self.render()!r})"


_set_order, _set_nums, _set_den = (
    getattr(CyclotomicNumber, f).__set__ for f in CyclotomicNumber.__slots__
)


def _rational(value) -> Fraction:
    """The one admission rule for rationals: float, str, Decimal, ... are a TypeError."""
    if isinstance(value, (int, Fraction)):
        return Fraction(value)
    if isinstance(value, CyclotomicNumber):
        return value.rational_value()
    raise TypeError(f"{value!r} is not an int, Fraction or CyclotomicNumber")


def _make(order: int, nums: tuple, den: int) -> CyclotomicNumber:
    """A value from its stored form, which must already be canonical."""
    x = object.__new__(CyclotomicNumber)
    _set_order(x, order)
    _set_nums(x, nums)
    _set_den(x, den)
    return x


# ---------------------------------------------------------------------------
# scalar field descriptors, used by the affine layer and the parser

@dataclass(frozen=True)
class RationalField:
    def zero(self):
        return Fraction(0)

    def one(self):
        return Fraction(1)

    def coerce(self, value):
        """An int, Fraction or rational CyclotomicNumber as a Fraction; else a TypeError."""
        return _rational(value)

    def __str__(self):
        return "Q"


@dataclass(frozen=True)
class CyclotomicField:
    order: int

    def zero(self):
        return CyclotomicNumber.zero(self.order)

    def one(self):
        return CyclotomicNumber.one(self.order)

    def zeta(self, power: int = 1):
        return CyclotomicNumber.zeta(self.order, power)

    def coerce(self, value):
        """Embeds a CyclotomicNumber; other values take the rule of ``from_rational``."""
        if isinstance(value, CyclotomicNumber):
            return value.embed(self.order)
        return CyclotomicNumber.from_rational(value, self.order)

    def __str__(self):
        return f"Q(zeta{self.order})"


Field = RationalField | CyclotomicField


def join_fields(a: Field, b: Field) -> Field:
    """Smallest common field containing both operand fields."""
    orders = [f.order for f in (a, b) if isinstance(f, CyclotomicField)]
    if not orders:
        return RationalField()
    return CyclotomicField(lcm(*orders))
