"""Exact scalar arithmetic: integers, rationals, and roots of unity.

Rationals are stdlib :class:`fractions.Fraction` values (always in lowest
terms, positive denominator).  Roots of unity live in the field obtained by
adjoining a primitive n-th root ``z`` to the rationals; elements are stored
as polynomial residues in ``z`` modulo the n-th cyclotomic polynomial, so
equality is exact and order checks are honest equality tests rather than
floating-point tolerances.

Arithmetic on residues runs in integers: a product puts each operand over
the lcm of its denominators, multiplies the two integer polynomials, and
folds the high powers back with cached integer rows ``z^i mod Phi_n`` (the
modulus is monic and integral).  The result becomes lowest-terms
``Fraction`` coefficients once, at the end.  No polynomial is ever divided:
``Phi_n`` is the Moebius product of the ``(1 - x^d)^mu(n/d)``, and an
inverse is the product of the other Galois conjugates over the norm, so
every operation is integer multiplication followed by one reduction.

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
    a, b = 0, 1
    for _ in range(n):
        a, b = b, a + b
    return a


# ---------------------------------------------------------------------------
# polynomials as ascending coefficient lists of integers: one product and one
# reduction modulo the cyclotomic polynomial, and no division anywhere

def _poly_mul(a: list[int], b: list[int]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
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
def _reduction_rows(order: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    """z^i mod the order-th cyclotomic polynomial for d <= i < max(2d-1, order).

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
    return tuple(rows)


def _reduce(order: int, coeffs: list[int]) -> list[int]:
    """The residue of an integer polynomial, as d integers."""
    d = cyclotomic_polynomial(order).degree
    out = list(coeffs[:d]) + [0] * (d - len(coeffs))
    rows = _reduction_rows(order)
    for i in range(d, len(coeffs)):
        c = coeffs[i]
        if c:
            for j, r in rows[i - d]:
                out[j] += c * r
    return out


def _over_common_denominator(coeffs) -> tuple[list[int], int]:
    """(nums, den) with coeffs[i] == nums[i] / den and den the lcm of the
    denominators."""
    dens = [c.denominator for c in coeffs]
    den = lcm(*dens)
    return [c.numerator * (den // q) for c, q in zip(coeffs, dens)], den


def _residue(order: int, nums: list[int], den: int = 1) -> tuple[Fraction, ...]:
    """The canonical coefficients of ``nums / den``: reduced, in lowest terms."""
    return tuple(Fraction(c, den) for c in _reduce(order, nums))


@dataclass(frozen=True)
class CyclotomicNumber:
    """Element of the rationals extended by a primitive ``order``-th root of unity.

    ``coeffs`` is the canonical residue: ascending powers of the root, length
    equal to the degree of the reduction modulus, each a lowest-terms
    ``Fraction``.  Products, powers of the root, embeddings and inverses are
    computed over one common integer denominator and reduced by the cached
    integer rows of :func:`_reduction_rows`.  Arithmetic between two
    values requires equal orders; use :meth:`embed` to move into a larger
    field first.  Ints and Fractions mix freely as constants.
    """

    order: int
    coeffs: tuple[Fraction, ...]

    # -- constructors -------------------------------------------------------

    @classmethod
    def from_rational(cls, value, order: int = 1) -> "CyclotomicNumber":
        q = Fraction(value)
        deg = cyclotomic_polynomial(order).degree
        return cls(order, (q,) + (Fraction(0),) * (deg - 1))

    @classmethod
    def zero(cls, order: int) -> "CyclotomicNumber":
        return cls.from_rational(0, order)

    @classmethod
    def one(cls, order: int) -> "CyclotomicNumber":
        return cls.from_rational(1, order)

    @classmethod
    def zeta(cls, order: int, power: int = 1) -> "CyclotomicNumber":
        """The primitive root raised to ``power`` (any integer)."""
        power %= order
        return cls(order, _residue(order, [0] * power + [1]))

    # -- helpers ------------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, CyclotomicNumber):
            if other.order != self.order:
                raise ValueError(
                    f"mixed root orders {self.order} and {other.order}; embed first"
                )
            return other
        if isinstance(other, (int, Fraction)):
            return CyclotomicNumber.from_rational(other, self.order)
        return None

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def is_rational(self) -> bool:
        return all(c == 0 for c in self.coeffs[1:])

    def rational_value(self) -> Fraction:
        if not self.is_rational():
            raise ValueError(f"{self} is not rational")
        return self.coeffs[0]

    def embed(self, order: int) -> "CyclotomicNumber":
        """Re-express this value in the field of a multiple root order."""
        if order % self.order != 0:
            raise ValueError(f"{order} is not a multiple of {self.order}")
        if order == self.order:
            return self
        step = order // self.order
        nums, den = _over_common_denominator(self.coeffs)
        out = [0] * (len(nums) * step)
        out[::step] = nums
        return CyclotomicNumber(order, _residue(order, out, den))

    # -- field operations ---------------------------------------------------

    # an int or Fraction operand changes coefficient 0 alone
    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            return CyclotomicNumber(self.order, (self.coeffs[0] + other,) + self.coeffs[1:])
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return CyclotomicNumber(
            self.order, tuple(a + b for a, b in zip(self.coeffs, other.coeffs))
        )

    __radd__ = __add__

    def __neg__(self):
        return CyclotomicNumber(self.order, tuple(-c for c in self.coeffs))

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            return CyclotomicNumber(self.order, (self.coeffs[0] - other,) + self.coeffs[1:])
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return CyclotomicNumber(
            self.order, tuple(a - b for a, b in zip(self.coeffs, other.coeffs))
        )

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        a, da = _over_common_denominator(self.coeffs)
        b, db = _over_common_denominator(other.coeffs)
        return CyclotomicNumber(self.order, _residue(self.order, _poly_mul(a, b), da * db))

    __rmul__ = __mul__

    def inverse(self) -> "CyclotomicNumber":
        """Multiplicative inverse from the Galois norm.

        With x = nums/den and R the product of the conjugates x(z^u) of nums
        for the units u != 1 modulo the order, R*nums is the norm of nums, a
        nonzero integer, so 1/x = den*R / norm.
        """
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero")
        n = self.order
        nums, den = _over_common_denominator(self.coeffs)
        r = [1]
        for u in range(2, n):
            if gcd(u, n) == 1:
                conj = [0] * n
                for i, c in enumerate(nums):
                    conj[i * u % n] = c
                r = _reduce(n, _poly_mul(r, _reduce(n, conj)))
        norm = _reduce(n, _poly_mul(r, nums))[0]
        return CyclotomicNumber(n, _residue(n, [c * den for c in r], norm))

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other * self.inverse()

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int):
            return NotImplemented
        base = self if exponent >= 0 else self.inverse()
        e = abs(exponent)
        acc = CyclotomicNumber.one(self.order)
        while e:
            if e & 1:
                acc = acc * base
            base = base * base
            e >>= 1
        return acc

    def equals(self, other: "CyclotomicNumber") -> bool:
        """Equality of two values of the same order; mixed orders are an error."""
        if not isinstance(other, CyclotomicNumber):
            raise TypeError(f"expected CyclotomicNumber, got {type(other)!r}")
        if other.order != self.order:
            raise ValueError(
                f"mixed root orders {self.order} and {other.order}; embed first"
            )
        return self.coeffs == other.coeffs

    def __eq__(self, other):
        if isinstance(other, CyclotomicNumber):
            return self.order == other.order and self.coeffs == other.coeffs
        if isinstance(other, (int, Fraction)):
            return self.is_rational() and self.coeffs[0] == other
        return NotImplemented

    def __hash__(self):
        if self.is_rational():
            return hash(self.coeffs[0])
        return hash((self.order, self.coeffs))

    # -- rendering ----------------------------------------------------------

    def render(self) -> str:
        """Canonical polynomial string in ``z``, e.g. ``-1/2*z + 3``;
        :func:`iterk.parser.parse_cyclo` reads it back given the order."""
        terms = []
        for p in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[p]
            if c == 0:
                continue
            if p == 0:
                terms.append(str(c))
            else:
                base = "z" if p == 1 else f"z^{p}"
                if c == 1:
                    terms.append(base)
                elif c == -1:
                    terms.append(f"-{base}")
                else:
                    terms.append(f"{c}*{base}")
        if not terms:
            return "0"
        out = terms[0]
        for t in terms[1:]:
            out += f" - {t[1:]}" if t.startswith("-") else f" + {t}"
        return out

    def __str__(self):
        return self.render()

    def __repr__(self):
        return f"CyclotomicNumber({self.order}, {self.render()!r})"


# ---------------------------------------------------------------------------
# scalar field descriptors, used by the affine layer and the parser

@dataclass(frozen=True)
class RationalField:
    def zero(self):
        return Fraction(0)

    def one(self):
        return Fraction(1)

    def coerce(self, value):
        if isinstance(value, CyclotomicNumber):
            return value.rational_value()
        return Fraction(value)

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
