"""Independent references for the benchmark's correctness checks.

Nothing here imports iterk.  Each reference reaches the answer by another
route than the program: vectorised numpy over whole state spaces, plain
loops over the represented sequence, number theory, or values committed
below.
"""

from __future__ import annotations

import math

import numpy as np

#: Telephone numbers T(1..12): involutions of an m-element set.
TELEPHONE = (1, 2, 4, 10, 26, 76, 232, 764, 2620, 9496, 35696, 140152)

#: Claim-1 sweep tallies over all tables of a shape, in SweepTallies order:
#: tables, bijective, cyclic states, direction-1 violations, j | n,
#: j not dividing n, j not dividing nk.
SWEEP_TALLIES = {
    (3, 2): (19683, 216, 1944, 0, 1104, 840, 0),
    (2, 3): (256, 16, 128, 0, 98, 30, 0),
}

#: Number of induced-involutory tables for (m, k).
II_COUNTS = {(3, 3): 3, (4, 2): 16, (2, 3): 2}


# ---------------------------------------------------------------------------
# finite tables

def digits(m: int, k: int) -> list[np.ndarray]:
    """Columns x1..xk of every state index, row-major (last argument fastest)."""
    idx = np.arange(m**k, dtype=np.int64)
    return [(idx // m ** (k - 1 - i)) % m for i in range(k)]


def flat_index(cols, m: int) -> np.ndarray:
    out = np.zeros_like(cols[0])
    for c in cols:
        out = out * m + c
    return out


def first_iterate_perm(entries: np.ndarray, m: int, k: int) -> np.ndarray:
    """Image index of every state under the first iterate, for all states at once."""
    cols = digits(m, k)
    out: list[np.ndarray] = []
    for j in range(k):
        out.append(entries[flat_index(cols[j:] + out, m)])
    return flat_index(out, m)


def cyclic_mask(perm: np.ndarray) -> np.ndarray:
    """States on a cycle: the image of perm**(2**L) once 2**L >= len(perm)."""
    q, steps = perm, 1
    while steps < len(perm):
        q = q[q]
        steps *= 2
    mask = np.zeros(len(perm), bool)
    mask[q] = True
    return mask


def canonical_cycles(perm: np.ndarray) -> tuple[tuple[tuple[int, ...], ...], dict]:
    """Cycles by ascending smallest member, each starting there, and periods."""
    nxt = perm.tolist()
    seen = [False] * len(nxt)
    cycles, periods = [], {}
    for s in np.flatnonzero(cyclic_mask(perm)).tolist():
        if seen[s]:
            continue
        cyc = [s]
        seen[s] = True
        c = nxt[s]
        while c != s:
            cyc.append(c)
            seen[c] = True
            c = nxt[c]
        cycles.append(tuple(cyc))
        for i in cyc:
            periods[i] = len(cyc)
    return tuple(cycles), periods


def power_apply(perm: np.ndarray, x: int, n: int) -> int:
    """perm**n applied to x, by binary lifting."""
    p = perm
    while n:
        if n & 1:
            x = int(p[x])
        n >>= 1
        if n:
            p = p[p]
    return x


def inverse(perm: np.ndarray) -> np.ndarray:
    inv = np.empty_like(perm)
    inv[perm] = np.arange(len(perm))
    return inv


def is_symmetric(entries: np.ndarray, m: int, k: int) -> bool:
    """Invariance under the transpositions (1 i), which generate S_k."""
    cols = digits(m, k)
    for i in range(1, k):
        swapped = list(cols)
        swapped[0], swapped[i] = cols[i], cols[0]
        if not np.array_equal(entries, entries[flat_index(swapped, m)]):
            return False
    return True


def induced_order_divides(entries: np.ndarray, m: int, k: int, n: int) -> bool:
    """Every induced self-map (one free argument, the rest frozen) has f**n = id."""
    cols = digits(m, k)
    for pos in range(k):
        base = flat_index([c if i != pos else np.zeros_like(c) for i, c in enumerate(cols)], m)
        stride = m ** (k - 1 - pos)
        v = cols[pos]
        for _ in range(n):
            v = entries[base + v * stride]
        if not np.array_equal(v, cols[pos]):
            return False
    return True


def ii_tables_ok(rows, m: int, k: int) -> bool:
    """``rows`` are the induced-involutory tables for (m, k): the committed
    count, ascending and distinct, each with a bijective first iterate of
    order k + 1, involutive in every argument and symmetric."""
    rows = [tuple(r) for r in rows]
    if len(rows) != II_COUNTS[(m, k)] or rows != sorted(set(rows)):
        return False
    for row in rows:
        entries = np.array(row, dtype=np.int64)
        perm = first_iterate_perm(entries, m, k)
        if len(np.unique(perm)) != len(perm):
            return False
        cycles, _ = canonical_cycles(perm)
        if not (math.lcm(*(len(c) for c in cycles)) == k + 1
                and induced_order_divides(entries, m, k, 2)
                and is_symmetric(entries, m, k)):
            return False
    return True


def conjugate(entries: np.ndarray, m: int, k: int, g) -> np.ndarray:
    """new(y) = g^-1(f(g(y1), ..., g(yk)))."""
    g = np.asarray(g, dtype=np.int64)
    ginv = inverse(g)
    return ginv[entries[flat_index([g[c] for c in digits(m, k)], m)]]


def sum_table(m: int, k: int, c: int, sign: int) -> np.ndarray:
    """(c + sign * (x1 + ... + xk)) mod m for every state."""
    return (c + sign * sum(digits(m, k))) % m


def table_text(entries, m: int, k: int) -> str:
    """The table file format: header "m k", then rows of m entries."""
    vals = [str(v) for v in np.asarray(entries).tolist()]
    rows = [" ".join(vals[i : i + m]) for i in range(0, len(vals), m)]
    return f"{m} {k}\n" + "\n".join(rows) + "\n"


def lifted_table(entries: np.ndarray, m: int, k: int, to: int) -> np.ndarray:
    """Augmented table: forward-fill the recurrence from the first k arguments."""
    cols = digits(m, to)
    tilde = cols[:k]
    for _ in range(to - k + 1):
        tilde = tilde + [entries[flat_index(tilde[-k:], m)]]
    return tilde[-1]


def brute_sweep(m: int, k: int) -> tuple[int, ...]:
    """Claim-1 tallies by visiting every table; only for small shapes."""
    n_states = m**k
    tallies = [0] * 7
    for code in range(m**n_states):
        entries = np.array([(code // m ** (n_states - 1 - i)) % m for i in range(n_states)])
        tallies[0] += 1
        perm = first_iterate_perm(entries, m, k)
        if len(set(perm.tolist())) != n_states:
            continue
        tallies[1] += 1
        _, periods = canonical_cycles(perm)
        for s, n_p in periods.items():
            tallies[2] += 1
            terms = [int(c[s]) for c in digits(m, k)]
            while len(terms) < 2 * n_p * k:
                idx = 0
                for t in terms[-k:]:
                    idx = idx * m + t
                terms.append(int(entries[idx]))
            j = minimal_period(terms, n_p * k)
            tallies[3] += n_p != j // math.gcd(j, k)
            tallies[4] += n_p % j == 0
            tallies[5] += n_p % j != 0
            tallies[6] += (n_p * k) % j != 0
    return tuple(tallies)


# ---------------------------------------------------------------------------
# sequences

def minimal_period(terms, full: int) -> int:
    """Least divisor d of ``full`` with terms[i] == terms[i + d] for i < full."""
    for d in divisors(full):
        if all(terms[i] == terms[i + d] for i in range(full)):
            return d
    raise ValueError("terms are not periodic with the given period")


def divisors(n: int) -> list[int]:
    small = [d for d in range(1, math.isqrt(n) + 1) if n % d == 0]
    return sorted(set(small + [n // d for d in small]))


def prime_factors(n: int) -> list[int]:
    out, p = [], 2
    while p * p <= n:
        if n % p == 0:
            out.append(p)
            while n % p == 0:
                n //= p
        p += 1
    if n > 1:
        out.append(n)
    return out


def _polymulmod(a, b, coeffs, p):
    # product of residues modulo x^k - sum(coeffs[i] x^i) over GF(p)
    k = len(coeffs)
    prod = [0] * (2 * k - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                prod[i + j] = (prod[i + j] + ai * bj) % p
    for d in range(2 * k - 2, k - 1, -1):
        c = prod[d]
        if c:
            prod[d] = 0
            for i, ci in enumerate(coeffs):
                prod[d - k + i] = (prod[d - k + i] + c * ci) % p
    return prod[:k]


def _x_power(e: int, coeffs, p):
    k = len(coeffs)
    acc = [1] + [0] * (k - 1)
    base = [0, 1] + [0] * (k - 2) if k > 1 else [coeffs[0] % p]
    while e:
        if e & 1:
            acc = _polymulmod(acc, base, coeffs, p)
        base = _polymulmod(base, base, coeffs, p)
        e >>= 1
    return acc


def is_primitive(coeffs, p: int) -> bool:
    """x^k - sum(c_i x^i) is primitive over GF(p) (p prime): x has order p^k - 1."""
    k = len(coeffs)
    if coeffs[0] % p == 0:
        return False
    order = p**k - 1
    one = [1] + [0] * (k - 1)
    if _x_power(order, coeffs, p) != one:
        return False
    return all(_x_power(order // q, coeffs, p) != one for q in prime_factors(order))


def lfsr_terms(coeffs, p: int, seed, count: int) -> list[int]:
    """a[n+k] = sum(c_i a[n+i]) mod p, by a plain loop."""
    k = len(coeffs)
    terms = list(seed)
    while len(terms) < count:
        window = terms[-k:]
        terms.append(sum(c * x for c, x in zip(coeffs, window)) % p)
    return terms


def verify_period(terms, period: int) -> bool:
    """``period`` is the least period of terms (purely periodic from index 0)."""
    if len(terms) < 2 * period:
        return False
    if any(terms[i] != terms[i + period] for i in range(period)):
        return False
    return all(
        any(terms[i] != terms[i + period // q] for i in range(period))
        for q in prime_factors(period)
    )


# ---------------------------------------------------------------------------
# exact algebra

def recurrence_window(apply, seed, n: int) -> tuple:
    """Terms nk+1 .. nk+k of the sequence a[i+k] = apply(a[i], ..., a[i+k-1]).

    This is the n-th iterate of the seed by the window identity, computed
    without the first-iterate machinery.
    """
    k = len(seed)
    terms = list(seed)
    for _ in range(n * k):
        terms.append(apply(terms[-k:]))
    return tuple(terms[n * k :])


def max_bits(value) -> int:
    """Largest numerator or denominator bit length inside a nested result."""
    if isinstance(value, (tuple, list)):
        return max((max_bits(v) for v in value), default=0)
    coeffs = getattr(value, "coeffs", None)
    if coeffs is not None:
        return max_bits(coeffs)
    num = getattr(value, "numerator", None)
    if num is None:
        return 0
    return max(abs(num).bit_length(), value.denominator.bit_length())
