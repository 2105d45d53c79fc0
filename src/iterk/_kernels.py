"""Vectorised numpy kernels for exhaustive table analysis.

Tables are int64 arrays of m**k entries in row-major order (last argument
fastest), batched as ``[N, m**k]``; :func:`digits` batches are column-major.
The row-major index of k consecutive terms is a state index and the table
index of the next term, so the recurrence a_{n+k} = f(a_n, ..., a_{n+k-1})
acts on window indices as a shift register: :func:`_step` is its only
index arithmetic, :func:`_shift` builds the one-term shift sigma once, and
the first iterate is sigma**k by :func:`_power`'s squarings.  A batch runs
in a flat block layout: row r of n entries holds positions r*n .. r*n + n - 1,
and its values carry the same offset, so every gather is one flat take.
"""

from __future__ import annotations

import numpy as np

#: No compiled path exists; kept because environment records report it.
NUMBA_ACTIVE = False

# elements per batch, so batched intermediates stay at a few MB
_CHUNK = 1 << 17


def digits(start, stop, base, width):
    """Rows of the base-``base`` digits of start..stop-1, most significant
    first, column-major: the digit of place value p is constant on runs of p rows."""
    out = np.zeros((stop - start, width), np.int64, order="F")
    for i, col in enumerate(out.T[::-1]):
        p = base**i
        if p >= stop or start == stop:
            break
        first, last = start // p, (stop - 1) // p
        vals = np.arange(first, last + 1) % base
        # rows a..b-1 hold the whole runs, of which there are none if p > stop - start
        a, b = (first + 1) * p - start, max(last * p - start, 0)
        col[:a], col[b:] = vals[0], vals[-1]
        col[a:b].reshape(-1, min(p, stop - start))[:] = vals[1:-1, None]
    return out


def _flat(batch):
    return (batch + np.arange(0, batch.size, batch.shape[1])[:, None]).ravel()


def _step(tables, w, m, k):
    # one recurrence term: the window shifts up a digit, drops its oldest term
    # and takes on the table's value there, which also restores the row offset
    return w * m - w // m ** (k - 1) * m**k + tables.take(w)


def _shift(tables, m, k):
    return _step(tables, np.arange(tables.size), m, k)


def _power(maps, n):
    # maps**n for n >= 1, by binary powering from the top bit: each further
    # bit squares the power and a set bit composes one more map, so n = 2
    # takes one gather and n = 10**9 takes 41
    power = maps
    for bit in bin(n)[3:]:
        power = power.take(power)
        if bit == "1":
            power = maps.take(power)
    return power


def _first_iterate(tables, m, k):
    return _power(_shift(tables, m, k), k)


def _is_bijective(perm, size):
    hit = np.zeros(perm.size, bool)
    hit[perm] = True
    return hit.reshape(-1, size).all(axis=1)


def _induced(tables, m, k, axis, n):
    # the n-th power, flat: a block of m per table and frozen context, row-major
    grid = tables.reshape(tables.shape[0], m**axis, m, m ** (k - 1 - axis))
    return _power(_flat(grid.swapaxes(2, 3).reshape(-1, m)), n)


def table_perm(entries, m, k):
    """First iterate of one table as a map on state indices, and whether it
    is injective."""
    perm = _first_iterate(entries, m, k)
    return perm, bool(_is_bijective(perm, perm.size)[0])


def involution_scan(m):
    """Count self-maps g on m points with g(g(x)) == x by full enumeration and
    the pairwise rule: g(x) == y iff g(y) == x, for every pair x < y."""
    total = m**m
    rows = max(1, _CHUNK // m)
    count = 0
    for start in range(0, total, rows):
        g = digits(start, min(start + rows, total), m, m)
        ok = np.ones(g.shape[0], bool)
        for x, y in zip(*np.triu_indices(m, 1)):
            ok &= (g[:, x] == y) == (g[:, y] == x)
        count += int(np.count_nonzero(ok))
    return count


def ii_filter(tables, m, k):
    """Mask of the candidate tables whose induced map in the last argument
    is an involution for every frozen context.

    The earlier arguments need no check: ``tables.enumerate_ii_tables``
    builds each candidate from slices that are already induced-involutory
    in them."""
    fixed = _induced(tables, m, k, k - 1, 2) == np.arange(tables.size)
    return fixed.reshape(tables.shape).all(axis=1)


def _restrict(perm, states):
    # perm on ``states``, an ascending set it maps into itself, renumbered by rank
    rank = np.empty(perm.size, np.int64)
    rank[states] = np.arange(states.size)
    return rank.take(perm.take(states))


def cycles(perm, size):
    """Cycle labels of a self-map in the flat block layout, with blocks of
    ``size`` states, each block mapping into itself.

    Returns, per state, the least member of its cycle (its head), the steps
    to its head and its cycle length; states on no cycle get 0 in all three.
    Trajectories enter their cycle within ``size`` steps and no cycle is
    longer.  So with R = ceil(log2 size), the cyclic states are the image of
    perm^(2^R).  Unless perm is a bijection, it is restricted to its image,
    which holds every cycle, for the R squarings, and then to that set.  On
    those, pointer doubling (Wyllie 1979): after r rounds each holds the
    least of itself and its next 2^r - 1 successors, and the steps to that
    state's first occurrence, so after R rounds each window spans its cycle.
    """
    n = perm.shape[0]
    rounds = (size - 1).bit_length()
    states, p = np.flatnonzero(np.bincount(perm, minlength=n)), perm  # the image
    if states.size < n:
        p = q = _restrict(perm, states)
        for _ in range(rounds):
            q = q.take(q)
        cyclic = np.flatnonzero(np.bincount(q, minlength=q.size))
        states, p = states[cyclic], _restrict(p, cyclic)
    # key = state * 2**rounds + steps: the minimum is the least state, at
    # its first occurrence; round r reads p**(2**r), so no square is wasted
    key = states << rounds
    for r in range(rounds):
        p = p.take(p) if r else p
        np.minimum(key, key.take(p) + (1 << r), out=key)
    head = key >> rounds
    labels = head, key & ((1 << rounds) - 1), np.bincount(head)[head]
    if states.size == n:
        return labels
    out = np.zeros((3, n), np.int64)
    out[:, states] = labels
    return tuple(out)


def cycle_sweep(m, k):
    """Tally how state periods n and sequence periods j relate over every
    table on m symbols with k arguments.

    For each table whose first iterate is a bijection and each state, n is
    the state's period under the first iterate and j the minimal period of
    the sequence seeded there.  A purely periodic sequence repeats after d
    terms iff its window does, so j is the state's cycle length under one
    :func:`_shift`, whose k-th power is the first iterate.  The relations
    are :func:`claim1`'s masks, summed.  Returns int64 tallies:
      [0] tables visited          [1] tables with bijective first iterate
      [2] cyclic states checked   [3] states with n != j/gcd(j,k)
      [4] states with j | n       [5] states with j not dividing n
      [6] states with j not dividing n*k
    """
    n_states = m**k
    total = m**n_states
    rows = max(1, _CHUNK // n_states)
    tallies = np.zeros(7, np.int64)
    for start in range(0, total, rows):
        tabs = digits(start, min(start + rows, total), m, n_states)
        # sigma is a bijection exactly when its k-th power, the first iterate, is
        keep = _is_bijective(_shift(_flat(tabs), m, k), n_states)
        sigma = _shift(_flat(tabs[keep]), m, k)
        n = cycles(_power(sigma, k), n_states)[2]
        direction1, j_n, j_nk = claim1(n, cycles(sigma, n_states)[2], k)
        found = ~direction1, j_n, ~j_n, ~j_nk
        tallies += [keep.size, np.count_nonzero(keep), n.size, *map(np.count_nonzero, found)]
    return tallies


def claim1(n, j, k):
    """The claim-1 relations between state periods n and sequence periods j
    at arity k, as masks: n == j/gcd(j, k), j | n and j | n*k."""
    return n == j // np.gcd(j, k), n % j == 0, n * k % j == 0
