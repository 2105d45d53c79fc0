"""Vectorised numpy kernels for exhaustive table analysis.

Tables are int64 arrays of m**k entries in row-major order (last argument
fastest), batched as ``[N, m**k]``; :func:`digits` batches are column-major.
The row-major index of k consecutive terms is a state index and the table
index of the next term, so the recurrence a_{n+k} = f(a_n, ..., a_{n+k-1})
acts on window indices as a shift register: :func:`_step` is its only
index arithmetic, and the first iterate is k steps of it.
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


def _step(tables, w, m, k):
    # one recurrence term: the next term is the table at the window, and the
    # window drops its oldest term and takes that one on
    term = np.take_along_axis(tables, w, axis=1)
    return w % m ** (k - 1) * m + term, term


def _first_iterate(tables, m, k):
    w = np.broadcast_to(np.arange(tables.shape[1]), tables.shape)
    for _ in range(k):
        w, _ = _step(tables, w, m, k)
    return w


def _is_bijective(perms):
    hit = np.zeros(perms.shape, bool)
    np.put_along_axis(hit, perms, True, axis=1)
    return hit.all(axis=1)


def induced_power(tables, m, k, axis, n):
    """n-th power of the self-maps that ``tables`` induce in argument ``axis``
    (0-based), as ``[N, m**(k-1), m]`` with one row per frozen context.

    Binary powering from the top bit: each further bit squares the power,
    and a set bit composes one more map, so n = 2 takes one gather and
    n = 10**9 takes 41.
    """
    # contexts are the arguments before and after ``axis``, in row-major order
    grid = tables.reshape(tables.shape[0], m**axis, m, m ** (k - 1 - axis))
    maps = grid.swapaxes(2, 3).reshape(tables.shape[0], m ** (k - 1), m)
    power = maps
    for bit in bin(n)[3:]:
        power = np.take_along_axis(power, power, axis=2)
        if bit == "1":
            power = np.take_along_axis(maps, power, axis=2)
    return power


def table_perm(entries, m, k):
    """First iterate of one table as a map on state indices, and whether it
    is injective."""
    perm = _first_iterate(entries.reshape(1, -1), m, k)
    return perm[0], bool(_is_bijective(perm)[0])


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
    return (induced_power(tables, m, k, k - 1, 2) == np.arange(m)).all(axis=(1, 2))


def cycles(perm, size):
    """Cycle labels of a flat self-map made of blocks of ``size`` states,
    each block mapping into itself.

    Returns, per state, the least member of its cycle (its head), the steps
    to its head and its cycle length; states on no cycle get 0 in all three.
    Trajectories enter their cycle within ``size`` steps and no cycle is
    longer.  So with R = ceil(log2 size), the cyclic states are the image of
    perm^(2^R), found by R squarings unless perm is a bijection, and perm is
    restricted to them.  On those, pointer doubling (Wyllie 1979): after r
    rounds each holds the least of itself and its next 2^r - 1 successors,
    and the steps to that state's first occurrence, so after R rounds each
    window spans the whole cycle.
    """
    n = perm.shape[0]
    rounds = (size - 1).bit_length()
    states, p = np.arange(n), perm
    if not _is_bijective(perm[None])[0]:
        for _ in range(rounds):
            p = p[p]
        states = np.flatnonzero(np.bincount(p, minlength=n))
        # rank[s] is the place of cyclic state s among the cyclic states
        rank = np.zeros(n, np.int64)
        rank[states] = np.arange(states.size)
        p = rank[perm[states]]
    # key = state * 2**rounds + steps: the minimum is the least state, at
    # its first occurrence
    key = states << rounds
    for r in range(rounds):
        np.minimum(key, key[p] + (1 << r), out=key)
        p = p[p]
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
    :func:`_step`, whose k-th power is the first iterate.  Returns int64
    tallies:
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
        perm = _first_iterate(tabs, m, k)
        bijective = _is_bijective(perm)
        tabs, perm = tabs[bijective], perm[bijective]
        offset = np.arange(0, perm.size, n_states)[:, None]
        sigma, _ = _step(tabs, np.broadcast_to(np.arange(n_states), perm.shape), m, k)
        n = cycles((perm + offset).ravel(), n_states)[2]
        j = cycles((sigma + offset).ravel(), n_states)[2]
        tallies += [
            bijective.size,
            tabs.shape[0],
            n.size,
            (n != j // np.gcd(j, k)).sum(),
            (n % j == 0).sum(),
            (n % j != 0).sum(),
            (n * k % j != 0).sum(),
        ]
    return tallies
