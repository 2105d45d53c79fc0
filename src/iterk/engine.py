"""Reference iteration semantics for maps of k arguments.

A map ``f`` taking k arguments and returning one value represents the
order-k recurrence ``a[n+k] = f(a[n], ..., a[n+k-1])``.  Its first iterate
is the self-map on k-tuples that advances the recurrence by k terms:

    component 1:  f(x1, x2, ..., xk)
    component 2:  f(x2, ..., xk, c1)
    ...
    component j:  f(xj, ..., xk, c1, ..., c[j-1])

where ``c1, ..., c[j-1]`` are the components already produced.  Higher
iterates are ordinary compositions of the first iterate, so the usual
addition and multiplication rules for iteration exponents hold.

States are plain tuples; elements may come from any domain with decidable
equality (ints, Fractions, cyclotomic numbers, ...).  Everything here is a
pure function over immutable values.  This module deliberately iterates one
step at a time; fast paths for special map families live elsewhere.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Iterator, Sequence

from .errors import ArityError, _count, _position, _state

Element = Any
State = tuple


@dataclass(frozen=True)
class KaryMap:
    """A total, deterministic map from k-tuples to single elements.

    ``fn`` receives the full argument tuple.  ``name`` is cosmetic and
    ignored by equality-sensitive code.
    """

    arity: int
    fn: Callable[[State], Element]
    name: str = field(default="", compare=False)

    def __post_init__(self):
        object.__setattr__(self, "arity", _count(self.arity, "arity"))

    def apply(self, args: Sequence[Element]) -> Element:
        return self.fn(tuple(args))


@dataclass(frozen=True)
class Orbit:
    """Trajectory of a state under the first iterate.

    ``recurred`` is set when the next step would reproduce the start state,
    i.e. the trajectory is a cycle through its first entry.
    """

    states: tuple[State, ...]
    recurred: bool


def first_iterate(f: KaryMap, state: Sequence[Element]) -> State:
    """Advance the represented recurrence by k terms.

    Component j consumes the trailing k-j+1 input elements followed by the
    j-1 components already computed.
    """
    state = _state(state, f.arity)
    out: list[Element] = []
    for j in range(f.arity):
        out.append(f.apply(state[j:] + tuple(out)))
    return tuple(out)


def iterate(f: KaryMap, state: Sequence[Element], n: int) -> State:
    """n-fold composition of :func:`first_iterate`; ``n = 0`` is the identity."""
    state = _state(state, f.arity)
    for _ in range(_count(n, "iterate count", 0)):
        state = first_iterate(f, state)
    return state


def _first_return(f: KaryMap, state: State, bound: int) -> Iterator[State]:
    # the first-iterate images of ``state``, at most ``bound`` of them,
    # ending with the first one equal to ``state``
    current = state
    for _ in range(bound):
        current = first_iterate(f, current)
        yield current
        if current == state:
            return


def orbit(f: KaryMap, state: Sequence[Element], max_steps: int) -> Orbit:
    """Collect ``state, f1(state), ...`` up to ``max_steps`` entries.

    Stops early, with ``recurred`` set, as soon as the next state would equal
    the start state again.
    """
    state = _state(state, f.arity)
    images = list(_first_return(f, state, _count(max_steps, "max_steps")))
    return Orbit((state, *images[:-1]), images[-1] == state)


def point_involutory_order(
    f: KaryMap, state: Sequence[Element], bound: int
) -> int | None:
    """Smallest n in 1..bound with the n-th iterate fixing ``state``, else None."""
    state = _state(state, f.arity)
    for n, current in enumerate(_first_return(f, state, _count(bound, "bound")), 1):
        if current == state:
            return n
    return None


def induced_self_map(
    f: KaryMap, position: int, fixed: Sequence[Element]
) -> Callable[[Element], Element]:
    """Freeze all arguments but the one at ``position`` (1-based), yielding a
    self-map on the element domain.  ``fixed`` lists the k-1 frozen values in
    argument order, skipping the free position."""
    j, fixed = _position(position, f.arity), tuple(fixed)
    if len(fixed) != f.arity - 1:
        raise ArityError(f"expected {f.arity - 1} fixed values, got {len(fixed)}")
    before, after = fixed[: j - 1], fixed[j - 1 :]

    def induced(t: Element) -> Element:
        return f.apply(before + (t,) + after)

    return induced
