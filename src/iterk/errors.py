"""Exception types shared across the package, and the admission rules for
counts and states that every layer takes its inputs through."""

import operator


class ArityError(ValueError):
    """A state, context or seed does not match the arity of the map."""


class BudgetError(RuntimeError):
    """An exhaustive computation would exceed the configured resource budget."""


class NonAffineError(ValueError):
    """A map definition is not affine, so matrix-based analysis cannot apply."""


class ParseError(ValueError):
    """Syntax or validation error in a textual input, with source position."""

    def __init__(self, message: str, line: int = 1, column: int = 1):
        super().__init__(f"{line}:{column}: {message}")
        self.message = message
        self.line = line
        self.column = column


def _count(value, name: str, least: int = 1) -> int:
    # the one count rule: a count, order, bound or arity is an int (anything
    # with __index__, so numpy ints and bools too) of at least ``least``; a
    # float, Fraction or text is a TypeError, never truncated
    value = operator.index(value)
    if value < least:
        raise ValueError(f"{name} must be >= {least}, got {value}")
    return value


def _state(state, arity: int) -> tuple:
    # the one state rule: ``state`` as a tuple of exactly ``arity`` elements
    state = tuple(state)
    if len(state) != arity:
        raise ArityError(f"state has {len(state)} elements but map has arity {arity}")
    return state
