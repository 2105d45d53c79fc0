"""Exception types shared across the package, and the one rule each for a
count, an argument position, a state and a printed int.  A
:class:`UsageError` or a subclass is the caller's fault (the CLI exits 2);
any other exception from the library is a bug."""

import operator
import sys


class UsageError(ValueError):
    """An input breaks a documented contract: a count, position, value or option."""


class ArityError(UsageError):
    """A state, position, context or seed does not match the arity of the map."""


class BudgetError(RuntimeError):
    """An exhaustive computation would exceed the configured resource budget."""


class NonAffineError(UsageError):
    """A map definition is not affine, so matrix-based analysis cannot apply."""


class ParseError(UsageError):
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
        raise UsageError(f"{name} must be >= {least}, got {value}")
    return value


def _position(j, arity: int) -> int:
    # the one position rule: a 1-based argument position of a map of
    # ``arity`` arguments, read as a count is
    j = operator.index(j)
    if not 1 <= j <= arity:
        raise ArityError(f"argument position {j} out of range 1..{arity}")
    return j


def _state(state, arity: int) -> tuple:
    # the one state rule: ``state`` as a tuple of exactly ``arity`` elements
    state = tuple(state)
    if len(state) != arity:
        raise ArityError(f"state has {len(state)} elements but map has arity {arity}")
    return state


def _printable(value: int, what: str) -> int:
    # the one digit rule: an int the interpreter converts to text has at most
    # sys.get_int_max_str_digits() digits (0: no limit), else a BudgetError.
    # 10**limit has more than 3*limit bits, so only a longer int is compared
    limit = sys.get_int_max_str_digits()
    if limit and value.bit_length() > 3 * limit and abs(value) >= 10**limit:
        raise BudgetError(
            f"{what} exceeds the int-to-str digit budget {limit} (PYTHONINTMAXSTRDIGITS)"
        )
    return value
