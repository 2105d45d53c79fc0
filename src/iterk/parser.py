"""Recursive-descent parser for map definitions over the rationals and
roots-of-unity extensions.

Grammar (whitespace-insensitive; ``*`` is required for products):

    def      := "f" "(" var ("," var)* ")" "=" expr
    expr     := term (("+" | "-") term)*
    term     := factor ("*" factor)*
    factor   := rational | "zeta" "(" int ")" ["^" int]
              | var | "(" expr ")" | "-" factor
    var      := "x" int
    rational := int ["/" int]

A sum or a product may have any number of operands and is one node; parentheses
and minus signs nest at most 200 levels deep.

Declared variables must be x1..xk in order.  The scalar field is inferred:
rational unless ``zeta`` literals occur, in which case all values live in
the field of the least common multiple of the root orders.  Every error is
reported as :class:`ParseError` with a line and column.

``z`` is the root symbol of rendered cyclotomic values (``-1/2*z + 3``).
:func:`parse_cyclo` gives the grammar a root order n, and there the factor
``z ["^" int]`` means ``zeta(n) ["^" int]``; definitions and seeds have no
root order, so ``z`` is an unknown name in them.
"""

from __future__ import annotations

import operator
import re
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import partial, reduce
from math import gcd
from typing import TYPE_CHECKING, Callable, NamedTuple, Union

import iterk

from .engine import KaryMap
from .errors import NonAffineError, ParseError
from .exactnum import (
    MAX_ROOT_ORDER,
    CyclotomicField,
    CyclotomicNumber,
    Field,
    RationalField,
    join_fields,
)

if TYPE_CHECKING:  # the affine layer loads only when to_affine runs
    from .affine import AffineMapSpec

# --- abstract syntax -------------------------------------------------------

class _Node:
    """A tree node.  ``==``, ``hash`` and ``repr`` read the tree through
    :func:`_walk`, so they hold at any depth the parser accepts; ``_fields``
    names a class's fields but a position, reversed, for that walk."""

    def __init_subclass__(cls):
        cls._fields = tuple(k for k in reversed(cls.__annotations__) if k != "at")

    def _key(self) -> tuple:
        return tuple(type(x) if isinstance(x, (_Node, tuple)) else x for x in _walk(self))

    def __eq__(self, other):
        return self._key() == other._key() if isinstance(other, _Node) else NotImplemented

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        parts = [")" if x is _END else f"{type(x).__name__}(" if isinstance(x, _Node)
                 else "(" if isinstance(x, tuple) else repr(x) for x in _walk(self)]
        # no separator after an opening or before a closing parenthesis
        return ", ".join(parts).replace("(, ", "(").replace(", )", ")")


_END = object()  # closes a node or a tuple in a walk


def _walk(expr: _Node):
    # pre-order: a node or tuple, its fields (but a position) or items, _END
    todo = [expr]
    while todo:
        x = todo.pop()
        yield x
        if isinstance(x, tuple):
            todo += _END, *reversed(x)
        elif isinstance(x, _Node):
            todo += _END, *map(vars(x).__getitem__, x._fields)


@dataclass(frozen=True, eq=False, repr=False)
class Var(_Node):
    index: int  # 1-based
    at: tuple[int, int] = (1, 1)  # (line, column) in the source text


@dataclass(frozen=True, eq=False, repr=False)
class RationalLit(_Node):
    value: Fraction


@dataclass(frozen=True, eq=False, repr=False)
class ZetaLit(_Node):
    order: int
    power: int
    at: tuple[int, int] = (1, 1)


@dataclass(frozen=True, eq=False, repr=False)
class Neg(_Node):
    operand: "MapExpr"


@dataclass(frozen=True, eq=False, repr=False)
class Sum(_Node):
    terms: tuple[tuple[str, "MapExpr"], ...]  # 2+ terms, each after its sign ("+" first)


@dataclass(frozen=True, eq=False, repr=False)
class Product(_Node):
    factors: tuple["MapExpr", ...]  # 2+ factors


@dataclass(frozen=True, eq=False, repr=False)
class Group(_Node):
    inner: "MapExpr"


MapExpr = Union[Var, RationalLit, ZetaLit, Neg, Sum, Product, Group]


@dataclass(frozen=True, eq=False, repr=False)
class MapDef(_Node):
    arity: int
    expr: MapExpr

    def field(self) -> Field:
        return field_of(self.expr)


def field_of(*exprs: MapExpr) -> Field:
    """Smallest field holding every literal of ``exprs``: the rationals, or
    the cyclotomic field of the lcm of their root orders."""
    orders = {x.order for e in exprs for x in _walk(e) if isinstance(x, ZetaLit)}
    return reduce(join_fields, map(CyclotomicField, orders), RationalField())


# --- lexer -----------------------------------------------------------------

# a blank is a run of what str.isspace accepts, other than the newline
_TOKEN_RE = re.compile(r"(?P<blank>[^\S\n]+)|(?P<int>\d+)|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
                       r"|(?P<punct>[()+\-*/^,=])|(?P<newline>\n)|(?P<bad>.)")


class _Token(NamedTuple):
    kind: str  # "int", "name", "eof", or the punctuation character itself
    text: str
    line: int
    column: int


def _tokenize(text: str) -> list[_Token]:
    tokens, line, start = [], 1, 0  # start: offset of the current line
    for m in _TOKEN_RE.finditer(text):
        kind, lexeme, column = m.lastgroup, m.group(), m.start() - start + 1
        if kind == "newline":
            line, start = line + 1, m.end()
        elif kind == "bad":
            raise ParseError(f"unexpected character {lexeme!r}", line, column)
        elif kind != "blank":
            tokens.append(_Token(lexeme if kind == "punct" else kind, lexeme, line, column))
    tokens.append(_Token("eof", "", line, len(text) - start + 1))
    return tokens


# --- parser ----------------------------------------------------------------

_MAX_DEPTH = 200


class _Parser:
    def __init__(self, text: str, root_order: int | None = None):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.depth = 0
        self.root_order = root_order  # what ``z`` names, if anything

    @property
    def current(self) -> _Token:
        return self.tokens[self.pos]

    def _advance(self) -> _Token:
        tok = self.current
        self.pos += 1
        return tok

    def _fail(self, message: str):
        tok = self.current
        raise ParseError(message, tok.line, tok.column)

    def _expect(self, kind: str, what: str) -> _Token:
        if self.current.kind != kind:
            got = self.current.text or "end of input"
            self._fail(f"expected {what}, found {got!r}")
        return self._advance()

    def _int(self, tok: _Token) -> int:
        # an integer literal; one past sys.get_int_max_str_digits fails at its position
        try:
            return int(tok.text)
        except ValueError:
            msg = f"integer literal of {len(tok.text)} digits exceeds the int-to-str digit"
            limit = f" budget {sys.get_int_max_str_digits()} (PYTHONINTMAXSTRDIGITS)"
            raise ParseError(msg + limit, tok.line, tok.column) from None

    def _accept(self, kind: str) -> _Token | None:
        if self.current.kind == kind:
            return self._advance()
        return None

    def _end(self):
        if self.current.kind != "eof":
            self._fail(f"unexpected trailing input {self.current.text!r}")

    # grammar rules

    def map_def(self) -> MapDef:
        name = self._expect("name", "'f'")
        if name.text != "f":
            raise ParseError(
                f"definitions must be named 'f', found {name.text!r}",
                name.line,
                name.column,
            )
        self._expect("(", "'('")
        arity = 0
        while True:
            arity += 1
            var = self._expect("name", f"variable 'x{arity}'")
            if var.text != f"x{arity}":
                raise ParseError(
                    f"declared variables must be x1..xk in order,"
                    f" expected 'x{arity}', found {var.text!r}",
                    var.line,
                    var.column,
                )
            if not self._accept(","):
                break
        self._expect(")", "')' or ','")
        self._expect("=", "'='")
        body = self.expr(arity)
        self._end()
        return MapDef(arity, body)

    def expr(self, arity: int) -> MapExpr:
        terms = [("+", self.term(arity))]
        while self.current.kind in ("+", "-"):
            terms.append((self._advance().kind, self.term(arity)))
        return Sum(tuple(terms)) if len(terms) > 1 else terms[0][1]

    def term(self, arity: int) -> MapExpr:
        factors = [self.factor(arity)]
        while self._accept("*"):
            factors.append(self.factor(arity))
        return Product(tuple(factors)) if len(factors) > 1 else factors[0]

    def factor(self, arity: int) -> MapExpr:
        self.depth += 1
        if self.depth > _MAX_DEPTH:
            self._fail("expression nested too deeply")
        try:
            tok = self.current
            if tok.kind == "-":
                self._advance()
                return Neg(self.factor(arity))
            if tok.kind == "(":
                self._advance()
                inner = self.expr(arity)
                self._expect(")", "')'")
                return Group(inner)
            if tok.kind == "int":
                return self.rational()
            if tok.kind == "name":
                if tok.text == "zeta":
                    return self.zeta()
                if tok.text == "z" and self.root_order is not None:
                    self._advance()
                    return ZetaLit(self.root_order, self._power(), (tok.line, tok.column))
                m = re.fullmatch(r"x(\d+)", tok.text)
                if m:
                    index = self._int(tok._replace(text=m.group(1), column=tok.column + 1))
                    if not 1 <= index <= arity:
                        raise ParseError(
                            f"undeclared variable {tok.text!r}"
                            f" (declared arity {arity})",
                            tok.line,
                            tok.column,
                        )
                    self._advance()
                    return Var(index, (tok.line, tok.column))
                self._fail(f"unknown name {tok.text!r}")
            self._fail(
                f"expected a value, found {tok.text!r}" if tok.text else "unexpected end of input"
            )
        finally:
            self.depth -= 1

    def rational(self) -> RationalLit:
        num = self._int(self._expect("int", "an integer"))
        if self._accept("/"):
            tok = self._expect("int", "a denominator")
            if (den := self._int(tok)) == 0:
                raise ParseError("zero denominator", tok.line, tok.column)
            return RationalLit(Fraction(num, den))
        return RationalLit(Fraction(num))

    def zeta(self) -> ZetaLit:
        name = self._expect("name", "'zeta'")
        self._expect("(", "'('")
        order_tok = self._expect("int", "a root order")
        order = self._int(order_tok)
        if not 1 <= order <= MAX_ROOT_ORDER:
            raise ParseError(
                f"root order {order} outside supported range 1..{MAX_ROOT_ORDER}",
                order_tok.line,
                order_tok.column,
            )
        self._expect(")", "')'")
        return ZetaLit(order, self._power(), (name.line, name.column))

    def _power(self) -> int:
        # the optional "^" int after a root
        return self._int(self._expect("int", "an exponent")) if self._accept("^") else 1


def parse_map_def(text: str) -> MapDef:
    """Parse a definition like ``f(x1,x2) = x1 + 2*x2 - 1/3``."""
    return _Parser(text).map_def()


def _constant(text: str, root_order: int | None = None) -> MapExpr:
    # one constant expression, then end of input
    p = _Parser(text, root_order)
    node = p.expr(arity=0)
    p._end()
    return node


def parse_scalar(text: str) -> MapExpr:
    """Parse a single constant expression (no variables)."""
    return _constant(text)


def parse_cyclo(text: str, order: int) -> CyclotomicNumber:
    """Read a value rendered by :meth:`CyclotomicNumber.render` back, losslessly.

    ``z`` is the primitive ``order``-th root, which the rendering does not
    record.  Any constant expression is accepted, so ``(1 + z)*z``,
    ``z ^ 2`` and ``zeta(order)`` parse too.
    """
    return eval_scalar(_constant(text, order), CyclotomicField(order))


def parse_seed(text: str) -> list[MapExpr]:
    """Parse a comma-separated list of constant expressions."""
    p = _Parser(text)
    exprs = [p.expr(arity=0)]
    while p._accept(","):
        exprs.append(p.expr(arity=0))
    p._end()
    return exprs


# --- rendering -------------------------------------------------------------

def render(expr: MapExpr) -> str:
    """Canonical text form; reparsing it reproduces the same tree for any
    tree the parser itself produced, where every parenthesis is a Group."""
    if isinstance(expr, Var):
        return f"x{expr.index}"
    if isinstance(expr, RationalLit):
        v = expr.value
        return str(v.numerator) if v.denominator == 1 else f"{v.numerator}/{v.denominator}"
    if isinstance(expr, ZetaLit):
        base = f"zeta({expr.order})"
        return base if expr.power == 1 else f"{base}^{expr.power}"
    if isinstance(expr, Neg):
        return f"-{render(expr.operand)}"
    if isinstance(expr, Group):
        return f"({render(expr.inner)})"
    parts = []
    for op, operand in _chain(expr):  # a comprehension would add a frame per level
        parts += (op, render(operand))
    return " ".join(parts[1:])


def _chain(expr: MapExpr) -> tuple:
    # a Sum's or Product's operands, each after its operator
    if isinstance(expr, Sum):
        return expr.terms
    if isinstance(expr, Product):
        return tuple(("*", factor) for factor in expr.factors)
    raise TypeError(f"not a map expression: {expr!r}")


def render_def(d: MapDef) -> str:
    vars_ = ",".join(f"x{i}" for i in range(1, d.arity + 1))
    return f"f({vars_}) = {render(d.expr)}"


# --- evaluation and affine extraction --------------------------------------

def _q_sum(op, p, q):
    # a/b op c/d with at most one gcd, of the denominators (Knuth, TAOCP 4.5.1)
    (a, b), (c, d) = p, q
    if b == d:
        return op(a, c), b
    g = gcd(b, d)
    b //= g
    return op(a * (d // g), c * b), b * d


def _q_root(body, field):
    def value(s):
        for x in s:
            if not isinstance(x, (int, Fraction)):
                raise TypeError(f"{x!r} is not an element of {field}")
        return Fraction(*body([(x.numerator, x.denominator) for x in s]))
    return value


def _form_sum(op, p, q):
    # affine forms ({index: nonzero coefficient}, constant) added or subtracted
    coeffs = dict(p[0])
    for i, c in q[0].items():
        coeffs[i] = op(coeffs.get(i, 0), c)
        if coeffs[i] == 0:
            del coeffs[i]
    return coeffs, op(p[1], q[1])


def _form_mul(p, q):
    if p[0] and q[0]:
        msg = "definition is not affine: product of two variable-bearing expressions"
        raise NonAffineError(msg)
    (coeffs, a), (_, b) = (p, q) if p[0] else (q, p)
    return ({i: c * b for i, c in coeffs.items()} if b != 0 else {}), a * b


def _identity_root(body, field):
    return body


# per value domain: a folded literal's stored form, the root that feeds the
# state in and reads the value out, and the operations; "neg" is unary minus
_Q_PAIRS = (lambda q: (q.numerator, q.denominator), _q_root, {
    "neg": lambda p: (-p[0], p[1]), "*": lambda p, q: (p[0] * q[0], p[1] * q[1]),
    "+": partial(_q_sum, operator.add), "-": partial(_q_sum, operator.sub)})
_ELEMENTS = (lambda v: v, _identity_root, {
    "neg": operator.neg, "*": operator.mul, "+": operator.add, "-": operator.sub})
_FORMS = (lambda v: ({}, v), _identity_root, {
    "neg": lambda p: ({i: -c for i, c in p[0].items()}, -p[1]), "*": _form_mul,
    "+": partial(_form_sum, operator.add), "-": partial(_form_sum, operator.sub)})
_ARITHMETIC = {RationalField: _Q_PAIRS, CyclotomicField: _ELEMENTS}


def _compile(expr: MapExpr, field: Field, arity: int, table=None) -> Callable[[tuple], object]:
    """The tree as a function of the state tuple, its literals and constant
    subtrees folded into ``field`` once; variables past ``arity`` are a :class:`ParseError`.
    The closures run on an arithmetic table, by default the field's: over
    Q(zeta) the elements' operators; over Q integer (numerator, denominator)
    pairs, d > 0, and a root that takes only int and Fraction elements and
    builds one Fraction.  :func:`to_affine` passes the table of affine forms.
    """
    literal, root, ops = table or _ARITHMETIC[type(field)]
    neg = ops["neg"]

    def closure(node):
        return (lambda s, v=node[0]: v) if isinstance(node, tuple) else node

    def settled(fn, nodes):
        # with every operand constant the node's value is computed once, here
        return (fn(()),) if all(isinstance(node, tuple) for node in nodes) else fn

    def walk(expr: MapExpr):
        # a closure of the state, or a constant subtree's value in a 1-tuple
        while isinstance(expr, Group):
            expr = expr.inner
        if isinstance(expr, Var):
            if not 1 <= expr.index <= arity:
                msg = f"undeclared variable 'x{expr.index}' (declared arity {arity})"
                raise ParseError(msg, *expr.at)
            return operator.itemgetter(expr.index - 1)
        if isinstance(expr, RationalLit):
            return (literal(field.coerce(expr.value)),)
        if isinstance(expr, ZetaLit):
            if isinstance(field, RationalField):
                raise ParseError("root-of-unity literal in a rational context", *expr.at)
            if field.order % expr.order:
                raise ParseError(f"zeta({expr.order}) is not in {field}", *expr.at)
            return (literal(field.coerce(CyclotomicField(expr.order).zeta(expr.power))),)
        if isinstance(expr, Neg):
            node = walk(expr.operand)
            return settled(lambda s, operand=closure(node): neg(operand(s)), [node])
        chain, nodes = _chain(expr), []
        for _, operand in chain:  # a comprehension would add a frame per level
            nodes.append(walk(operand))
        first = closure(nodes[0])
        rest = [(ops[op], closure(node)) for (op, _), node in zip(chain[1:], nodes[1:])]

        def fold(s):
            acc = first(s)
            for op, f in rest:
                acc = op(acc, f(s))
            return acc
        return settled(fold, nodes)

    return root(closure(walk(expr)), field)


def eval_scalar(expr: MapExpr, field: Field | None = None):
    """Constant-fold a scalar expression into a field element."""
    return _compile(expr, field_of(expr) if field is None else field, 0)(())


def to_kary_map(d: MapDef, field: Field | None = None) -> KaryMap:
    """Evaluate the definition as an engine map (non-affine bodies allowed)."""
    fld = d.field() if field is None else field
    return KaryMap(d.arity, _compile(d.expr, fld, d.arity), name="parsed")


def to_affine(d: MapDef, field: Field | None = None) -> AffineMapSpec:
    """Extract exact affine form; reject anything of higher degree.

    The body runs once on degree-one forms: variable i is ({i: 1}, 0), and
    a product of two forms that both read a variable is a NonAffineError.
    """
    fld = d.field() if field is None else field
    zero = fld.zero()
    units = tuple(({i: fld.one()}, zero) for i in range(d.arity))
    coeffs, const = _compile(d.expr, fld, d.arity, _FORMS)(units)
    return iterk.affine.AffineMapSpec(
        d.arity, tuple(coeffs.get(i, zero) for i in range(d.arity)), const, fld
    )
