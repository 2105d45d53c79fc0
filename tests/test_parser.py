"""Definition grammar: parsing, rendering, affine extraction, fuzz safety."""

import collections
import math
import operator
import random
import re
import string
from fractions import Fraction

import pytest

import iterk
from iterk.errors import NonAffineError, ParseError
from iterk.exactnum import CyclotomicField, RationalField
from iterk.parser import (
    Group,
    MapDef,
    Neg,
    Product,
    RationalLit,
    Sum,
    Var,
    eval_scalar,
    parse_map_def,
    parse_scalar,
    parse_seed,
    render,
    render_def,
    to_affine,
    to_kary_map,
)


class TestParseMapDef:
    def test_pair_sum(self):
        d = parse_map_def("f(x1,x2) = x1 + x2")
        assert d.arity == 2
        assert d.expr == Sum((("+", Var(1)), ("+", Var(2))))
        assert d.field() == RationalField()

    def test_sum_map_with_constant(self):
        d = parse_map_def("f(x1,x2,x3) = 5 - x1 - x2 - x3")
        spec = to_affine(d)
        assert spec.coefficients == (-1, -1, -1)
        assert spec.constant == 5

    def test_root_coefficients(self):
        d = parse_map_def("f(x1,x2) = zeta(3)*x1 + zeta(3)^2*x2")
        assert d.field() == CyclotomicField(3)
        spec = to_affine(d)
        fld = CyclotomicField(3)
        assert spec.coefficients == (fld.zeta(), fld.zeta(2))

    def test_mixed_orders_join(self):
        d = parse_map_def("f(x1) = zeta(3)*x1 + zeta(4)")
        assert d.field() == CyclotomicField(12)

    def test_whitespace_insensitive(self):
        a = parse_map_def("f(x1,x2)=x1+x2")
        b = parse_map_def("  f ( x1 , x2 )  =  x1 + x2  ")
        assert a == b

    def test_precedence_and_associativity(self):
        d = parse_map_def("f(x1,x2) = x1 - x2 - 1 + 2*x1*3")
        assert d.expr == Sum((
            ("+", Var(1)),
            ("-", Var(2)),
            ("-", RationalLit(Fraction(1))),
            ("+", Product((RationalLit(Fraction(2)), Var(1), RationalLit(Fraction(3))))),
        ))
        spec = to_affine(d)
        assert spec.coefficients == (7, -1)
        assert spec.constant == -1

    def test_groups_and_negation(self):
        d = parse_map_def("f(x1) = -(x1 + 1) * 2")
        inner = Sum((("+", Var(1)), ("+", RationalLit(Fraction(1)))))
        assert d.expr == Product((Neg(Group(inner)), RationalLit(Fraction(2))))
        spec = to_affine(d)
        assert spec.coefficients == (-2,) and spec.constant == -2

    def test_rational_literals(self):
        spec = to_affine(parse_map_def("f(x1) = 3/4*x1 - 1/2"))
        assert spec.coefficients == (Fraction(3, 4),)
        assert spec.constant == Fraction(-1, 2)


class TestParseErrors:
    @pytest.mark.parametrize(
        "text",
        [
            "",
            "g(x1) = x1",
            "f(x2) = x2",
            "f(x1, x3) = x1",
            "f(x1) = x2",
            "f(x1) = 1/0",
            "f(x1) = zeta(0)",
            "f(x1) = zeta(65)",
            "f(x1) = x1 +",
            "f(x1) = (x1",
            "f(x1) = x1 x1",
            "f(x1) = x1 @ x1",
            "f(x1) = ",
            "f(x1) = zeta(3)^",
            "f(x1) = x1/2",
            "f(x1)",
        ],
    )
    def test_rejected(self, text):
        with pytest.raises(ParseError):
            parse_map_def(text)

    def test_positions_reported(self):
        with pytest.raises(ParseError) as err:
            parse_map_def("f(x1,x2) =\n  x1 + x9")
        assert err.value.line == 2
        assert err.value.column == 8

    def test_evaluation_errors_name_the_node_position(self):
        # the tree parses; folding it into a field or an arity fails later,
        # at the literal or variable that does not fit
        with pytest.raises(ParseError) as err:
            eval_scalar(parse_seed("0,\n  2*zeta(3)")[1], RationalField())
        assert (err.value.line, err.value.column) == (2, 5)
        body = parse_map_def("f(x1,x2) = x1 + x2").expr
        with pytest.raises(ParseError) as err:
            to_kary_map(MapDef(1, body))
        assert (err.value.line, err.value.column) == (1, 17)

    def test_positions_do_not_change_tree_equality(self):
        a = parse_map_def("f(x1) = zeta(3)*x1").expr
        b = parse_map_def("f(x1) =   zeta(3) * x1").expr
        assert a == b and hash(a) == hash(b) and repr(a) == repr(b)
        assert a.factors[0].at != b.factors[0].at

    def test_deep_nesting_is_an_error_not_a_crash(self):
        text = "f(x1) = " + "(" * 400 + "x1" + ")" * 400
        with pytest.raises(ParseError):
            parse_map_def(text)


class TestNonAffine:
    def test_products_of_variables_rejected_for_matrices(self):
        with pytest.raises(NonAffineError):
            to_affine(parse_map_def("f(x1,x2) = x1*x2"))
        with pytest.raises(NonAffineError):
            to_affine(parse_map_def("f(x1,x2) = (x1+1)*(x2-1)"))

    def test_engine_map_still_evaluates(self):
        f = to_kary_map(parse_map_def("f(x1,x2) = x1*x2 + 1"))
        assert f.apply((Fraction(3), Fraction(4))) == 13

    @pytest.mark.parametrize("d", [MapDef(2, Var(0)), MapDef(1, Var(2))], ids=["x0", "x2"])
    def test_out_of_range_variables_are_parse_errors(self, d):
        want = rf"^1:1: undeclared variable 'x{d.expr.index}' \(declared arity {d.arity}\)$"
        for convert in (to_kary_map, to_affine):
            with pytest.raises(ParseError, match=want):
                convert(d)


def random_state(rng: random.Random, field, arity: int) -> tuple:
    def element():
        value = field.coerce(Fraction(rng.randint(-9, 9), rng.randint(1, 5)))
        if isinstance(field, CyclotomicField):
            value = value + rng.randint(-3, 3) * field.zeta(rng.randrange(field.order))
        return value
    return tuple(element() for _ in range(arity))


class TestAffineForms:
    def test_affine_specs_agree_with_compiled_maps(self):
        # orders up to 6 keep every joined field within MAX_ROOT_ORDER
        rng = random.Random(2031)
        texts = [random_def_text(rng, zeta=False) for _ in range(150)]
        texts += [random_def_text(rng, max_order=6) for _ in range(150)]
        accepted, wrong = {"Q": 0, "Q(zeta)": 0}, []
        for text in texts:
            d = parse_map_def(text)
            try:
                spec = to_affine(d)
            except NonAffineError:
                continue
            fld = d.field()
            accepted["Q" if isinstance(fld, RationalField) else "Q(zeta)"] += 1
            f, g = to_kary_map(d), spec.as_kary_map()
            for _ in range(4):
                state = random_state(rng, fld, d.arity)
                if f.apply(state) != g.apply(state):
                    wrong.append(f"{text} at {state}: {g.apply(state)!r}, want {f.apply(state)!r}")
        # not an assert, so the check also runs under python -O
        if wrong or min(accepted.values()) < 10:
            pytest.fail(f"accepted {accepted}\n" + "\n".join(wrong[:5]))

    def test_cancelled_variables_stay_affine(self):
        spec = to_affine(parse_map_def("f(x1,x2) = (x1 - x1)*x2 + 3"))
        assert spec.coefficients == (0, 0) and spec.constant == 3


class TestLongAndDeepBodies:
    SUM = "f(x1,x2) = " + " + ".join(["x1", "x2"] * 5000)
    DEEP = "f(x1) = " + "(x1 + 2 * " * 199 + "x1" + ")" * 199

    @pytest.mark.parametrize("text", [
        SUM, "f(x1) = " + "-" * 190 + "(" + " - ".join(["x1"] * 950) + ")",
    ], ids=["10000-terms", "950-terms-under-190-minus"])
    def test_long_chains_run_through_every_walk(self, text):
        d = parse_map_def(text)
        assert render_def(d) == text
        state = (Fraction(1),) * d.arity
        spec = to_affine(d)
        assert spec.as_kary_map().apply(state) == to_kary_map(d).apply(state)
        assert d.field() == RationalField()

    def test_nesting_at_the_limit_runs_through_every_walk(self):
        # x1 + 2*(x1 + 2*(...)) with 199 levels is (2**200 - 1)*x1
        d = parse_map_def(self.DEEP)
        assert render_def(d) == self.DEEP and d.field() == RationalField()
        assert to_kary_map(d).apply((1,)) == 2**200 - 1
        spec = to_affine(d)
        assert spec.coefficients == (2**200 - 1,) and spec.constant == 0

    def test_one_level_deeper_is_a_parse_error(self):
        text = "f(x1) = " + "(x1 + 2 * " * 200 + "x1" + ")" * 200
        with pytest.raises(ParseError, match="expression nested too deeply$"):
            parse_map_def(text)


class TestTreeValue:
    @pytest.mark.parametrize("n", [90, 199])
    def test_equality_hash_and_repr_hold_at_every_accepted_depth(self, n):
        def nest(leaf):
            return "f(x1) = " + "(x1 + 2 * " * n + leaf + ")" * n

        a, b = parse_map_def(nest("x1")), parse_map_def(nest("x1"))
        shifted = parse_map_def(nest("x1").replace(" ", "\n  "))  # same tree, other positions
        deepest = parse_map_def(nest("2"))  # differs only at the bottom
        if a.expr.inner.terms[0][1].at == shifted.expr.inner.terms[0][1].at:
            pytest.fail("the shifted copy has the same positions")
        for other in (b, shifted):
            if not (a == other and hash(a) == hash(other) and repr(a) == repr(other)):
                pytest.fail(f"two parses of the same tree at depth {n} differ")
        if a == deepest or repr(a) == repr(deepest):
            pytest.fail(f"trees that differ at depth {n} compare equal")

    def test_repr_names_every_node(self):
        d = parse_map_def("f(x1,x2) = -(x1 + 1/2) * zeta(3)^2 - x2")
        want = (
            "MapDef(2, Sum((('+', Product((Neg(Group(Sum((('+', Var(1)), ('+', RationalLit("
            "Fraction(1, 2))))))), ZetaLit(3, 2)))), ('-', Var(2)))))"
        )
        if repr(d) != want:
            pytest.fail(f"repr {d!r}, want {want}")


class TestTokenPositions:
    GOOD = list("fxzeta_0123456789()+-*/^,=") + ["x1", "zeta", " ", "\t", "\r", "\u00a0", "\u2028"]
    BAD = ["@", "\u00e9", ".", "\u00b2", "\x00"]

    def test_tokens_locate_their_lexemes_or_the_first_bad_character(self):
        rng = random.Random(31)
        wrong = []
        for _ in range(3000):
            text = "".join(
                rng.choice(self.BAD if rng.random() < 0.02 else ["\n"] if rng.random() < 0.1
                           else self.GOOD)
                for _ in range(rng.randint(0, 60))
            )
            lines = text.split("\n")  # not splitlines: only a newline starts a line
            bad = next((i for i, c in enumerate(text) if c in self.BAD), None)
            try:
                tokens = iterk.parser._tokenize(text)
            except ParseError as err:
                if bad is None:
                    wrong.append(f"{text!r}: {err}")
                    continue
                line, column = text.count("\n", 0, bad) + 1, bad - text.rfind("\n", 0, bad)
                want = (f"unexpected character {text[bad]!r}", line, column)
                if (err.message, err.line, err.column) != want:
                    wrong.append(f"{text!r}: {err}, want {want}")
                continue
            if bad is not None:
                wrong.append(f"{text!r}: no error for {text[bad]!r}")
            if "".join(t.text for t in tokens) != "".join(c for c in text if not c.isspace()):
                wrong.append(f"{text!r}: tokens {tokens} do not cover the text")
            for t in tokens:
                if lines[t.line - 1][t.column - 1:t.column - 1 + len(t.text)] != t.text:
                    wrong.append(f"{text!r}: {t} is not at its position")
        if wrong:  # not an assert, so the check also runs under python -O
            pytest.fail("\n".join(wrong[:5]))


class TestScalars:
    def test_parse_scalar(self):
        assert eval_scalar(parse_scalar("-7/2")) == Fraction(-7, 2)
        fld = CyclotomicField(3)
        assert eval_scalar(parse_scalar("zeta(3)^2"), fld) == fld.zeta(2)
        assert eval_scalar(parse_scalar("1 - 2*3")) == -5

    def test_parse_seed(self):
        values = [eval_scalar(e) for e in parse_seed("1/2, -3, 2*2")]
        assert values == [Fraction(1, 2), -3, 4]

    def test_z_is_a_name_only_with_a_root_order(self):
        # z is the root symbol of rendered values, read by parse_cyclo alone
        with pytest.raises(ParseError, match=r"^1:9: unknown name 'z'$"):
            parse_map_def("f(x1) = z*x1")
        with pytest.raises(ParseError, match=r"^1:1: unknown name 'z'$"):
            parse_seed("z")
        assert iterk.parse_cyclo is iterk.parser.parse_cyclo

    def test_variables_rejected_in_scalars(self):
        with pytest.raises(ParseError):
            parse_scalar("x1")
        with pytest.raises(ParseError):
            eval_scalar(parse_seed("1, x1")[1])


def random_def_text(rng: random.Random, zeta: bool = True, max_order: int = 12) -> str:
    arity = rng.randint(1, 4)

    def factor(depth):
        roll = rng.random()
        if depth > 3 or roll < 0.3:
            if rng.random() < 0.5:
                num = rng.randint(0, 30)
                return str(num) if rng.random() < 0.5 else f"{num}/{rng.randint(1, 9)}"
            return f"x{rng.randint(1, arity)}"
        if zeta and roll < 0.45:
            order = rng.randint(1, max_order)
            return f"zeta({order})" + (f"^{rng.randint(0, 5)}" if rng.random() < 0.5 else "")
        if roll < 0.6:
            return f"-{factor(depth + 1)}"
        return f"({expr(depth + 1)})"

    def term(depth):
        parts = [factor(depth) for _ in range(rng.randint(1, 3))]
        return " * ".join(parts)

    def expr(depth):
        parts = [term(depth)]
        for _ in range(rng.randint(0, 3)):
            parts.append(rng.choice(["+", "-"]))
            parts.append(term(depth))
        return " ".join(parts)

    vars_ = ",".join(f"x{i}" for i in range(1, arity + 1))
    return f"f({vars_}) = {expr(0)}"


class TestRoundTrip:
    def test_rendered_definitions_reparse_identically(self):
        rng = random.Random(2024)
        for _ in range(200):
            text = random_def_text(rng)
            d = parse_map_def(text)
            rendered = render_def(d)
            assert parse_map_def(rendered) == d

    def test_render_examples(self):
        d = parse_map_def("f(x1,x2)=zeta(3)*x1+zeta(3)^2*x2")
        assert render_def(d) == "f(x1,x2) = zeta(3) * x1 + zeta(3)^2 * x2"


def fraction_value(expr, state) -> Fraction:
    """Reference semantics over Q: every node one ``Fraction`` operation."""
    if isinstance(expr, Var):
        return Fraction(state[expr.index - 1])
    if isinstance(expr, RationalLit):
        return expr.value
    if isinstance(expr, Group):
        return fraction_value(expr.inner, state)
    if isinstance(expr, Neg):
        return -fraction_value(expr.operand, state)
    if isinstance(expr, Product):
        return math.prod(fraction_value(f, state) for f in expr.factors)
    total = Fraction(0)
    for sign, term in expr.terms:
        total = {"+": operator.add, "-": operator.sub}[sign](total, fraction_value(term, state))
    return total


class TestRationalEvaluation:
    BIG = 2**199 + 4099  # about 200 bits
    STATES = (
        0, 1, -7, BIG, -BIG,
        Fraction(0), Fraction(5, 3), Fraction(-11, 4), Fraction(BIG, 3**125), Fraction(-1, BIG),
    )

    def test_compiled_maps_agree_with_a_fraction_walk(self):
        rng = random.Random(2027)
        texts = ["f(x1) = x1", "f(x1) = -x1", "f(x1,x2) = 7/3", "f(x1,x2,x3) = 0"]
        texts += [random_def_text(rng, zeta=False) for _ in range(300)]
        wrong = []
        for text in texts:
            d = parse_map_def(text)
            f = to_kary_map(d)
            for _ in range(6):
                state = tuple(rng.choice(self.STATES) for _ in range(d.arity))
                got, want = f.apply(state), fraction_value(d.expr, state)
                lowest = math.gcd(got.numerator, got.denominator) == 1 and got.denominator > 0
                if type(got) is not Fraction or got != want or not lowest:
                    wrong.append(f"{text} at {state}: {got!r}, want {want!r}")
        if wrong:  # not an assert, so the check also runs under python -O
            pytest.fail("\n".join(wrong[:5]))

    def test_int_states_come_back_as_fractions(self):
        for text in ("f(x1) = x1", "f(x1) = 2*x1 - x1"):
            got = to_kary_map(parse_map_def(text)).apply((3,))
            assert type(got) is Fraction and got == 3

    @pytest.mark.parametrize("value", [0.5, CyclotomicField(3).zeta(), CyclotomicField(4).one()])
    def test_other_state_elements_are_a_type_error(self, value):
        f = to_kary_map(parse_map_def("f(x1,x2) = 2*x1 + x2"))
        with pytest.raises(TypeError, match=re.escape(f"{value!r} is not an element of Q")):
            f.apply((Fraction(1), value))


class TestConstantFolding:
    # each table with its field and a state for f(x1,x2); to_affine's table
    # runs on the degree-one forms of x1 and x2
    TABLES = {
        "_Q_PAIRS": (RationalField(), (Fraction(1), Fraction(2))),
        "_ELEMENTS": (CyclotomicField(3), (CyclotomicField(3).zeta(), CyclotomicField(3).one())),
        "_FORMS": (RationalField(), (({0: Fraction(1)}, Fraction(0)), ({1: Fraction(1)}, Fraction(0)))),
    }

    @pytest.mark.parametrize("name", TABLES)
    def test_constant_subtrees_run_once_at_compile_time(self, name):
        counts = collections.Counter()

        def counted(op, fn):
            def run(*args):
                counts[op] += 1
                return fn(*args)
            return run

        literal, root, ops = getattr(iterk.parser, name)
        table = (literal, root, {op: counted(op, fn) for op, fn in ops.items()})
        fld, state = self.TABLES[name]
        plain = parse_map_def("f(x1,x2) = x1*5/6 + 6 + x2")
        folded = parse_map_def("f(x1,x2) = x1*(1/2 + 1/3) - (-(2*3)) + x2")
        f = iterk.parser._compile(folded.expr, fld, 2, table)
        # 1/2 + 1/3, 2*3 and its negation, each once
        assert counts == {"+": 1, "*": 1, "neg": 1}
        for _ in range(4):
            got = f(state)
        assert counts == {"+": 5, "*": 5, "-": 4, "neg": 1}
        assert got == iterk.parser._compile(plain.expr, fld, 2, table)(state)


class TestFuzz:
    def test_parser_never_crashes_on_noise(self):
        rng = random.Random(99)
        alphabet = string.printable
        tokens = [
            "f", "x1", "x2", "zeta", "(", ")", "+", "-", "*", "/", "^",
            ",", "=", "12", "0", " ",
        ]
        base = "f(x1,x2) = zeta(3)*x1 + 1/2*x2"
        for i in range(800):
            if i % 3 == 0:
                text = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 40)))
            elif i % 3 == 1:
                text = "".join(rng.choice(tokens) for _ in range(rng.randint(0, 25)))
            else:
                chars = list(base)
                for _ in range(rng.randint(1, 6)):
                    pos = rng.randrange(len(chars))
                    chars[pos] = rng.choice(alphabet)
                text = "".join(chars)
            try:
                result = parse_map_def(text)
                assert isinstance(result, MapDef)
            except ParseError:
                pass
