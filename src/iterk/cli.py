"""Command-line interface.

One subcommand per analysis; maps come in either as a definition string
(``--def "f(x1,x2) = x1 + x2"``) or as a table file (``--table path``).
Exit codes: 0 success, 1 verification failure (including a false answer
from a predicate subcommand), 2 a ``UsageError`` or an unreadable table
file, 3 an exceeded resource budget or a number past the int-to-str digit
limit, each with one ``error:`` line, 141 a write to stdout whose reader
closed the pipe.  Any other exception is a bug and propagates.  Every
subcommand takes ``--json``, which switches to a stable machine-readable
encoding; all output is deterministic for identical inputs.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys

# every iterk module is reached as an attribute of the package, which imports
# it on first use, so `iterate --def` never loads numpy and a table command
# reads the parser only for a seed
import iterk

from .errors import ArityError, BudgetError, UsageError, _count, _printable

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3
# 128 + SIGPIPE, what a shell reports for a tool that a closed pipe stops
EXIT_PIPE = 141


# ---------------------------------------------------------------------------
# rendering helpers

def _text(value) -> str:
    """An exact scalar (int, Fraction or CyclotomicNumber) as text, once the
    digit rule has passed each integer that the text writes."""
    for c in getattr(value, "coeffs", (value,)):
        _printable(max(abs(c.numerator), c.denominator), "a number to print")
    return str(value)


def _render_state(state) -> str:
    parts = [_text(v) for v in state]
    sep = ", " if any(" " in p or "," in p for p in parts) else " "
    return sep.join(parts)


def _word(value) -> str:
    """A value as the text form writes it: none, true, false or its str."""
    if value is None:
        return "none"
    return str(value).lower() if isinstance(value, bool) else str(value)


def _emit(args, text, payload) -> int:
    # both forms are zero-argument callables, and only the printed one is built
    if args.json:
        print(json.dumps(payload(), sort_keys=True))
    else:
        sys.stdout.write("".join(line + "\n" for line in text()))
    return EXIT_OK


def _answer(args, key, value) -> int:
    """Write a one-value answer, {key: value} as JSON; a false one exits 1."""
    _emit(args, lambda: [_word(value)], lambda: {key: value})
    return EXIT_VERIFY if value is False else EXIT_OK


def _table(args, t) -> int:
    """Write a table in the table-file format, or {m, k, entries} as JSON."""
    return _emit(
        args,
        lambda: [iterk.tables.dumps_table(t).rstrip("\n")],
        lambda: {"m": t.m, "k": t.k, "entries": list(t.values())},
    )


# ---------------------------------------------------------------------------
# input plumbing

def _load(args):
    """The FiniteTable that --table names, or the MapDef that --def gives."""
    if args.table is not None:
        return iterk.tables.load_table(args.table)
    return iterk.parser.parse_map_def(args.map_def)


def _seed(args, src, lift=None):
    """The engine map of ``src``, from :func:`_load`, and --seed as its state.

    A definition's map runs over its field joined with the seed's, lifted to
    arity ``lift`` when given; a table's seed names symbols 0..m-1.
    """
    if not args.seed:
        need = "when augmenting a definition" if lift is not None else "for this command"
        raise UsageError(f"--seed is required {need}")
    exprs = iterk.parser.parse_seed(args.seed)
    if args.table is None:
        field = iterk.parser.field_of(src.expr, *exprs)
        fmap = iterk.parser.to_kary_map(src, field)
        if lift is not None:
            fmap = iterk.recurrence.augment(fmap, lift)
        state = tuple(iterk.parser.eval_scalar(e, field) for e in exprs)
        what, outside = "the lifted arity is" if lift is not None else "the map has arity", []
    else:
        rational = iterk.exactnum.RationalField()
        state = ()
        for expr in exprs:
            v = iterk.parser.eval_scalar(expr, rational)
            if v.denominator != 1:
                raise UsageError(f"table seeds must be integers, got {_text(v)}")
            state += (int(v),)
        fmap, what = src.as_map(), "the table has arity"
        outside = [v for v in state if not 0 <= v < src.m]
    if len(state) != fmap.arity:
        raise ArityError(f"seed has {len(state)} components but {what} {fmap.arity}")
    if outside:
        raise UsageError(f"seed component {_text(outside[0])} out of range 0..{src.m - 1}")
    return fmap, state


def _perm_arg(text: str, m: int) -> list[int]:
    try:
        values = [int(x) for x in text.split(",")]
    except ValueError:
        raise UsageError(f"--perm must be comma-separated integers, got {text!r}")
    if len(values) != m:
        raise UsageError(f"--perm must list all {m} images")
    return values


# ---------------------------------------------------------------------------
# subcommands

def _cmd_iterate(args) -> int:
    # a table's iterate takes negative n too, so the count is checked here
    n = _count(args.n, "iterate count", 0)
    src = _load(args)
    fmap, seed = _seed(args, src)
    if args.table is not None:
        # a table's orbit closes within m**k steps, so any n costs at most that
        result = iterk.tables.table_iterate(src, seed, n)
    else:
        result = iterk.engine.iterate(fmap, seed, n)
    return _emit(
        args, lambda: [_render_state(result)], lambda: {"state": [_text(v) for v in result]}
    )


def _cmd_orbit(args) -> int:
    orb = iterk.engine.orbit(*_seed(args, _load(args)), args.max_steps)
    return _emit(
        args,
        lambda: [_render_state(s) for s in orb.states] + [f"recurred: {_word(orb.recurred)}"],
        lambda: {"states": [[_text(v) for v in s] for s in orb.states], "recurred": orb.recurred},
    )


def _cmd_order(args) -> int:
    src = _load(args)
    if args.table is not None:
        order = iterk.tables.cycle_report(src).minimal_order
    else:
        it = iterk.affine.build_first_iterate(iterk.parser.to_affine(src))
        order = iterk.affine.affine_involutory_order(it, None)
    return _answer(args, "minimal_order", order)


def _cmd_point_order(args) -> int:
    src = _load(args)
    fmap, seed = _seed(args, src)
    if args.table is not None:
        # exact: the seed's trajectory closes within m**k steps
        order = iterk.tables.table_point_order(src, seed)
    else:
        order = iterk.engine.point_involutory_order(fmap, seed, args.bound)
    return _answer(args, "point_order", order)


def _cmd_check_ii(args) -> int:
    flag = iterk.tables.is_induced_involutory(_load(args), args.n, args.arg)
    return _answer(args, "induced_involutory", flag)


def _cmd_symmetric(args) -> int:
    return _answer(args, "symmetric", iterk.tables.is_symmetric(_load(args)))


def _cmd_cycles(args) -> int:
    rep = iterk.tables.cycle_report(_load(args))
    # json writes a tuple as an array, so the report's tuples go in as they are
    return _emit(
        args,
        lambda: [
            f"bijective: {_word(rep.bijective)}",
            f"minimal_order: {_word(rep.minimal_order)}",
            "cycle_lengths: " + " ".join(map(str, rep.cycle_lengths)),
            *("cycle: " + " ".join(map(str, cyc)) for cyc in rep.cycles),
        ],
        lambda: {
            "bijective": rep.bijective,
            "minimal_order": rep.minimal_order,
            "cycle_lengths": rep.cycle_lengths,
            "cycles": rep.cycles,
        },
    )


def _cmd_enumerate_ii(args) -> int:
    found = list(iterk.tables.enumerate_ii_tables(args.m, args.k))
    return _emit(
        args,
        lambda: [f"count: {len(found)}"] + [" ".join(map(str, t.values())) for t in found],
        lambda: {"count": len(found), "tables": [list(t.values()) for t in found]},
    )


def _cmd_count_involutions(args) -> int:
    count = iterk.tables.count_involutions(args.m)
    if args.brute:
        brute = iterk.tables.count_involutions_brute(args.m)
        if brute != count:
            print(f"recursion {count} != brute force {brute}", file=sys.stderr)
            return EXIT_VERIFY
    return _answer(args, "count", count)


def _cmd_claim1(args) -> int:
    # one input: --table alone, or --m with --k
    if (args.table is None) == (args.m is None) or (args.m is None) != (args.k is None):
        raise UsageError("claim1 needs either --table or both --m and --k")
    if args.table is not None:
        rep = iterk.recurrence.cycle_correspondence_report(_load(args))
        cols = rep.columns()
        return _emit(
            args,
            lambda: [
                f"bijective: {_word(rep.bijective)}",
                *(
                    f"state {i} {s}: n={n} j={j}"
                    f" dir1={'ok' if d1 else 'VIOLATED'}"
                    f" j|n={'yes' if jn else 'no'}"
                    f" j|nk={'yes' if jnk else 'NO'}"
                    for i, s, n, j, d1, jn, jnk in zip(*cols.values())
                ),
                f"states: {rep.states_checked}"
                f" dir1_violations: {rep.direction1_violations}"
                f" j_divides_n: {rep.j_divides_n_count}"
                f" jnk_violations: {rep.j_divides_nk_violations}",
            ],
            lambda: {
                "bijective": rep.bijective,
                # a row's fields are its keys, and json writes its state tuple as an array
                "rows": [dict(zip(cols, row)) for row in zip(*cols.values())],
                "direction1_violations": rep.direction1_violations,
                "j_divides_nk_violations": rep.j_divides_nk_violations,
            },
        )
    sweep = dataclasses.asdict(iterk.recurrence.cycle_correspondence_sweep(args.m, args.k))
    # the text form lists the tallies after m and k, each named by its field less "_count"
    return _emit(
        args,
        lambda: [f"{name.removesuffix('_count')}: {v}" for name, v in list(sweep.items())[2:]],
        lambda: sweep,
    )


def _cmd_augment(args) -> int:
    if args.table is not None and args.seed is not None:
        raise UsageError("augment --table takes no --seed")
    src = _load(args)
    if args.table is not None:
        return _table(args, iterk.recurrence.augment_table(src, args.to))
    fmap, seed = _seed(args, src, args.to)
    return _answer(args, "value", _text(fmap.apply(seed)))


def _cmd_conjugate(args) -> int:
    t = _load(args)
    return _table(args, iterk.tables.conjugate(t, _perm_arg(args.perm, t.m)))


# ---------------------------------------------------------------------------
# verify-examples: golden end-to-end checks through the parser and loader

def _data_table(name: str):
    from importlib import resources

    text = resources.files("iterk").joinpath(f"data/{name}").read_text()
    return iterk.tables.loads_table(text)


def _rand_fraction(rng):
    from fractions import Fraction

    return Fraction(rng.randint(-99, 99), rng.randint(1, 20))


def _golden_table_checks(name: str, lengths, order):
    t = _data_table(name)
    rep = iterk.tables.cycle_report(t)
    label = name.removesuffix(".tbl")
    yield f"{label}-cycles", rep.cycle_lengths == lengths and rep.minimal_order == order, (
        f"lengths {rep.cycle_lengths}, minimal order {rep.minimal_order}"
    )
    yield f"{label}-symmetric", iterk.tables.is_symmetric(t), "invariant under argument swaps"
    yield f"{label}-ii3", iterk.tables.is_induced_involutory(t, 3), "induced 3-involutory"
    if t.k == 2:
        grid = t.entries.reshape(t.m, t.m)
        persym = bool((grid == grid[::-1, ::-1].T).all())
        if name.startswith("ii3_persym"):
            yield f"{label}-persymmetric", persym, "antidiagonal symmetry"


def _pair_sum_check(rng):
    d = iterk.parser.parse_map_def("f(x1,x2) = x1 + x2")
    fmap = iterk.parser.to_kary_map(d)
    it = iterk.affine.build_first_iterate(iterk.parser.to_affine(d))
    for _ in range(100):
        seed = (_rand_fraction(rng), _rand_fraction(rng))
        current = seed
        for n in range(31):
            closed = iterk.affine.fibonacci_closed_form(n, seed)
            fast = iterk.affine.affine_iterate(it, seed, n)
            if not (closed == fast == current):
                return False, f"mismatch at n={n}, seed={seed}"
            current = iterk.engine.first_iterate(fmap, current)
    return True, "closed form == engine == matrix power, n <= 30, 100 seeds"


def _sum_map_check(rng):
    for k in range(1, 6):
        a = _rand_fraction(rng)
        vars_ = ",".join(f"x{i}" for i in range(1, k + 1))
        body = " - ".join([f"{a.numerator}/{a.denominator}"] + [f"x{i}" for i in range(1, k + 1)])
        d = iterk.parser.parse_map_def(f"f({vars_}) = {body}")
        spec = iterk.parser.to_affine(d)
        it = iterk.affine.build_first_iterate(spec)
        fmap = iterk.parser.to_kary_map(d)
        order = iterk.affine.affine_involutory_order(it, None)
        if order != k + 1:
            return False, f"k={k}: minimal order {order} != {k + 1}"
        seed = tuple(_rand_fraction(rng) for _ in range(k))
        current = seed
        for idx in range(2 * (k + 1)):
            if iterk.affine.sum_map_closed_form(k, a, idx, seed) != current:
                return False, f"k={k}: closed form mismatch at index {idx}"
            current = iterk.engine.first_iterate(fmap, current)
    return True, "all residues mod k+1 for k <= 5; minimal order k+1"


def _roots_check():
    d = iterk.parser.parse_map_def("f(x1,x2) = zeta(3)*x1 + zeta(3)^2*x2")
    fld = d.field()
    fmap = iterk.parser.to_kary_map(d)
    it = iterk.affine.build_first_iterate(iterk.parser.to_affine(d))
    pts = [
        fld.coerce(0),
        fld.coerce(1),
        fld.coerce(-1),
        fld.zeta(),
        fld.one() + fld.zeta(),
    ]
    for x1 in pts:
        for x2 in pts:
            s = (x1, x2)
            if iterk.affine.linear_roots_checks(3, "induced-1", 3, s)[0] != x1:
                return False, "first-argument cycle broke"
            if iterk.affine.linear_roots_checks(3, "induced-2", 3, s)[1] != x2:
                return False, "second-argument cycle broke"
    s = (fld.one(), fld.zeta())
    for n in range(13):
        if iterk.affine.linear_roots_checks(3, "full", n, s) != iterk.engine.iterate(fmap, s, n):
            return False, f"product form mismatch at n={n}"
    if iterk.affine.affine_involutory_order(it, None) is not None:
        return False, "unexpectedly involutory"
    one, zero = fld.one(), fld.zero()
    if fmap.apply((one, zero)) == fmap.apply((zero, one)):
        return False, "map should be asymmetric at (1,0)"
    return True, "induced cycles, product form vs engine, no global order, asymmetric"


def _augment_check(rng):
    d = iterk.parser.parse_map_def("f(x1,x2) = 3/2 - x1 - x2")
    lifted = iterk.recurrence.augment(iterk.parser.to_kary_map(d), 3)
    for _ in range(1000):
        s = tuple(_rand_fraction(rng) for _ in range(3))
        if lifted.apply(s) != s[0]:
            return False, f"lifted map != first projection at {s}"
    return True, "lifted map projects to the first argument on 1000 inputs"


def _cmd_verify_examples(args) -> int:
    import random

    rng = random.Random(20260808)
    results: list[tuple[str, bool, str]] = []
    results.extend(_golden_table_checks("add_mod3.tbl", (4, 4, 1), 4))
    results.extend(_golden_table_checks("ii3_persym_m4.tbl", (15, 1), 15))
    for name, fn in (
        ("pair-sum-closed-form", lambda: _pair_sum_check(rng)),
        ("sum-map-closed-form", lambda: _sum_map_check(rng)),
        ("roots-of-unity", _roots_check),
        ("augment-projection", lambda: _augment_check(rng)),
    ):
        ok, detail = fn()
        results.append((name, ok, detail))
    failures = [name for name, ok, _ in results if not ok]
    _emit(
        args,
        lambda: [f"{'ok' if ok else 'FAIL'} {name}: {detail}" for name, ok, detail in results]
        + [f"{len(results) - len(failures)}/{len(results)} checks passed"],
        lambda: {
            "checks": [{"name": n, "ok": ok, "detail": d} for n, ok, d in results],
            "failures": failures,
        },
    )
    return EXIT_OK if not failures else EXIT_VERIFY


# ---------------------------------------------------------------------------
# argument parsing

def build_arg_parser() -> argparse.ArgumentParser:
    about = "Iterate maps of k arguments as order-k recurrences and analyze their periodicity."
    ap = argparse.ArgumentParser(prog="iterk", description=about)
    sp = ap.add_subparsers(dest="command", required=True)

    def command(name, summary, fn, inputs=None, seed=False, **options):
        """One subcommand.  ``inputs`` is "map" for --def or --table, "table"
        for --table alone, or None; ``options`` maps each further flag, less
        its dashes and with _ for -, to its add_argument keywords.  --json
        follows the inputs and --seed, or closes a command that has none."""
        s = sp.add_parser(name, help=summary)
        s.set_defaults(fn=fn)
        if inputs == "map":
            grp = s.add_mutually_exclusive_group(required=True)
            grp.add_argument("--def", dest="map_def", help="map definition string")
            grp.add_argument("--table", help="table file path")
        elif inputs == "table":
            s.add_argument("--table", required=True, help="table file path")
        if seed:
            s.add_argument("--seed", help="comma-separated seed scalars")
        json_flag = {"json": dict(action="store_true", help="machine-readable output")}
        for flag, kw in ({**json_flag, **options} if inputs else {**options, **json_flag}).items():
            s.add_argument("--" + flag.replace("_", "-"), **kw)

    need = dict(type=int, required=True)
    command("iterate", "n-th iterate of a seed state", _cmd_iterate, "map", seed=True, n=need)
    command(
        "orbit", "trajectory of a seed state", _cmd_orbit, "map", seed=True,
        max_steps=dict(type=int, default=100),
    )
    command("order", "minimal involutory order", _cmd_order, "map")
    command(
        "point-order", "minimal n with the n-th iterate fixing the seed", _cmd_point_order,
        "map", seed=True,
        bound=dict(type=int, default=1000, help="search bound for definitions only"),
    )
    command(
        "check-ii", "induced involutivity of order n", _cmd_check_ii, "table", n=need,
        arg=dict(type=int, default=None, help="restrict to one argument position"),
    )
    command("symmetric", "invariance under argument permutations", _cmd_symmetric, "table")
    command("cycles", "cycle decomposition of the first iterate", _cmd_cycles, "table")
    command(
        "enumerate-ii", "all induced-involutory tables for m, k", _cmd_enumerate_ii,
        m=need, k=need,
    )
    command(
        "count-involutions", "telephone number T(m)", _cmd_count_involutions, m=need,
        brute=dict(action="store_true", help="cross-check by full scan"),
    )
    command(
        "claim1", "correspondence between state periods and recurrence cycle lengths",
        _cmd_claim1,
        table=dict(help="analyze one table file"),
        m=dict(type=int, help="sweep all tables on m symbols"),
        k=dict(type=int, help="arity for the sweep"),
    )
    command(
        "augment", "lift a map to a higher arity", _cmd_augment, "map", seed=True,
        to=dict(need, help="target arity"),
    )
    command(
        "conjugate", "relabel a table through a bijection", _cmd_conjugate, "table",
        perm=dict(required=True, help="comma-separated images of 0..m-1"),
    )
    command("verify-examples", "run the built-in worked examples", _cmd_verify_examples)
    return ap


def main(argv=None) -> int:
    ap = build_arg_parser()
    args = ap.parse_args(argv)
    try:
        code = args.fn(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader left: stdout goes to devnull, so the flush at exit stays quiet
        with open(os.devnull, "wb") as devnull:
            os.dup2(devnull.fileno(), sys.stdout.fileno())
        return EXIT_PIPE
    except BudgetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    # ParseError, NonAffineError and ArityError are UsageErrors; an OSError
    # is a table file that cannot be read
    except (UsageError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
