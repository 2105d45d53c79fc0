"""exact-algebra: rational and cyclotomic affine maps, k = 1..6.

The work is ``affine._mat_mul`` over ``Fraction`` and ``CyclotomicNumber``,
``exactnum`` and ``engine``, with no ``_kernels`` or ``tables``.  Iterating
to n = 64 lets bit lengths grow.  References come from the represented
sequence itself (the window identity), evaluated with the benchmark's own
coefficients rather than the parser's or the affine layer's.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

import refs
import wl_cli
from harness import Op, Workload

NAME = "exact-algebra"

N_ITER = 64
ORDER_BOUND = 50
ARITIES = (1, 2, 3, 4, 5, 6)
ZETA_ORDERS = (3, 4, 5, 7, 12)

PROBE = ("order",)


def _frac(rng, lo=-3, hi=3) -> Fraction:
    num = 0
    while num == 0:
        num = int(rng.integers(lo, hi + 1))
    return Fraction(num, int(rng.integers(1, 4)))


# coefficient magnitudes of the rational maps, fixed so that bit growth and
# cost do not depend on the seed; signs and positions come from the seed
MAGNITUDES = (Fraction(1, 2), Fraction(2, 3), Fraction(3, 2), Fraction(1, 3), Fraction(3, 4), Fraction(2, 5))

# zeta^p1 x1 + zeta^p2 x2 per root order; the seed picks a Galois conjugate
# (p1, p2) -> (u p1, u p2) with u a unit, which keeps the cost the same
ZETA_POWERS = {3: (1, 1), 4: (1, 2), 5: (1, 2), 7: (1, 3), 12: (1, 5)}


def _no_finite_order(order: int, powers) -> bool:
    """The first iterate of zeta^p1 x1 + zeta^p2 x2 has an eigenvalue off the unit circle."""
    a, b = (np.exp(2j * np.pi * p / order) for p in powers)
    mat = np.array([[a, b], [a * b, a + b * b]])
    return bool(np.abs(np.abs(np.linalg.eigvals(mat)) - 1).max() > 0.05)


def make_inputs(seed: int) -> dict:
    rng = np.random.default_rng([seed, 3])
    maps = []
    for k in ARITIES:
        signs = rng.choice([-1, 1], size=k)
        coeffs = [int(sg) * MAGNITUDES[i] for sg, i in zip(signs, rng.permutation(k))]
        maps.append({
            "name": f"rational-{k}", "kind": "rational", "order": 0,
            "coeffs": [(0, c) for c in coeffs], "const": (0, _frac(rng, -9, 9)),
            "seed": [(0, _frac(rng, -9, 9)) for _ in range(k)],
        })
    for k in ARITIES:
        maps.append({
            "name": f"sum-{k}", "kind": "sum", "order": 0,
            "coeffs": [(0, Fraction(-1))] * k, "const": (0, _frac(rng, -9, 9)),
            "seed": [(0, _frac(rng, -9, 9)) for _ in range(k)],
        })
    maps.append({
        "name": "pair-sum", "kind": "pair-sum", "order": 0,
        "coeffs": [(0, Fraction(1))] * 2, "const": (0, Fraction(0)),
        "seed": [(0, _frac(rng, -9, 9)) for _ in range(2)],
    })
    for order in ZETA_ORDERS:
        units = [u for u in range(1, order) if math.gcd(u, order) == 1]
        u = units[int(rng.integers(len(units)))]
        powers = tuple(u * p % order for p in ZETA_POWERS[order])
        if not _no_finite_order(order, powers):
            raise RuntimeError(f"zeta-{order} map {powers} may have a finite order")
        maps.append({
            "name": f"zeta-{order}", "kind": "zeta", "order": order,
            # (zeta power, rational factor); power None means a rational
            "coeffs": [(p, Fraction(1)) for p in powers], "const": (None, Fraction(0)),
            "seed": [(int(rng.integers(order)), _frac(rng, -9, 9)) for _ in range(2)],
        })
    maps.append({
        "name": "zeta-sum-3", "kind": "sum", "order": 12,
        "coeffs": [(None, Fraction(-1))] * 3, "const": (1, Fraction(1)),
        "seed": [(int(rng.integers(12)), _frac(rng, -9, 9)) for _ in range(3)],
    })
    maps.append({
        "name": "roots-3", "kind": "roots", "order": 3,
        "coeffs": [(1, Fraction(1)), (2, Fraction(1))], "const": (None, Fraction(0)),
        "seed": [(int(rng.integers(3)), _frac(rng, -9, 9)) for _ in range(2)],
    })
    return {"maps": maps, "cli": wl_cli.make_inputs(seed)}


def _text(spec) -> str:
    """Definition string; in rational maps the power slot is unused (0)."""
    k = len(spec["coeffs"])

    def scalar(power, q):
        if spec["order"] == 0 or power is None:
            return str(q)
        z = f"zeta({spec['order']})" + (f"^{power}" if power != 1 else "")
        return z if q == 1 else f"{q}*{z}"

    terms = [f"{scalar(p, q)}*x{i + 1}" for i, (p, q) in enumerate(spec["coeffs"])]
    p, q = spec["const"]
    if spec["order"] == 0:
        terms.append(str(q))
    elif p is not None:
        terms.append(f"{scalar(p, Fraction(1))} + {q}" if q else scalar(p, Fraction(1)))
    xs = ",".join(f"x{i}" for i in range(1, k + 1))
    return f"f({xs}) = " + " + ".join(f"({t})" for t in terms)


def _value(field, power, q, order):
    """Element zeta^power + q of the field (just q when power is None or unused)."""
    if order == 0 or power is None:
        return field.coerce(q)
    return field.zeta(power) + q


def build(inputs: dict, tracer, workdir) -> Workload:
    import iterk.affine
    import iterk.engine
    import iterk.exactnum
    import iterk.parser
    import iterk.recurrence

    affine, engine, exactnum = iterk.affine, iterk.engine, iterk.exactnum
    parser, recurrence = iterk.parser, iterk.recurrence
    ops: list[Op] = []

    for spec in inputs["maps"]:
        name, kind, order = spec["name"], spec["kind"], spec["order"]
        k = len(spec["coeffs"])
        field = exactnum.CyclotomicField(order) if order else exactnum.RationalField()
        coeffs = []
        for p, q in spec["coeffs"]:
            c = field.coerce(q) if order == 0 or p is None else field.zeta(p) * q
            coeffs.append(c)
        const = _value(field, *spec["const"], order) if order else field.coerce(spec["const"][1])
        seed = tuple(_value(field, p, q, order) for p, q in spec["seed"])

        def apply_ref(window, coeffs=coeffs, const=const):
            acc = const
            for c, x in zip(coeffs, window):
                acc = acc + c * x
            return acc

        want = refs.recurrence_window(apply_ref, seed, N_ITER)
        want_one = refs.recurrence_window(apply_ref, seed, 1)
        text = _text(spec)
        d = parser.parse_map_def(text)
        aspec = parser.to_affine(d, field)
        it = affine.build_first_iterate(aspec)
        fmap = parser.to_kary_map(d, field)
        ops += [
            Op(f"{name}:parse_map_def", lambda text=text: parser.parse_map_def(text),
               lambda r, field=field, seed=seed, want_one=want_one:
                   parser.to_kary_map(r, field).apply(seed) == want_one[0]),
            Op(f"{name}:to_affine", lambda d=d, field=field: parser.to_affine(d, field),
               lambda r, coeffs=coeffs, const=const:
                   list(r.coefficients) == coeffs and r.constant == const),
            Op(f"{name}:build_first_iterate", lambda aspec=aspec: affine.build_first_iterate(aspec),
               lambda r, seed=seed, want_one=want_one: r.apply(seed) == want_one),
            Op(f"{name}:affine_iterate", lambda it=it, seed=seed: affine.affine_iterate(it, seed, N_ITER),
               lambda r, want=want: r == want),
            Op(f"{name}:engine.iterate", lambda fmap=fmap, seed=seed: engine.iterate(fmap, seed, N_ITER),
               lambda r, want=want: r == want),
        ]
        if kind in ("sum", "zeta"):
            expected_order = k + 1 if kind == "sum" else None
            ops.append(Op(
                f"{name}:affine_involutory_order",
                lambda it=it: affine.affine_involutory_order(it, ORDER_BOUND),
                lambda r, e=expected_order: r == e,
            ))
        if kind == "sum":
            ops.append(Op(
                f"{name}:sum_map_closed_form",
                lambda k=k, const=const, seed=seed: affine.sum_map_closed_form(k, const, N_ITER, seed),
                lambda r, want=want: r == want,
            ))
            lifted_state = seed + (seed[0] + seed[-1],)
            ops.append(Op(
                f"{name}:augment",
                lambda fmap=fmap, s=lifted_state, k=k: recurrence.augment(fmap, k + 1).apply(s),
                lambda r, x1=seed[0]: r == x1,
            ))
        if kind == "pair-sum":
            ops.append(Op(
                f"{name}:fibonacci_closed_form",
                lambda seed=seed: affine.fibonacci_closed_form(N_ITER, seed),
                lambda r, want=want: r == want,
            ))
        if kind == "roots":
            ops.append(Op(
                f"{name}:linear_roots_checks",
                lambda seed=seed: affine.linear_roots_checks(3, "full", N_ITER, seed),
                lambda r, want=want: r == want,
            ))

    def direct(order):
        # identities of the primitive root, computed through exactnum directly
        with tracer.span("exactnum.direct"):
            fld = exactnum.CyclotomicField(order)
            z, one = fld.zeta(), fld.one()
            powers = [z**i for i in range(order)]
            total = fld.zero()
            for p in powers:
                total = total + p
            return (z**order == one, total.is_zero(), (one - z) * (one - z).inverse() == one)

    for order in ZETA_ORDERS:
        ops.append(Op(f"exactnum-{order}", lambda o=order: direct(o), lambda r: all(r)))

    files = wl_cli.Files(inputs["cli"], workdir)

    def warm():
        d = parser.parse_map_def("f(x1,x2) = zeta(3)*x1 + 1/2*x2")
        it = affine.build_first_iterate(parser.to_affine(d))
        affine.affine_iterate(it, (d.field().one(), d.field().zero()), 3)
        affine.affine_involutory_order(it, 3)

    def bits(results):
        return max((refs.max_bits(r) for r in results if isinstance(r, tuple)), default=0)

    return Workload(
        ops=ops, light=wl_cli.light_ops(inputs["cli"], files, tracer, PROBE), warm=warm, bits=bits
    )
