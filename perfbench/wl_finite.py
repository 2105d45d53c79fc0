"""finite-tables: a few large tables, 10^4 to a few 10^5 states.

``_kernels.table_perm`` does almost all the work here, so this workload
exercises any change to the first-iterate kernel, the cycle labelling or the
induced-involution check.  The working set runs from inside the 2 MiB L2 to
past it.  Random tables are almost never bijective and take the
``_cyclic_states`` pruning path; the bijective ones are (c - sum x) mod m
(induced involutory, order k + 1) and (sum x) mod m, each relabelled by a
seeded permutation of the symbols.
"""

from __future__ import annotations

import math

import numpy as np

import refs
import wl_cli
from harness import Op, Workload

NAME = "finite-tables"

# name -> (m, k, kind); sizes are fixed, contents come from the seed
SHAPES = {
    "rand-1e4": (10, 4, "random"),
    "ii-5e4": (6, 6, "ii"),
    "sum-5e4": (15, 4, "sum"),
    "rand-2e5": (22, 4, "random"),
}

# (table, operation) in pass order
OPERATIONS = [
    ("rand-1e4", "loads_table"),
    ("rand-1e4", "cycle_report"),
    ("rand-1e4", "as_permutation"),
    ("rand-1e4", "table_iterate"),
    ("rand-1e4", "is_symmetric"),
    ("ii-5e4", "loads_table"),
    ("ii-5e4", "cycle_report"),
    ("ii-5e4", "is_induced_involutory"),
    ("ii-5e4", "is_symmetric"),
    ("sum-5e4", "loads_table"),
    ("sum-5e4", "as_permutation"),
    ("sum-5e4", "table_iterate"),
    ("sum-5e4", "is_symmetric"),
    ("rand-2e5", "loads_table"),
    ("rand-2e5", "cycle_report"),
]

PROBE = ("cycles",)

ENGINE_SAMPLES = 16


def make_inputs(seed: int) -> dict:
    rng = np.random.default_rng([seed, 1])
    out = {}
    for name, (m, k, kind) in SHAPES.items():
        if kind == "random":
            entries = rng.integers(0, m, size=m**k)
        else:
            c = int(rng.integers(m)) if kind == "ii" else 0
            base = refs.sum_table(m, k, c, -1 if kind == "ii" else 1)
            entries = refs.conjugate(base, m, k, rng.permutation(m))
        # random tables iterate forward, the bijective one backwards
        n = int(rng.integers(10**8, 10**9))
        out[name] = {
            "entries": entries,
            "start": int(rng.integers(m**k)),
            "n": n if kind == "random" else -n,
            "samples": rng.integers(m**k, size=ENGINE_SAMPLES),
        }
    out["cli"] = wl_cli.make_inputs(seed)
    return out


def _expected(name, spec, iterk) -> dict:
    """References for one table; the engine checks the numpy reference."""
    m, k, kind = SHAPES[name]
    entries = spec["entries"]
    perm = refs.first_iterate_perm(entries, m, k)
    fmap = iterk.tables.FiniteTable(m, k, entries).as_map()
    cols = refs.digits(m, k)
    state = lambda i: tuple(int(c[i]) for c in cols)  # noqa: E731
    for s in spec["samples"].tolist():
        image = iterk.engine.first_iterate(fmap, state(s))
        if image != state(int(perm[s])):
            raise RuntimeError(f"{name}: reference first iterate disagrees with the engine at {s}")
    cycles, periods = refs.canonical_cycles(perm)
    bijective = kind != "random"
    if bijective != (len(np.unique(perm)) == len(perm)):
        raise RuntimeError(f"{name}: generated table has the wrong kind")
    order = math.lcm(*(len(c) for c in cycles)) if bijective else None
    if kind == "ii" and order != k + 1:
        raise RuntimeError(f"{name}: induced-involutory table of order {order}")
    n = spec["n"]
    walk = refs.inverse(perm) if n < 0 else perm
    return {
        "perm": perm,
        "cycles": cycles,
        "periods": periods,
        "order": order,
        "bijective": bijective,
        "symmetric": refs.is_symmetric(entries, m, k),
        "ii": refs.induced_order_divides(entries, m, k, 2),
        "iterate": state(refs.power_apply(walk, spec["start"], abs(n))),
        "start": state(spec["start"]),
        "text": refs.table_text(entries, m, k),
    }


def _op(name, operation, table, want, iterk) -> Op:
    tables = iterk.tables
    m, k, _ = SHAPES[name]
    label = f"{name}:{operation}"
    if operation == "loads_table":
        return Op(
            label,
            lambda: tables.loads_table(want["text"]),
            lambda r: r.m == m and r.k == k and np.array_equal(r.entries, table.entries),
        )
    if operation == "cycle_report":
        return Op(
            label,
            lambda: tables.cycle_report(table),
            lambda r: (r.bijective == want["bijective"] and r.cycles == want["cycles"]
                       and r.minimal_order == want["order"]
                       and r.per_point_period == want["periods"]),
        )
    if operation == "as_permutation":
        return Op(
            label,
            lambda: tables.as_permutation(table),
            lambda r: (r is None) if not want["bijective"] else np.array_equal(r, want["perm"]),
        )
    if operation == "table_iterate":
        n = want["n"]
        return Op(
            label,
            lambda: tables.table_iterate(table, want["start"], n),
            lambda r: r == want["iterate"],
        )
    if operation == "is_symmetric":
        return Op(label, lambda: tables.is_symmetric(table), lambda r: r == want["symmetric"])
    if operation == "is_induced_involutory":
        return Op(label, lambda: tables.is_induced_involutory(table, 2), lambda r: r is want["ii"])
    raise ValueError(operation)


def build(inputs: dict, tracer, workdir) -> Workload:
    import iterk.engine
    import iterk.tables

    wants, tabs = {}, {}
    for name, (m, k, _) in SHAPES.items():
        spec = inputs[name]
        wants[name] = dict(_expected(name, spec, iterk), n=spec["n"])
        tabs[name] = iterk.tables.FiniteTable(m, k, spec["entries"])
    if not wants["ii-5e4"]["ii"] or not wants["ii-5e4"]["symmetric"]:
        raise RuntimeError("the induced-involutory table fails its own reference")
    ops = [_op(n, o, tabs[n], wants[n], iterk) for n, o in OPERATIONS]
    files = wl_cli.Files(inputs["cli"], workdir)

    def warm():
        tiny = iterk.tables.FiniteTable(3, 2, refs.sum_table(3, 2, 0, 1))
        iterk.tables.loads_table(refs.table_text(tiny.entries, 3, 2))
        iterk.tables.cycle_report(tiny)
        iterk.tables.as_permutation(tiny)
        iterk.tables.table_iterate(tiny, (0, 1), -5)
        iterk.tables.is_induced_involutory(tiny, 3)
        iterk.tables.is_symmetric(tiny)

    return Workload(ops=ops, light=wl_cli.light_ops(inputs["cli"], files, tracer, PROBE), warm=warm)
