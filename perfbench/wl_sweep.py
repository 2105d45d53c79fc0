"""period-sweep: many tiny tables plus sequence periods.

It uses ``_kernels`` differently from finite-tables: 19,683 tables of 9
states instead of one table of 10^5 states, so a batched kernel that helps
one and costs the other shows up here.  The sequence half runs
``detect_minimal_period`` on seeded linear recurrences modulo a prime whose
characteristic polynomial is primitive, so every sequence has the known
period p^k - 1, from about 10^3 to 10^5 terms.
"""

from __future__ import annotations

import numpy as np

import refs
import wl_cli
from harness import Op, Workload

NAME = "period-sweep"

SWEEPS = ((3, 2), (2, 3))
ENUMERATIONS = ((3, 3), (4, 2), (2, 3))
BRUTE_M = 7
# (k, p): sequence period p^k - 1
RECURRENCES = ((2, 31), (3, 11), (2, 101), (3, 23), (2, 317))

PROBE = ("count-involutions",)


def make_inputs(seed: int) -> dict:
    rng = np.random.default_rng([seed, 2])
    recs = []
    for k, p in RECURRENCES:
        while True:
            coeffs = [int(c) for c in rng.integers(0, p, size=k)]
            if refs.is_primitive(coeffs, p):
                break
        start = [0] * k
        while not any(start):
            start = [int(v) for v in rng.integers(0, p, size=k)]
        recs.append({"k": k, "p": p, "coeffs": tuple(coeffs), "seed": tuple(start)})
    return {"recurrences": recs, "cli": wl_cli.make_inputs(seed)}


def _report_rows(m, k, entries):
    """(state index, state, state period, sequence period) per cyclic state."""
    perm = refs.first_iterate_perm(entries, m, k)
    _, periods = refs.canonical_cycles(perm)
    cols = refs.digits(m, k)
    rows = []
    for idx in sorted(periods):
        n_p = periods[idx]
        state = tuple(int(c[idx]) for c in cols)
        terms = list(state)
        while len(terms) < 2 * n_p * k:
            flat = 0
            for t in terms[-k:]:
                flat = flat * m + t
            terms.append(int(entries[flat]))
        rows.append((idx, state, n_p, refs.minimal_period(terms, n_p * k)))
    return rows


def build(inputs: dict, tracer, workdir) -> Workload:
    import iterk.engine
    import iterk.recurrence
    import iterk.tables

    tables, recurrence = iterk.tables, iterk.recurrence
    ops = []
    for m, k in SWEEPS:
        want = refs.SWEEP_TALLIES[(m, k)]
        ops.append(Op(
            f"sweep-{m}-{k}",
            lambda m=m, k=k: recurrence.cycle_correspondence_sweep(m, k),
            lambda r, m=m, k=k, want=want: (
                (r.tables, r.bijective_tables, r.cyclic_states, r.direction1_violations,
                 r.j_divides_n_count, r.j_divides_n_failures, r.j_divides_nk_violations) == want
                and r.tables == m ** (m**k)
            ),
        ))
    for m, k in ENUMERATIONS:
        ops.append(Op(
            f"enumerate-ii-{m}-{k}",
            lambda m=m, k=k: list(tables.enumerate_ii_tables(m, k)),
            lambda r, m=m, k=k: refs.ii_tables_ok([t.values() for t in r], m, k),
        ))
    ops.append(Op(
        f"count-involutions-brute-{BRUTE_M}",
        lambda: tables.count_involutions_brute(BRUTE_M),
        lambda r: r == refs.TELEPHONE[BRUTE_M - 1],
    ))
    for name in wl_cli.SHIPPED:
        m, k, entries = wl_cli.read_table(wl_cli.DATA / f"{name}.tbl")
        table = tables.FiniteTable(m, k, entries)
        want = _report_rows(m, k, entries)
        ops.append(Op(
            f"correspondence-{name}",
            lambda table=table: recurrence.cycle_correspondence_report(table),
            lambda r, want=want: r.bijective and [
                (row.state_index, row.state, row.state_period, row.sequence_period)
                for row in r.rows
            ] == want,
        ))
    for rec in inputs["recurrences"]:
        k, p, coeffs = rec["k"], rec["p"], rec["coeffs"]
        period = p**k - 1
        if not refs.verify_period(refs.lfsr_terms(coeffs, p, rec["seed"], 2 * period), period):
            raise RuntimeError(f"recurrence mod {p} does not have period {period}")
        fmap = iterk.engine.KaryMap(
            k, lambda s, c=coeffs, p=p: sum(a * x for a, x in zip(c, s)) % p
        )
        spec = recurrence.RecurrenceSpec(fmap, rec["seed"])
        ops.append(Op(
            f"detect-period-{k}-{p}",
            lambda spec=spec, bound=k * (p**k + 1): recurrence.detect_minimal_period(spec, bound),
            lambda r, period=period: (r.minimal_period, r.preperiod, r.witness_index) == (period, 0, period),
        ))
    files = wl_cli.Files(inputs["cli"], workdir)

    def warm():
        recurrence.cycle_correspondence_sweep(1, 1)
        list(tables.enumerate_ii_tables(2, 2))
        tables.count_involutions_brute(3)

    return Workload(ops=ops, light=wl_cli.light_ops(inputs["cli"], files, tracer, PROBE), warm=warm)
