"""One small call into every traced layer, appended to every workload's passes.

A workload that does not reach a layer would report exactly 0 s for that
layer on every traced run.  The canary makes every per-layer time a
measured figure (microseconds where the workload does not use the layer) at
a cost of a few milliseconds per pass.  Its results are checked like any
other op's.
"""

from __future__ import annotations

import refs
from harness import Op

# (x1 + x2) mod 3: its first iterate has cycles of lengths 4, 4 and 1, and
# the sequence from (0, 1) is Fibonacci mod 3, of period 8
ADD_MOD3 = refs.sum_table(3, 2, 0, 1)


def op(tracer) -> Op:
    import iterk.affine as affine
    import iterk.engine as engine
    import iterk.exactnum as exactnum
    import iterk.parser as parser
    import iterk.recurrence as recurrence
    import iterk.tables as tables

    table = tables.FiniteTable(3, 2, ADD_MOD3)
    text = refs.table_text(ADD_MOD3, 3, 2)
    spec = recurrence.RecurrenceSpec(table.as_map(), (0, 1))
    field = exactnum.CyclotomicField(3)
    z, one, zero = field.zeta(), field.one(), field.zero()
    roots = affine.build_first_iterate(affine.AffineMapSpec(2, (z, z * z), zero, field))
    expected = (
        True, (4, 4, 1), (0, 1), True, 2, refs.TELEPHONE[2], 1, 9, 8, (0, 1),
        (13, 21),
        refs.recurrence_window(lambda w: z * w[0] + z * z * w[1], (one, zero), 3),
        None, True,
    )

    def call():
        d = parser.parse_map_def("f(x1,x2) = x1 + x2")
        pair_sum = affine.build_first_iterate(parser.to_affine(d))
        with tracer.span("exactnum.direct"):
            zeta_cubed = z**3 == one
        return (
            tables.loads_table(text) == table,
            tables.cycle_report(table).cycle_lengths,
            tables.table_iterate(table, (0, 1), 4),
            tables.is_induced_involutory(table, 3),
            len(list(tables.enumerate_ii_tables(2, 1))),
            tables.count_involutions_brute(3),
            recurrence.cycle_correspondence_sweep(1, 1).tables,
            recurrence.cycle_correspondence_report(table).states_checked,
            recurrence.detect_minimal_period(spec, 64).minimal_period,
            engine.iterate(table.as_map(), (0, 1), 4),
            affine.affine_iterate(pair_sum, (1, 1), 3),
            affine.affine_iterate(roots, (one, zero), 3),
            affine.affine_involutory_order(pair_sum, 3),
            zeta_cubed,
        )

    return Op("layer-canary", call, lambda r: r == expected)
