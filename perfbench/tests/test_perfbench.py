"""Tests of the benchmark's own code: spans, metric names, checks, seeds.

Run from the repository root with ``python -m pytest perfbench/tests``.
"""

import dataclasses
import json
import re
import shutil
import subprocess
import sys

import numpy as np
import pytest

import harness
import refs
import run
import spans
import wl_cli
import wl_exact
import wl_finite
import wl_sweep

NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
BENCHMARK = json.loads((harness.ROOT / "BENCHMARK.json").read_text())
WORKLOAD_MODULES = (wl_finite, wl_sweep, wl_exact, wl_cli)


def test_self_time_subtracts_the_union_of_child_intervals():
    S = spans.Span
    tree = [
        S("a", 0.0, 10.0, None),
        S("b", 1.0, 4.0, 0),
        S("c", 3.0, 6.0, 0),  # overlaps b: their union is 1..6
        S("d", 2.0, 3.0, 1),
        S("e", 9.0, 12.0, 0),  # runs past its parent: only 9..10 counts
        S("a", 4.5, 5.0, 2),  # same name nested: busy time counts the outer one
    ]
    selfs = spans.self_times(tree)
    assert selfs == pytest.approx([4.0, 2.0, 2.5, 1.0, 3.0, 0.5])
    for s, own in zip(tree, selfs):
        assert 0 <= own <= s.end - s.start
    totals = spans.totals_by_name(tree)
    assert totals["a"].calls == 2
    assert totals["a"].busy_s == pytest.approx(10.0)
    assert totals["a"].self_s == pytest.approx(4.5)


def test_tracer_sees_calls_through_module_attributes_only():
    import iterk.recurrence
    import iterk.tables

    tracer = spans.Tracer()
    tracer.install(spans.iterk_modules())
    try:
        table = iterk.tables.FiniteTable(3, 2, refs.sum_table(3, 2, 0, 1))
        iterk.tables.cycle_report(table)  # inactive: records nothing
        assert tracer.spans == []
        tracer.active = True
        iterk.tables.cycle_report(table)
        iterk.recurrence.cycle_correspondence_report(table)
        tracer.active = False
        names = [(s.name, s.parent) for s in tracer.spans]
        assert names[:2] == [("tables.cycle_report", None), ("_kernels.table_perm", 0)]
        # the report reaches cycle_report through a from-import: not seen,
        # but the kernel below it is, through the module attribute
        assert names[2:] == [("recurrence.cycle_correspondence_report", None), ("_kernels.table_perm", 2)]
        assert tracer.spans[1].counts == {"states": 9, "bytes_computed": 216}
        assert "iterk.recurrence.cycle_report -> iterk.tables.cycle_report" in tracer.unseen_bindings()
    finally:
        tracer.uninstall()
    assert not hasattr(iterk.tables.cycle_report, "__wrapped__")


def test_metric_names_and_units_match_the_benchmark_file():
    declared_e2e = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    declared_layer = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert declared_e2e == run.END_TO_END
    assert declared_layer == run.PER_LAYER
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOADS)
    for name in [*declared_e2e, *declared_layer, *run.WORKLOADS]:
        assert NAME_RE.fullmatch(name), name
    measured = set(run.layer_metrics([], 0)) | {"cli.interpreter_ms", "cli.import_ms", "trace.overhead_s"}
    assert measured == set(run.PER_LAYER)


@pytest.fixture(scope="module")
def finite(tmp_path_factory):
    workdir = tmp_path_factory.mktemp("finite")
    return wl_finite.build(wl_finite.make_inputs(3), spans.Tracer(), workdir)


def test_a_corrupted_result_raises_the_error_rate(finite):
    op = next(op for op in finite.ops if op.name == "rand-1e4:cycle_report")
    good = harness.run_pass([op], harness.SpeedMeter())
    tally = harness.Tally()
    tally.add([op], good.results)
    assert (tally.attempted, tally.failed, tally.error_rate) == (1, 0, 0.0)
    report = good.results[0]
    corrupted = dataclasses.replace(report, cycles=report.cycles[1:])
    tally.add([op], [corrupted])
    assert tally.failed == 1 and tally.error_rate > 0
    assert tally.failures == ["rand-1e4:cycle_report"]


def test_an_op_that_raises_counts_as_failed(finite, monkeypatch):
    import iterk.tables

    def broken(*args, **kwargs):
        raise RuntimeError("injected")

    monkeypatch.setattr(iterk.tables, "is_symmetric", broken)
    ops = [op for op in finite.ops if op.name.endswith(":is_symmetric")]
    tally = harness.Tally()
    tally.add(ops, harness.run_pass(ops, harness.SpeedMeter()).results)
    assert tally.failed == len(ops) == 3


def _same(a, b) -> bool:
    if isinstance(a, np.ndarray):
        return isinstance(b, np.ndarray) and np.array_equal(a, b)
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(_same(a[k], b[k]) for k in a)
    if isinstance(a, (list, tuple)):
        return type(a) is type(b) and len(a) == len(b) and all(map(_same, a, b))
    return a == b


def _shape(a):
    if isinstance(a, np.ndarray):
        return ("array", a.shape, a.dtype.kind)
    if isinstance(a, dict):
        return {k: _shape(v) for k, v in a.items()}
    if isinstance(a, (list, tuple)):
        return [_shape(v) for v in a]
    return type(a).__name__


@pytest.mark.parametrize("module", WORKLOAD_MODULES, ids=lambda m: m.NAME)
def test_one_seed_gives_the_same_inputs_and_another_seed_other_inputs(module):
    a, again, other = module.make_inputs(7), module.make_inputs(7), module.make_inputs(8)
    assert _same(a, again)
    assert not _same(a, other)
    assert _shape(a) == _shape(other)


def test_committed_references_agree_with_brute_force():
    assert refs.brute_sweep(2, 3) == refs.SWEEP_TALLIES[(2, 3)]
    count = 0
    for code in range(2**8):
        entries = np.array([(code >> (7 - i)) & 1 for i in range(8)])
        count += refs.induced_order_divides(entries, 2, 3, 2)
    assert count == refs.II_COUNTS[(2, 3)]
    a, b = 1, 1
    for m, t in enumerate(refs.TELEPHONE, start=1):
        assert t == b
        a, b = b, b + m * a


def test_reference_first_iterate_follows_the_definition():
    rng = np.random.default_rng(0)
    m, k = 3, 3
    entries = rng.integers(0, m, size=m**k)
    perm = refs.first_iterate_perm(entries, m, k)
    for s in range(m**k):
        x = [int(c[s]) for c in refs.digits(m, k)]
        out = []
        for j in range(k):
            window = x[j:] + out
            idx = 0
            for v in window:
                idx = idx * m + v
            out.append(int(entries[idx]))
        assert perm[s] == sum(v * m ** (k - 1 - i) for i, v in enumerate(out))


def test_primitive_means_the_recurrence_has_period_p_squared_minus_one():
    p = 5
    for c0 in range(1, p):
        for c1 in range(p):
            terms = refs.lfsr_terms([c0, c1], p, (0, 1), 2 * p * p)
            period = next(d for d in range(1, p * p) if terms[d : d + 2] == [0, 1])
            assert refs.is_primitive([c0, c1], p) == (period == p * p - 1)
            assert refs.verify_period(terms, period)


def test_run_fails_without_the_program_sources(tmp_path):
    shutil.copytree(harness.ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "tests", "__pycache__"))
    shutil.copy(harness.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "exact-algebra", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
