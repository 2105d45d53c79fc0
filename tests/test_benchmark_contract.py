"""The benchmark's calls into iterk, run once each with its own checks.

``perfbench/`` reads parameters of iterk functions by name while tracing
(``affine_iterate``'s ``it`` and its ``.field``) and passes some arguments
by position, so a change to a public signature turns its ops into failures
that only a benchmark run would count.  This runs the layer canary and every
exact-algebra, period-sweep and finite-tables op once, traced, at one seed,
and every cli-cold request once as its own ``python -m iterk`` process, so a
command that lost one of its imports fails here too.  All timing is left to
the benchmark itself.
"""

import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "perfbench"
sys.path.insert(0, str(BENCH))

import canary  # noqa: E402
import harness  # noqa: E402
import spans  # noqa: E402
import wl_cli  # noqa: E402
import wl_exact  # noqa: E402
import wl_finite  # noqa: E402
import wl_sweep  # noqa: E402


@pytest.fixture
def tracer():
    t = spans.Tracer()
    t.install(spans.iterk_modules())
    t.active = True
    try:
        yield t
    finally:
        t.active = False
        t.uninstall()


def test_canary_and_exact_algebra_ops_pass_their_checks(tracer, tmp_path):
    workload = wl_exact.build(wl_exact.make_inputs(1), tracer, tmp_path)
    ops = [canary.op(tracer)] + workload.ops
    failed = [op.name for op in ops if not op.check(op.call())]
    assert failed == []
    names = {s.name for s in tracer.spans}
    assert {"affine.affine_iterate.q", "affine.affine_iterate.cyclo"} <= names
    assert "affine.affine_involutory_order" in names


def test_period_sweep_ops_pass_their_checks(tracer, tmp_path):
    workload = wl_sweep.build(wl_sweep.make_inputs(1), tracer, tmp_path)
    failed = [op.name for op in workload.ops if not op.check(op.call())]
    assert failed == []
    names = {s.name for s in tracer.spans}
    assert {"recurrence.detect_minimal_period", "_kernels.ii_filter"} <= names


def test_finite_tables_ops_pass_their_checks(tracer, tmp_path):
    workload = wl_finite.build(wl_finite.make_inputs(1), tracer, tmp_path)
    failed = [op.name for op in workload.ops if not op.check(op.call())]
    assert failed == []
    names = {s.name for s in tracer.spans}
    assert {"tables.loads_table", "tables.cycle_report", "_kernels.table_perm"} <= names


def test_cli_cold_requests_pass_their_checks(tmp_path):
    # an inactive tracer: each request runs as plain `python -m iterk`
    workload = wl_cli.build(wl_cli.make_inputs(1), spans.Tracer(), tmp_path)
    assert (len(workload.ops), len(workload.light)) == (15, 10)
    results = [op.call() for op in workload.ops]
    assert harness.failed_ops(workload.ops, results) == []
