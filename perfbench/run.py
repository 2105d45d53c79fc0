"""The iterk benchmark: one workload per run, every output checked.

    python3 perfbench/run.py --workload finite-tables --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --seed 1          # every workload in turn, with a summary

Each workload is a closed loop with a single client: a researcher or a
script issues one analysis and waits for its answer.  The seed generates
every input; sizes are fixed.  After set-up the run repeats passes over the
workload's fixed operation list for about ``--seconds`` seconds.

With ``--trace 0`` the last line of stdout is a JSON object with the
end-to-end metrics; with ``--trace 1`` it holds the per-layer metrics,
taken from spans recorded around calls into iterk's modules, and the tracing
overhead.  Lines before it repeat the figures with units, the counts behind
``error_rate`` and the environment record.  Every result, with its
environment record, is also written to ``perfbench/out/``.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import canary  # noqa: E402
import harness  # noqa: E402
import spans  # noqa: E402
from harness import OUT, SRC  # noqa: E402

WORKLOADS = {
    "finite-tables": "wl_finite",
    "period-sweep": "wl_sweep",
    "exact-algebra": "wl_exact",
    "cli-cold": "wl_cli",
}

END_TO_END = {"setup_s": "s", "wall_s": "s", "cold_start_ms": "ms", "peak_rss_mb": "MB"}

PER_LAYER = {
    "kernels.table_perm.calls": "count",
    "kernels.table_perm.busy_s": "s",
    "kernels.table_perm.states": "count",
    "kernels.table_perm.bytes_computed": "B",
    "kernels.cycle_sweep.busy_s": "s",
    "kernels.cycle_sweep.tables": "count",
    "kernels.ii_filter.busy_s": "s",
    "kernels.ii_filter.candidates": "count",
    "kernels.involution_scan.busy_s": "s",
    "tables.cycle_report.busy_s": "s",
    "tables.cycle_report.self_s": "s",
    "tables.table_iterate.busy_s": "s",
    "tables.table_iterate.self_s": "s",
    "tables.is_induced_involutory.busy_s": "s",
    "tables.loads_table.busy_s": "s",
    "tables.enumerate_ii_tables.busy_s": "s",
    "tables.enumerate_ii_tables.self_s": "s",
    "tables.enumerate_ii_tables.survivors": "count",
    "tables.enumerate_ii_tables.useful_ratio": "ratio",
    "recurrence.cycle_correspondence_sweep.busy_s": "s",
    "recurrence.cycle_correspondence_sweep.bijective_ratio": "ratio",
    "recurrence.cycle_correspondence_report.busy_s": "s",
    "recurrence.detect_minimal_period.busy_s": "s",
    "recurrence.detect_minimal_period.states_stored": "count",
    "engine.first_iterate.calls": "count",
    "engine.iterate.busy_s": "s",
    "affine.affine_iterate.calls": "count",
    "affine.affine_iterate.q.busy_s": "s",
    "affine.affine_iterate.cyclo.busy_s": "s",
    "affine.affine_involutory_order.busy_s": "s",
    "affine.build_first_iterate.busy_s": "s",
    "exactnum.max_bits": "bits",
    "exactnum.busy_s": "s",
    "parser.parse_map_def.calls": "count",
    "parser.parse_map_def.busy_s": "s",
    "cli.interpreter_ms": "ms",
    "cli.import_ms": "ms",
    "trace.overhead_s": "s",
}

SETUPS = 5  # set-up is repeated and its median reported
MIN_PASSES = 2
PROBES = 8  # light CLI requests timed by each in-process workload
CHILD_PROBES = 5  # samples for cli.interpreter_ms and cli.import_ms


def import_iterk() -> dict:
    """Import iterk from this checkout's sources, never from elsewhere."""
    if not (SRC / "iterk" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no iterk sources at {SRC}; run from a checkout")
    sys.path.insert(0, str(SRC))
    import iterk

    if Path(iterk.__file__).resolve().parent != (SRC / "iterk").resolve():
        raise SystemExit(f"perfbench: imported iterk from {iterk.__file__}, not {SRC}")
    return spans.iterk_modules()


def layer_metrics(pass_spans: list, bits: int) -> dict:
    """Per-layer figures of one traced pass."""
    t = spans.totals_by_name(pass_spans)
    perm, enum, ii = t["_kernels.table_perm"], t["tables.enumerate_ii_tables"], t["_kernels.ii_filter"]
    sweep = t["recurrence.cycle_correspondence_sweep"]
    aq, ac = t["affine.affine_iterate.q"], t["affine.affine_iterate.cyclo"]
    ratio = lambda a, b: a / b if b else 0.0  # noqa: E731
    return {
        "kernels.table_perm.calls": perm.calls,
        "kernels.table_perm.busy_s": perm.busy_s,
        "kernels.table_perm.states": perm.counts["states"],
        "kernels.table_perm.bytes_computed": perm.counts["bytes_computed"],
        "kernels.cycle_sweep.busy_s": t["_kernels.cycle_sweep"].busy_s,
        "kernels.cycle_sweep.tables": t["_kernels.cycle_sweep"].counts["tables"],
        "kernels.ii_filter.busy_s": ii.busy_s,
        "kernels.ii_filter.candidates": ii.counts["candidates"],
        "kernels.involution_scan.busy_s": t["_kernels.involution_scan"].busy_s,
        "tables.cycle_report.busy_s": t["tables.cycle_report"].busy_s,
        "tables.cycle_report.self_s": t["tables.cycle_report"].self_s,
        "tables.table_iterate.busy_s": t["tables.table_iterate"].busy_s,
        "tables.table_iterate.self_s": t["tables.table_iterate"].self_s,
        "tables.is_induced_involutory.busy_s": t["tables.is_induced_involutory"].busy_s,
        "tables.loads_table.busy_s": t["tables.loads_table"].busy_s,
        "tables.enumerate_ii_tables.busy_s": enum.busy_s,
        "tables.enumerate_ii_tables.self_s": enum.self_s,
        "tables.enumerate_ii_tables.survivors": enum.counts["survivors"],
        "tables.enumerate_ii_tables.useful_ratio": ratio(enum.counts["survivors"], ii.counts["candidates"]),
        "recurrence.cycle_correspondence_sweep.busy_s": sweep.busy_s,
        "recurrence.cycle_correspondence_sweep.bijective_ratio":
            ratio(sweep.counts["bijective_tables"], sweep.counts["tables"]),
        "recurrence.cycle_correspondence_report.busy_s": t["recurrence.cycle_correspondence_report"].busy_s,
        "recurrence.detect_minimal_period.busy_s": t["recurrence.detect_minimal_period"].busy_s,
        "recurrence.detect_minimal_period.states_stored":
            t["recurrence.detect_minimal_period"].counts["states_stored"],
        "engine.first_iterate.calls": t["engine.first_iterate"].calls,
        "engine.iterate.busy_s": t["engine.iterate"].busy_s,
        "affine.affine_iterate.calls": aq.calls + ac.calls,
        "affine.affine_iterate.q.busy_s": aq.busy_s,
        "affine.affine_iterate.cyclo.busy_s": ac.busy_s,
        "affine.affine_involutory_order.busy_s": t["affine.affine_involutory_order"].busy_s,
        "affine.build_first_iterate.busy_s": t["affine.build_first_iterate"].busy_s,
        "exactnum.max_bits": bits,
        "exactnum.busy_s": t["exactnum.direct"].busy_s,
        "parser.parse_map_def.calls": t["parser.parse_map_def"].calls,
        "parser.parse_map_def.busy_s": t["parser.parse_map_def"].busy_s,
    }


def _probe(wl, meter, tally, light_s: dict) -> None:
    """Time the workload's next light CLI request into ``light_s``."""
    op = wl.light[sum(map(len, light_s.values())) % len(wl.light)]
    result = harness.run_pass([op], meter)
    tally.add([op], result.results)
    light_s.setdefault(op.name, []).extend(result.op_s)


def span_table(all_spans: list, passes: int) -> list[dict]:
    rows = []
    for name, tot in sorted(spans.totals_by_name(all_spans).items()):
        rows.append({
            "name": name,
            "calls_per_pass": tot.calls / passes,
            "busy_s_per_pass": tot.busy_s / passes,
            "self_s_per_pass": tot.self_s / passes,
        })
    return rows


def run_workload(args) -> dict:
    modules = import_iterk()
    import_s = time.perf_counter() - T0
    # one CPU for the run and the CLI children it waits for, so that the
    # speed meter times the CPU the work runs on
    harness.pin_to_one_cpu()
    meter = harness.SpeedMeter()
    wl_mod = importlib.import_module(WORKLOADS[args.workload])
    tracer = spans.Tracer()
    if args.trace:
        tracer.install(modules)
    workdir = OUT / "work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        return _measure(args, wl_mod, tracer, workdir, meter, import_s)
    finally:
        tracer.uninstall()
        shutil.rmtree(workdir, ignore_errors=True)


def _measure(args, wl_mod, tracer, workdir, meter, import_s) -> dict:
    # set-up is this process's import plus building the workload; both are
    # repeated (the import in fresh children) and their medians reported
    import_samples = harness.import_seconds(meter, SETUPS)
    setup_samples, wl = [], None
    for _ in range(SETUPS):
        wl = None  # drop the previous set-up first, so peak memory holds one
        gc.collect()
        loop_s = meter.before()
        t = time.perf_counter()
        wl = wl_mod.build(wl_mod.make_inputs(args.seed), tracer, workdir)
        wl.ops.append(canary.op(tracer))
        wl.warm()
        setup_samples.append(meter.calibrate(time.perf_counter() - t, loop_s))

    tally = harness.Tally()
    plain, traced, layers = [], [], []
    light_s: dict[str, list[float]] = {}  # light CLI request -> latencies
    probe_every = args.seconds / PROBES
    start = last_probe = time.perf_counter()
    while True:
        done = plain + traced
        if len(plain) >= (1 if args.trace else MIN_PASSES) and len(traced) >= args.trace:
            estimate = harness.median([p.wall_s for p in done])
            if time.perf_counter() - start + estimate > args.seconds:
                break
        trace_this = bool(args.trace) and len(traced) < len(plain)
        gc.collect()
        first = len(tracer.spans)
        tracer.active = trace_this
        result = harness.run_pass(wl.ops, meter)
        tracer.active = False
        tally.add(wl.ops, result.results)
        if trace_this:
            traced.append(result)
            layers.append(layer_metrics(tracer.spans_since(first), wl.bits(result.results)))
        else:
            plain.append(result)
        result.results = []  # checked: keep only the timings
        # the in-process workloads time light CLI requests between passes,
        # spread over the run like the passes themselves
        if not args.trace and args.workload != "cli-cold" and (
            time.perf_counter() - last_probe >= probe_every
        ):
            _probe(wl, meter, tally, light_s)
            last_probe = time.perf_counter()

    walls = [p.calibrated_s for p in plain]
    extra = {
        "passes": len(plain),
        "wall_s_samples": walls,
        "wall_high_s": harness.high(walls),
        "wall_s_as_measured": harness.median([p.wall_s for p in plain]),
        "setup_s_samples": setup_samples,
        "import_s_samples": import_samples,
        "import_s_in_process_as_measured": import_s,
        "calibration_loop_s": harness.median(meter.samples),
    }
    if not args.trace:
        if args.workload == "cli-cold":
            light_names = {op.name for op in wl.light}
            for p in plain:
                for op, op_s in zip(wl.ops, p.op_s):
                    if op.name in light_names:
                        light_s.setdefault(op.name, []).append(op_s)
            rss_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        else:
            while sum(map(len, light_s.values())) < PROBES:
                _probe(wl, meter, tally, light_s)
            rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        # the light requests differ in cost, so each gets its median and
        # the metric is their mean, which a mixture's median is not steady
        per_request = [harness.median(v) for v in light_s.values()]
        metrics = {
            "setup_s": harness.median(import_samples) + harness.median(setup_samples),
            "wall_s": harness.median(walls),
            "cold_start_ms": sum(per_request) / len(per_request) * 1e3,
            "peak_rss_mb": rss_kb / 1024,
        }
        units = END_TO_END
        extra["light_requests"] = sum(map(len, light_s.values()))
    else:
        metrics = {
            name: harness.median([row[name] for row in layers]) for name in layers[0]
        }
        metrics["cli.interpreter_ms"] = harness.time_child(["-c", "pass"], CHILD_PROBES)
        metrics["cli.import_ms"] = harness.time_child(["-c", "import iterk.cli"], CHILD_PROBES)
        metrics["trace.overhead_s"] = (
            harness.median([p.calibrated_s for p in traced]) - harness.median(walls)
        )
        units = PER_LAYER
        extra["traced_passes"] = len(traced)
        extra["span_table"] = span_table(tracer.spans, len(traced))
        extra["not_seen"] = tracer.unseen_bindings()
        spans.dump(
            tracer.spans,
            OUT / f"spans-{args.workload}-seed{args.seed}.json",
            {"workload": args.workload, "seed": args.seed, "not_seen": extra["not_seen"]},
        )
    return {
        "result": {
            "correct": tally.failed == 0,
            "attempted": tally.attempted,
            "failed": tally.failed,
            "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
        },
        "error_rate": tally.error_rate,
        "failures": tally.failures[:20],
        "extra": extra,
        "env": harness.environment(args.seed),
    }


def report(args, out: dict) -> None:
    res = out["result"]
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    print("env " + json.dumps(out["env"], sort_keys=True))
    for name, m in res["metrics"].items():
        print(f"  {name:<55} {m['value']:>14.6g} {m['unit']}")
    x = out["extra"]
    print(f"  wall_s over {x['passes']} passes; highest {x['wall_high_s']:.4f} s;"
          f" as measured {x['wall_s_as_measured']:.4f} s"
          f" (calibration loop {x['calibration_loop_s'] * 1e3:.2f} ms,"
          f" nominal {harness.CALIBRATION_S * 1e3:.2f} ms)")
    if "traced_passes" in x:
        print(f"  span table over {x['traced_passes']} traced passes (per pass):")
        for row in x["span_table"]:
            print(f"    {row['name']:<45} calls {row['calls_per_pass']:>9.1f}"
                  f"  busy {row['busy_s_per_pass']:>9.4f} s  self {row['self_s_per_pass']:>9.4f} s")
        print("  not seen: these names hold the unwrapped function (from-imports, aliases):")
        for name in x["not_seen"]:
            print(f"    {name}")
    print(f"  ops_total {res['attempted']} count  ops_failed {res['failed']} count"
          f"  error_rate {out['error_rate']:.6g} ratio")
    if out["failures"]:
        print("  failed: " + ", ".join(out["failures"]))
    OUT.mkdir(parents=True, exist_ok=True)
    path = OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(out, indent=1, default=str))
    print(json.dumps(res), flush=True)


def run_all(args) -> int:
    """Every workload in its own process, then one summary table."""
    results = {}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, check=True,
        )
        sys.stdout.write(proc.stdout)
        results[name] = json.loads(proc.stdout.strip().splitlines()[-1])
    print("summary")
    for name, res in results.items():
        cells = "  ".join(f"{k} {v['value']:.4g} {v['unit']}" for k, v in res["metrics"].items())
        print(f"  {name:<14} {cells}  ops_total {res['attempted']}  ops_failed {res['failed']}"
              f"  error_rate {res['failed'] / res['attempted']:.3g}")
    print(json.dumps(results))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    OUT.mkdir(parents=True, exist_ok=True)
    out = run_workload(args)
    report(args, out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
