"""cli-cold: a fixed request list, one ``python -m iterk`` process per request.

Process start, import and argument handling are measured nowhere else.  The
light requests are dominated by start-up; the heavy ones also do real work.
Stdout and exit codes are checked against references computed in set-up.
The light request builders are shared with the in-process workloads, which
time a few of them for their own ``cold_start_ms``.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from pathlib import Path

import numpy as np

import refs
import spans
from harness import SRC, Op, Workload, run_child

NAME = "cli-cold"

DATA = SRC / "iterk" / "data"
SHIPPED = ("add_mod3", "ii3_persym_m4")
TRACED_CHILD = Path(__file__).resolve().parent / "tracedcli.py"

# generated tables: a small one for the light requests, a 10^5-state one
# for `cycles --json` and a mid-sized one for `iterate --table`
SMALL = (4, 3)
BIG = (10, 5)
WALK = (7, 3)

LIGHT = (
    "iterate", "order", "point-order", "check-ii", "symmetric",
    "cycles", "orbit", "augment", "conjugate", "count-involutions",
)

VERIFY_EXAMPLES = """\
ok add_mod3-cycles: lengths (4, 4, 1), minimal order 4
ok add_mod3-symmetric: invariant under argument swaps
ok add_mod3-ii3: induced 3-involutory
ok ii3_persym_m4-cycles: lengths (15, 1), minimal order 15
ok ii3_persym_m4-symmetric: invariant under argument swaps
ok ii3_persym_m4-ii3: induced 3-involutory
ok ii3_persym_m4-persymmetric: antidiagonal symmetry
ok pair-sum-closed-form: closed form == engine == matrix power, n <= 30, 100 seeds
ok sum-map-closed-form: all residues mod k+1 for k <= 5; minimal order k+1
ok roots-of-unity: induced cycles, product form vs engine, no global order, asymmetric
ok augment-projection: lifted map projects to the first argument on 1000 inputs
11/11 checks passed
"""


def read_table(path) -> tuple[int, int, np.ndarray]:
    lines = [
        ln for ln in Path(path).read_text().splitlines()
        if ln.strip() and not ln.strip().startswith("#")
    ]
    m, k = (int(v) for v in lines[0].split())
    return m, k, np.array([int(v) for ln in lines[1:] for v in ln.split()], dtype=np.int64)


def _frac(rng) -> Fraction:
    return Fraction(int(rng.integers(-9, 10)), int(rng.integers(1, 7)))


def make_inputs(seed: int) -> dict:
    rng = np.random.default_rng([seed, 4])
    tables = {
        name: rng.integers(0, shape[0], size=shape[0] ** shape[1])
        for name, shape in (("small", SMALL), ("big", BIG), ("walk", WALK))
    }
    choose = lambda names: names[int(rng.integers(len(names)))]  # noqa: E731
    k_order = int(rng.integers(2, 6))
    return {
        "tables": tables,
        "iterate": (int(rng.integers(-20, 21)), int(rng.integers(-20, 21)), int(rng.integers(20, 41))),
        "order": (k_order, _frac(rng)),
        "point-order": (_frac(rng), tuple(_frac(rng) for _ in range(3))),
        "check-ii": (choose(SHIPPED), int(rng.integers(1, 7))),
        "symmetric": choose(SHIPPED + ("small",)),
        "cycles": choose(SHIPPED + ("small",)),
        "orbit": choose(SHIPPED + ("small",)),
        "orbit-seed": int(rng.integers(0, 1 << 30)),
        "augment": (choose(SHIPPED), int(rng.integers(3, 5))),
        "conjugate": choose(SHIPPED + ("small",)),
        "conjugate-perm": int(rng.integers(0, 1 << 30)),
        "count-involutions": int(rng.integers(1, 13)),
        "walk": (int(rng.integers(0, WALK[0] ** WALK[1])), int(rng.integers(30000, 31001))),
    }


class Files:
    """Table files a request names: the shipped ones and generated ones."""

    def __init__(self, inputs: dict, workdir: Path):
        self.inputs, self.workdir = inputs, workdir
        self._written: set[str] = set()

    def path(self, name: str) -> Path:
        if name in SHIPPED:
            return DATA / f"{name}.tbl"
        path = self.workdir / f"{name}.tbl"
        if name not in self._written:
            m, k = {"small": SMALL, "big": BIG, "walk": WALK}[name]
            path.write_text(refs.table_text(self.inputs["tables"][name], m, k))
            self._written.add(name)
        return path

    def table(self, name: str) -> tuple[int, int, np.ndarray]:
        return read_table(self.path(name))


def _request(name, args, code, expected, tracer, workdir) -> Op:
    """One CLI process; ``expected`` is the exact stdout or a predicate on it."""
    spans_file = workdir / f"spans-{name}.json"

    def call():
        if tracer.active:
            result = run_child([str(TRACED_CHILD), str(spans_file), *args])
            tracer.add_spans(spans.load(spans_file))
            spans_file.unlink()
            return result
        return run_child(["-m", "iterk", *args])

    def check(result):
        got_code, out = result
        if got_code != code:
            return False
        return expected(out) if callable(expected) else out == expected

    return Op(name, call, check)


def _lines(*lines) -> str:
    return "".join(f"{ln}\n" for ln in lines)


def _state(values) -> str:
    return " ".join(str(v) for v in values)


def _def_sum(k: int, a: Fraction) -> str:
    xs = ",".join(f"x{i}" for i in range(1, k + 1))
    return f"f({xs}) = {a} - " + " - ".join(f"x{i}" for i in range(1, k + 1))


def _cycles_expected(m, k, entries):
    perm = refs.first_iterate_perm(entries, m, k)
    cycles, _ = refs.canonical_cycles(perm)
    bijective = len(np.unique(perm)) == len(perm)
    order = math.lcm(*(len(c) for c in cycles)) if bijective else None
    lengths = sorted((len(c) for c in cycles), reverse=True)
    return bijective, order, lengths, cycles


def light_ops(inputs: dict, files: Files, tracer, kinds=LIGHT) -> list[Op]:
    ops = []
    for kind in kinds:
        ops.append(_LIGHT_BUILDERS[kind](inputs, files, tracer))
    return ops


def _iterate(inputs, files, tracer):
    a, b, n = inputs["iterate"]
    want = refs.recurrence_window(lambda w: w[0] + w[1], (a, b), n)
    args = ["iterate", "--def=f(x1,x2) = x1 + x2", f"--seed={a},{b}", f"--n={n}"]
    return _request("iterate", args, 0, _lines(_state(want)), tracer, files.workdir)


def _order(inputs, files, tracer):
    k, a = inputs["order"]
    args = ["order", f"--def={_def_sum(k, a)}"]
    return _request("order", args, 0, _lines(k + 1), tracer, files.workdir)


def _point_order(inputs, files, tracer):
    a, seed = inputs["point-order"]
    step = lambda w: a - sum(w)  # noqa: E731
    state, order = seed, None
    for n in range(1, 1001):
        state = refs.recurrence_window(step, state, 1)
        if state == seed:
            order = n
            break
    args = ["point-order", f"--def={_def_sum(3, a)}", "--seed=" + ",".join(str(x) for x in seed)]
    return _request("point-order", args, 0, _lines(order or "none"), tracer, files.workdir)


def _check_ii(inputs, files, tracer):
    name, n = inputs["check-ii"]
    m, k, entries = files.table(name)
    flag = refs.induced_order_divides(entries, m, k, n)
    args = ["check-ii", f"--table={files.path(name)}", f"--n={n}"]
    return _request("check-ii", args, 0 if flag else 1, _lines(str(flag).lower()), tracer, files.workdir)


def _symmetric(inputs, files, tracer):
    name = inputs["symmetric"]
    m, k, entries = files.table(name)
    flag = refs.is_symmetric(entries, m, k)
    args = ["symmetric", f"--table={files.path(name)}"]
    return _request("symmetric", args, 0 if flag else 1, _lines(str(flag).lower()), tracer, files.workdir)


def _cycles(inputs, files, tracer):
    name = inputs["cycles"]
    bijective, order, lengths, cycles = _cycles_expected(*files.table(name))
    want = _lines(
        f"bijective: {str(bijective).lower()}",
        f"minimal_order: {order or 'none'}",
        "cycle_lengths: " + _state(lengths),
        *("cycle: " + _state(c) for c in cycles),
    )
    args = ["cycles", f"--table={files.path(name)}"]
    return _request("cycles", args, 0, want, tracer, files.workdir)


def _orbit(inputs, files, tracer):
    name = inputs["orbit"]
    m, k, entries = files.table(name)
    perm = refs.first_iterate_perm(entries, m, k)
    start = inputs["orbit-seed"] % (m**k)
    states, cur, recurred = [start], start, False
    for _ in range(100):
        cur = int(perm[cur])
        if cur == start:
            recurred = True
            break
        if len(states) == 100:
            break
        states.append(cur)
    cols = refs.digits(m, k)
    show = lambda s: _state(int(c[s]) for c in cols)  # noqa: E731
    want = _lines(*(show(s) for s in states), f"recurred: {str(recurred).lower()}")
    args = ["orbit", f"--table={files.path(name)}", "--seed=" + ",".join(show(start).split())]
    return _request("orbit", args, 0, want, tracer, files.workdir)


def _augment(inputs, files, tracer):
    name, to = inputs["augment"]
    m, k, entries = files.table(name)
    want = refs.table_text(refs.lifted_table(entries, m, k, to), m, to)
    args = ["augment", f"--table={files.path(name)}", f"--to={to}"]
    return _request("augment", args, 0, want, tracer, files.workdir)


def _conjugate(inputs, files, tracer):
    name = inputs["conjugate"]
    m, k, entries = files.table(name)
    g = np.random.default_rng(inputs["conjugate-perm"]).permutation(m)
    want = refs.table_text(refs.conjugate(entries, m, k, g), m, k)
    args = ["conjugate", f"--table={files.path(name)}", "--perm=" + ",".join(str(v) for v in g)]
    return _request("conjugate", args, 0, want, tracer, files.workdir)


def _count_involutions(inputs, files, tracer):
    m = inputs["count-involutions"]
    args = ["count-involutions", f"--m={m}"]
    return _request("count-involutions", args, 0, _lines(refs.TELEPHONE[m - 1]), tracer, files.workdir)


_LIGHT_BUILDERS = {
    "iterate": _iterate,
    "order": _order,
    "point-order": _point_order,
    "check-ii": _check_ii,
    "symmetric": _symmetric,
    "cycles": _cycles,
    "orbit": _orbit,
    "augment": _augment,
    "conjugate": _conjugate,
    "count-involutions": _count_involutions,
}


def _heavy_ops(inputs, files, tracer) -> list[Op]:
    wd = files.workdir
    tallies = refs.SWEEP_TALLIES[(3, 2)]
    claim1 = _lines(*(
        f"{label}: {v}" for label, v in zip(
            ("tables", "bijective_tables", "cyclic_states", "direction1_violations",
             "j_divides_n", "j_divides_n_failures", "j_divides_nk_violations"),
            tallies,
        )
    ))

    def enumerate_ok(out):
        got = json.loads(out)
        return got["count"] == len(got["tables"]) and refs.ii_tables_ok(got["tables"], 3, 3)

    bijective, order, lengths, cycles = _cycles_expected(*BIG, inputs["tables"]["big"])
    want_cycles = {
        "bijective": bool(bijective),
        "minimal_order": order,
        "cycle_lengths": lengths,
        "cycles": [list(c) for c in cycles],
    }

    m, k = WALK
    start, n = inputs["walk"]
    perm = refs.first_iterate_perm(inputs["tables"]["walk"], m, k)
    end = refs.power_apply(perm, start, n)
    cols = refs.digits(m, k)
    seed_state = ",".join(str(int(c[start])) for c in cols)

    return [
        _request("verify-examples", ["verify-examples"], 0, VERIFY_EXAMPLES, tracer, wd),
        _request("claim1", ["claim1", "--m=3", "--k=2"], 0, claim1, tracer, wd),
        _request("enumerate-ii", ["enumerate-ii", "--m=3", "--k=3", "--json"], 0, enumerate_ok, tracer, wd),
        _request(
            "cycles-json", ["cycles", f"--table={files.path('big')}", "--json"], 0,
            lambda out: json.loads(out) == want_cycles, tracer, wd,
        ),
        _request(
            "iterate-table",
            ["iterate", f"--table={files.path('walk')}", f"--seed={seed_state}", f"--n={n}"],
            0, _lines(_state(int(c[end]) for c in cols)), tracer, wd,
        ),
    ]


def build(inputs: dict, tracer, workdir: Path) -> Workload:
    files = Files(inputs, workdir)
    light = light_ops(inputs, files, tracer)
    return Workload(ops=light + _heavy_ops(inputs, files, tracer), light=light)
