"""In-memory spans around calls into iterk's module-level public functions.

The tracer replaces module attributes such as ``tables.cycle_report`` by
wrappers that record one span per call.  A call is seen when it goes through
the module attribute: the benchmark's own calls, and calls inside iterk that
look the function up in its defining module (``tables`` ->
``_kernels.table_perm``, ``engine.iterate`` -> ``first_iterate``).  A name
bound elsewhere by ``from ... import`` keeps the original function, so calls
through it are not seen; :meth:`Tracer.unseen_bindings` lists those names so
the span table can say so.

Spans are held in memory and written out once, when the run ends.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None  # index of the enclosing span in the same list
    counts: dict = field(default_factory=dict)


def _bound(fn, args, kwargs):
    # a numba dispatcher exposes the Python function as py_func
    ba = inspect.signature(getattr(fn, "py_func", fn)).bind(*args, **kwargs)
    ba.apply_defaults()
    return ba.arguments


def _table_perm_counts(a, result):
    states = len(a["entries"])
    # computed from array sizes, not measured: int64 entries, perm and hits
    return {"states": states, "bytes_computed": 24 * states}


def _affine_iterate_name(a):
    field_name = type(a["it"].field).__name__
    return "affine.affine_iterate." + ("q" if field_name == "RationalField" else "cyclo")


# (module, function, counter(bound_args, result) or None, name(bound_args) or None)
# For generator functions the counter receives the number of items yielded.
TRACED = [
    ("_kernels", "table_perm", _table_perm_counts, None),
    ("_kernels", "cycle_sweep", lambda a, r: {"tables": a["m"] ** (a["m"] ** a["k"])}, None),
    ("_kernels", "ii_filter", lambda a, r: {"candidates": int(a["tables"].shape[0])}, None),
    ("_kernels", "involution_scan", None, None),
    ("tables", "loads_table", None, None),
    ("tables", "cycle_report", None, None),
    ("tables", "table_iterate", None, None),
    ("tables", "is_induced_involutory", None, None),
    ("tables", "enumerate_ii_tables", lambda a, n: {"survivors": n}, None),
    ("recurrence", "cycle_correspondence_sweep",
     lambda a, r: {"tables": r.tables, "bijective_tables": r.bijective_tables}, None),
    ("recurrence", "cycle_correspondence_report", None, None),
    ("recurrence", "detect_minimal_period",
     lambda a, r: {"states_stored": r.preperiod + (r.minimal_period or 0)}, None),
    ("engine", "first_iterate", None, None),
    ("engine", "iterate", None, None),
    ("affine", "affine_iterate", None, _affine_iterate_name),
    ("affine", "affine_involutory_order", None, None),
    ("affine", "build_first_iterate", None, None),
    ("parser", "parse_map_def", None, None),
]


def iterk_modules() -> dict:
    """The iterk modules that hold traced functions, by short name."""
    import importlib

    return {mod: importlib.import_module(f"iterk.{mod}") for mod, _, _, _ in TRACED}


class Tracer:
    """Records spans while ``active``; inactive wrappers cost one test."""

    def __init__(self):
        self.spans: list[Span] = []
        self.active = False
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    @contextmanager
    def span(self, name: str):
        if not self.active:
            yield None
            return
        parent = self._stack[-1] if self._stack else None
        idx = len(self.spans)
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent))
        self._stack.append(idx)
        try:
            yield self.spans[idx]
        finally:
            self.spans[idx].end = time.perf_counter()
            self._stack.pop()

    def spans_since(self, first: int) -> list[Span]:
        """Spans recorded from index ``first`` on, with parents re-indexed."""
        return [
            Span(s.name, s.start, s.end, None if s.parent is None or s.parent < first
                 else s.parent - first, s.counts)
            for s in self.spans[first:]
        ]

    def add_spans(self, spans: list[Span]) -> None:
        """Append spans recorded elsewhere (a child process), keeping parents."""
        base = len(self.spans)
        for s in spans:
            parent = None if s.parent is None else s.parent + base
            self.spans.append(Span(s.name, s.start, s.end, parent, dict(s.counts)))

    def install(self, modules: dict) -> None:
        """Wrap every function in TRACED; ``modules`` maps short names to modules."""
        for mod_name, fn_name, counter, namer in TRACED:
            module = modules[mod_name]
            orig = getattr(module, fn_name)
            name = f"{mod_name}.{fn_name}"
            setattr(module, fn_name, self._wrap(orig, name, counter, namer))
            self._patches.append((module, fn_name, orig))

    def uninstall(self) -> None:
        for module, fn_name, orig in reversed(self._patches):
            setattr(module, fn_name, orig)
        self._patches.clear()

    def unseen_bindings(self) -> list[str]:
        """Other names in iterk bound to a traced function's original."""
        import iterk.cli  # noqa: F401  (its from-imports count too)

        out = []
        for module, fn_name, orig in self._patches:
            for mod_name, mod in sorted(sys.modules.items()):
                if mod_name != "iterk" and not mod_name.startswith("iterk."):
                    continue
                for attr, value in vars(mod).items():
                    if value is orig and not (mod is module and attr == fn_name):
                        out.append(f"{mod_name}.{attr} -> {module.__name__}.{fn_name}")
        return out

    def _wrap(self, orig, name, counter, namer):
        tracer = self

        if inspect.isgeneratorfunction(orig):
            # the span runs from the first next() to exhaustion, so it also
            # covers the consumer's time between items
            @functools.wraps(orig)
            def gen_wrapper(*args, **kwargs):
                if not tracer.active:
                    yield from orig(*args, **kwargs)
                    return
                with tracer.span(name) as sp:
                    n = 0
                    for item in orig(*args, **kwargs):
                        n += 1
                        yield item
                    if counter is not None:
                        sp.counts.update(counter(_bound(orig, args, kwargs), n))

            return gen_wrapper

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return orig(*args, **kwargs)
            bound = _bound(orig, args, kwargs) if (counter or namer) else None
            with tracer.span(namer(bound) if namer else name) as sp:
                result = orig(*args, **kwargs)
                if counter is not None:
                    sp.counts.update(counter(bound, result))
            return result

        return wrapper


# ---------------------------------------------------------------------------
# analysis

def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it that its children cover."""
    children = defaultdict(list)
    for i, s in enumerate(spans):
        if s.parent is not None:
            children[s.parent].append(i)
    out = []
    for i, s in enumerate(spans):
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in sorted(
            (max(spans[c].start, s.start), min(spans[c].end, s.end)) for c in children[i]
        ):
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append(s.end - s.start - covered)
    return out


@dataclass
class NameTotals:
    calls: int = 0
    busy_s: float = 0.0
    self_s: float = 0.0
    counts: dict = field(default_factory=lambda: defaultdict(int))


def totals_by_name(spans: list[Span]) -> dict[str, NameTotals]:
    """Per span name: calls, busy time, self time and summed counts.

    Busy time counts a span only when no enclosing span has the same name,
    so a function reached twice on one path is not counted twice.
    """
    selfs = self_times(spans)
    out: dict[str, NameTotals] = defaultdict(NameTotals)
    for i, s in enumerate(spans):
        t = out[s.name]
        t.calls += 1
        t.self_s += selfs[i]
        for key, value in s.counts.items():
            t.counts[key] += value
        p = s.parent
        while p is not None and spans[p].name != s.name:
            p = spans[p].parent
        if p is None:
            t.busy_s += s.end - s.start
    return out


def dump(spans: list[Span], path, extra: dict | None = None) -> None:
    payload = dict(extra or {})
    payload["spans"] = [asdict(s) for s in spans]
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)


def load(path) -> list[Span]:
    with open(path, encoding="utf-8") as fh:
        return [Span(**s) for s in json.load(fh)["spans"]]
