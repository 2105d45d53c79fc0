"""Operations, passes, checks and the environment record.

A workload is a fixed list of :class:`Op`.  One pass calls every op once, in
order, as a single closed-loop client; each op is timed on its own and the
pass time is their sum.  Results are checked after the pass, outside the
timing, and every op that raised or returned a wrong answer counts as failed.
"""

from __future__ import annotations

import os
import platform
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"


@dataclass
class Op:
    name: str
    call: Callable[[], Any]
    check: Callable[[Any], bool]


@dataclass
class Workload:
    """What one workload hands the runner after set-up."""

    ops: list[Op]
    # light CLI requests timed for cold_start_ms; on cli-cold they are in ops
    light: list[Op]
    warm: Callable[[], None] = lambda: None
    # largest exact-number bit length in a pass's results, where that applies
    bits: Callable[[list], int] = lambda results: 0


@dataclass
class Raised:
    """Stands in for the result of an op that raised."""

    error: BaseException


# ---------------------------------------------------------------------------
# host speed
#
# On a shared host the speed of one CPU drifts by 1.4x and more in phases of
# seconds to tens of seconds, longer than a run's passes can average out.
# The meter times a fixed pure-Python loop next to the work, and every time
# the benchmark reports is scaled to a nominal host on which that loop takes
# CALIBRATION_S: calibrated = measured * CALIBRATION_S / loop time.

CALIBRATION_S = 0.0025


def _spin() -> None:
    # small-integer arithmetic, big-number fractions and allocation, the
    # kinds of work iterk's pure-Python paths do; the benchmark does not
    # call iterk here, so a faster iterk leaves the loop time unchanged
    s = 0
    for i in range(15_000):
        s += i * i % 7
    x, a, b = Fraction(1), Fraction(3, 7), Fraction(5, 11)
    for _ in range(150):
        x = x * a + b
    d = {}
    for i in range(4_000):
        d[(i, i + 1)] = [i]


class SpeedMeter:
    """Follows host speed by timing the calibration loop at least every ``cadence`` s."""

    def __init__(self, cadence: float = 0.2):
        self.cadence = cadence
        self.samples: list[float] = []
        self._at = 0.0
        self.current = self._measure()

    def _measure(self) -> float:
        # the median of three: robust to one interrupted loop, and unlike
        # the minimum it follows the typical speed the work runs at
        times = []
        for _ in range(3):
            t = time.perf_counter()
            _spin()
            times.append(time.perf_counter() - t)
        loop_s = statistics.median(times)
        self.samples.append(loop_s)
        self._at = time.perf_counter()
        return loop_s

    def before(self) -> float:
        if time.perf_counter() - self._at > self.cadence:
            self.current = self._measure()
        return self.current

    def calibrate(self, elapsed: float, before: float) -> float:
        """``elapsed`` seconds measured after ``before()`` returned ``before``."""
        loop_s = before
        if elapsed > self.cadence:  # long work: average the loop on both sides
            self.current = self._measure()
            loop_s = (before + self.current) / 2
        return elapsed * CALIBRATION_S / loop_s


def pin_to_one_cpu() -> None:
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


@dataclass
class PassResult:
    wall_s: float  # as measured
    op_s: list[float]  # calibrated, per op
    results: list[Any]

    @property
    def calibrated_s(self) -> float:
        return sum(self.op_s)


def run_pass(ops: list[Op], meter: SpeedMeter) -> PassResult:
    op_s, results = [], []
    wall = 0.0
    for op in ops:
        loop_s = meter.before()
        t = time.perf_counter()
        try:
            results.append(op.call())
        except Exception as exc:  # an op that raises is a failed op, not a crash
            results.append(Raised(exc))
        elapsed = time.perf_counter() - t
        wall += elapsed
        op_s.append(meter.calibrate(elapsed, loop_s))
    return PassResult(wall, op_s, results)


def failed_ops(ops: list[Op], results: list[Any]) -> list[str]:
    """Names of ops that raised or whose result fails its check."""
    failed = []
    for op, result in zip(ops, results):
        try:
            ok = not isinstance(result, Raised) and bool(op.check(result))
        except Exception:
            ok = False
        if not ok:
            failed.append(op.name)
    return failed


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)

    def add(self, ops: list[Op], results: list[Any]) -> None:
        bad = failed_ops(ops, results)
        self.attempted += len(ops)
        self.failed += len(bad)
        self.failures.extend(bad)

    @property
    def error_rate(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


# ---------------------------------------------------------------------------
# child processes

def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH", "")) if p
    )
    return env


def run_child(argv: list[str], timeout: float = 120.0) -> tuple[int, str]:
    """Run a Python child from the checkout root and wait for it to end."""
    proc = subprocess.run(
        [sys.executable, *argv],
        cwd=ROOT,
        env=child_env(),
        capture_output=True,
        text=True,
        timeout=timeout,
    )
    return proc.returncode, proc.stdout


def import_seconds(meter: SpeedMeter, repeats: int) -> list[float]:
    """Calibrated time to import iterk, timed inside fresh child processes."""
    code = "import time; t = time.perf_counter(); import iterk; print(time.perf_counter() - t)"
    samples = []
    for _ in range(repeats):
        loop_s = meter.before()
        status, out = run_child(["-c", code])
        if status != 0:
            raise RuntimeError(f"importing iterk in a child exited with {status}")
        samples.append(meter.calibrate(float(out), loop_s))
    return samples


def time_child(argv: list[str], repeats: int) -> float:
    """Median wall time in ms of a Python child that is checked to exit 0."""
    samples = []
    for _ in range(repeats):
        t = time.perf_counter()
        code, _ = run_child(argv)
        samples.append((time.perf_counter() - t) * 1e3)
        if code != 0:
            raise RuntimeError(f"{argv} exited with {code}")
    return statistics.median(samples)


# ---------------------------------------------------------------------------
# statistics and the environment record

def median(values) -> float:
    return statistics.median(values) if values else 0.0


def high(values) -> float:
    """90th percentile, or the largest value when there are fewer than ten."""
    if len(values) < 10:
        return max(values, default=0.0)
    return statistics.quantiles(values, n=10)[-1]


def _cache_sizes() -> dict:
    out = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for idx in sorted(base.glob("index*")):
        try:
            level = (idx / "level").read_text().strip()
            kind = (idx / "type").read_text().strip()
            size = (idx / "size").read_text().strip()
        except OSError:
            continue
        out[f"L{level}{'' if kind == 'Unified' else kind[0].lower()}"] = size
    return out


def environment(seed: int) -> dict:
    import numpy

    from iterk import _kernels

    return {
        "numba_active": bool(_kernels.NUMBA_ACTIVE),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "pinned_cpus": sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "caches": _cache_sizes(),
        "machine": platform.machine(),
        "seed": seed,
    }
