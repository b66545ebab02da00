"""Measurement loops and metrics for one benchmark run.

Operations are timed by the CPU time of this process
(``time.process_time``), not by the wall clock: every operation is
single-threaded CPU work, and on a shared machine the wall clock also
counts the time the process waits for a CPU.  CPU time still drifts
there, by up to 1.8x over tens of seconds, as other tenants load the
same cores.  So ``measure`` also times a fixed calibration loop, which
does not use qsharm, once per ``CAL_EVERY_S`` of operations, and the
end-to-end times are scaled to a machine on which that loop takes
``CAL_NOMINAL_S``: time * CAL_NOMINAL_S / (the run's calibration time,
weighted by the operation time each sample covers).

``measure`` runs a workload untraced, from its first operation on, until
the operations have taken ``seconds``; the rates are total operations
over total time, so the first operations, which run with every cache
cold, count like the rest.  The set-up timings, each a fresh child
interpreter, are spread evenly over the same run, so that the one
calibration scales them for the same stretch of machine time.
``measure_traced`` runs a fixed number of operations, so that call
counts repeat exactly for a seed.  Every one runs once untraced and
once traced, in alternating order so that cache warm-up favours
neither side; the per-layer metrics come from the traced runs.
"""

from __future__ import annotations

import itertools
import resource
import statistics
import time
from dataclasses import dataclass, field
from fractions import Fraction

from .tracer import Tracer
from .workloads import WrongOutput


CAL_NOMINAL_S = 0.010
CAL_EVERY_S = 0.1


def calibration_s() -> float:
    """CPU time of a fixed piece of small exact arithmetic, independent of qsharm."""
    t0 = time.process_time()
    acc = Fraction(0)
    for i in range(1, 3000):
        acc = (acc + Fraction(1, i)) / 2
        if acc.denominator > 10 ** 30:
            acc = Fraction(1, 3)
    return time.process_time() - t0


@dataclass
class Tally:
    durations: list[float] = field(default_factory=list)
    setup_s: list[float] = field(default_factory=list)
    busy_s: float = 0.0
    suite_s: float = 0.0
    points: int = 0
    cases: int = 0
    rss_mb: float = 0.0
    uncalibrated_s: float = 0.0  # operation time since the last calibration
    cal_weighted: float = 0.0
    cal_weight: float = 0.0

    @property
    def attempted(self) -> int:
        return len(self.durations)

    def calibrate(self) -> None:
        """Sample the machine's speed for the operation time since the last sample.

        One calibration loop per ``CAL_EVERY_S`` of that time (at least
        one), so that operations longer than that are sampled as densely
        as short ones.
        """
        if self.uncalibrated_s > 0:
            loops = max(1, round(self.uncalibrated_s / CAL_EVERY_S))
            cal = statistics.fmean(calibration_s() for _ in range(loops))
            self.cal_weighted += self.uncalibrated_s * cal
            self.cal_weight += self.uncalibrated_s
            self.uncalibrated_s = 0.0

    @property
    def scale(self) -> float:
        """Factor from this run's CPU seconds to seconds on the nominal machine."""
        return CAL_NOMINAL_S * self.cal_weight / self.cal_weighted


def run_op(wl, op, tally: Tally) -> None:
    """Run and check one operation.

    A failure (nonzero exit or escaped exception) is a ``WrongOutput``,
    like a wrong result: the workloads draw no input that is known to fail.
    """
    t0 = time.process_time()
    try:
        rc, out = wl.execute(op)
    except SystemExit as exc:  # argparse rejected the arguments
        rc, out = f"exit{exc.code}", ""
    except Exception as exc:  # escaped qsharm
        rc, out = type(exc).__name__, ""
    dur = time.process_time() - t0
    tally.durations.append(dur)
    tally.busy_s += dur
    tally.uncalibrated_s += dur
    if rc != 0:
        raise WrongOutput(f"{op}: failed ({rc if isinstance(rc, str) else f'exit{rc}'})")
    wl.check(op, out)
    tally.points += wl.points(op)
    tally.cases += wl.cases(op, out)
    if op.suite:
        tally.suite_s += dur


def measure(wl, seconds: float, tally: Tally, time_setup, setup_runs: int) -> None:
    """Run operations in order until they have taken ``seconds``.

    Runs end on a whole block of ``wl.block`` operations (a whole pass
    for ``exact_reports``).  ``time_setup()`` is called ``setup_runs``
    times, after the operations that reach each k / setup_runs of
    ``seconds``.  Peak memory is read after the workload's fixed
    ``rss_ops``.
    """
    for n, op in enumerate(itertools.cycle(wl.ops), 1):
        run_op(wl, op, tally)
        if len(tally.setup_s) < setup_runs and (
                tally.busy_s >= len(tally.setup_s) * seconds / setup_runs):
            tally.setup_s.append(time_setup())
        if tally.uncalibrated_s >= CAL_EVERY_S:
            tally.calibrate()
        if n == wl.params["rss_ops"]:
            tally.rss_mb = peak_rss_mb()
        if tally.busy_s >= seconds and n % wl.block == 0:
            break
    if not tally.rss_mb:  # the run ended before rss_ops
        tally.rss_mb = peak_rss_mb()
    while len(tally.setup_s) < setup_runs:
        tally.setup_s.append(time_setup())
    tally.calibrate()


def measure_traced(wl, tracer: Tracer, plain: Tally, traced: Tally) -> None:
    for op_id, op in enumerate(wl.ops[:wl.params["trace_ops"]]):
        for with_trace in ((False, True) if op_id % 2 == 0 else (True, False)):
            if with_trace:
                tracer.start_op(op_id)
                with tracer:
                    run_op(wl, op, traced)
            else:
                run_op(wl, op, plain)


def percentile(values: list[float], q: float) -> float:
    """Linear interpolation between closest ranks (numpy's default)."""
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux


def end_to_end(wl, tally: Tally) -> dict[str, tuple[float, str]]:
    """Every end-to-end metric of the run, as name -> (value, unit).

    Times are on the nominal machine (see the module docstring); the
    set-up children ran during the measurement and are scaled by the
    same factor.
    """
    d = [t * tally.scale for t in tally.durations]
    busy_s = tally.busy_s * tally.scale
    metrics = {
        "setup_s": (statistics.median(tally.setup_s) * tally.scale, "s"),
        "ops_per_s": (tally.attempted / busy_s, "op/s"),
        "op_p50_ms": (percentile(d, 0.5) * 1e3, "ms"),
        "op_p90_ms": (percentile(d, 0.9) * 1e3, "ms"),
        "peak_rss_mb": (tally.rss_mb, "MB"),
    }
    if wl.name == "exact_reports":
        metrics["cases_per_s"] = (tally.cases / (tally.suite_s * tally.scale), "case/s")
        metrics["pass_s"] = (busy_s * wl.block / len(d), "s")
        metrics["first_pass_s"] = (sum(d[:wl.block]), "s")  # every cache cold
    else:
        metrics["points_per_s"] = (tally.points / busy_s, "Y/s")
    metrics["cpu_ops_per_s"] = (tally.attempted / tally.busy_s, "op/s")  # unscaled
    metrics["cal_ms"] = (CAL_NOMINAL_S / tally.scale * 1e3, "ms")
    return metrics
