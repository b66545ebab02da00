"""Spans around qsharm's public functions, installed from outside the package.

``Tracer.install`` replaces every public function defined in the layer
modules (``cli``, ``verify``, ``evaluate``, ``norms``, ``series``) with a
timing wrapper, in every qsharm namespace that holds it.  That covers
names bound by ``from .series import legendre_function`` in the other
modules and in the package itself, so a call is seen wherever it is
looked up.  ``numerics`` and ``golden`` are leaf types and data and are
left alone.

Each call becomes a span (name, start, end, parent span, operation id),
kept in memory and written out by ``write_spans``.  A span's self time
is its duration minus the durations of its direct children; calls are
sequential in one thread, so the children never overlap.
"""

from __future__ import annotations

import importlib
import inspect
import sys
import time
from array import array
from collections import defaultdict

LAYERS = ("cli", "verify", "evaluate", "norms", "series")
# Bins of 2l for the sweep over l: <= 100, 101..250, 251 and above.
BINS = (("lo", 100), ("mid", 250), ("hi", None))


def l_bin(two_l: int) -> str:
    return next(name for name, top in BINS if top is None or two_l <= top)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.child = array("d")
        self.stack: list[int] = []
        self.op = -1
        self._saved: list[tuple[object, str, object]] = []
        self._wrappers: dict = {}
        # Observations taken at specific boundaries.
        self.counts: dict[str, float] = defaultdict(float)
        self.coeff_bits_max = 0
        self._seen: dict[str, set] = defaultdict(set)

    # -- installing --------------------------------------------------------

    def install(self) -> None:
        if not self._wrappers:
            for layer in LAYERS:
                module = importlib.import_module(f"qsharm.{layer}")
                for name, fn in vars(module).items():
                    if (inspect.isfunction(fn) and fn.__module__ == module.__name__
                            and not name.startswith("_")):
                        self._wrappers[fn] = self._wrap(f"{layer}.{name}", fn)
        wrappers = self._wrappers
        namespaces = [m for name, m in sys.modules.items()
                      if name == "qsharm" or name.startswith("qsharm.")]
        for module in namespaces:
            for name, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in wrappers:
                    self._saved.append((module, name, value))
                    setattr(module, name, wrappers[value])

    def uninstall(self) -> None:
        for module, name, value in reversed(self._saved):
            setattr(module, name, value)
        self._saved.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def start_op(self, op_id: int) -> None:
        self.op = op_id
        self._seen.clear()

    def _wrap(self, label: str, fn):
        name_id = len(self.names)
        self.names.append(label)
        observe = _OBSERVERS.get(label)
        clock = time.process_time  # CPU time, like the operation timings
        stack, span_name, span_parent, span_op = self.stack, self.span_name, self.span_parent, self.span_op
        starts, ends, child = self.start, self.end, self.child

        def traced(*args, **kwargs):
            idx = len(span_name)
            span_name.append(name_id)
            span_parent.append(stack[-1] if stack else -1)
            span_op.append(self.op)
            ends.append(0.0)
            child.append(0.0)
            stack.append(idx)
            t0 = clock()
            starts.append(t0)
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                ends[idx] = t1
                stack.pop()
                if stack:
                    child[stack[-1]] += t1 - t0
            if observe is not None:
                observe(self, args, result, t1 - t0)
            return result

        return traced

    # -- results -----------------------------------------------------------

    def layer_stats(self) -> dict[str, float]:
        """``<module>.<function>.calls|s|self_s`` for every wrapped function,
        ``<module>.self_s`` for each layer, and the boundary observations."""
        calls = defaultdict(int)
        total = defaultdict(float)
        own = defaultdict(float)
        for i, name_id in enumerate(self.span_name):
            dur = self.end[i] - self.start[i]
            calls[name_id] += 1
            total[name_id] += dur
            own[name_id] += dur - self.child[i]
        stats: dict[str, float] = {}
        for layer in LAYERS:
            stats[f"{layer}.self_s"] = 0.0
        for name_id, label in enumerate(self.names):
            stats[f"{label}.calls"] = calls[name_id]
            stats[f"{label}.s"] = total[name_id]
            stats[f"{label}.self_s"] = own[name_id]
            stats[f"{label.split('.')[0]}.self_s"] += own[name_id]
        for key in ("series.legendre_function", "evaluate.eval_theta"):
            n = stats[f"{key}.calls"]
            stats[f"{key}.repeat_frac"] = self.counts[f"{key}.repeats"] / n if n else 0.0
        for key, stat, scale in (("norms.norm_theta", "mean_ms", 1e3),
                                 ("evaluate.eval_theta", "us_per_call", 1e6)):
            for bin_name, _ in BINS:
                n = self.counts[f"{key}.calls.{bin_name}"]
                stats[f"{key}.calls.{bin_name}"] = n
                mean = self.counts[f"{key}.s.{bin_name}"] / n * scale if n else None
                stats[f"{key}.{stat}.{bin_name}"] = mean
        for key, value in self.counts.items():
            if key.startswith("verify.run_suite."):
                stats[key] = value
        stats["series.coeff_bits_max"] = self.coeff_bits_max
        return stats

    def write_spans(self, path) -> int:
        """Write every span as CSV: id, name, start, end, parent, op."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id,name,start,end,parent,op\n")
            names = self.names
            fh.writelines(
                f"{i},{names[n]},{s!r},{e!r},{p},{o}\n"
                for i, (n, s, e, p, o) in enumerate(
                    zip(self.span_name, self.start, self.end, self.span_parent, self.span_op)
                )
            )
        return len(self.span_name)


def _see(tracer: Tracer, key: str, item) -> None:
    seen = tracer._seen[key]
    if item in seen:
        tracer.counts[f"{key}.repeats"] += 1
    else:
        seen.add(item)


def _observe_legendre(tracer: Tracer, args, result, dur: float) -> None:
    l, m = args[:2]
    _see(tracer, "series.legendre_function", (l.twice, abs(m.twice)))
    bits = max((max(c.numerator.bit_length(), c.denominator.bit_length())
                for c in result.coeffs), default=0)
    tracer.coeff_bits_max = max(tracer.coeff_bits_max, bits)


def _observe_binned(key: str):
    def observe(tracer: Tracer, args, result, dur: float) -> None:
        f = args[0]
        two_l = f.m_abs.twice + 2 * f.degree
        if key == "evaluate.eval_theta":
            _see(tracer, key, (f.m_abs.twice, f.degree, args[1]))
        b = l_bin(two_l)
        tracer.counts[f"{key}.calls.{b}"] += 1
        tracer.counts[f"{key}.s.{b}"] += dur
    return observe


def _observe_suite(tracer: Tracer, args, result, dur: float) -> None:
    tracer.counts[f"verify.run_suite.{result.suite.value}.s"] += dur


_OBSERVERS = {
    "series.legendre_function": _observe_legendre,
    "norms.norm_theta": _observe_binned("norms.norm_theta"),
    "evaluate.eval_theta": _observe_binned("evaluate.eval_theta"),
    "verify.run_suite": _observe_suite,
}
