"""qsharm benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload grid_sample --seed 1 --seconds 20 --trace 0

Run from a checkout: qsharm is imported from its ``src/`` directory (the
package is not installed).  Uses only the standard library and drives
qsharm from this one process and thread; the only child processes are
the set-up timings, which are run and waited for one at a time.  Times
are CPU times of the process doing the work (see ``qsbench/harness.py``).

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` is the
separate traced run that gives the per-layer metrics and writes its
spans under ``.bench_out/``.  Every metric is printed as
``name value unit``; the last line is one JSON object with the metrics
that ``BENCHMARK.json`` lists for the mode.  A wrong output or a failed
operation makes the run fail with exit code 1.  See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import platform
import resource
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_out"
SETUP_REPEATS = 21
WORKLOAD_NAMES = ("grid_sample", "point_scatter", "exact_reports")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="import qsharm, build the inputs and exit (timed by the parent)")
    return p.parse_args(argv)


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def child_cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def time_setup(args) -> float:
    """CPU time of a fresh interpreter that imports qsharm and builds the inputs."""
    cmd = [sys.executable, str(pathlib.Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    before = child_cpu_s()
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.DEVNULL,
                          stderr=subprocess.PIPE, text=True, timeout=120)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up run failed: {proc.stderr.strip()}")
    return child_cpu_s() - before


def emit(correct: bool, attempted: int, failed: int, metrics: dict) -> None:
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "qsharm" / "__init__.py").is_file():
        print(f"error: no qsharm sources under {src}; run from a qsharm checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))

    from qsbench import workloads  # imports qsharm

    params = workloads.PARAMS[args.workload]
    wl = workloads.WORKLOADS[args.workload](params, args.seed)
    if args.setup_only:
        return 0

    from qsbench import harness
    from qsbench.tracer import Tracer

    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    section = "per_layer" if args.trace else "end_to_end"
    exported = [m["name"] for m in spec[section]]

    print(f"qsharm benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("env " + json.dumps({
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu": cpu_model(),
        "qsharm": str(src),
        "workload": args.workload,
        "seed": args.seed,
        "params": params,
    }, sort_keys=True))
    # Inputs replaced because they would hit a known qsharm defect.
    print("excluded " + json.dumps(dict(wl.excluded), sort_keys=True))

    plain, traced = harness.Tally(), harness.Tally()
    correct = True
    try:
        if args.trace:
            tracer = Tracer()
            harness.measure_traced(wl, tracer, plain, traced)
            stats = tracer.layer_stats()
            stats["trace.overhead"] = traced.busy_s / plain.busy_s
            OUT_DIR.mkdir(exist_ok=True)
            spans_path = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.csv"
            n_spans = tracer.write_spans(spans_path)
            print(f"traced ops {traced.attempted}: untraced {plain.attempted / plain.busy_s:.6g} "
                  f"op/s, traced {traced.attempted / traced.busy_s:.6g} op/s; "
                  f"{n_spans} spans in {os.path.relpath(spans_path, ROOT)}")
            for name in sorted(stats):
                print(f"{name} {stats[name]!r}")
            units = {m["name"]: m["unit"] for m in spec["per_layer"]}
            metrics = {name: (stats[name], units[name]) for name in exported}
        else:
            harness.measure(wl, args.seconds, plain, lambda: time_setup(args), SETUP_REPEATS)
            all_metrics = harness.end_to_end(wl, plain)
            for name, (value, unit) in all_metrics.items():
                print(f"{name} {value!r} {unit}")
            print(f"samples: ops {plain.attempted}, setup {len(plain.setup_s)}")
            metrics = {name: all_metrics[name] for name in exported}
    except workloads.WrongOutput as exc:
        print(f"error: {exc}", file=sys.stderr)
        correct, metrics = False, {}
    attempted = plain.attempted + traced.attempted
    emit(correct, max(attempted, 1), 0 if correct else 1, metrics)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
