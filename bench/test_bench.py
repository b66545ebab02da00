"""Smoke test of the benchmark at tiny sizes; not a timing gate.

    PYTHONPATH=src python -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import json
import math
import pathlib
import shutil
import subprocess
import sys

import pytest

BENCH = pathlib.Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import qsharm  # noqa: E402
import run  # noqa: E402
from qsbench import harness, reference, workloads  # noqa: E402
from qsbench.tracer import Tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
TINY = {
    "grid_sample": {"two_l_max": 9, "n_min": 3, "n_max": 8, "ops": 16,
                    "trace_ops": 4, "rss_ops": 4},
    "point_scatter": {"two_l_max": 21, "ops": 32, "trace_ops": 8, "rss_ops": 8},
    "exact_reports": {"two_l_max": 8, "two_m_max": 4, "i_max": 3, "ops": 15 * 2,
                      "trace_ops": 15, "rss_ops": 15},
}


@pytest.fixture
def tiny_sizes(monkeypatch, tmp_path):
    """The benchmark's own main() at tiny sizes (set-up still times the real inputs)."""
    monkeypatch.setattr(workloads, "PARAMS", TINY)
    monkeypatch.setattr(run, "SETUP_REPEATS", 1)
    monkeypatch.setattr(run, "OUT_DIR", tmp_path)


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", ["0", "1"])
def test_every_metric_printed(workload, trace, tiny_sizes, capsys):
    rc = run.main(["--workload", workload, "--seed", "5", "--seconds", "0.2",
                   "--trace", trace])
    out, err = capsys.readouterr()
    assert rc == 0, err
    lines = out.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["attempted"] >= 1
    spec = SPEC["per_layer" if trace == "1" else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in spec]
    for m in spec:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert math.isfinite(got["value"])
    if trace == "0":
        # The workload-specific end-to-end metrics are printed by name and unit.
        extra = ["op_p50_ms", "op_p90_ms", "cpu_ops_per_s", "cal_ms"] + (
            ["cases_per_s", "pass_s", "first_pass_s"] if workload == "exact_reports"
            else ["points_per_s"])
        printed = {line.split()[0] for line in lines[:-1]}
        assert set(extra) <= printed


def first_output(wl):
    for op in wl.ops:
        rc, out = wl.execute(op)
        if rc == 0:
            wl.check(op, out)
            return op, out
    raise AssertionError("no operation succeeded")


def tiny(name, seed=3):
    return workloads.WORKLOADS[name](TINY[name], seed)


def test_grid_check_trips():
    wl = tiny("grid_sample")
    op, out = first_output(wl)
    lines = out.splitlines()
    rows = [line.split(",") for line in lines[1:]]
    k = max(range(len(rows)), key=lambda j: abs(float(rows[j][2])))
    rows[k][2] = repr(float(rows[k][2]) * 1.001)
    corrupted = [lines[0]] + [",".join(r) for r in rows]
    for bad in ("\n".join(corrupted) + "\n",
                "\n".join(lines[:-1]) + "\n",
                out.replace("theta,phi", "phi,theta", 1)):
        with pytest.raises(workloads.WrongOutput):
            wl.check(op, bad)


def test_point_check_trips():
    wl = tiny("point_scatter")
    op, out = first_output(wl)
    re, im = out.strip().split(",")
    for bad in (f"{float(re) + 1e-3!r},{im}\n", f"{re},nan\n", out + out):
        with pytest.raises(workloads.WrongOutput):
            wl.check(op, bad)


def test_exact_check_trips():
    wl = tiny("exact_reports")
    for op in wl.ops[:wl.block]:
        rc, out = wl.execute(op)
        assert rc == 0
        wl.check(op, out)
        bads = ([out.replace('"status":"pass"', '"status":"fail"', 1), '{"cases": 3}']
                if op.suite else [out.replace("1", "2", 1)])
        for bad in bads:
            with pytest.raises(workloads.WrongOutput):
                wl.check(op, bad)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_failure_trips(workload, monkeypatch):
    wl = tiny(workload)

    def raises(op):
        raise OverflowError("injected")

    for fake in (lambda op: (1, ""), raises):
        monkeypatch.setattr(wl, "execute", fake)
        with pytest.raises(workloads.WrongOutput):
            harness.run_op(wl, wl.ops[0], harness.Tally())


def test_known_defects_are_excluded():
    # The defects are real: qsharm fails on exactly the inputs the predicates name.
    rc, _ = workloads.call_cli(["sample", "--two-l", "2", "--two-m", "0",
                                "--n-theta", "48", "--n-phi", "3"])
    assert workloads.theta_rounds_over_pi(48) and rc == 1
    with pytest.raises(OverflowError):
        workloads.call_cli(["eval", "--two-l", "344", "--two-m", "0", "--theta", "1",
                            "--phi", "0", "--normalized"])
    assert reference.norm_overflows(344, 0) and not reference.norm_overflows(343, 1)
    assert not reference.norm_overflows(344, 2)
    # The full-size inputs avoid them; grid_sample counts the sizes it drew again.
    grid = workloads.GridSample(workloads.PARAMS["grid_sample"], seed=3)
    point = workloads.PointScatter(workloads.PARAMS["point_scatter"], seed=3)
    assert grid.excluded["n_theta rounding"] > 0
    assert not any(workloads.theta_rounds_over_pi(op.n_theta) for op in grid.ops)
    pairs = {(op.two_l, op.two_m) for op in point.ops}
    assert not any(reference.norm_overflows(*pair) for pair in pairs)
    assert max(two_l for two_l, _ in pairs) > 390


def test_tracer_sees_names_bound_by_import():
    original = qsharm.evaluate.legendre_function
    tracer = Tracer()
    tracer.start_op(0)
    with tracer:
        workloads.call_cli(["eval", "--two-l", "3", "--two-m", "1", "--theta", "1",
                            "--phi", "0", "--normalized"])
    assert qsharm.evaluate.legendre_function is original
    stats = tracer.layer_stats()
    assert stats["cli.main.calls"] == 1
    assert stats["series.legendre_function.calls"] == 1
    assert stats["norms.norm_theta.calls"] == 1
    assert stats["evaluate.eval_theta.calls"] == 1
    assert 0 <= stats["cli.main.self_s"] <= stats["cli.main.s"]


def run_bench(*args, cwd):
    return subprocess.run([sys.executable, str(pathlib.Path(cwd) / "bench" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=120)


def test_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1",
                     "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
