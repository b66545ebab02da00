"""The three benchmark workloads: seeded inputs, one operation, output checks.

Every workload is a closed loop with one client that drives qsharm
through its public entry points (``qsharm.cli.main`` and
``qsharm.run_suite``) in this process.  Inputs come only from the seed:
each workload draws a fixed list of operations, ``ops``, which a run
goes through in order (and again from the start if it gets that far).

Operation costs span three orders of magnitude, so ``grid_sample`` and
``point_scatter`` draw their operations in blocks laid out as one fixed
Latin hypercube: a block takes one value from each of ``BLOCK`` equal
slices of the 2l range, of the degree share i / (l - |m| range) and of
each grid axis, and which slices meet in one operation is the same in
every block and for every seed.  The seed picks the value inside each
slice, the signs, the points and the order.  Every block then costs
nearly the same while the inputs differ, and a run measures whole
blocks.  Against plain uniform draws this narrows the spread of
``ops_per_s`` over seeds by 2 to 3 times (see ``bench/README.md``).

No operation is meant to fail.  qsharm has two known defects: some grid
sizes make the last angle round above pi (``theta_rounds_over_pi``),
and the exact norm of pairs with 2l >= 344 and m near 0 is beyond float
range (``reference.norm_overflows``).  ``grid_sample`` draws such a grid
size again and counts it in ``excluded``; the ``point_scatter`` layout
puts no pair in the overflow corner.  An operation returns
``(exit code, stdout)``; a nonzero code or an exception escaping qsharm
fails the whole run like a wrong output does, and ``check`` raises
``WrongOutput`` when an operation that succeeded printed a wrong result.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import pathlib
import random
from collections import Counter
from dataclasses import dataclass

import qsharm
import qsharm.cli

from .reference import Harmonic

# Y values may differ from the exact-Horner reference by this share of
# the largest |Y| on the grid, leaving room for a float evaluation path.
REL_TOL = 1e-9
# A unit-normalized harmonic has RMS |Y| of at least 1/sqrt(8 pi) ~ 0.2
# over its domain; a single point is checked relative to that scale
# where |Y| itself is smaller (near a node).
POINT_SCALE = 0.1

PARAMS = {
    # ``ops``: operations drawn for a run; ``trace_ops``: how many of them
    # the traced run covers; ``rss_ops``: after how many the peak memory is
    # read (the moment cache grows with every new pair, so a peak read at
    # the end of a run would grow with its throughput).
    "grid_sample": {"two_l_max": 101, "n_min": 16, "n_max": 64, "ops": 1024,
                    "trace_ops": 32, "rss_ops": 64},
    "point_scatter": {"two_l_max": 401, "ops": 4096, "trace_ops": 512, "rss_ops": 512},
    "exact_reports": {"two_l_max": 40, "two_m_max": 30, "i_max": 15, "ops": 15 * 32,
                      "trace_ops": 15 * 3, "rss_ops": 15 * 3},
}

DIGESTS_PATH = pathlib.Path(__file__).with_name("digests.json")


class WrongOutput(AssertionError):
    """qsharm printed a wrong result, or an operation failed."""


@dataclass(frozen=True)
class Op:
    """One operation: CLI arguments or a suite name, plus what the check needs."""

    argv: tuple[str, ...] = ()
    two_l: int = 0
    two_m: int = 0
    n_theta: int = 0
    n_phi: int = 0
    normalized: bool = False
    phi_range: str = "2pi"
    theta: float = 0.0
    phi: float = 0.0
    suite: str = ""
    table: str = ""

    def __str__(self) -> str:
        return self.suite or " ".join(self.argv)


def call_cli(argv) -> tuple[int, str]:
    """Run ``qsharm.cli.main`` with stdout and stderr captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = qsharm.cli.main(list(argv))
    return rc, out.getvalue()


BLOCK = 16  # slices per axis, and operations per block of new inputs


def _design(dims: int) -> list[tuple[int, ...]]:
    """The slice indices of the BLOCK slots of every block: fixed, not seeded."""
    rng = random.Random(0)
    return list(zip(*(rng.sample(range(BLOCK), BLOCK) for _ in range(dims))))


def _in_slice(rng: random.Random, lo: int, hi: int, j: int) -> int:
    """An integer from the j-th of BLOCK equal slices of [lo, hi]."""
    return lo + int((hi - lo + 1) / BLOCK * (j + rng.random()))


def _pair(rng: random.Random, two_l_max: int, j_l: int, j_i: int) -> tuple[int, int]:
    """Signed 2m and 2l from slice j_l of 2l and slice j_i of the degree share."""
    two_l = _in_slice(rng, 0, two_l_max, j_l)
    i = int((j_i + rng.random()) / BLOCK * (two_l // 2 + 1))
    twice_m = two_l - 2 * i
    return two_l, (twice_m if rng.random() < 0.5 else -twice_m)


def theta_rounds_over_pi(n_theta: int) -> bool:
    """The n_theta defect: the last grid angle (n-1) * pi / (n-1) exceeds pi, and
    ``qsharm sample`` exits 1 (for 27, 48, 53, ... points)."""
    return (n_theta - 1) * math.pi / (n_theta - 1) > math.pi


def _halfint_text(twice: int) -> str:
    return str(twice // 2) if twice % 2 == 0 else f"{twice}/2"


def _parse_float(text: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise WrongOutput(f"not a number: {text!r}") from None


def _close(got: float, want: float, tol: float) -> bool:
    return abs(got - want) <= tol  # false for NaN


class GridSample:
    """``qsharm sample`` over seeded (2l, 2m) pairs and grid sizes.

    Evaluation-bound: the exact Horner pass in ``eval_theta`` runs once
    per grid point.  A grid size that hits the n_theta defect is drawn
    again from its slice.
    """

    name = "grid_sample"
    block = BLOCK  # operations a run measures as a unit

    def __init__(self, params: dict, seed: int):
        self.params = params
        self.excluded = Counter()
        rng = random.Random(seed)
        self.ops = []
        while len(self.ops) < params["ops"]:
            block = [self._op(rng, *slot) for slot in _design(5)]
            rng.shuffle(block)
            self.ops += block

    def _op(self, rng: random.Random, j_l: int, j_i: int, j_t: int, j_p: int, j_f: int) -> Op:
        p = self.params
        two_l, two_m = _pair(rng, p["two_l_max"], j_l, j_i)
        n_theta = _in_slice(rng, p["n_min"], p["n_max"], j_t)
        while theta_rounds_over_pi(n_theta):
            self.excluded["n_theta rounding"] += 1
            n_theta = _in_slice(rng, p["n_min"], p["n_max"], j_t)
        n_phi = _in_slice(rng, p["n_min"], p["n_max"], j_p)
        # Half plain, a quarter unit-normalized, a quarter normalized on [0, 4pi).
        normalized, phi_range = j_f % 4 > 1, ("4pi" if j_f % 4 == 3 else "2pi")
        argv = ["sample", "--two-l", str(two_l), "--two-m", str(two_m),
                "--n-theta", str(n_theta), "--n-phi", str(n_phi)]
        if normalized:
            argv.append("--normalized")
        if phi_range != "2pi":
            argv += ["--phi-range", phi_range]
        return Op(argv=tuple(argv), two_l=two_l, two_m=two_m, n_theta=n_theta,
                  n_phi=n_phi, normalized=normalized, phi_range=phi_range)

    def execute(self, op: Op) -> tuple[int, str]:
        return call_cli(op.argv)

    def points(self, op: Op) -> int:
        return op.n_theta * op.n_phi

    def cases(self, op: Op, out: str) -> int:
        return 0

    def check(self, op: Op, out: str) -> None:
        lines = out.splitlines()
        if not lines or lines[0] != "theta,phi,re,im,abs2":
            raise WrongOutput(f"bad CSV header in {op.argv}")
        try:
            rows = list(csv.reader(lines[1:]))
        except csv.Error as exc:
            raise WrongOutput(f"unreadable CSV from {op.argv}: {exc}") from None
        if len(rows) != op.n_theta * op.n_phi or any(len(r) != 5 for r in rows):
            raise WrongOutput(f"CSV shape wrong in {op.argv}: {len(rows)} rows")
        ref = Harmonic(op.two_l, op.two_m, op.normalized, op.phi_range)
        period = 4 * math.pi if op.two_m % 2 else 2 * math.pi
        thetas = [j * math.pi / (op.n_theta - 1) for j in range(op.n_theta)]
        phis = [k * period / op.n_phi for k in range(op.n_phi)]
        thetas_y = [ref.theta_factor(min(t, math.pi)) for t in thetas]
        phis_y = [ref.phi_factor(p) for p in phis]
        ymax = max(abs(t) for t in thetas_y)
        tol = REL_TOL * max(ymax, 1e-300)
        row = iter(rows)
        for theta, t_y in zip(thetas, thetas_y):
            for phi, p_y in zip(phis, phis_y):
                r = next(row)
                want = t_y * p_y
                re, im, abs2 = (_parse_float(v) for v in r[2:])
                if not (_close(_parse_float(r[0]), theta, 1e-12)
                        and _close(_parse_float(r[1]), phi, 1e-12 * period)
                        and _close(re, want.real, tol) and _close(im, want.imag, tol)
                        and _close(abs2, abs(want) ** 2, 3 * tol * ymax)):
                    raise WrongOutput(f"{op.argv}: row {r}, want Y={want!r}")


class PointScatter:
    """``qsharm eval --normalized`` at one random point per pair.

    Construction-bound: each operation builds P_l^|m| and its exact
    norm to evaluate a single point.  Pairs cover 2l <= 401 in both the
    doubled and the exact-string forms; half the operations repeat a
    pair drawn in the same or an earlier block.  The layout pairs the top
    slices of 2l with degree shares below the corner where the exact
    norm is beyond float range, so no pair hits that defect.
    """

    name = "point_scatter"
    block = 2 * BLOCK  # new pairs, then as many repeats

    def __init__(self, params: dict, seed: int):
        self.params = params
        self.excluded = Counter()  # none: see the class docstring
        rng = random.Random(seed)
        new_pairs: list[list[tuple[int, int]]] = []
        self.ops = []
        while len(self.ops) < params["ops"]:
            new_pairs.append([_pair(rng, params["two_l_max"], *slot) for slot in _design(2)])
            # Slot BLOCK + j repeats the pair of slot j from this or an earlier block.
            repeats = [rng.choice(new_pairs)[j] for j in range(BLOCK)]
            block = [self._op(rng, *pair) for pair in new_pairs[-1] + repeats]
            rng.shuffle(block)
            self.ops += block

    @staticmethod
    def _op(rng: random.Random, two_l: int, two_m: int) -> Op:
        theta, phi = rng.uniform(0.0, math.pi), rng.uniform(0.0, 4 * math.pi)
        if rng.random() < 0.5:
            pair_args = ["--two-l", str(two_l), "--two-m", str(two_m)]
        else:
            # "--m=-1/2": argparse takes a separate "-1/2" for an option name.
            pair_args = ["--l", _halfint_text(two_l), f"--m={_halfint_text(two_m)}"]
        argv = ["eval", *pair_args, "--theta", repr(theta), "--phi", repr(phi), "--normalized"]
        return Op(argv=tuple(argv), two_l=two_l, two_m=two_m, theta=theta, phi=phi,
                  normalized=True)

    def execute(self, op: Op) -> tuple[int, str]:
        return call_cli(op.argv)

    def points(self, op: Op) -> int:
        return 1

    def cases(self, op: Op, out: str) -> int:
        return 0

    def check(self, op: Op, out: str) -> None:
        fields = out.rstrip("\n").split(",")
        if len(fields) != 2 or out.count("\n") != 1:
            raise WrongOutput(f"{op.argv}: expected one 're,im' line, got {out!r}")
        got = complex(_parse_float(fields[0]), _parse_float(fields[1]))
        want = Harmonic(op.two_l, op.two_m, True)(op.theta, op.phi)
        tol = REL_TOL * max(abs(want), POINT_SCALE)
        if not (_close(got.real, want.real, tol) and _close(got.imag, want.imag, tol)):
            raise WrongOutput(f"{op.argv}: got {got!r}, want {want!r}")


SUITES = ("tables", "ode-exact", "ode-numeric", "recurrence", "orthogonality", "norms",
          "periodicity")
# Residual strings of these suites are formatted floats, so only their
# pass status and case count are compared, not their bytes.
FLOAT_SUITES = ("ode-numeric", "periodicity")
TABLES = tuple(f"{kind}/{fmt}" for kind in ("legendre", "norms")
               for fmt in ("text", "csv", "json", "latex"))


class ExactReports:
    """The 7 verify suites and the 8 table renderings, shuffled per pass.

    Exact arithmetic and verification.  Every output except the two
    float suites must be byte-identical to the digests recorded from
    the seed implementation.
    """

    name = "exact_reports"

    def __init__(self, params: dict, seed: int):
        self.params = params
        self.excluded = Counter()  # no known defect
        rng = random.Random(seed)
        ops = [Op(suite=s) for s in SUITES]
        for table in TABLES:
            kind, fmt = table.split("/")
            ops.append(Op(table=table, argv=("table", kind, "--format", fmt,
                                             "--two-m-max", str(params["two_m_max"]),
                                             "--i-max", str(params["i_max"]))))
        self.block = len(ops)  # a run measures whole passes
        self.ops = []
        while len(self.ops) < params["ops"]:
            rng.shuffle(ops)
            self.ops += ops
        self.expected: dict | None = None

    def execute(self, op: Op) -> tuple[int, str]:
        if op.suite:
            return 0, qsharm.run_suite(op.suite, self.params["two_l_max"]).to_json()
        return call_cli(op.argv)

    def points(self, op: Op) -> int:
        return 0

    def cases(self, op: Op, out: str) -> int:
        return len(json.loads(out)["cases"]) if op.suite else 0

    def check(self, op: Op, out: str) -> None:
        if self.expected is None:
            self.expected = load_digests(self.params)
        digest = hashlib.sha256(out.encode()).hexdigest()
        if op.table:
            if digest != self.expected["tables"][op.table]:
                raise WrongOutput(f"table {op.table}: output differs from the recorded one")
            return
        want = self.expected["suites"][op.suite]
        try:
            doc = json.loads(out)
            statuses = [c["status"] for c in doc["cases"]]
            failed = doc["fail_count"]
        except (ValueError, KeyError, TypeError):
            raise WrongOutput(f"suite {op.suite}: not a verify report") from None
        if failed != 0 or len(statuses) != want["cases"] or any(s != "pass" for s in statuses):
            raise WrongOutput(f"suite {op.suite}: {failed} failed, {len(statuses)} cases, "
                              f"want {want['cases']} passing")
        if want["sha256"] is not None and digest != want["sha256"]:
            raise WrongOutput(f"suite {op.suite}: report differs from the recorded one")


WORKLOADS = {w.name: w for w in (GridSample, PointScatter, ExactReports)}


def digest_key(params: dict) -> str:
    return "two_l_max={two_l_max},two_m_max={two_m_max},i_max={i_max}".format(**params)


def load_digests(params: dict) -> dict:
    with open(DIGESTS_PATH, encoding="utf-8") as fh:
        return json.load(fh)[digest_key(params)]


def record_digests(params: dict) -> dict:
    """Digests and case counts of the exact outputs, as stored in digests.json."""
    wl = ExactReports(dict(params, ops=1), seed=0)
    suites, tables = {}, {}
    for op in wl.ops:
        rc, out = wl.execute(op)
        if rc != 0:
            raise RuntimeError(f"{op} exited with {rc}")
        digest = hashlib.sha256(out.encode()).hexdigest()
        if op.suite:
            suites[op.suite] = {"cases": wl.cases(op, out),
                                "sha256": None if op.suite in FLOAT_SUITES else digest}
        else:
            tables[op.table] = digest
    return {"suites": dict(sorted(suites.items())), "tables": dict(sorted(tables.items()))}
