"""Independent oracles and property suites.

The series construction is cross-checked against machinery that shares
none of its code path:

* a three-term recurrence in the degree, seeded at the bottom of each
  order family, whose output must be exactly proportional to the series
  output (the two conventions differ by scale and sign only);
* the downward form of the coefficient recursion, anchored at the
  leading coefficient, which must regenerate the upward coefficients
  exactly;
* exact symbolic substitution into the defining equation;
* the moment-sum integral of P^2, which must equal the closed-form norm;
* golden reference tables, exact orthogonality, norm structure,
  floating-point finite differences and quadrature, and phi
  periodicity.

``run_suite`` packages each family of checks as a deterministic,
machine-readable report.
"""

from __future__ import annotations

import enum
import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator

from . import golden
from .evaluate import _ode_stencil, eval_phi, ode_residual_exact
from .norms import beta_moment, inner_product, norm_theta
from .numerics import HalfInt
from .series import (
    AllZero,
    InvalidPair,
    LegendreFunction,
    eigenvalue,
    legendre_function,
    poly_trim,
    series_coefficients,
)


class NotProportional(ValueError):
    """No single rational scale maps one coefficient vector onto the other."""


class Suite(enum.Enum):
    TABLES = "tables"
    ODE_EXACT = "ode-exact"
    ODE_NUMERIC = "ode-numeric"
    RECURRENCE = "recurrence"
    ORTHOGONALITY = "orthogonality"
    NORMS = "norms"
    PERIODICITY = "periodicity"


SUITE_NAMES = tuple(s.value for s in Suite)


@dataclass(frozen=True)
class CaseResult:
    id: str
    passed: bool
    residual: str


@dataclass(frozen=True)
class VerificationReport:
    suite: Suite
    two_l_max: int
    i_max: int
    cases: tuple[CaseResult, ...]

    @property
    def pass_count(self) -> int:
        return sum(1 for c in self.cases if c.passed)

    @property
    def fail_count(self) -> int:
        return sum(1 for c in self.cases if not c.passed)

    def to_json_dict(self) -> dict:
        return {
            "suite": self.suite.value,
            "bounds": {"two_l_max": self.two_l_max, "i_max": self.i_max},
            "cases": [
                {"id": c.id, "status": "pass" if c.passed else "fail", "residual": c.residual}
                for c in self.cases
            ],
            "pass_count": self.pass_count,
            "fail_count": self.fail_count,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True, separators=(",", ":"))


# ---------------------------------------------------------------------------
# Oracles
# ---------------------------------------------------------------------------

def recurrence_family(m_abs: HalfInt, l_max: HalfInt) -> list[LegendreFunction]:
    """Generate the order-|m| family by the three-term degree recurrence.

    Seeds are the polynomial parts 1 and (2|m|+1)x; successive degrees
    follow (l-|m|+1) R_{l+1} = (2l+1) x R_l - (l+|m|) R_{l-1}.  All
    three multipliers are verified to be integers, which holds on the
    half-integer lattice as well as the integer one.
    """
    if m_abs.twice < 0:
        raise InvalidPair("order must be non-negative")
    if (l_max.twice - m_abs.twice) % 2 != 0 or l_max < m_abs:
        raise InvalidPair(f"l_max={l_max} unreachable from |m|={m_abs}")

    def entry(i: int, coeffs: list[Fraction]) -> LegendreFunction:
        return LegendreFunction(m_abs=m_abs, degree=i, coeffs=tuple(coeffs))

    steps = (l_max.twice - m_abs.twice) // 2
    family = [entry(0, [Fraction(1)])]
    if steps >= 1:
        family.append(entry(1, [Fraction(0), Fraction(m_abs.twice + 1)]))
    for i in range(1, steps):
        l = m_abs + HalfInt(2 * i)
        c_next = l.as_fraction() - m_abs.as_fraction() + 1
        c_mid = 2 * l.as_fraction() + 1
        c_prev = l.as_fraction() + m_abs.as_fraction()
        for c in (c_next, c_mid, c_prev):
            if c.denominator != 1:
                raise ArithmeticError(f"non-integer recurrence multiplier {c}")
        prev, mid = family[i - 1].coeffs, family[i].coeffs
        shifted = [Fraction(0)] + [c_mid * c for c in mid]
        nxt = [
            (shifted[k] - (c_prev * prev[k] if k < len(prev) else 0)) / c_next
            for k in range(len(shifted))
        ]
        family.append(entry(i + 1, nxt))
    return family


def downward_coefficients(m_abs: HalfInt, i: int, leading: Fraction) -> list[Fraction]:
    """Coefficients regenerated from the top: a_k from a_{k+2}.

    Anchored at a_i = leading and run down to a_0 or a_1; the inverse of
    the upward construction, used as a consistency oracle.
    """
    tm = m_abs.twice
    coeffs = [Fraction(0)] * (i + 1)
    coeffs[i] = Fraction(leading)
    for k in range(i - 2, -1, -2):
        ratio = Fraction(-(k + 1) * (k + 2), (i - k) * (tm + i + k + 1))
        coeffs[k] = ratio * coeffs[k + 2]
    return coeffs


def proportionality_check(p, q) -> Fraction:
    """The unique rational c with p = c * q, or NotProportional."""
    p = poly_trim([Fraction(c) for c in p])
    q = poly_trim([Fraction(c) for c in q])
    if not p or not q:
        raise AllZero("proportionality needs nonzero vectors")
    if len(p) != len(q):
        raise NotProportional(f"degrees differ: {len(p) - 1} vs {len(q) - 1}")
    scale = p[-1] / q[-1]
    for pk, qk in zip(p, q):
        if pk != scale * qk:
            raise NotProportional(f"no single scale: {p} vs {q}")
    return scale


# ---------------------------------------------------------------------------
# Suite runner
# ---------------------------------------------------------------------------

def lattice(two_l_max: int) -> Iterator[tuple[HalfInt, int]]:
    """All (|m|, degree) with 2l <= two_l_max, ascending (2|m|, i)."""
    for two_m in range(two_l_max + 1):
        for i in range((two_l_max - two_m) // 2 + 1):
            yield HalfInt(two_m), i


def _suite_tables(two_l_max: int) -> list[CaseResult]:
    cases = []
    points = [
        (m_abs, i)
        for m_abs, i in lattice(two_l_max)
        if m_abs.twice <= golden.TABLE_TWO_M_MAX and i <= golden.TABLE_I_MAX
    ]
    for m_abs, i in points:
        f = legendre_function(m_abs + HalfInt(2 * i), m_abs)
        expect = [Fraction(c) for c in golden.reference_polynomial(m_abs.twice, i)]
        ok = list(f.coeffs) == expect
        desc = "exact match" if ok else f"got {list(f.coeffs)}, want {expect}"
        cases.append(CaseResult(f"legendre/2m={m_abs.twice}/i={i}", ok, desc))
    for m_abs, i in points:
        f = legendre_function(m_abs + HalfInt(2 * i), m_abs)
        got = norm_theta(f)
        want = golden.reference_norm(m_abs.twice, i)
        ok = got == want
        desc = "exact match" if ok else f"got {got}, want {want}"
        cases.append(CaseResult(f"norm/2m={m_abs.twice}/i={i}", ok, desc))
    return cases


def _suite_ode_exact(two_l_max: int) -> list[CaseResult]:
    cases = []
    for m_abs, i in lattice(two_l_max):
        f = legendre_function(m_abs + HalfInt(2 * i), m_abs)
        residual = ode_residual_exact(f)
        ok = residual == []
        desc = "zero polynomial" if ok else f"nonzero residual {residual}"
        cases.append(CaseResult(f"2m={m_abs.twice}/i={i}", ok, desc))
    return cases


_NUMERIC_THETAS = (0.4, 0.9, 1.4, 1.9, 2.4)
_NUMERIC_STEP = 1e-4


def _suite_ode_numeric(two_l_max: int) -> list[CaseResult]:
    cases = []
    for m_abs, i in lattice(two_l_max):
        f = legendre_function(m_abs + HalfInt(2 * i), m_abs)
        a_val = float(eigenvalue(m_abs, i))
        worst = 0.0
        worst_tol = 0.0
        ok = True
        for theta in _NUMERIC_THETAS:
            r, values = _ode_stencil(f, theta, _NUMERIC_STEP)
            r = abs(r)
            tol = 1e-6 * (1.0 + a_val) ** 2 * max(1.0, *map(abs, values))
            if r > worst:
                worst, worst_tol = r, tol
            if r > tol:
                ok = False
        desc = f"max |r|={worst:.3e} (tol {worst_tol:.3e})"
        cases.append(CaseResult(f"2m={m_abs.twice}/i={i}", ok, desc))
    return cases


def _suite_recurrence(two_l_max: int) -> list[CaseResult]:
    cases = []
    for two_m in range(two_l_max + 1):
        m_abs = HalfInt(two_m)
        l_top = HalfInt(two_m + 2 * ((two_l_max - two_m) // 2))
        try:
            family = recurrence_family(m_abs, l_top)
            cases.append(
                CaseResult(f"integral-coefficients/2m={two_m}", True, "all multipliers integer")
            )
        except ArithmeticError as exc:
            cases.append(CaseResult(f"integral-coefficients/2m={two_m}", False, str(exc)))
            continue
        for i, entry in enumerate(family):
            f = legendre_function(m_abs + HalfInt(2 * i), m_abs)
            try:
                scale = proportionality_check(list(f.coeffs), list(entry.coeffs))
                cases.append(
                    CaseResult(f"proportional/2m={two_m}/i={i}", True, f"scale {scale}")
                )
            except (NotProportional, AllZero) as exc:
                cases.append(CaseResult(f"proportional/2m={two_m}/i={i}", False, str(exc)))
    for m_abs, i in lattice(two_l_max):
        up = series_coefficients(m_abs, i)
        down = downward_coefficients(m_abs, i, up[i])
        ok = up == down
        desc = "upward == downward" if ok else f"up {up} vs down {down}"
        cases.append(CaseResult(f"downward/2m={m_abs.twice}/i={i}", ok, desc))
    return cases


def _suite_orthogonality(two_l_max: int) -> list[CaseResult]:
    cases = []
    for two_m in range(two_l_max + 1):
        m_abs = HalfInt(two_m)
        i_top = (two_l_max - two_m) // 2
        family = [legendre_function(m_abs + HalfInt(2 * i), m_abs) for i in range(i_top + 1)]
        for i, f in enumerate(family):
            for j in range(i + 1, i_top + 1):
                value = inner_product(f, family[j])
                ok = value.is_zero
                desc = "exact zero" if ok else f"nonzero {value}"
                cases.append(CaseResult(f"2m={two_m}/i={i}/j={j}", ok, desc))
    return cases


def _suite_norms(two_l_max: int) -> list[CaseResult]:
    cases = []
    for m_abs, i in lattice(two_l_max):
        f = legendre_function(m_abs + HalfInt(2 * i), m_abs)
        value = norm_theta(f)
        problems = []
        if value.pi_exponent != m_abs.twice % 2:
            problems.append(f"pi exponent {value.pi_exponent}")
        if not value.q > 0:
            problems.append(f"non-positive {value}")
        if inner_product(f, f) != value:
            problems.append("closed form differs from the moment sum")
        ok = not problems
        desc = "structure ok" if ok else "; ".join(problems)
        cases.append(CaseResult(f"structure/2m={m_abs.twice}/i={i}", ok, desc))
    for two_m in range(two_l_max + 1):
        m_abs = HalfInt(two_m)
        k_top = two_l_max // 2 + 2
        qs = [beta_moment(m_abs, k).q for k in range(k_top + 1)]
        exact_ok = all(qs[k] < qs[k - 1] for k in range(1, len(qs)))
        desc = "strictly decreasing" if exact_ok else f"non-decreasing at {qs}"
        cases.append(CaseResult(f"moments-decreasing/2m={two_m}", exact_ok, desc))
    return cases


_PERIODICITY_TRIALS = 100
_PERIODICITY_TOL = 1e-12


def _suite_periodicity(two_l_max: int) -> list[CaseResult]:
    cases = []
    for two_m in range(1, two_l_max + 1, 2):
        for signed in (two_m, -two_m):
            m = HalfInt(signed)
            rng = random.Random(9000 + signed)
            worst = 0.0
            for _ in range(_PERIODICITY_TRIALS):
                phi = rng.uniform(0.0, 4 * math.pi)
                base = eval_phi(m, phi)
                anti = abs(eval_phi(m, phi + 2 * math.pi) + base)
                full = abs(eval_phi(m, phi + 4 * math.pi) - base)
                worst = max(worst, anti, full)
            ok = worst < _PERIODICITY_TOL
            cases.append(
                CaseResult(f"2m={signed}", ok, f"max deviation {worst:.3e}")
            )
    return cases


_SUITE_IMPL = {
    Suite.TABLES: _suite_tables,
    Suite.ODE_EXACT: _suite_ode_exact,
    Suite.ODE_NUMERIC: _suite_ode_numeric,
    Suite.RECURRENCE: _suite_recurrence,
    Suite.ORTHOGONALITY: _suite_orthogonality,
    Suite.NORMS: _suite_norms,
    Suite.PERIODICITY: _suite_periodicity,
}

DEFAULT_TWO_L_MAX = 25


def run_suite(suite: Suite | str, two_l_max: int = DEFAULT_TWO_L_MAX) -> VerificationReport:
    """Run one property suite over all valid (l, m) with 2l <= two_l_max.

    Case ordering is deterministic (ascending doubled order, then
    degree), so reports for equal bounds serialize byte-identically.
    """
    suite = Suite(suite)
    if two_l_max < 0:
        raise ValueError("two_l_max must be non-negative")
    cases = _SUITE_IMPL[suite](two_l_max)
    if not cases:
        raise ValueError(f"suite {suite.value} has no cases below 2l={two_l_max}")
    return VerificationReport(
        suite=suite,
        two_l_max=two_l_max,
        i_max=two_l_max // 2,
        cases=tuple(cases),
    )
