"""Floating-point evaluation of Theta, Phi and the full harmonic.

Exactness is dropped only at this boundary: polynomial evaluation runs
an integer Horner pass on the numerator and denominator of the (exactly
representable) float cos(theta), ends in one correctly rounded division,
and applies a single power of sin(theta).
Phi is exp(i*m*phi) with phi reduced modulo its period, which is 4*pi
for half-odd-integer m (single-valued on the double circle) and 2*pi
for integer m.

theta lives on [0, pi] and is never reduced; outside values are domain
errors, not wrapped angles.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .norms import norm_theta, phi_factor_over_pi
from .numerics import HalfInt, PiScaled
from .series import (
    LegendreFunction,
    QuantumPair,
    _numerators,
    eigenvalue,
    legendre_function,
    poly_eval,
    poly_trim,
)

# Numeric residuals blow up inside this many steps of the interval ends,
# where half-odd-integer orders have unbounded theta-gradients.
ENDPOINT_EXCLUSION_STEPS = 10


class DomainError(ValueError):
    """Angle outside the domain of the requested evaluation."""


def phi_period(m: HalfInt) -> float:
    """Period of exp(i*m*phi): 4*pi when m is half-odd-integer, else 2*pi."""
    return 4 * math.pi if m.is_half_odd else 2 * math.pi


def eval_theta(f: LegendreFunction, theta: float) -> float:
    """Theta factor sin(theta)^|m| * poly(cos(theta)) at a point of [0, pi]."""
    if not 0.0 <= theta <= math.pi:
        raise DomainError(f"theta={theta} outside [0, pi]")
    poly = float(poly_eval(f.coeffs, math.cos(theta)))
    return math.sin(theta) ** (f.m_abs.twice / 2) * poly


def eval_phi(m: HalfInt, phi: float) -> complex:
    """Phi factor exp(i*m*phi); unit modulus for every finite phi."""
    if not math.isfinite(phi):
        raise DomainError(f"phi={phi} is not finite")
    reduced = phi % phi_period(m) if m else 0.0
    return cmath.exp(1j * (m.twice / 2) * reduced)


@dataclass(frozen=True)
class QuasiHarmonic:
    """Y(theta, phi) = Theta(theta) * exp(i*m*phi) for one lattice point.

    ``norm`` carries the exact theta factor of the squared norm when the
    harmonic may be evaluated unit-normalized; the phi factor is folded
    in as a float at evaluation time.
    """

    pair: QuantumPair
    theta_part: LegendreFunction
    norm: Optional[PiScaled] = None


def harmonic(l: HalfInt, m: HalfInt) -> QuasiHarmonic:
    """Build the harmonic for (l, m), including its exact theta norm."""
    pair = QuantumPair(l=l, m=m)
    f = legendre_function(l, m)
    return QuasiHarmonic(pair=pair, theta_part=f, norm=norm_theta(f))


def eval_grid(h: QuasiHarmonic, thetas: list[float], phis: list[float],
              unit_normalized: bool = False, phi_range: str = "2pi") -> list[list[complex]]:
    """Y on the theta-row x phi-column grid, optionally unit-normalized.

    Y separates as Theta(theta) * Phi(phi), so a grid costs one exact
    Theta pass per row and one Phi per column.  Unit normalization
    divides by sqrt(phi_factor * norm_theta); see phi_factor_over_pi.
    """
    rows = [eval_theta(h.theta_part, theta) for theta in thetas]
    cols = [eval_phi(h.pair.m, phi) for phi in phis]
    if not unit_normalized:
        return [[t * p for p in cols] for t in rows]
    if h.norm is None:
        raise ValueError("harmonic carries no norm; build it with harmonic()")
    scale = math.sqrt(phi_factor_over_pi(h.pair.m, phi_range) * math.pi * float(h.norm))
    return [[t * p / scale for p in cols] for t in rows]


def eval_harmonic(h: QuasiHarmonic, theta: float, phi: float,
                  unit_normalized: bool = False, phi_range: str = "2pi") -> complex:
    """Evaluate Theta(theta) * Phi(phi) at one point: the 1x1 eval_grid."""
    return eval_grid(h, [theta], [phi], unit_normalized, phi_range)[0][0]


def ode_residual_exact(f: LegendreFunction) -> list[Fraction]:
    """Symbolic residual of the polynomial-factor equation.

    Substitutes the polynomial u into

        (1-x^2) u'' - 2(|m|+1) x u' + [A - |m|(|m|+1)] u

    with A = eigenvalue(|m|, degree) and returns the residual polynomial
    (trimmed; correctly constructed functions give []).  It substitutes
    term by term on the integer numerators u_k of u over their common
    denominator D: with t = 2|m| and the integer s = 4A - t(t+2),
    coefficient k of the residual is

        [4(k+2)(k+1) u_{k+2} - (4k(k+t+1) - s) u_k] / (4D).
    """
    u, den = _numerators(f.coeffs)
    tm = f.m_abs.twice
    s = int(4 * eigenvalue(f.m_abs, f.degree)) - tm * (tm + 2)
    u += [0, 0]
    return poly_trim([
        Fraction(4 * (k + 2) * (k + 1) * u[k + 2] - (4 * k * (k + tm + 1) - s) * u[k], 4 * den)
        for k in range(len(u) - 2)
    ])


def _ode_stencil(f: LegendreFunction, theta: float,
                 step: float) -> tuple[float, tuple[float, float, float]]:
    """ode_residual_numeric of f at one angle, with the three Theta values it used."""
    if step <= 0:
        raise ValueError("step must be positive")
    margin = ENDPOINT_EXCLUSION_STEPS * step
    if not margin <= theta <= math.pi - margin:
        raise DomainError(
            f"theta={theta} within the endpoint exclusion zone (margin {margin})"
        )
    t_minus = eval_theta(f, theta - step)
    t_mid = eval_theta(f, theta)
    t_plus = eval_theta(f, theta + step)
    d1 = (t_plus - t_minus) / (2 * step)
    d2 = (t_plus - 2 * t_mid + t_minus) / (step * step)
    a_val = float(eigenvalue(f.m_abs, f.degree))
    m_sq = (f.m_abs.twice / 2) ** 2
    s = math.sin(theta)
    residual = d2 + (math.cos(theta) / s) * d1 + (a_val - m_sq / (s * s)) * t_mid
    return residual, (t_minus, t_mid, t_plus)


def ode_residual_numeric(h: QuasiHarmonic, theta: float, step: float) -> float:
    """Central-difference residual of the theta equation at one angle.

    Checks Theta'' + cot(theta) Theta' + [A - m^2/sin^2(theta)] Theta,
    which is O(step^2) times the local derivative scale for a true
    eigenfunction.  Angles within ENDPOINT_EXCLUSION_STEPS * step of the
    interval ends are rejected: half-odd-integer gradients diverge there.
    """
    return _ode_stencil(h.theta_part, theta, step)[0]


def quadrature_norm(f: LegendreFunction, nodes: int) -> float:
    """Composite-Simpson estimate of the squared theta norm.

    Integrates Theta(theta)^2 sin(theta) over [0, pi] on ``nodes`` equal
    subintervals, with Theta from eval_theta, so each node value is the
    exact Horner sum rounded once and does not cancel at large degree.
    The theta-form integrand is endpoint-smooth for every |m|, unlike
    the x-form whose weight has singular derivatives at +-1 for
    half-odd-integer orders.
    """
    if nodes < 16:
        raise ValueError("need at least 16 subintervals")
    if nodes % 2 != 0:
        raise ValueError("composite Simpson needs an even subinterval count")

    def integrand(t: float) -> float:
        return math.sin(t) * eval_theta(f, t) ** 2

    h = math.pi / nodes
    total = integrand(0.0) + integrand(math.pi)
    total += 4 * sum(integrand(j * h) for j in range(1, nodes, 2))
    total += 2 * sum(integrand(j * h) for j in range(2, nodes, 2))
    return total * h / 3
