"""Exact normalization and inner-product integrals.

Every integral here reduces to even moments of the weight (1-x^2)^|m|
on [-1, 1]:

    M(m, k) = integral of x^(2k) (1-x^2)^|m| dx

computed by the exact Wallis-style reductions

    M(m, k) = M(m, k-1) * (2k-1) / (2|m| + 2k + 1)
    M(m, 0) = M(m-1, 0) * 2|m| / (2|m| + 1)

from the bases M(0, 0) = 2 and M(1/2, 0) = pi/2.  Each moment and each
norm is a rational number for integer |m| and a rational multiple of pi
for half-odd-integer |m|; nothing is ever evaluated in floating point.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple

from .numerics import HalfInt, PiScaled
from .series import LegendreFunction, poly_mul


class MixedM(ValueError):
    """Inner product requested between functions of different order |m|."""


@lru_cache(maxsize=None)
def _moment_q(twice_m: int, k: int) -> Fraction:
    """Rational part of M(m, k); the pi factor is twice_m's parity."""
    if k > 0:
        return _moment_q(twice_m, k - 1) * Fraction(2 * k - 1, twice_m + 2 * k + 1)
    if twice_m == 0:
        return Fraction(2)
    if twice_m == 1:
        return Fraction(1, 2)
    return _moment_q(twice_m - 2, 0) * Fraction(twice_m, twice_m + 1)


def beta_moment(m_abs: HalfInt, k: int) -> PiScaled:
    """Exact even moment M(m, k) of the weight (1-x^2)^|m| on [-1, 1]."""
    if m_abs.twice < 0:
        raise ValueError("order must be non-negative")
    if k < 0:
        raise ValueError("moment index must be non-negative")
    return PiScaled(_moment_q(m_abs.twice, k), m_abs.twice % 2)


def _even_moment_sum(m_abs: HalfInt, product: list[Fraction]) -> PiScaled:
    """Integrate a polynomial against the weight via its even coefficients.

    Odd powers integrate to zero by symmetry, so only even coefficients
    contribute.
    """
    total = PiScaled(0)
    for power, c in enumerate(product):
        if c == 0 or power % 2 == 1:
            continue
        total = total + beta_moment(m_abs, power // 2).mul_rational(c)
    return total


def norm_theta(f: LegendreFunction) -> PiScaled:
    """Theta factor of the squared norm: integral of P^2 over [-1, 1]."""
    return _even_moment_sum(f.m_abs, poly_mul(list(f.coeffs), list(f.coeffs)))


def inner_product(f: LegendreFunction, g: LegendreFunction) -> PiScaled:
    """Exact integral of f*g over [-1, 1] for functions of equal order.

    Zero (exactly) when the polynomial degrees have opposite parity, and
    for distinct degrees of equal parity by orthogonality.
    """
    if f.m_abs != g.m_abs:
        raise MixedM(f"orders differ: |m|={f.m_abs} vs |m|={g.m_abs}")
    return _even_moment_sum(f.m_abs, poly_mul(list(f.coeffs), list(g.coeffs)))


class FullNorm(NamedTuple):
    """Squared norm N^2 of Y = Theta * Phi, kept as separate factors.

    The product would need a pi^2 term for half-odd-integer |m|, so the
    phi factor (2*pi, or 4*pi on the doubled phi range) and the theta
    factor are reported side by side.
    """

    phi_factor: PiScaled
    theta_factor: PiScaled


def phi_factor_over_pi(m: HalfInt, phi_range: str) -> int:
    """Length of the phi normalization range, in units of pi.

    The default range is [0, 2pi) for every m; "4pi" doubles it for
    half-odd-integer m, whose natural domain is the double circle.
    """
    if phi_range not in ("2pi", "4pi"):
        raise ValueError(f"phi_range must be '2pi' or '4pi', got {phi_range!r}")
    return 4 if phi_range == "4pi" and m.is_half_odd else 2


def norm_full(f: LegendreFunction, phi_range: str = "2pi") -> FullNorm:
    """Full squared norm of the harmonic built on f; |Phi|^2 gives phi_factor_over_pi * pi."""
    phi_factor = PiScaled(phi_factor_over_pi(f.m_abs, phi_range), 1)
    return FullNorm(phi_factor=phi_factor, theta_factor=norm_theta(f))
