"""Exact normalization and inner-product integrals.

The polynomial factor u of P = (1-x^2)^(|m|/2) u is, up to scale, the
Gegenbauer polynomial C_i^(lambda) with lambda = |m| + 1/2, so the theta
norm has a closed form (DLMF Table 18.3.1).  With i = l - |m| and a_i
the leading coefficient of u, the Gamma(lambda)^2 and
k_i = 2^i (lambda)_i / i! of DLMF's h_i cancel against a_i, leaving

    integral of P^2 over [-1, 1] = a_i^2 (l-|m|)! (l+|m|)! c / ((2l+1) ((2l-1)!!)^2),

c = 2 for integer |m| and pi for half-odd-integer |m|.  Inner products,
and the ``norms`` suite's independent check of that formula, integrate
term by term against the even moments

    M(m, k) = integral of x^(2k) (1-x^2)^|m| dx

computed by the exact Wallis-style reductions

    M(m, k) = M(m, k-1) * (2k-1) / (2|m| + 2k + 1)
    M(m, 0) = M(m-1, 0) * 2|m| / (2|m| + 1)

from the bases M(0, 0) = 2 and M(1/2, 0) = pi/2, each run upward as one
loop, so no result depends on recursion depth or on a cache.  The loop
runs on integers: the moment sum keeps one running numerator over the
product of the reduction denominators so far and divides once at the
end.  Each moment and each norm is a rational number for integer |m|
and a rational multiple of pi for half-odd-integer |m|; nothing is ever
evaluated in floating point.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import count, islice
from math import factorial, prod
from typing import Iterator

from .numerics import HalfInt, PiScaled
from .series import LegendreFunction, _convolve, _numerators


class MixedM(ValueError):
    """Inner product requested between functions of different order |m|."""


def _moment_steps(twice_m: int) -> Iterator[tuple[int, int]]:
    """Integer pairs (n_k, d_k): M(m, k) = n_k / (d_0 d_1 ... d_k), times pi for odd twice_m."""
    num, den = (1, 2) if twice_m % 2 else (2, 1)
    for s in range(twice_m, 1, -2):
        num, den = num * s, den * (s + 1)
    for k in count(1):
        yield num, den
        num, den = num * (2 * k - 1), twice_m + 2 * k + 1


def beta_moment(m_abs: HalfInt, k: int) -> PiScaled:
    """Exact even moment M(m, k) of the weight (1-x^2)^|m| on [-1, 1]."""
    if m_abs.twice < 0:
        raise ValueError("order must be non-negative")
    if k < 0:
        raise ValueError("moment index must be non-negative")
    total_den = 1
    for num, den in islice(_moment_steps(m_abs.twice), k + 1):
        total_den *= den
    return PiScaled(Fraction(num, total_den), m_abs.twice % 2)


def norm_theta(f: LegendreFunction) -> PiScaled:
    """Theta factor of the squared norm: integral of P^2 over [-1, 1]."""
    i, tm = f.degree, f.m_abs.twice
    q = f.coeffs[i] ** 2 * factorial(i) * factorial(i + tm) * (2 - tm % 2)
    return PiScaled(q / ((2 * i + tm + 1) * prod(range(tm + 2 * i - 1, 0, -2)) ** 2), tm % 2)


def inner_product(f: LegendreFunction, g: LegendreFunction) -> PiScaled:
    """Exact integral of f*g over [-1, 1] for functions of equal order.

    Zero (exactly) when the polynomial degrees have opposite parity, and
    for distinct degrees of equal parity by orthogonality.  Odd powers of
    the product integrate to zero by symmetry, so only its even
    coefficients meet the moments, which run upward alongside them.
    """
    if f.m_abs != g.m_abs:
        raise MixedM(f"orders differ: |m|={f.m_abs} vs |m|={g.m_abs}")
    (a, da), (b, db) = _numerators(f.coeffs), _numerators(g.coeffs)
    total, total_den = 0, da * db
    for c, (num, den) in zip(_convolve(a, b)[::2], _moment_steps(f.m_abs.twice)):
        total, total_den = total * den + c * num, total_den * den
    return PiScaled(Fraction(total, total_den), f.m_abs.twice % 2)


def phi_factor_over_pi(m: HalfInt, phi_range: str) -> int:
    """Length of the phi normalization range, in units of pi.

    The default range is [0, 2pi) for every m; "4pi" doubles it for
    half-odd-integer m, whose natural domain is the double circle.
    """
    if phi_range not in ("2pi", "4pi"):
        raise ValueError(f"phi_range must be '2pi' or '4pi', got {phi_range!r}")
    return 4 if phi_range == "4pi" and m.is_half_odd else 2
