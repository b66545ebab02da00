"""Independent reference values of Y_l^m for checking qsharm's output.

qsharm builds the polynomial factor by the upward series recursion and
its norm from Wallis moments.  The reference here uses neither: the
polynomial factor of P_l^{|m|} is proportional to the Gegenbauer
polynomial C_i^(lam) with lam = |m| + 1/2 and i = l - |m|, whose
coefficients and weighted norm have closed forms (DLMF 18.5.10 and
18.3, Table 18.3.1):

    C_i(x) = sum_k (-1)^k (lam)_{i-k} / (k! (i-2k)!) (2x)^{i-2k}
    int_{-1}^{1} (1-x^2)^{lam-1/2} C_i(x)^2 dx
        = pi 2^{1-2 lam} Gamma(i + 2 lam) / (i! (i + lam) Gamma(lam)^2)

The only convention shared with qsharm is the documented one of the
unnormalized tables: the lowest nonzero coefficient of the polynomial
factor equals ``family_scale(i)``, the double factorial of the largest
odd number <= i.  All polynomial arithmetic is exact; floats appear
only in sin(theta), exp(i m phi) and the final conversion.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction


def gegenbauer_coefficients(twice_m: int, i: int) -> list[Fraction]:
    """Coefficients of C_i^(lam), lam = (twice_m + 1) / 2, lowest power first."""
    lam = Fraction(twice_m + 1, 2)
    poch = [Fraction(1)]
    for j in range(i):
        poch.append(poch[-1] * (lam + j))
    coeffs = [Fraction(0)] * (i + 1)
    for k in range(i // 2 + 1):
        power = i - 2 * k
        coeffs[power] = (-1) ** k * poch[i - k] * 2 ** power / (
            math.factorial(k) * math.factorial(power)
        )
    return coeffs


def gegenbauer_norm(twice_m: int, i: int) -> tuple[Fraction, int]:
    """Weighted squared norm of C_i^(lam) as (q, e), meaning q * pi**e."""
    lam = Fraction(twice_m + 1, 2)
    base = Fraction(math.factorial(i + twice_m), 2 ** twice_m * math.factorial(i)) / (i + lam)
    if twice_m % 2 == 0:
        # lam = a + 1/2: Gamma(lam)^2 = ((2a)! / (4^a a!))^2 * pi cancels the pi.
        a = twice_m // 2
        gamma_sq = Fraction(math.factorial(2 * a), 4 ** a * math.factorial(a)) ** 2
        return base / gamma_sq, 0
    gamma_sq = math.factorial(int(lam) - 1) ** 2
    return base / gamma_sq, 1


def family_scale(i: int) -> int:
    """The lowest nonzero coefficient of qsharm's unnormalized polynomial factor."""
    return math.prod(range(i if i % 2 else i - 1, 0, -2))


def lowest_coefficient(twice_m: int, i: int) -> Fraction:
    """The lowest nonzero coefficient of C_i^(lam), without building the others."""
    lam = Fraction(twice_m + 1, 2)
    k, power = i // 2, i % 2
    poch = math.prod((lam + j for j in range(i - k)), start=Fraction(1))
    return (-1) ** k * poch * 2 ** power / math.factorial(k)


def norm_overflows(two_l: int, two_m: int) -> bool:
    """Whether qsharm's exact theta norm q * pi**e has q beyond float range.

    qsharm then raises ``OverflowError`` when it turns the norm into a
    float (from 2l = 344, for m near 0).
    """
    twice_m = abs(two_m)
    i = (two_l - twice_m) // 2
    q = gegenbauer_norm(twice_m, i)[0] * (family_scale(i) / lowest_coefficient(twice_m, i)) ** 2
    try:
        q.numerator / q.denominator
    except OverflowError:
        return True
    return False


def _horner(coeffs: list[Fraction], x: Fraction) -> Fraction:
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


class Harmonic:
    """Reference Y for one (2l, 2m) pair, built once and evaluated at many points."""

    def __init__(self, two_l: int, two_m: int, normalized: bool, phi_range: str = "2pi"):
        twice_m = abs(two_m)
        self.i = (two_l - twice_m) // 2
        self.twice_m = twice_m
        self.m = two_m / 2
        self.normalized = normalized
        self.coeffs = gegenbauer_coefficients(twice_m, self.i)
        self.sign_scale = Fraction(family_scale(self.i), self.coeffs[self.i % 2])
        if normalized:
            self.norm_q, pi_power = gegenbauer_norm(twice_m, self.i)
            doubled = phi_range == "4pi" and twice_m % 2 == 1
            self.float_scale = 1.0 / math.sqrt((4 if doubled else 2) * math.pi ** (1 + pi_power))

    def theta_factor(self, theta: float) -> float:
        """sin(theta)^|m| times the polynomial factor at cos(theta)."""
        poly = _horner(self.coeffs, Fraction(math.cos(theta)))
        if self.normalized:
            # The family scale cancels up to its sign; the exact square
            # keeps the ratio to the (possibly huge) norm in float range.
            magnitude = math.sqrt(poly * poly / self.norm_q) * self.float_scale
            value = math.copysign(magnitude, poly * self.sign_scale)
        else:
            value = float(poly * self.sign_scale)
        return math.sin(theta) ** (self.twice_m / 2) * value

    def phi_factor(self, phi: float) -> complex:
        return cmath.exp(1j * self.m * phi)

    def __call__(self, theta: float, phi: float) -> complex:
        return self.theta_factor(theta) * self.phi_factor(phi)
