"""Power-series construction of associated Legendre functions.

The angular equation in x = cos(theta) is solved by factoring out
(1-x^2)^(|m|/2) and expanding the remaining factor as a polynomial
sum(a_k x^k).  Collecting powers of x couples coefficients two apart:

    a_{k+2} = - (i - k)(2|m| + i + k + 1) / ((k + 1)(k + 2)) * a_k

which terminates at degree i exactly when the separation constant is
A = (|m| + i)(|m| + i + 1), i.e. A = l(l+1) with l = |m| + i.  The
lattice l = n/2 admits both integer and half-odd-integer quantum
numbers; all arithmetic here is exact rational.

Polynomials are dense coefficient lists, lowest power first, over
``Fraction``.  The kernels (Horner evaluation, multiplication and the
coefficient recursion) run on integer numerators over one common
denominator and divide once at the end, so no intermediate result pays
for a gcd.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .numerics import HalfInt


class InvalidPair(ValueError):
    """(l, m) outside the lattice: l < |m| or l - |m| not a whole number."""


class AllZero(ValueError):
    """A coefficient vector that must be nonzero is identically zero."""


# ---------------------------------------------------------------------------
# Dense polynomial helpers (lowest power first, Fraction coefficients)
# ---------------------------------------------------------------------------

def poly_trim(coeffs: list[Fraction]) -> list[Fraction]:
    """Drop trailing zero coefficients; the zero polynomial trims to []."""
    n = len(coeffs)
    while n and coeffs[n - 1] == 0:
        n -= 1
    return list(coeffs[:n])


def _numerators(a) -> tuple[list[int], int]:
    """Integer numerators of a over the least common denominator of its entries."""
    den = 1
    for c in a:
        if c.denominator != 1:  # pairwise: math.lcm(*...) grows the tuple free lists
            den = math.lcm(den, c.denominator)
    if den == 1:
        return [c.numerator for c in a], 1
    return [c.numerator * (den // c.denominator) for c in a], den


def _convolve(a: list[int], b: list[int]) -> list[int]:
    """Integer product coefficients of a and b, skipping zero entries."""
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    nonzero_b = [(k, bk) for k, bk in enumerate(b) if bk]
    for j, aj in enumerate(a):
        if aj:
            for k, bk in nonzero_b:
                out[j + k] += aj * bk
    return out


def poly_mul(a, b) -> list[Fraction]:
    (a, da), (b, db) = _numerators(a), _numerators(b)
    return [Fraction(c, da * db) for c in _convolve(a, b)]


def poly_eval(a, x: Fraction) -> Fraction:
    """Exact value at x: integer Horner on n/d = x, one division at the end."""
    n, d = Fraction(x).as_integer_ratio()
    nums, den = _numerators(a)
    acc, d_pow = 0, 1
    for c in reversed(nums):
        acc = acc * n + c * d_pow
        d_pow *= d
    return Fraction(acc, den * d_pow // d) if nums else Fraction(0)


# ---------------------------------------------------------------------------
# Quantum-number lattice
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class QuantumPair:
    """A valid (l, m) lattice point: l >= |m| and l - |m| a whole number."""

    l: HalfInt
    m: HalfInt

    def __post_init__(self):
        if (self.l.twice - self.m.twice) % 2 != 0:
            raise InvalidPair(
                f"l={self.l} and m={self.m} differ by a non-integer"
            )
        if self.l < abs(self.m):
            raise InvalidPair(f"l={self.l} is below |m|={abs(self.m)}")

    @property
    def m_abs(self) -> HalfInt:
        return abs(self.m)

    @property
    def degree(self) -> int:
        """Polynomial degree i = l - |m|."""
        return (self.l.twice - abs(self.m).twice) // 2


def eigenvalue(m_abs: HalfInt, i: int) -> Fraction:
    """Separation constant A = (|m|+i)(|m|+i+1) = l(l+1), l = |m|+i."""
    if m_abs.twice < 0:
        raise ValueError("order must be non-negative")
    if i < 0:
        raise ValueError("degree must be non-negative")
    t = m_abs.twice + 2 * i  # doubled l
    return Fraction(t * (t + 2), 4)


@dataclass(frozen=True)
class TridiagonalSystem:
    """The linear system T.a = 0 that the series coefficients satisfy.

    diag[k] holds A - (|m|+k)(|m|+k+1); superdiag2[k] holds the
    two-above-diagonal entry (k+1)(k+2).  Every other entry is zero.
    """

    m_abs: HalfInt
    size: int
    diag: tuple[Fraction, ...]
    superdiag2: tuple[Fraction, ...]


def build_system(m_abs: HalfInt, a_candidate: Fraction, size: int) -> TridiagonalSystem:
    """Materialize T for a candidate separation constant.

    A candidate equal to eigenvalue(m_abs, k) zeroes diag[k] and nothing
    else, which is how eigenvalues are read off the triangular matrix.
    """
    if size < 1:
        raise ValueError("size must be at least 1")
    a_candidate = Fraction(a_candidate)
    diag = tuple(a_candidate - eigenvalue(m_abs, k) for k in range(size))
    superdiag2 = tuple(Fraction((k + 1) * (k + 2)) for k in range(size - 1))
    return TridiagonalSystem(m_abs=m_abs, size=size, diag=diag, superdiag2=superdiag2)


# ---------------------------------------------------------------------------
# Series coefficients and normalization
# ---------------------------------------------------------------------------

def _scaled_series(tm: int, i: int, seed: int) -> list[int]:
    """Integer a_0..a_i of the degree-i factor seeded with ``seed``; a remainder raises."""
    coeffs = [0] * (i + 1)
    start = i % 2
    c = coeffs[start] = seed
    for k in range(start, i - 1, 2):
        c, r = divmod(-(i - k) * (tm + i + k + 1) * c, (k + 1) * (k + 2))
        if r:
            raise ArithmeticError(f"a_{k + 2} of 2|m|={tm}, i={i} is not integral")
        coeffs[k + 2] = c
    return coeffs


def series_coefficients(m_abs: HalfInt, i: int) -> list[Fraction]:
    """Coefficients a_0..a_i of the degree-i polynomial factor, seed 1.

    The lowest coefficient of the parity of i is seeded to 1 and the
    recursion run upward; opposite-parity coefficients are zero.
    """
    if m_abs.twice < 0:
        raise ValueError("order must be non-negative")
    if i < 0:
        raise ValueError("degree must be non-negative")
    scale = family_scale(i)
    return [Fraction(c, scale) for c in _scaled_series(m_abs.twice, i, scale)]


def normalize_smallest_integers(coeffs) -> list[Fraction]:
    """Rescale a rational vector to coprime integers, lowest nonzero > 0."""
    coeffs = [Fraction(c) for c in coeffs]
    nonzero = [c for c in coeffs if c != 0]
    if not nonzero:
        raise AllZero("cannot normalize the zero vector")
    scale = Fraction(math.lcm(*(c.denominator for c in nonzero)))
    ints = [c * scale for c in coeffs]
    g = math.gcd(*(int(c) for c in ints if c != 0))
    if g > 1:
        ints = [c / g for c in ints]
    lowest = next(c for c in ints if c != 0)
    if lowest < 0:
        ints = [-c for c in ints]
    return ints


def family_scale(i: int) -> int:
    """Shared integer seed for the degree-i family: 1, 1, 1, 3, 3, 15, ...

    The seed-1 series has denominators dividing the double factorial of
    the largest odd number <= i; scaling every order |m| by that one
    constant makes the whole degree-i family integral, which is the
    convention of the reference tables (per-entry gcds of 3 or 5 are
    deliberately kept, e.g. 3-36x^2+48x^4 at |m|=1/2).
    """
    top = i if i % 2 == 1 else i - 1
    return math.prod(range(top, 0, -2)) if top >= 1 else 1


@dataclass(frozen=True)
class LegendreFunction:
    """(1-x^2)^(|m|/2) times a degree-i polynomial in x.

    ``coeffs`` is the dense coefficient list of the polynomial factor.
    The nonzero coefficients share the parity of ``degree`` and strictly
    alternate in sign.
    """

    m_abs: HalfInt
    degree: int
    coeffs: tuple[Fraction, ...]

    @property
    def factor_exponent(self) -> Fraction:
        """Exponent of (1-x^2) in the prefactor: |m|/2."""
        return Fraction(self.m_abs.twice, 4)


def legendre_function(l: HalfInt, m: HalfInt) -> LegendreFunction:
    """Construct P_l^{|m|} in the integer-family normalization.

    Raises InvalidPair when l < |m| or l - |m| is not a whole number.
    """
    pair = QuantumPair(l=l, m=m)
    i = pair.degree
    m_abs = pair.m_abs
    coeffs = _scaled_series(m_abs.twice, i, family_scale(i))
    return LegendreFunction(m_abs=m_abs, degree=i, coeffs=tuple(map(Fraction, coeffs)))
