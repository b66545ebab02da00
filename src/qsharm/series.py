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
``Fraction``.
"""

from __future__ import annotations

import enum
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


def poly_add(a, b) -> list[Fraction]:
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for k, c in enumerate(b):
        out[k] += c
    return out


def poly_sub(a, b) -> list[Fraction]:
    return poly_add(a, [-c for c in b])


def poly_scale(a, s) -> list[Fraction]:
    s = Fraction(s)
    return [c * s for c in a]


def poly_shift(a, k: int) -> list[Fraction]:
    """Multiply by x**k."""
    return [Fraction(0)] * k + list(a)


def poly_mul(a, b) -> list[Fraction]:
    if not a or not b:
        return []
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for j, aj in enumerate(a):
        if aj == 0:
            continue
        for k, bk in enumerate(b):
            out[j + k] += aj * bk
    return out


def poly_derivative(a) -> list[Fraction]:
    return [Fraction(k) * c for k, c in enumerate(a)][1:]


def poly_eval(a, x: Fraction) -> Fraction:
    acc = Fraction(0)
    for c in reversed(a):
        acc = acc * x + c
    return acc


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

def series_coefficients(m_abs: HalfInt, i: int) -> list[Fraction]:
    """Coefficients a_0..a_i of the degree-i polynomial factor, seed 1.

    The lowest coefficient of the parity of i is seeded to 1 and the
    recursion run upward; opposite-parity coefficients are zero.
    """
    if m_abs.twice < 0:
        raise ValueError("order must be non-negative")
    if i < 0:
        raise ValueError("degree must be non-negative")
    tm = m_abs.twice  # 2|m|
    coeffs = [Fraction(0)] * (i + 1)
    start = i % 2
    coeffs[start] = Fraction(1)
    for k in range(start, i - 1, 2):
        ratio = Fraction(-(i - k) * (tm + i + k + 1), (k + 1) * (k + 2))
        coeffs[k + 2] = ratio * coeffs[k]
    return coeffs


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


class Normalization(enum.Enum):
    SMALLEST_INTEGERS = "smallest-integers"
    RECURRENCE_SEEDED = "recurrence-seeded"


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
    normalization: Normalization

    @property
    def factor_exponent(self) -> Fraction:
        """Exponent of (1-x^2) in the prefactor: |m|/2."""
        return Fraction(self.m_abs.twice, 4)

    @property
    def pair(self) -> QuantumPair:
        return QuantumPair(l=self.m_abs + HalfInt(2 * self.degree), m=self.m_abs)


def legendre_function(l: HalfInt, m: HalfInt) -> LegendreFunction:
    """Construct P_l^{|m|} in the integer-family normalization.

    Raises InvalidPair when l < |m| or l - |m| is not a whole number.
    """
    pair = QuantumPair(l=l, m=m)
    i = pair.degree
    m_abs = pair.m_abs
    scale = family_scale(i)
    coeffs = tuple(c * scale for c in series_coefficients(m_abs, i))
    return LegendreFunction(
        m_abs=m_abs,
        degree=i,
        coeffs=coeffs,
        normalization=Normalization.SMALLEST_INTEGERS,
    )
