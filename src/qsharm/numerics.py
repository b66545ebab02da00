"""Exact scalar types: half-integer quantum numbers and pi-scaled rationals.

Everything in this package that is not explicitly a floating-point
evaluation runs on three exact scalar kinds:

* ``HalfInt``     -- a number n/2 stored as the integer n, so both integer
                     and half-odd-integer quantum numbers have exact
                     equality, ordering and hashing.
* ``BigRational`` -- arbitrary-precision rationals.  This is the stdlib
                     ``fractions.Fraction``, which already guarantees
                     lowest terms, a positive denominator and 0 == 0/1.
* ``PiScaled``    -- an exact value q * pi**e with rational q and
                     e in {0, 1}, the codomain of the normalization
                     integrals (rational for integer order, rational
                     times pi for half-odd-integer order).
"""

from __future__ import annotations

from fractions import Fraction
from functools import total_ordering

BigRational = Fraction


class MixedPiDegree(ValueError):
    """Sum of two PiScaled values with different pi exponents.

    This is an internal-logic error: integrals carrying a bare rational
    (integer order) and integrals carrying a rational multiple of pi
    (half-odd-integer order) must never be added together.
    """


@total_ordering
class HalfInt:
    """A half-integer n/2 represented by its exact doubled value n."""

    __slots__ = ("twice",)

    def __init__(self, twice: int):
        if not isinstance(twice, int):
            raise TypeError(f"doubled value must be an int, got {twice!r}")
        object.__setattr__(self, "twice", twice)

    def __setattr__(self, name, value):
        raise AttributeError("HalfInt is immutable")

    @property
    def is_integer(self) -> bool:
        return self.twice % 2 == 0

    @property
    def is_half_odd(self) -> bool:
        return self.twice % 2 == 1

    def as_fraction(self) -> Fraction:
        return Fraction(self.twice, 2)

    def __float__(self) -> float:
        return self.twice / 2

    def __bool__(self) -> bool:
        return self.twice != 0

    def __eq__(self, other) -> bool:
        if isinstance(other, HalfInt):
            return self.twice == other.twice
        if isinstance(other, int):
            return self.twice == 2 * other
        return NotImplemented

    def __lt__(self, other) -> bool:
        if isinstance(other, HalfInt):
            return self.twice < other.twice
        if isinstance(other, int):
            return self.twice < 2 * other
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.as_fraction())

    def __neg__(self) -> "HalfInt":
        return HalfInt(-self.twice)

    def __abs__(self) -> "HalfInt":
        return HalfInt(abs(self.twice))

    def __add__(self, other) -> "HalfInt":
        if isinstance(other, HalfInt):
            return HalfInt(self.twice + other.twice)
        if isinstance(other, int):
            return HalfInt(self.twice + 2 * other)
        return NotImplemented

    __radd__ = __add__

    def __sub__(self, other) -> "HalfInt":
        if isinstance(other, (HalfInt, int)):
            return self + (-other)
        return NotImplemented

    def __rsub__(self, other) -> "HalfInt":
        if isinstance(other, int):
            return HalfInt(2 * other - self.twice)
        return NotImplemented

    def __str__(self) -> str:
        if self.is_integer:
            return str(self.twice // 2)
        return f"{self.twice}/2"

    def __repr__(self) -> str:
        return f"HalfInt({self.twice})"


def halfint_from_string(text: str) -> HalfInt:
    """Parse "2", "-3" or "3/2" into an exact HalfInt.

    No float parsing: the only accepted denominator is 2 (or none).
    """
    s = text.strip()
    if "/" in s:
        num, den = s.split("/", 1)
        if den.strip() != "2":
            raise ValueError(f"half-integer denominator must be 2: {text!r}")
        return HalfInt(int(num))
    return HalfInt(2 * int(s))


class PiScaled:
    """Exact value q * pi**pi_exponent with q rational, exponent 0 or 1.

    Zero is canonically stored with exponent 0, so equality is unambiguous.
    """

    __slots__ = ("q", "pi_exponent")

    def __init__(self, q, pi_exponent: int = 0):
        q = Fraction(q)
        if pi_exponent not in (0, 1):
            raise ValueError(f"pi exponent must be 0 or 1, got {pi_exponent}")
        if q == 0:
            pi_exponent = 0
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "pi_exponent", pi_exponent)

    def __setattr__(self, name, value):
        raise AttributeError("PiScaled is immutable")

    @property
    def is_zero(self) -> bool:
        return self.q == 0

    def __eq__(self, other) -> bool:
        if isinstance(other, PiScaled):
            return self.q == other.q and self.pi_exponent == other.pi_exponent
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.q, self.pi_exponent))

    def __add__(self, other) -> "PiScaled":
        if not isinstance(other, PiScaled):
            return NotImplemented
        if self.is_zero:
            return PiScaled(other.q, other.pi_exponent)
        if other.is_zero:
            return PiScaled(self.q, self.pi_exponent)
        if self.pi_exponent != other.pi_exponent:
            raise MixedPiDegree(
                f"cannot add {self} (pi^{self.pi_exponent}) "
                f"and {other} (pi^{other.pi_exponent})"
            )
        return PiScaled(self.q + other.q, self.pi_exponent)

    def __neg__(self) -> "PiScaled":
        return PiScaled(-self.q, self.pi_exponent)

    def __sub__(self, other) -> "PiScaled":
        if not isinstance(other, PiScaled):
            return NotImplemented
        return self + (-other)

    def mul_rational(self, r) -> "PiScaled":
        return PiScaled(self.q * Fraction(r), self.pi_exponent)

    def __float__(self) -> float:
        import math

        value = self.q.numerator / self.q.denominator
        return value * math.pi if self.pi_exponent else value

    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        if self.pi_exponent == 0:
            return str(self.q)
        num, den = self.q.numerator, self.q.denominator
        if num == 1:
            head = "π"
        elif num == -1:
            head = "-π"
        else:
            head = f"{num}π"
        return head if den == 1 else f"{head}/{den}"

    def __repr__(self) -> str:
        return f"PiScaled({self.q!r}, {self.pi_exponent})"


def pi_scaled_to_json(v: PiScaled) -> dict:
    """JSON form of a PiScaled value: {"q": "num/den", "pi": 0 | 1}."""
    return {"q": str(v.q), "pi": v.pi_exponent}


def pi_scaled_from_json(obj: dict) -> PiScaled:
    return PiScaled(Fraction(obj["q"]), int(obj["pi"]))
