"""Exact associated Legendre functions and quasi-spherical harmonics.

Constructs, normalizes, evaluates and cross-verifies P_l^{|m|} and
Y_l^m(theta, phi) for integer and half-odd-integer quantum numbers,
with all table-facing arithmetic exact (rationals, and rational
multiples of pi for the half-odd-integer normalization integrals).

The package namespace holds the documented surface; every other name
is imported from its own module (``qsharm.series``, ``qsharm.norms``,
...).
"""

from .numerics import HalfInt, PiScaled
from .series import InvalidPair, LegendreFunction, legendre_function
from .norms import norm_theta
from .evaluate import DomainError, QuasiHarmonic, eval_grid, eval_harmonic, harmonic
from .verify import run_suite

__version__ = "0.1.0"

__all__ = [
    "DomainError",
    "HalfInt",
    "InvalidPair",
    "LegendreFunction",
    "PiScaled",
    "QuasiHarmonic",
    "eval_grid",
    "eval_harmonic",
    "harmonic",
    "legendre_function",
    "norm_theta",
    "run_suite",
]
