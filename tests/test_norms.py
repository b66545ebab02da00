"""Exact normalization integrals against independent oracles."""

import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import qsharm
from qsharm.norms import MixedM, beta_moment, inner_product, norm_full, norm_theta
from qsharm.numerics import HalfInt, PiScaled
from qsharm.series import legendre_function


def theta_quadrature_moment(two_m, k, n=20000):
    """Float oracle: x^(2k) (1-x^2)^|m| over [-1,1] via Simpson in theta.

    Substituting x = cos(theta) gives cos^(2k) sin^(2|m|+1), which is
    endpoint-smooth for every order.
    """
    h = math.pi / n

    def g(t):
        return math.cos(t) ** (2 * k) * math.sin(t) ** (two_m + 1)

    total = g(0.0) + g(math.pi)
    total += 4 * sum(g(j * h) for j in range(1, n, 2))
    total += 2 * sum(g(j * h) for j in range(2, n, 2))
    return total * h / 3


def P(two_l, two_m):
    return legendre_function(HalfInt(two_l), HalfInt(two_m))


class TestBetaMoment:
    @pytest.mark.parametrize(
        "two_m,k,expected",
        [
            (0, 0, PiScaled(2)),
            (1, 0, PiScaled(Fraction(1, 2), 1)),
            (2, 1, PiScaled(Fraction(4, 15))),
            (1, 2, PiScaled(Fraction(1, 16), 1)),
        ],
    )
    def test_examples(self, two_m, k, expected):
        assert beta_moment(HalfInt(two_m), k) == expected

    @pytest.mark.parametrize("two_m", range(0, 8))
    @pytest.mark.parametrize("k", range(0, 5))
    def test_against_quadrature_oracle(self, two_m, k):
        exact = float(beta_moment(HalfInt(two_m), k))
        assert exact == pytest.approx(theta_quadrature_moment(two_m, k), abs=1e-12)

    def test_pi_exponent_tracks_order_parity(self):
        for two_m in range(0, 14):
            for k in range(0, 6):
                assert beta_moment(HalfInt(two_m), k).pi_exponent == two_m % 2

    def test_strictly_decreasing_in_k(self):
        for two_m in range(0, 14):
            qs = [beta_moment(HalfInt(two_m), k).q for k in range(0, 10)]
            assert all(b < a for a, b in zip(qs, qs[1:]))

    def test_rejects_negative_arguments(self):
        with pytest.raises(ValueError):
            beta_moment(HalfInt(-1), 0)
        with pytest.raises(ValueError):
            beta_moment(HalfInt(0), -1)

    def test_deep_moment_on_a_cold_start(self):
        """M(1/2, 5000) in a fresh interpreter: no recursion limit, no cache to warm."""
        script = (
            "from fractions import Fraction\n"
            "from math import factorial as f\n"
            "from qsharm.norms import beta_moment\n"
            "from qsharm.numerics import HalfInt, PiScaled\n"
            "k = 5000\n"
            "want = PiScaled(Fraction(f(2 * k), 2 * 4**k * f(k) * f(k + 1)), 1)\n"
            "assert beta_moment(HalfInt(1), k) == want\n"
        )
        env = {**os.environ, "PYTHONPATH": str(Path(qsharm.__file__).parents[1])}
        subprocess.run([sys.executable, "-c", script], env=env, check=True, timeout=120)


class TestNormTheta:
    @pytest.mark.parametrize(
        "two_l,two_m,expected",
        [
            (4, 0, PiScaled(Fraction(8, 5))),                 # 1 - 3x^2
            (7, 1, PiScaled(Fraction(9, 32), 1)),             # (1-x^2)^(1/4) (3x-6x^3)
            (12, 4, PiScaled(Fraction(6144, 455))),           # |m| = 2, i = 4
            (1, 1, PiScaled(Fraction(1, 2), 1)),              # (1-x^2)^(1/4)
        ],
    )
    def test_examples(self, two_l, two_m, expected):
        assert norm_theta(P(two_l, two_m)) == expected

    def test_positive_for_every_function(self):
        for two_m in range(0, 12):
            for i in range(0, 6):
                value = norm_theta(P(two_m + 2 * i, two_m))
                assert value.q > 0
                assert value.pi_exponent == two_m % 2


class TestInnerProduct:
    def test_constant_against_quadratic_integer_order(self):
        assert inner_product(P(0, 0), P(4, 0)).is_zero

    def test_constant_against_quadratic_half_order(self):
        # pi/2 - 4 * (pi/8) cancels exactly
        assert inner_product(P(1, 1), P(5, 1)).is_zero

    def test_opposite_parity_is_zero(self):
        assert inner_product(P(2, 0), P(4, 0)).is_zero

    def test_mixed_order_rejected(self):
        with pytest.raises(MixedM):
            inner_product(P(0, 0), P(1, 1))

    def test_self_product_is_norm(self):
        f = P(7, 1)
        assert inner_product(f, f) == norm_theta(f)

    def test_distinct_degrees_orthogonal_across_table_range(self):
        for two_m in range(0, 12):
            funcs = [P(two_m + 2 * i, two_m) for i in range(6)]
            for i in range(6):
                for j in range(i + 1, 6):
                    assert inner_product(funcs[i], funcs[j]).is_zero


class TestNormFull:
    def test_examples(self):
        full = norm_full(P(0, 0))
        assert full.phi_factor == PiScaled(2, 1)
        assert full.theta_factor == PiScaled(2)

        full = norm_full(P(1, 1))
        assert full.phi_factor == PiScaled(2, 1)
        assert full.theta_factor == PiScaled(Fraction(1, 2), 1)

        full = norm_full(P(2, 0))
        assert full.phi_factor == PiScaled(2, 1)
        assert full.theta_factor == PiScaled(Fraction(2, 3))

    def test_doubled_range_only_affects_half_odd_orders(self):
        assert norm_full(P(1, 1), phi_range="4pi").phi_factor == PiScaled(4, 1)
        assert norm_full(P(2, 0), phi_range="4pi").phi_factor == PiScaled(2, 1)

    def test_bad_range_rejected(self):
        with pytest.raises(ValueError):
            norm_full(P(0, 0), phi_range="6pi")


def test_memoized_moments_are_reproducible():
    a = beta_moment(HalfInt(7), 9)
    b = beta_moment(HalfInt(7), 9)
    assert a == b
    assert float(a) == float(b)
