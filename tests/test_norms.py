"""Exact normalization integrals against independent oracles."""

import dataclasses
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import qsharm
from qsharm.norms import MixedM, beta_moment, inner_product, norm_theta, phi_factor_over_pi
from qsharm.numerics import HalfInt, PiScaled
from qsharm.series import legendre_function
from qsharm.verify import recurrence_family


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

    def test_closed_form_equals_moment_sum(self):
        for two_m in range(0, 41):
            for i in range(0, 21):
                f = P(two_m + 2 * i, two_m)
                assert norm_theta(f) == inner_product(f, f), (two_m, i)

    @pytest.mark.parametrize("two_l,two_m", [(601, 1), (600, 0), (401, 201), (344, 0)])
    def test_closed_form_equals_moment_sum_deep(self, two_l, two_m):
        f = P(two_l, two_m)
        assert norm_theta(f) == inner_product(f, f)

    @pytest.mark.parametrize("l,m", [(0, 0), (1, 0), (1, 1), (4, 2), (7, 0), (9, 5), (12, 12)])
    def test_integer_order_textbook_norm(self, l, m):
        """Scaled to a_i = (2l-1)!!/(l-m)!, the norm is 2(l+m)!/((2l+1)(l-m)!)."""
        f = P(2 * l, 2 * m)
        i = l - m
        leading = Fraction(math.prod(range(2 * l - 1, 0, -2)), math.factorial(i))
        scaled = dataclasses.replace(f, coeffs=tuple(c * leading / f.coeffs[i] for c in f.coeffs))
        want = Fraction(2 * math.factorial(l + m), (2 * l + 1) * math.factorial(i))
        assert norm_theta(scaled) == PiScaled(want)


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


def phi_factor(f, phi_range="2pi"):
    return PiScaled(phi_factor_over_pi(f.m_abs, phi_range), 1)


class TestNormFull:
    """Squared norm of Y = Theta * Phi: phi factor times norm_theta."""

    def test_examples(self):
        f = P(0, 0)
        assert phi_factor(f) == PiScaled(2, 1)
        assert norm_theta(f) == PiScaled(2)

        f = P(1, 1)
        assert phi_factor(f) == PiScaled(2, 1)
        assert norm_theta(f) == PiScaled(Fraction(1, 2), 1)

        f = P(2, 0)
        assert phi_factor(f) == PiScaled(2, 1)
        assert norm_theta(f) == PiScaled(Fraction(2, 3))

    def test_doubled_range_only_affects_half_odd_orders(self):
        assert phi_factor(P(1, 1), phi_range="4pi") == PiScaled(4, 1)
        assert phi_factor(P(2, 0), phi_range="4pi") == PiScaled(2, 1)

    def test_bad_range_rejected(self):
        with pytest.raises(ValueError):
            phi_factor(P(0, 0), phi_range="6pi")


def test_memoized_moments_are_reproducible():
    a = beta_moment(HalfInt(7), 9)
    b = beta_moment(HalfInt(7), 9)
    assert a == b
    assert float(a) == float(b)


def fraction_moments(two_m, count):
    """Rational parts of M(m, 0..count-1), one Fraction step at a time."""
    q = Fraction(1, 2) if two_m % 2 else Fraction(2)
    for s in range(two_m, 1, -2):
        q *= Fraction(s, s + 1)
    out = [q]
    for k in range(1, count):
        out.append(out[-1] * Fraction(2 * k - 1, two_m + 2 * k + 1))
    return out


def fraction_inner_product(f, g):
    a, b = list(f.coeffs), list(g.coeffs)
    product = [Fraction(0)] * (len(a) + len(b) - 1)
    for j, aj in enumerate(a):
        for k, bk in enumerate(b):
            product[j + k] += aj * bk
    even = product[::2]
    q = sum(c * m for c, m in zip(even, fraction_moments(f.m_abs.twice, len(even))))
    return PiScaled(Fraction(q), f.m_abs.twice % 2)


class TestIntegerMomentSum:
    def test_moments_match_fraction_recursion(self):
        for two_m in range(21):
            want = fraction_moments(two_m, 31)
            for k in range(31):
                assert beta_moment(HalfInt(two_m), k) == PiScaled(want[k], two_m % 2)

    def test_recurrence_seeded_members(self):
        non_integer = 0
        for two_m in range(21):
            family = recurrence_family(HalfInt(two_m), HalfInt(two_m + 2 * 9))
            non_integer += sum(c.denominator != 1 for f in family for c in f.coeffs)
            partners = family + [P(two_m + 2 * i, two_m) for i in range(10)]
            for f in family:
                for g in partners:
                    assert inner_product(f, g) == fraction_inner_product(f, g)
        assert non_integer > 0

    def test_legendre_pairs_up_to_two_l_40(self):
        for two_m in range(41):
            family = [P(two_m + 2 * i, two_m) for i in range((40 - two_m) // 2 + 1)]
            for i, f in enumerate(family):
                for g in family[i:]:
                    assert inner_product(f, g) == fraction_inner_product(f, g)
