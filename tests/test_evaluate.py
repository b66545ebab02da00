"""Floating-point evaluation, residual checks and quadrature."""

import dataclasses
import math
import random
from fractions import Fraction

import pytest

from qsharm.evaluate import (
    DomainError,
    QuasiHarmonic,
    eval_grid,
    eval_harmonic,
    eval_phi,
    eval_theta,
    harmonic,
    ode_residual_exact,
    ode_residual_numeric,
    phi_period,
    quadrature_norm,
)
from qsharm.norms import norm_theta
from qsharm.numerics import HalfInt, PiScaled
from qsharm.series import (
    LegendreFunction,
    QuantumPair,
    eigenvalue,
    legendre_function,
)
from qsharm.verify import recurrence_family
from test_acceptance import ROUNDING_FLOOR


def P(two_l, two_m):
    return legendre_function(HalfInt(two_l), HalfInt(two_m))


def lattice(two_l_max):
    for two_m in range(two_l_max + 1):
        for i in range((two_l_max - two_m) // 2 + 1):
            yield HalfInt(two_m), i


class TestEvalTheta:
    def test_equator_of_lowest_half_function(self):
        assert eval_theta(P(1, 1), math.pi / 2) == 1.0

    def test_pole_vanishes_for_positive_order(self):
        assert eval_theta(P(3, 3), 0.0) == 0.0

    def test_cosine_function(self):
        assert eval_theta(P(2, 0), math.pi / 3) == pytest.approx(0.5, abs=1e-15)

    def test_domain_error_outside_range(self):
        with pytest.raises(DomainError):
            eval_theta(P(2, 0), -0.1)
        with pytest.raises(DomainError):
            eval_theta(P(2, 0), math.pi + 0.1)

    def test_reflection_symmetry(self):
        # Theta(pi - t) = (-1)^i Theta(t): sin is symmetric, the
        # polynomial has pure parity in cos.
        for m_abs, i in lattice(13):
            f = legendre_function(m_abs + HalfInt(2 * i), m_abs)
            for t in (0.3, 0.8, 1.2):
                left = eval_theta(f, math.pi - t)
                right = (-1) ** i * eval_theta(f, t)
                assert left == pytest.approx(right, abs=1e-12 * max(1.0, abs(right)))


class TestEvalPhi:
    def test_zero_order_is_unity(self):
        assert eval_phi(HalfInt(0), 1.234) == 1.0

    def test_half_order_flips_after_one_circle(self):
        value = eval_phi(HalfInt(1), 2 * math.pi)
        assert value.real == pytest.approx(-1.0, abs=1e-12)
        assert value.imag == pytest.approx(0.0, abs=1e-12)

    def test_half_order_returns_after_two_circles(self):
        value = eval_phi(HalfInt(1), 4 * math.pi)
        assert value.real == pytest.approx(1.0, abs=1e-12)
        assert value.imag == pytest.approx(0.0, abs=1e-12)

    def test_unit_modulus(self):
        import random

        rng = random.Random(7)
        for _ in range(200):
            m = HalfInt(rng.randrange(-12, 13))
            phi = rng.uniform(-20.0, 20.0)
            assert abs(abs(eval_phi(m, phi)) - 1.0) < 1e-15

    def test_periods(self):
        import random

        rng = random.Random(11)
        for two_m in range(1, 12, 2):
            m = HalfInt(two_m)
            for _ in range(50):
                phi = rng.uniform(0.0, 4 * math.pi)
                assert abs(eval_phi(m, phi + 2 * math.pi) + eval_phi(m, phi)) < 1e-12
                assert abs(eval_phi(m, phi + 4 * math.pi) - eval_phi(m, phi)) < 1e-12
        for two_m in range(0, 12, 2):
            m = HalfInt(two_m)
            for _ in range(50):
                phi = rng.uniform(0.0, 2 * math.pi)
                assert abs(eval_phi(m, phi + 2 * math.pi) - eval_phi(m, phi)) < 1e-12

    @pytest.mark.parametrize("phi", [math.nan, math.inf, -math.inf])
    def test_non_finite_phi_is_domain_error(self, phi):
        for two_m in (0, 1, -2):
            with pytest.raises(DomainError):
                eval_phi(HalfInt(two_m), phi)

    def test_period_lengths(self):
        assert phi_period(HalfInt(1)) == 4 * math.pi
        assert phi_period(HalfInt(2)) == 2 * math.pi


class TestEvalHarmonic:
    def test_lowest_half_pair_at_equator(self):
        h = harmonic(HalfInt(1), HalfInt(1))
        assert eval_harmonic(h, math.pi / 2, 0.0) == 1.0 + 0.0j

    def test_sign_flip_after_one_circle(self):
        h = harmonic(HalfInt(1), HalfInt(1))
        value = eval_harmonic(h, math.pi / 2, 2 * math.pi)
        assert value.real == pytest.approx(-1.0, abs=1e-12)

    def test_cos_function_at_pole(self):
        h = harmonic(HalfInt(2), HalfInt(0))
        assert eval_harmonic(h, 0.0, 2.5) == 1.0 + 0.0j

    def test_conjugation_under_m_sign_flip(self):
        for two_l, two_m in ((3, 1), (4, 2), (9, 5)):
            plus = harmonic(HalfInt(two_l), HalfInt(two_m))
            minus = harmonic(HalfInt(two_l), HalfInt(-two_m))
            for theta, phi in ((0.7, 1.1), (2.1, 3.9)):
                a = eval_harmonic(plus, theta, phi)
                b = eval_harmonic(minus, theta, phi)
                assert a.real == pytest.approx(b.real, abs=1e-14)
                assert a.imag == pytest.approx(-b.imag, abs=1e-14)

    def test_unit_normalization_divides_by_full_norm(self):
        h = harmonic(HalfInt(7), HalfInt(1))
        raw = eval_harmonic(h, 1.0, 0.5)
        unit = eval_harmonic(h, 1.0, 0.5, unit_normalized=True)
        divisor = math.sqrt(2 * math.pi * float(norm_theta(h.theta_part)))
        assert unit == pytest.approx(raw / divisor, rel=1e-14)

    def test_unit_normalization_doubled_phi_range(self):
        h = harmonic(HalfInt(7), HalfInt(1))
        unit2 = eval_harmonic(h, 1.0, 0.5, unit_normalized=True, phi_range="2pi")
        unit4 = eval_harmonic(h, 1.0, 0.5, unit_normalized=True, phi_range="4pi")
        assert abs(unit4) == pytest.approx(abs(unit2) / math.sqrt(2), rel=1e-14)

    def test_norm_required_for_unit_evaluation(self):
        bare = QuasiHarmonic(
            pair=QuantumPair(l=HalfInt(2), m=HalfInt(0)),
            theta_part=P(2, 0),
        )
        with pytest.raises(ValueError):
            eval_harmonic(bare, 1.0, 1.0, unit_normalized=True)


class TestEvalGrid:
    @pytest.mark.parametrize("unit_normalized, phi_range", [
        (False, "2pi"), (True, "2pi"), (True, "4pi"),
    ])
    def test_entries_equal_pointwise_evaluation(self, unit_normalized, phi_range):
        thetas = [0.0, 0.4, 1.3, math.pi / 2, 2.9, math.pi]
        phis = [0.0, 0.8, 3.7, 7.1, 12.5]
        for two_l, two_m in ((0, 0), (1, -1), (5, 3), (8, -4), (21, -7)):
            h = harmonic(HalfInt(two_l), HalfInt(two_m))
            grid = eval_grid(h, thetas, phis, unit_normalized, phi_range)
            assert [[eval_harmonic(h, t, p, unit_normalized, phi_range) for p in phis]
                    for t in thetas] == grid

    def test_empty_axes_give_empty_shape(self):
        h = harmonic(HalfInt(3), HalfInt(1))
        assert eval_grid(h, [], [0.5, 1.0]) == []
        assert eval_grid(h, [0.5, 1.0], []) == [[], []]
        assert eval_grid(h, [], [], unit_normalized=True) == []


class TestOdeResidualExact:
    def test_zero_for_constructed_functions(self):
        assert ode_residual_exact(P(5, 1)) == []
        assert ode_residual_exact(P(0, 0)) == []

    def test_nonzero_for_perturbed_coefficients(self):
        wrong = LegendreFunction(
            m_abs=HalfInt(1),
            degree=2,
            coeffs=(Fraction(1), Fraction(0), Fraction(-5)),
        )
        assert ode_residual_exact(wrong) != []

    def test_zero_across_lattice(self):
        for m_abs, i in lattice(25):
            f = legendre_function(m_abs + HalfInt(2 * i), m_abs)
            assert ode_residual_exact(f) == []

    @staticmethod
    def reference(f):
        """(1-x^2) u'' - (2|m|+2) x u' + [A - |m|(|m|+1)] u on Fraction lists, then trimmed."""
        u = [Fraction(c) for c in f.coeffs]
        n, tm = len(u), f.m_abs.twice
        du = [k * u[k] for k in range(1, n)]
        d2u = [k * du[k] for k in range(1, len(du))]
        shift = eigenvalue(f.m_abs, f.degree) - Fraction(tm * (tm + 2), 4)
        out = [Fraction(0)] * (n + 2)
        for k, c in enumerate(d2u):
            out[k] += c
            out[k + 2] -= c
        for k, c in enumerate(du):
            out[k + 1] -= (tm + 2) * c
        for k, c in enumerate(u):
            out[k] += shift * c
        while out and out[-1] == 0:
            out.pop()
        return out

    def test_matches_fraction_substitution(self):
        rng = random.Random(17)
        inputs = []
        for m_abs, i in lattice(30):
            f = legendre_function(m_abs + HalfInt(2 * i), m_abs)
            coeffs = list(f.coeffs)
            coeffs[rng.randrange(len(coeffs))] += Fraction(rng.randint(-9, 9), rng.randint(1, 9))
            inputs += [f, dataclasses.replace(f, coeffs=tuple(coeffs))]
        seeded = [f for two_m in range(12)
                  for f in recurrence_family(HalfInt(two_m), HalfInt(two_m + 16))]
        assert any(c.denominator != 1 for f in seeded for c in f.coeffs)
        inputs += seeded
        nonzero = 0
        for f in inputs:
            got = ode_residual_exact(f)
            assert got == self.reference(f), f
            nonzero += got != []
        assert nonzero > 100


class TestOdeResidualNumeric:
    def test_integer_order_eigenfunction(self):
        h = harmonic(HalfInt(2), HalfInt(0))
        assert abs(ode_residual_numeric(h, 1.0, 1e-4)) < 1e-6

    def test_half_order_eigenfunction(self):
        h = harmonic(HalfInt(3), HalfInt(1))
        assert abs(ode_residual_numeric(h, math.pi / 2, 1e-4)) < 1e-6

    def test_endpoint_exclusion(self):
        h = harmonic(HalfInt(1), HalfInt(1))
        with pytest.raises(DomainError):
            ode_residual_numeric(h, 1e-9, 1e-4)
        with pytest.raises(DomainError):
            ode_residual_numeric(h, math.pi - 1e-5, 1e-4)

    def test_step_must_be_positive(self):
        h = harmonic(HalfInt(1), HalfInt(1))
        with pytest.raises(ValueError):
            ode_residual_numeric(h, 1.0, 0.0)

    def test_detects_wrong_function(self):
        wrong = QuasiHarmonic(
            pair=QuantumPair(l=HalfInt(4), m=HalfInt(0)),
            theta_part=LegendreFunction(
                m_abs=HalfInt(0),
                degree=2,
                coeffs=(Fraction(1), Fraction(0), Fraction(-2)),
            ),
        )
        assert abs(ode_residual_numeric(wrong, 1.0, 1e-4)) > 1e-2


class TestQuadratureNorm:
    def test_constant_function(self):
        assert quadrature_norm(P(0, 0), 2048) == pytest.approx(2.0, abs=1e-10)

    def test_lowest_half_function(self):
        assert quadrature_norm(P(1, 1), 2048) == pytest.approx(math.pi / 2, abs=1e-10)

    def test_top_corner_of_reference_range(self):
        expected = float(PiScaled(Fraction(231, 1024), 1))
        assert quadrature_norm(P(11, 11), 4096) == pytest.approx(expected, abs=1e-9)

    def test_node_validation(self):
        with pytest.raises(ValueError):
            quadrature_norm(P(0, 0), 8)
        with pytest.raises(ValueError):
            quadrature_norm(P(0, 0), 17)

    def test_matches_exact_norm(self):
        for two_l, two_m in ((0, 0), (5, 1), (10, 4), (11, 3), (21, 11)):
            f = P(two_l, two_m)
            exact = float(norm_theta(f))
            assert quadrature_norm(f, 4096) == pytest.approx(exact, rel=1e-9)

    def test_fourth_order_convergence_on_integer_orders(self):
        # Integer orders sit in the truncation-dominated regime here;
        # half-odd orders are exact to rounding at these node counts.
        f = P(6, 0)
        exact = float(norm_theta(f))
        e1 = abs(quadrature_norm(f, 512) - exact)
        e2 = abs(quadrature_norm(f, 1024) - exact)
        assert math.log2(e1 / e2) > 2.0

    @pytest.mark.parametrize("two_l,two_m", [(61, 1), (101, 1), (100, 0), (101, 37)])
    def test_deep_pairs_hold_criterion_6(self, two_l, two_m):
        # Acceptance criterion 6's tolerances past its 2l <= 21 range, where
        # large alternating coefficients cancel in a float Horner pass.
        f = P(two_l, two_m)
        exact = float(norm_theta(f))
        err_fine = abs(quadrature_norm(f, 8192) - exact) / exact
        assert err_fine <= 1e-9
        if err_fine > ROUNDING_FLOOR:
            err_coarse = abs(quadrature_norm(f, 4096) - exact) / exact
            assert math.log2(err_coarse / err_fine) >= 2.0


@pytest.mark.parametrize(
    "two_l,two_m",
    [(25, 1), (25, 13), (24, 0), (24, 10), (101, 1), (101, 37), (100, 0), (100, 40),
     (401, 1), (401, 145), (400, 0), (400, 200)],
)
def test_eval_theta_is_the_rounded_exact_horner_value(two_l, two_m):
    f = P(two_l, two_m)
    rng = random.Random(two_l * 1000 + two_m)
    thetas = [0.0, math.pi / 2, math.pi] + [rng.uniform(0.0, math.pi) for _ in range(12)]
    for theta in thetas:
        x = Fraction(math.cos(theta))
        acc = Fraction(0)
        for c in reversed(f.coeffs):
            acc = acc * x + c
        want = math.sin(theta) ** (two_m / 2) * float(acc)
        assert eval_theta(f, theta) == want
