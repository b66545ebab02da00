"""Series construction: eigenvalues, tridiagonal system, coefficients."""

import random
from fractions import Fraction

import pytest

from qsharm.numerics import HalfInt
from qsharm.series import (
    AllZero,
    InvalidPair,
    QuantumPair,
    build_system,
    eigenvalue,
    family_scale,
    _scaled_series,
    legendre_function,
    normalize_smallest_integers,
    poly_eval,
    poly_mul,
    series_coefficients,
)


def lattice(two_l_max):
    for two_m in range(two_l_max + 1):
        for i in range((two_l_max - two_m) // 2 + 1):
            yield HalfInt(two_m), i


class TestEigenvalue:
    @pytest.mark.parametrize(
        "two_m,i,expected",
        [
            (0, 0, Fraction(0)),
            (1, 0, Fraction(3, 4)),
            (1, 2, Fraction(35, 4)),  # (5/2)(7/2)
            (4, 3, Fraction(30)),     # l = 5
        ],
    )
    def test_examples(self, two_m, i, expected):
        assert eigenvalue(HalfInt(two_m), i) == expected

    def test_equals_l_times_l_plus_one_on_lattice(self):
        for m_abs, i in lattice(25):
            lf = m_abs.as_fraction() + i
            assert eigenvalue(m_abs, i) == lf * (lf + 1)

    def test_rejects_negative_arguments(self):
        with pytest.raises(ValueError):
            eigenvalue(HalfInt(-1), 0)
        with pytest.raises(ValueError):
            eigenvalue(HalfInt(0), -1)


class TestBuildSystem:
    def test_integer_order_example(self):
        sys = build_system(HalfInt(0), Fraction(2), 3)
        assert list(sys.diag) == [2, 0, -4]
        assert list(sys.superdiag2) == [2, 6]

    def test_half_order_example(self):
        sys = build_system(HalfInt(1), Fraction(3, 4), 2)
        assert list(sys.diag) == [0, -3]
        assert list(sys.superdiag2) == [2]

    def test_single_element(self):
        sys = build_system(HalfInt(2), Fraction(0), 1)
        assert list(sys.diag) == [-2]
        assert list(sys.superdiag2) == []

    def test_size_must_be_positive(self):
        with pytest.raises(ValueError):
            build_system(HalfInt(0), Fraction(0), 0)

    def test_eigenvalue_zeroes_only_its_own_diagonal(self):
        for m_abs, i in lattice(25):
            sys = build_system(m_abs, eigenvalue(m_abs, i), i + 3)
            for k, entry in enumerate(sys.diag):
                assert (entry == 0) == (k == i)


class TestSeriesCoefficients:
    @pytest.mark.parametrize(
        "two_m,i,expected",
        [
            (0, 2, [1, 0, -3]),
            (1, 2, [1, 0, -4]),
            (1, 0, [1]),
            (0, 1, [0, 1]),
        ],
    )
    def test_examples(self, two_m, i, expected):
        assert series_coefficients(HalfInt(two_m), i) == [Fraction(c) for c in expected]

    def test_high_half_order_proportional_to_reference(self):
        # |m| = 11/2, i = 5 scales to 15x - 180x^3 + 360x^5
        raw = series_coefficients(HalfInt(11), 5)
        assert [c * 15 for c in raw] == [0, 15, 0, -180, 0, 360]

    def test_nonzero_count_is_half_degree_plus_one(self):
        for m_abs, i in lattice(25):
            coeffs = series_coefficients(m_abs, i)
            assert sum(1 for c in coeffs if c != 0) == i // 2 + 1

    def test_same_parity_signs_alternate(self):
        for m_abs, i in lattice(25):
            nonzero = [c for c in series_coefficients(m_abs, i) if c != 0]
            for a, b in zip(nonzero, nonzero[1:]):
                assert (a > 0) != (b > 0)

    def test_opposite_parity_entries_are_zero(self):
        for m_abs, i in lattice(25):
            coeffs = series_coefficients(m_abs, i)
            for k, c in enumerate(coeffs):
                if (k - i) % 2 != 0:
                    assert c == 0

    def test_leading_coefficient_nonzero(self):
        for m_abs, i in lattice(25):
            assert series_coefficients(m_abs, i)[i] != 0


class TestNormalizeSmallestIntegers:
    @pytest.mark.parametrize(
        "coeffs,expected",
        [
            ([1, 0, -4], [1, 0, -4]),
            ([Fraction(-1, 3), 0, 1], [1, 0, -3]),
            ([0, Fraction(3, 5), 0, -1], [0, 3, 0, -5]),
            ([Fraction(6), Fraction(0), Fraction(-9)], [2, 0, -3]),
        ],
    )
    def test_examples(self, coeffs, expected):
        assert normalize_smallest_integers(coeffs) == [Fraction(c) for c in expected]

    def test_zero_vector_rejected(self):
        with pytest.raises(AllZero):
            normalize_smallest_integers([0, Fraction(0)])

    def test_output_is_coprime_integers_with_positive_lowest(self):
        import math

        for m_abs, i in lattice(15):
            out = normalize_smallest_integers(series_coefficients(m_abs, i))
            nonzero = [int(c) for c in out if c != 0]
            assert all(c.denominator == 1 for c in out)
            assert math.gcd(*nonzero) == 1
            assert nonzero[0] > 0


class TestFamilyScale:
    def test_first_values(self):
        assert [family_scale(i) for i in range(8)] == [1, 1, 1, 3, 3, 15, 15, 105]

    def test_scale_clears_denominators_for_every_order(self):
        for m_abs, i in lattice(30):
            s = family_scale(i)
            assert all((c * s).denominator == 1 for c in series_coefficients(m_abs, i))


class TestLegendreFunction:
    def test_lowest_half_pair(self):
        f = legendre_function(HalfInt(1), HalfInt(1))
        assert list(f.coeffs) == [1]
        assert f.factor_exponent == Fraction(1, 4)
        assert f.degree == 0

    def test_reference_row_with_shared_family_scale(self):
        # gcd of these integers is 3: the family-wide convention keeps it.
        f = legendre_function(HalfInt(9), HalfInt(1))
        assert list(f.coeffs) == [3, 0, -36, 0, 48]

    def test_negative_m_uses_absolute_order(self):
        f = legendre_function(HalfInt(9), HalfInt(-1))
        assert list(f.coeffs) == [3, 0, -36, 0, 48]
        assert f.m_abs == HalfInt(1)

    def test_parity_mismatch_rejected(self):
        with pytest.raises(InvalidPair):
            legendre_function(HalfInt(2), HalfInt(1))

    def test_l_below_m_rejected(self):
        with pytest.raises(InvalidPair):
            legendre_function(HalfInt(1), HalfInt(3))

    def test_pair_accessor_and_quantum_pair_degree(self):
        pair = QuantumPair(l=HalfInt(9), m=HalfInt(-1))
        assert pair.degree == 4
        assert pair.m_abs == HalfInt(1)

    def test_no_hard_degree_ceiling(self):
        # exact arithmetic grows but never overflows; 2l = 201 works
        f = legendre_function(HalfInt(201), HalfInt(1))
        assert f.degree == 100
        assert all(c.denominator == 1 for c in f.coeffs)
        assert f.coeffs[100] != 0


def fraction_horner(a, x):
    acc = Fraction(0)
    for c in reversed(a):
        acc = acc * x + Fraction(c)
    return acc


def fraction_product(a, b):
    if not a or not b:
        return []
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for j, aj in enumerate(a):
        for k, bk in enumerate(b):
            out[j + k] += Fraction(aj) * Fraction(bk)
    return out


def seeded_polys(seed, count=60):
    """Lists of non-integer Fractions, ints and zeros, the empty list first."""
    rng = random.Random(seed)
    polys = [[]]
    for _ in range(count):
        poly = []
        for _ in range(rng.randint(1, 14)):
            kind = rng.random()
            if kind < 0.2:
                poly.append(0)
            elif kind < 0.4:
                poly.append(rng.randint(-10**30, 10**30))
            else:
                poly.append(Fraction(rng.randint(-999, 999), rng.randint(1, 97)))
        polys.append(poly)
    return polys


# Dyadic points (every float is one) and non-dyadic ones.
KERNEL_POINTS = [
    Fraction(0), Fraction(1), Fraction(-1), Fraction(1, 2), Fraction(-3, 8),
    Fraction(0.7390851332151607), Fraction(1, 3), Fraction(-22, 7), Fraction(10**20 + 1, 3**40), 5,
]


class TestPolyKernels:
    def test_eval_matches_fraction_horner(self):
        polys = seeded_polys(11)
        assert any(isinstance(c, Fraction) and c.denominator != 1 for p in polys for c in p)
        for poly in polys:
            for x in KERNEL_POINTS:
                got = poly_eval(poly, x)
                assert type(got) is Fraction
                assert got == fraction_horner(poly, x)

    def test_eval_of_empty_list_is_zero(self):
        assert poly_eval([], Fraction(1, 3)) == 0
        assert type(poly_eval([], 0.5)) is Fraction

    def test_float_point_is_evaluated_exactly(self):
        # Regression: a float x used to turn the Horner pass into float
        # arithmetic (1.5, not 3/2) and overflow on large coefficients.
        got = poly_eval([1, 1], 0.5)
        assert type(got) is Fraction and got == Fraction(3, 2)
        assert poly_eval([10**400, 1], 0.5) == 10**400 + Fraction(1, 2)
        x = 0.7390851332151607
        assert poly_eval([Fraction(1, 3), 0, -7], x) == fraction_horner([Fraction(1, 3), 0, -7], Fraction(x))

    def test_mul_matches_fraction_convolution(self):
        polys = seeded_polys(12, count=30)
        for a in polys:
            for b in polys[:12]:
                got = poly_mul(a, b)
                assert got == fraction_product(a, b)
                assert all(type(c) is Fraction for c in got)


class TestIntegerRecursion:
    def test_legendre_is_family_scale_times_series_over_lattice(self):
        for m_abs, i in lattice(60):
            f = legendre_function(m_abs + HalfInt(2 * i), m_abs)
            want = [family_scale(i) * c for c in series_coefficients(m_abs, i)]
            assert list(f.coeffs) == want
            assert all(type(c) is Fraction for c in f.coeffs)

    @pytest.mark.parametrize("two_l,two_m", [(401, 1), (400, 0)])
    def test_legendre_is_family_scale_times_series_deep(self, two_l, two_m):
        m_abs = HalfInt(two_m)
        i = (two_l - two_m) // 2
        f = legendre_function(HalfInt(two_l), m_abs)
        assert list(f.coeffs) == [family_scale(i) * c for c in series_coefficients(m_abs, i)]

    def test_series_matches_fraction_recursion(self):
        for m_abs, i in lattice(40):
            tm = m_abs.twice
            want = [Fraction(0)] * (i + 1)
            want[i % 2] = Fraction(1)
            for k in range(i % 2, i - 1, 2):
                want[k + 2] = Fraction(-(i - k) * (tm + i + k + 1), (k + 1) * (k + 2)) * want[k]
            assert series_coefficients(m_abs, i) == want

    def test_remainder_raises(self):
        # Seeded with 1, the degree-3 factor of |m| = 0 needs a_3 = -5/3.
        with pytest.raises(ArithmeticError):
            _scaled_series(0, 3, 1)
