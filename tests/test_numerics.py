"""Exact scalar foundations: half-integers, rationals, pi-scaled values."""

from fractions import Fraction

import pytest

from qsharm.numerics import (
    HalfInt,
    MixedPiDegree,
    PiScaled,
    halfint_from_string,
    pi_scaled_from_json,
    pi_scaled_to_json,
)


class TestHalfInt:
    @pytest.mark.parametrize("twice,text", [(3, "3/2"), (0, "0"), (-1, "-1/2"), (4, "2")])
    def test_from_twice(self, twice, text):
        h = HalfInt(twice)
        assert h.twice == twice
        assert str(h) == text

    def test_addition_matches_doubled_values(self):
        values = [HalfInt(t) for t in range(-6, 7)]
        for a in values:
            for b in values:
                assert (a + b).twice == a.twice + b.twice

    def test_ordering_matches_rational_ordering(self):
        values = [HalfInt(t) for t in range(-6, 7)]
        for a in values:
            for b in values:
                assert (a < b) == (a.as_fraction() < b.as_fraction())
                assert (a == b) == (a.as_fraction() == b.as_fraction())

    def test_parity_flags(self):
        assert HalfInt(4).is_integer and not HalfInt(4).is_half_odd
        assert HalfInt(3).is_half_odd and not HalfInt(3).is_integer

    def test_neg_abs_sub_int_mixing(self):
        assert (-HalfInt(3)).twice == -3
        assert abs(HalfInt(-3)) == HalfInt(3)
        assert (HalfInt(3) - HalfInt(1)) == HalfInt(2)
        assert (HalfInt(3) + 1) == HalfInt(5)
        assert (1 + HalfInt(3)) == HalfInt(5)
        assert HalfInt(4) == 2

    def test_float_and_hash(self):
        assert float(HalfInt(3)) == 1.5
        assert hash(HalfInt(4)) == hash(Fraction(2))

    def test_immutable(self):
        with pytest.raises(AttributeError):
            HalfInt(1).twice = 5

    @pytest.mark.parametrize("text,twice", [("3/2", 3), ("2", 4), ("-1/2", -1), (" 0 ", 0)])
    def test_from_string(self, text, twice):
        assert halfint_from_string(text).twice == twice

    @pytest.mark.parametrize("text", ["3/4", "1.5", "x"])
    def test_from_string_rejects_non_half(self, text):
        with pytest.raises(ValueError):
            halfint_from_string(text)


class TestBigRational:
    """The rational scalar is fractions.Fraction; pin its contract."""

    def test_lowest_terms_after_arithmetic(self):
        samples = [Fraction(n, d) for n in range(-5, 6) for d in range(1, 6)]
        for a in samples:
            for b in samples:
                for value in (a + b, a - b, a * b):
                    assert value.denominator > 0
                    import math

                    assert math.gcd(value.numerator, value.denominator) == 1

    def test_reciprocal_product_is_one(self):
        for n in range(1, 8):
            for d in range(1, 8):
                a = Fraction(n, d)
                assert a * (1 / a) == 1

    def test_zero_is_canonical(self):
        assert Fraction(0, 7) == Fraction(0, 1)
        assert Fraction(0, 7).denominator == 1


class TestPiScaled:
    def test_add_cancellation_canonicalizes_exponent(self):
        total = PiScaled(Fraction(1, 2), 1) + PiScaled(Fraction(-1, 2), 1)
        assert total == PiScaled(0, 0)
        assert total.pi_exponent == 0

    def test_add_rationals(self):
        assert PiScaled(2) + PiScaled(Fraction(2, 3)) == PiScaled(Fraction(8, 3))

    def test_add_mixed_degree_raises(self):
        with pytest.raises(MixedPiDegree):
            PiScaled(Fraction(1, 2), 1) + PiScaled(Fraction(1, 3), 0)

    def test_zero_is_identity_for_both_exponents(self):
        zero = PiScaled(0)
        for v in (PiScaled(Fraction(3, 4), 1), PiScaled(Fraction(-2, 5), 0)):
            assert zero + v == v
            assert v + zero == v

    @pytest.mark.parametrize(
        "value,scalar,expected",
        [
            (PiScaled(Fraction(1, 8), 1), 4, PiScaled(Fraction(1, 2), 1)),
            (PiScaled(Fraction(2, 3)), 0, PiScaled(0, 0)),
            (PiScaled(Fraction(1, 2), 1), Fraction(1, 4), PiScaled(Fraction(1, 8), 1)),
        ],
    )
    def test_mul_rational(self, value, scalar, expected):
        assert value.mul_rational(scalar) == expected

    def test_add_commutative_associative(self):
        vals = [PiScaled(Fraction(n, 3), 1) for n in (-2, 1, 5)]
        a, b, c = vals
        assert a + b == b + a
        assert (a + b) + c == a + (b + c)

    def test_bad_exponent_rejected(self):
        with pytest.raises(ValueError):
            PiScaled(1, 2)

    def test_str_renderings(self):
        assert str(PiScaled(Fraction(9, 32), 1)) == "9π/32"
        assert str(PiScaled(Fraction(1, 2), 1)) == "π/2"
        assert str(PiScaled(Fraction(-1, 2), 1)) == "-π/2"
        assert str(PiScaled(Fraction(2, 3))) == "2/3"
        assert str(PiScaled(0)) == "0"
        assert str(PiScaled(9, 1)) == "9π"

    def test_float_conversion(self):
        import math

        assert float(PiScaled(Fraction(1, 2), 1)) == pytest.approx(math.pi / 2, rel=1e-15)
        assert float(PiScaled(Fraction(8, 5))) == 1.6

    def test_json_round_trip(self):
        for v in (PiScaled(Fraction(693, 8192), 1), PiScaled(Fraction(-3, 7)), PiScaled(0)):
            assert pi_scaled_from_json(pi_scaled_to_json(v)) == v
        assert pi_scaled_to_json(PiScaled(Fraction(1, 2), 1)) == {"q": "1/2", "pi": 1}
