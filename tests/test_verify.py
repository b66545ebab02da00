"""Oracles and suite runner: recurrence family, proportionality, reports."""

import json
from fractions import Fraction

import pytest

import qsharm.golden as golden
import qsharm.norms as norms
import qsharm.verify as verify
from qsharm.numerics import HalfInt, PiScaled
from qsharm.series import AllZero, InvalidPair, Normalization, legendre_function, series_coefficients
from qsharm.verify import (
    NotProportional,
    Suite,
    downward_coefficients,
    lattice,
    proportionality_check,
    recurrence_family,
    run_suite,
)


class TestRecurrenceFamily:
    def test_integer_order_seeds_and_step(self):
        family = recurrence_family(HalfInt(0), HalfInt(4))
        assert [list(f.coeffs) for f in family[:2]] == [[1], [0, 1]]
        # 2 R_2 = 3x*x - 1 -> coefficient list [-1/2, 0, 3/2]
        assert list(family[2].coeffs) == [Fraction(-1, 2), 0, Fraction(3, 2)]
        assert all(f.normalization is Normalization.RECURRENCE_SEEDED for f in family)

    def test_half_order_step(self):
        family = recurrence_family(HalfInt(1), HalfInt(5))
        assert list(family[1].coeffs) == [0, 2]
        # 2 R_{5/2} = 4x(2x) - 1 -> [-1, 0, 4]
        assert list(family[2].coeffs) == [-1, 0, 4]

    def test_seed_only(self):
        family = recurrence_family(HalfInt(0), HalfInt(0))
        assert [list(f.coeffs) for f in family] == [[1]]

    def test_unreachable_l_max_rejected(self):
        with pytest.raises(InvalidPair):
            recurrence_family(HalfInt(1), HalfInt(4))
        with pytest.raises(InvalidPair):
            recurrence_family(HalfInt(3), HalfInt(1))

    def test_proportional_to_series_output_across_lattice(self):
        for two_m in range(0, 26):
            m_abs = HalfInt(two_m)
            top = HalfInt(two_m + 2 * ((25 - two_m) // 2))
            family = recurrence_family(m_abs, top)
            for i, entry in enumerate(family):
                f = legendre_function(m_abs + HalfInt(2 * i), m_abs)
                proportionality_check(list(f.coeffs), list(entry.coeffs))


class TestDownwardCoefficients:
    def test_regenerates_upward_output(self):
        for m_abs, i in lattice(25):
            up = series_coefficients(m_abs, i)
            assert downward_coefficients(m_abs, i, up[i]) == up

    def test_anchoring_scales_linearly(self):
        up = series_coefficients(HalfInt(1), 4)
        doubled = downward_coefficients(HalfInt(1), 4, 2 * up[4])
        assert doubled == [2 * c for c in up]


class TestProportionalityCheck:
    def test_integer_scale(self):
        assert proportionality_check([8, 0, -32], [1, 0, -4]) == 8

    def test_negative_scale(self):
        assert proportionality_check([0, 2], [0, -1]) == -2

    def test_distinct_shapes_rejected(self):
        with pytest.raises(NotProportional):
            proportionality_check([1, 0, -4], [1, 0, -3])

    def test_degree_mismatch_rejected(self):
        with pytest.raises(NotProportional):
            proportionality_check([1, 0, -4], [1, 0])

    def test_trailing_zeros_trimmed(self):
        assert proportionality_check([2, 4, 0], [1, 2]) == 2

    def test_zero_vector_rejected(self):
        with pytest.raises(AllZero):
            proportionality_check([0, 0], [1, 2])

    def test_rational_scale(self):
        assert proportionality_check([1, 0, -3], [-Fraction(1, 2), 0, Fraction(3, 2)]) == -2


class TestRunSuite:
    @pytest.mark.parametrize("suite", list(Suite))
    def test_all_suites_pass_at_default_bound(self, suite):
        report = run_suite(suite, 25)
        assert report.fail_count == 0
        assert report.pass_count == len(report.cases) > 0

    def test_tables_has_both_golden_families(self):
        report = run_suite(Suite.TABLES, 21)
        ids = [c.id for c in report.cases]
        assert sum(1 for i in ids if i.startswith("legendre/")) == 72
        assert sum(1 for i in ids if i.startswith("norm/")) == 72

    def test_reports_are_byte_identical(self):
        a = run_suite("recurrence", 13).to_json()
        b = run_suite("recurrence", 13).to_json()
        assert a == b

    def test_report_schema(self):
        doc = json.loads(run_suite("ode-exact", 9).to_json())
        assert set(doc) == {"suite", "bounds", "cases", "pass_count", "fail_count"}
        assert doc["bounds"] == {"two_l_max": 9, "i_max": 4}
        assert doc["pass_count"] + doc["fail_count"] == len(doc["cases"])
        for case in doc["cases"]:
            assert set(case) == {"id", "status", "residual"}
            assert case["status"] in ("pass", "fail")

    def test_case_ordering_ascending(self):
        report = run_suite("ode-exact", 11)
        keys = []
        for c in report.cases:
            parts = dict(p.split("=") for p in c.id.split("/"))
            keys.append((int(parts["2m"]), int(parts["i"])))
        assert keys == sorted(keys)

    def test_tables_detects_corrupted_golden_entry(self, monkeypatch):
        corrupted = dict(golden.TABLE_POLYNOMIALS)
        corrupted[(1, 2)] = (1, 0, -5)
        monkeypatch.setattr(golden, "TABLE_POLYNOMIALS", corrupted)
        report = run_suite(Suite.TABLES, 21)
        assert report.fail_count == 1
        failing = [c for c in report.cases if not c.passed]
        assert failing[0].id == "legendre/2m=1/i=2"

    def test_norms_oracle_detects_wrong_closed_form(self, monkeypatch):
        """Only the moment-sum oracle sees a norm that is positive, has the right pi and feeds norm_full."""
        right = norms.norm_theta

        def wrong(f):
            value = right(f)
            return PiScaled(value.q * 2 if f.degree == 3 else value.q, value.pi_exponent)

        monkeypatch.setattr(norms, "norm_theta", wrong)
        monkeypatch.setattr(verify, "norm_theta", wrong)
        report = run_suite("norms", 6)
        failing = [c for c in report.cases if not c.passed]
        assert [c.id for c in failing] == ["structure/2m=0/i=3"]
        assert failing[0].residual == "closed form differs from the moment sum"

    def test_unknown_suite_rejected(self):
        with pytest.raises(ValueError):
            run_suite("bogus", 25)

    def test_negative_bound_rejected(self):
        with pytest.raises(ValueError):
            run_suite("tables", -1)

    def test_bound_zero_still_has_cases(self):
        report = run_suite("tables", 0)
        assert len(report.cases) == 2
        assert report.fail_count == 0
