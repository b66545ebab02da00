"""Oracles and suite runner: recurrence family, proportionality, reports."""

import contextlib
import hashlib
import io
import json
import sys
from fractions import Fraction

import pytest

import qsharm.evaluate as evaluate
import qsharm.golden as golden
import qsharm.norms as norms
import qsharm.verify as verify
from qsharm.cli import main
from qsharm.numerics import HalfInt, PiScaled
from qsharm.series import AllZero, InvalidPair, legendre_function, series_coefficients
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
        """Only the moment-sum oracle sees a norm that is positive and has the right pi."""
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

    def test_ode_numeric_evaluates_each_stencil_point_once(self, monkeypatch):
        calls = []
        original = evaluate.eval_theta

        def counting(f, theta):
            calls.append(theta)
            return original(f, theta)

        for name, module in list(sys.modules.items()):
            if name.split(".")[0] == "qsharm" and getattr(module, "eval_theta", None) is original:
                monkeypatch.setattr(module, "eval_theta", counting)
        report = run_suite("ode-numeric", 6)
        assert report.fail_count == 0
        assert len(calls) == 15 * len(report.cases)  # 5 angles x 3 stencil points

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


# SHA-256 of run_suite(suite, 12).to_json() and of `qsharm verify <suite>
# --two-l-max 12` text output, as written before the ODE oracle ran on
# integer numerators: not a byte of either report may change.
@pytest.mark.parametrize("suite, json_digest, text_digest", [
    ("tables",
     "cc2effb369b7cb6fbc442c23c0d5372e31b4394f5e0c685ab913de7edc83979f",
     "4031c3ffe7b78469d83a6c1e81115e696241731bad391b888c04578aebcef123"),
    ("ode-exact",
     "a1c9b42860eb3e8cd4dbd3cb85e712c2d54e5ec0e59b9d0faf22423e20d3381b",
     "a045743784c07de951d28b355d4bdbb153fc42569c405740dc28a0ff379e9ad4"),
    ("ode-numeric",
     "d5b253c2c186418d497858f1bb3c00bc96656e20287231bb501bf03262105e26",
     "95893fb70c4f5e18b7e3fc5e90d6a36911affdf525b8c053ff9c9ae537e3e94f"),
    ("recurrence",
     "8597994cde77196b7d4bf9e5fb0b8a996dde819f9b5d4ede72730281add524b7",
     "a26776a2b72584ea041084feef318eab7598d8ec0eb03fae1ce144fa1cd779a4"),
    ("orthogonality",
     "ffd6f8e3c755f1bd0ae163efb5abc68616d9884c36c34995b514e943574fab97",
     "cedf62b3104abb9409e6d2459c44d9c836468ef7b258fd03b185be7f9e765bd6"),
    ("norms",
     "2b4a840ccbcab72961fe464414dc97c2f6bd1ed457819d371d27656b6eed40ea",
     "9c676634ee1d278cd866e15ae72e4bc65b0866d0d0822e99bdd2cdb8748c499d"),
    ("periodicity",
     "4519f436763e8f176d7ba0e7efd983d9d0d32024020b14e6b74216427d6f7116",
     "4875e974868a5919f0b17895b24fd3050a1c24056b919f5123e4e9e35355c5a4"),
])
def test_report_bytes_pinned(suite, json_digest, text_digest):
    assert hashlib.sha256(run_suite(suite, 12).to_json().encode()).hexdigest() == json_digest
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["verify", suite, "--two-l-max", "12"]) == 0
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == text_digest
