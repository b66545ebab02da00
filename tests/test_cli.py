"""Command-line surface: formats, round-trips, exit codes."""

import csv
import hashlib
import io
import json
import math

import pytest

from qsharm.cli import (
    format_factor_text,
    format_poly_text,
    main,
    parse_table_json,
    render_table,
)
from qsharm.evaluate import eval_harmonic, harmonic
from qsharm.numerics import HalfInt
from qsharm.series import legendre_function


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestFormatting:
    def test_poly_text(self):
        assert format_poly_text([1]) == "1"
        assert format_poly_text([0, 1]) == "x"
        assert format_poly_text([1, 0, -6]) == "1-6x^2"
        assert format_poly_text([0, 15, 0, -80, 0, 80]) == "15x-80x^3+80x^5"
        assert format_poly_text([0, -1]) == "-x"

    def test_factor_text(self):
        assert format_factor_text(HalfInt(0)) == "1"
        assert format_factor_text(HalfInt(3)) == "(1-x^2)^(3/4)"
        assert format_factor_text(HalfInt(4)) == "(1-x^2)"
        assert format_factor_text(HalfInt(8)) == "(1-x^2)^2"


class TestTableCommand:
    def test_text_row_for_three_halves(self, capsys):
        code, out, _ = run_cli(capsys, "table", "legendre")
        assert code == 0
        row = next(line for line in out.splitlines() if line.startswith("3/2"))
        assert "(1-x^2)^(3/4)" in row
        assert "1-6x^2" in row

    def test_norms_text_corner_entry(self, capsys):
        code, out, _ = run_cli(capsys, "table", "norms")
        assert code == 0
        row = next(line for line in out.splitlines() if line.startswith("11/2"))
        assert "8775π/8192" in row

    def test_json_single_entry(self, capsys):
        code, out, _ = run_cli(
            capsys, "table", "legendre", "--two-m-max", "0", "--i-max", "0", "--format", "json"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["entries"] == [{"two_m": 0, "i": 0, "coeffs": ["1"]}]

    def test_json_round_trip_is_exact(self, capsys):
        code, out, _ = run_cli(
            capsys, "table", "legendre", "--two-m-max", "11", "--i-max", "5", "--format", "json"
        )
        assert code == 0
        functions = parse_table_json(out)
        assert len(functions) == 72
        for f in functions:
            rebuilt = legendre_function(f.m_abs + HalfInt(2 * f.degree), f.m_abs)
            assert f == rebuilt

    def test_csv_is_ascii_with_header(self, capsys):
        code, out, _ = run_cli(capsys, "table", "norms", "--format", "csv")
        assert code == 0
        out.encode("ascii")
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["two_m", "i", "q", "pi"]
        assert ["1", "0", "1/2", "1"] in rows
        assert out.endswith("\n")

    def test_csv_legendre_rational_strings(self, capsys):
        code, out, _ = run_cli(capsys, "table", "legendre", "--format", "csv")
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["two_m", "i", "coeffs"]
        assert ["1", "4", "3 0 -36 0 48"] in rows

    def test_latex_contains_reference_cells(self, capsys):
        code, out, _ = run_cli(capsys, "table", "legendre", "--format", "latex")
        assert "3x-16x^{3}" in out
        code, out, _ = run_cli(capsys, "table", "norms", "--format", "latex")
        assert "\\frac{8775\\pi}{8192}" in out

    def test_latex_default_tables_entry_equivalent_to_golden(self, capsys):
        """Every default-table LaTeX cell carries the golden entry for its slot."""
        from qsharm.cli import format_factor_latex, format_pi_scaled_latex, format_poly_latex
        from qsharm.golden import reference_norm, reference_polynomial

        _, poly_doc, _ = run_cli(capsys, "table", "legendre", "--format", "latex")
        _, norm_doc, _ = run_cli(capsys, "table", "norms", "--format", "latex")
        poly_rows = [l for l in poly_doc.splitlines() if l.endswith("\\\\")]
        norm_rows = [l for l in norm_doc.splitlines() if l.endswith("\\\\")]
        assert len(poly_rows) == len(norm_rows) == 12
        for two_m in range(12):
            poly_cells = [c.strip() for c in poly_rows[two_m].rstrip("\\").split("&")]
            norm_cells = [c.strip() for c in norm_rows[two_m].rstrip("\\").split("&")]
            assert poly_cells[1] == format_factor_latex(HalfInt(two_m))
            for i in range(6):
                assert poly_cells[2 + i] == format_poly_latex(reference_polynomial(two_m, i))
                assert norm_cells[1 + i] == format_pi_scaled_latex(reference_norm(two_m, i))

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "table.csv"
        code, out, _ = run_cli(
            capsys, "table", "legendre", "--format", "csv", "--out", str(target)
        )
        assert code == 0 and out == ""
        assert target.read_text().startswith("two_m,i,coeffs")

    def test_negative_bounds_fail(self, capsys):
        code, _, err = run_cli(capsys, "table", "legendre", "--two-m-max", "-1")
        assert code == 1
        assert "error" in err


class TestEvalCommand:
    def test_equator_of_lowest_half_pair(self, capsys):
        code, out, _ = run_cli(
            capsys, "eval", "--two-l", "1", "--two-m", "1",
            "--theta", repr(math.pi / 2), "--phi", "0",
        )
        assert code == 0
        assert out == "1.0,0.0\n"

    def test_sign_flip_after_one_circle(self, capsys):
        code, out, _ = run_cli(
            capsys, "eval", "--two-l", "1", "--two-m", "1",
            "--theta", repr(math.pi / 2), "--phi", repr(2 * math.pi),
        )
        assert code == 0
        assert out.startswith("-1.0,")

    def test_matches_library_to_all_digits(self, capsys):
        code, out, _ = run_cli(
            capsys, "eval", "--two-l", "3", "--two-m", "1",
            "--theta", "0.5", "--phi", "0.25",
        )
        value = eval_harmonic(harmonic(HalfInt(3), HalfInt(1)), 0.5, 0.25)
        assert out == f"{value.real!r},{value.imag!r}\n"

    def test_human_quantum_numbers(self, capsys):
        code_a, out_a, _ = run_cli(
            capsys, "eval", "--l", "3/2", "--m", "1/2", "--theta", "0.5", "--phi", "0.25"
        )
        code_b, out_b, _ = run_cli(
            capsys, "eval", "--two-l", "3", "--two-m", "1", "--theta", "0.5", "--phi", "0.25"
        )
        assert (code_a, out_a) == (code_b, out_b)

    def test_invalid_pair_exits_nonzero(self, capsys):
        code, _, err = run_cli(
            capsys, "eval", "--two-l", "2", "--two-m", "1", "--theta", "0.5", "--phi", "0"
        )
        assert code == 1
        assert "error" in err

    @pytest.mark.parametrize("phi", ["nan", "inf", "-inf"])
    def test_non_finite_phi_exits_nonzero(self, capsys, phi):
        code, out, err = run_cli(
            capsys, "eval", "--two-l", "3", "--two-m", "1", "--theta", "1", f"--phi={phi}"
        )
        assert (code, out) == (1, "")
        assert err.startswith("error: ")

    def test_theta_domain_error_exits_nonzero(self, capsys):
        code, _, err = run_cli(
            capsys, "eval", "--two-l", "2", "--two-m", "0", "--theta", "4.0", "--phi", "0"
        )
        assert code == 1
        assert "error" in err


class TestSampleCommand:
    def read_rows(self, out):
        rows = list(csv.DictReader(io.StringIO(out)))
        return rows

    def test_integer_pair_grid(self, capsys):
        code, out, _ = run_cli(
            capsys, "sample", "--two-l", "2", "--two-m", "2", "--n-theta", "3", "--n-phi", "4"
        )
        assert code == 0
        rows = self.read_rows(out)
        assert len(rows) == 12
        assert max(float(r["phi"]) for r in rows) < 2 * math.pi

    def test_half_pair_grid_spans_toward_double_circle(self, capsys):
        code, out, _ = run_cli(
            capsys, "sample", "--two-l", "1", "--two-m", "1", "--n-theta", "3", "--n-phi", "4"
        )
        rows = self.read_rows(out)
        assert len(rows) == 12
        phis = sorted({float(r["phi"]) for r in rows})
        assert phis[-1] > 2 * math.pi
        assert phis[-1] < 4 * math.pi

    def test_abs2_column_consistent(self, capsys):
        code, out, _ = run_cli(
            capsys, "sample", "--two-l", "3", "--two-m", "1", "--n-theta", "4", "--n-phi", "3"
        )
        for row in self.read_rows(out):
            re, im, abs2 = float(row["re"]), float(row["im"]), float(row["abs2"])
            assert abs2 == re * re + im * im

    def test_header_and_file_output(self, capsys, tmp_path):
        target = tmp_path / "grid.csv"
        code, out, _ = run_cli(
            capsys, "sample", "--two-l", "0", "--two-m", "0",
            "--n-theta", "2", "--n-phi", "2", "--out", str(target),
        )
        assert code == 0
        text = target.read_text()
        assert text.splitlines()[0] == "theta,phi,re,im,abs2"

    # SHA-256 of the CSV as written by the point-by-point evaluator that
    # preceded eval_grid: the grid path must not change a byte.
    @pytest.mark.parametrize("two_l, two_m, n_theta, n_phi, flags, digest", [
        (1, 1, 2, 2, (), "6b0d3a875ada3e410e08a8ba96897ea4a60eacb04a0e211f4201a40a1ab28029"),
        (1, -1, 16, 16, ("--normalized",),
         "fff26dc78ca4da0686034ee2b2c3e00349fb7b237c9ee2001f62125370dc0eff"),
        (3, -3, 8, 5, ("--normalized", "--phi-range", "4pi"),
         "6d07542bb8d01a275ebaba1fb3efd10ccab76c8ec1d5e70bb5ec19f61539ecde"),
        (4, 0, 33, 17, (), "b32ddced9b51cf1fcbd7c8dc32bcdb77343c12fd46aca0fcfe86c2be69e438a8"),
        (6, 4, 64, 64, ("--normalized",),
         "1b842de280fc1aed676444e2572f77977bee957c8788d0ac8485dadcd4f4b6ae"),
        (6, -4, 10, 64, ("--normalized", "--phi-range", "4pi"),
         "f2ab685ebd2c00457f34b449d288a7e5cebfaaa0b349215afdb46840dab5cf94"),
        (25, 7, 21, 9, ("--normalized", "--phi-range", "4pi"),
         "c9f5e36708429b3bdfc4fb0c07499b6a9c97f3390dabe7c0e2a08238836faf3e"),
        (41, -13, 64, 2, (), "0501d4062faadce47dbacb461ca266d579ad9cc342544277adebb3f98e53260d"),
        (60, -20, 31, 40, ("--normalized",),
         "796d220bdfe3f94a8144cbdee7bdc48aeb46ac94d6d5f5dd2c123a8a254a3916"),
        (101, 1, 50, 32, ("--normalized", "--phi-range", "4pi"),
         "81d237fcc1659a7cf518b42e2e954dd26d507dc5206ec3592623d594445d3537"),
        (101, -101, 2, 64, (), "7045062addcb1463bcc0e98d0ff0cb00a3b5bf9e904905eae6c92461bf97bc81"),
        (100, -50, 64, 3, ("--normalized",),
         "dc0bd7f82e7e671f696c1d68c5c8495197f8795a31d48d65e625112d98ec37e7"),
    ])
    def test_csv_bytes_pinned(self, capsys, two_l, two_m, n_theta, n_phi, flags, digest):
        code, out, _ = run_cli(
            capsys, "sample", "--two-l", str(two_l), "--two-m", str(two_m),
            "--n-theta", str(n_theta), "--n-phi", str(n_phi), *flags,
        )
        assert code == 0
        assert hashlib.sha256(out.encode("ascii")).hexdigest() == digest

    def test_too_few_samples_rejected(self, capsys):
        code, _, err = run_cli(
            capsys, "sample", "--two-l", "0", "--two-m", "0", "--n-theta", "1", "--n-phi", "4"
        )
        assert code == 1


class TestVerifyCommand:
    def test_tables_pass_exit_zero(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "tables", "--two-l-max", "21")
        assert code == 0
        assert "144 passed, 0 failed" in out

    def test_ode_exact_exit_zero(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "ode-exact", "--two-l-max", "25")
        assert code == 0

    def test_json_format(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "periodicity", "--two-l-max", "11", "--format", "json"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["fail_count"] == 0
        assert doc["suite"] == "periodicity"

    def test_unknown_suite_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "bogus"])
        assert exc.value.code == 2

    def test_failing_suite_exits_one(self, capsys, monkeypatch):
        import qsharm.golden as golden

        corrupted = dict(golden.TABLE_POLYNOMIALS)
        corrupted[(0, 2)] = (1, 0, -4)
        monkeypatch.setattr(golden, "TABLE_POLYNOMIALS", corrupted)
        code, out, _ = run_cli(capsys, "verify", "tables")
        assert code == 1
        assert "FAIL" in out


def test_render_table_rejects_unknown_format():
    with pytest.raises(ValueError):
        render_table("legendre", 1, 1, "yaml")
