"""Command-line surface: formats, round-trips, exit codes."""

import csv
import hashlib
import io
import json
import math

import pytest

from qsharm.cli import (
    format_factor,
    format_poly,
    main,
    parse_table_json,
    render_table,
    text_exponent,
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
        assert format_poly([1], text_exponent) == "1"
        assert format_poly([0, 1], text_exponent) == "x"
        assert format_poly([1, 0, -6], text_exponent) == "1-6x^2"
        assert format_poly([0, 15, 0, -80, 0, 80], text_exponent) == "15x-80x^3+80x^5"
        assert format_poly([0, -1], text_exponent) == "-x"

    def test_factor_text(self):
        assert format_factor(HalfInt(0), text_exponent) == "1"
        assert format_factor(HalfInt(3), text_exponent) == "(1-x^2)^(3/4)"
        assert format_factor(HalfInt(4), text_exponent) == "(1-x^2)"
        assert format_factor(HalfInt(8), text_exponent) == "(1-x^2)^2"


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
        from qsharm.cli import format_pi_scaled_latex, latex_exponent
        from qsharm.golden import reference_norm, reference_polynomial

        _, poly_doc, _ = run_cli(capsys, "table", "legendre", "--format", "latex")
        _, norm_doc, _ = run_cli(capsys, "table", "norms", "--format", "latex")
        poly_rows = [l for l in poly_doc.splitlines() if l.endswith("\\\\")]
        norm_rows = [l for l in norm_doc.splitlines() if l.endswith("\\\\")]
        assert len(poly_rows) == len(norm_rows) == 12
        for two_m in range(12):
            poly_cells = [c.strip() for c in poly_rows[two_m].rstrip("\\").split("&")]
            norm_cells = [c.strip() for c in norm_rows[two_m].rstrip("\\").split("&")]
            assert poly_cells[1] == format_factor(HalfInt(two_m), latex_exponent)
            for i in range(6):
                poly = reference_polynomial(two_m, i)
                assert poly_cells[2 + i] == format_poly(poly, latex_exponent)
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

    # SHA-256 of `qsharm table` output as written by the per-(kind, format)
    # renderer that preceded the shared row builder: not a byte may change.
    @pytest.mark.parametrize("kind, two_m_max, i_max, fmt, digest", [
        ("legendre", 11, 5, "text",
         "e6be3083f0a2dc6ae52c9ea5c7bfeab92bbe2013e996888fa669764a17b58cdd"),
        ("legendre", 11, 5, "csv",
         "40239922ea4453bf5a149747fd9168439e8b54facdda149106bbf1c74b91df2c"),
        ("legendre", 11, 5, "json",
         "f7b8a071287621200cf74e300e0f7fe212a51f9550582edafa8fb2ea013182ab"),
        ("legendre", 11, 5, "latex",
         "8097cda5ccfd3e8d10bbe81e5cb27fa9767641cddac3dbd34533fc17130b7ae1"),
        ("norms", 11, 5, "text",
         "22dd5029b2de53427ddbdbc16a7c6d1c73dcc4fd5bb3d73492de134b103a12dd"),
        ("norms", 11, 5, "csv",
         "60126c474930aab63d4f2c7d87213afef8e5ee5cf1aa378721cd6c0b51ae68c3"),
        ("norms", 11, 5, "json",
         "903dbfe0e872c25e5cdc2fe1af58bbcbaf205cc2dbf340225b7788de9a91ca31"),
        ("norms", 11, 5, "latex",
         "8dce783c00b26ab3e503107875b1826d1163c474e7c3752b954f969fb7065e6a"),
        ("legendre", 0, 0, "text",
         "2e882d1c85dd2a78ea403636063c513aeeb4bd56861cc3e9da6ee72308e677e2"),
        ("legendre", 0, 0, "csv",
         "34962f57cd2e3fa30a5992323a42d952c0d5daa1afef5dc2fca78ced998e6365"),
        ("legendre", 0, 0, "json",
         "9717f5a0bd6ce2222c6cbce916b59ffdaceb21c5c2dc10a261c6477056432f47"),
        ("legendre", 0, 0, "latex",
         "540d1a73a06058cf9b9afe8b66a1b1f07f2a2253b60d299c021d4d4fab1bb7ed"),
        ("norms", 0, 0, "text",
         "693222e0c26f3b2ec19744eb05acc42d4c79c8c2d81ec1a39e81c65247b9cff9"),
        ("norms", 0, 0, "csv",
         "af5c63fb7900e8772deb49b910b6120498118c0a28fa22099f0461faba4aedbb"),
        ("norms", 0, 0, "json",
         "1ed6c71856d4fca0a7874c94058d41e3fc537465ebbcce684a03ee057ae6c953"),
        ("norms", 0, 0, "latex",
         "05ac1eae2b3b3a5481a4f6ab77deb26a6a206c2161bb53ecc6f07905531d7739"),
        ("legendre", 1, 3, "text",
         "d8f7145fb5fc3a08b95223a1dd28039d99ce82edc292a8ed287f1a061ee82989"),
        ("legendre", 1, 3, "csv",
         "c19a3064b78e0c423bc5adc5fc811ca314e9da36334788a13e25bd218f9b20b0"),
        ("legendre", 1, 3, "json",
         "1a1fed1632613a4daefb59ea863a1bb0023a25b29f48dd4a493ef26c47c6712e"),
        ("legendre", 1, 3, "latex",
         "6ff8b86d96ddb7d7994215fb9f2185794c455ff1cb3536536c412bba19de6e91"),
        ("norms", 1, 3, "text",
         "31654f5e2d3549606e4f886d3163e1be7159854836d0fe250deba725ec87d7df"),
        ("norms", 1, 3, "csv",
         "89924060450c10becfd51735bda9cd7e5b2c85db7fd2e34bd609999519201cf1"),
        ("norms", 1, 3, "json",
         "5f68322dc66cfdb110b39adf52f77d35fe8749a7445baa79b1af9c616c6ea3a6"),
        ("norms", 1, 3, "latex",
         "3ed6aa7138638db5724c65e658887c28cbd8e9c2f3d322d456097b3dd045a4e5"),
        ("legendre", 4, 0, "text",
         "81259a198ab5b9ff7681eba4f272beb51e4acc7948aae28a6cb73df8da7a22e8"),
        ("legendre", 4, 0, "csv",
         "1cca149f8e3b255d5d8105da72c288674e52053cca6cfeec1bb0a121f5f4d9ca"),
        ("legendre", 4, 0, "json",
         "133cbe97311f978f0a01f94db9e73156ada146d5d3cbaea29eadd473995783b1"),
        ("legendre", 4, 0, "latex",
         "3f4d30628c522e2686f7acf0ecc4a15bca57635f7c28132f120dd8052a50344e"),
        ("norms", 4, 0, "text",
         "f06d9d30e486b5458d9cda5b140bed3e19f55a7eadb59154fca090c67bb65a83"),
        ("norms", 4, 0, "csv",
         "25c500ae9aad18a047ae7749cd9663455ea1faff35601f6f2c9a25897a963e7d"),
        ("norms", 4, 0, "json",
         "bbea6df4b8b7728f1379ecd27255bd31e2572a50f3f9e6c546fd701adbc5303f"),
        ("norms", 4, 0, "latex",
         "66ee0d2ca7d1cd0cf563542e9ef1b43d1475c90df96c9bbed21f3bffc1e7de3e"),
        ("legendre", 13, 7, "text",
         "01c84f3528f6e922d65d59710ebcd3f63ed91ef89f5511e242a1c6ec41449625"),
        ("legendre", 13, 7, "csv",
         "007c82728ad96061e200c49740d4ed8367832e7bba9dc7bca1d8d440f10d369f"),
        ("legendre", 13, 7, "json",
         "12b958b7a2b88d86b2a19cad2d1bec2faad69f8d19aff2e54d5a94d1a10803a5"),
        ("legendre", 13, 7, "latex",
         "5dc7369a742f724f650418742e74d23cea7ac2b6ff312c841c3ec0c49a4f4f51"),
        ("norms", 13, 7, "text",
         "8f2924c99540a48baff4ef174f503edb91b17de2b0f0298690448862a1187833"),
        ("norms", 13, 7, "csv",
         "918ce913db80d39df3c411a719cb968ed24270c8e0d1329bbd88bcd50174bf46"),
        ("norms", 13, 7, "json",
         "6060901673e5d240ab87cd2cc23ac6cc8c52aea472e89ec1f39fc12fb2ac620e"),
        ("norms", 13, 7, "latex",
         "6d1edb0a01f0463acc86b75f10c32ab6da64323fd375d8756ca08fe1654a3a2e"),
    ])
    def test_table_bytes_pinned(self, capsys, kind, two_m_max, i_max, fmt, digest):
        code, out, _ = run_cli(
            capsys, "table", kind, "--two-m-max", str(two_m_max), "--i-max", str(i_max),
            "--format", fmt,
        )
        assert code == 0
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


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

    def test_normalized_at_deep_half_odd_order(self, capsys):
        # The exact norm needs the moments M(4001/2, k), 2000 levels deep.
        code, out, err = run_cli(
            capsys, "eval", "--two-l", "4001", "--two-m", "4001",
            "--theta", "1", "--phi", "0", "--normalized",
        )
        assert (code, err) == (0, "")
        re, im = (float(v) for v in out.split(","))
        assert math.isfinite(re) and math.isfinite(im) and re != 0

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


@pytest.mark.parametrize("fmt", ["text", "csv", "json", "latex"])
def test_render_table_rejects_unknown_kind(fmt):
    with pytest.raises(ValueError):
        render_table("polynomials", 1, 1, fmt)
