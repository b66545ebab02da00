"""Command-line surface: table generation, evaluation, sampling, verification.

Quantum numbers cross this boundary as doubled integers (``--two-l 3``
is l = 3/2) or as exact strings (``--l 3/2``); they are never parsed as
floats.  Exact values serialize as strings ("num/den", {"q", "pi"}) in
CSV and JSON; text and LaTeX render them symbolically.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from fractions import Fraction

from .evaluate import DomainError, eval_grid, eval_harmonic, harmonic, phi_period
from .norms import norm_theta
from .numerics import HalfInt, PiScaled, halfint_from_string, pi_scaled_to_json
from .series import (
    InvalidPair,
    LegendreFunction,
    Normalization,
    legendre_function,
)
from .verify import SUITE_NAMES, run_suite

# ---------------------------------------------------------------------------
# Symbolic renderers
# ---------------------------------------------------------------------------


def text_exponent(e) -> str:
    """Text exponent of an int or rational: "^3", "^(3/4)"."""
    return f"^{e}" if e.denominator == 1 else f"^({e})"


def latex_exponent(e) -> str:
    """LaTeX exponent of an int or rational: "^{3}", "^{3/4}"."""
    return f"^{{{e}}}"


def format_poly(coeffs, exponent) -> str:
    """Render a coefficient list, e.g. "15x-80x^3+80x^5" with text_exponent."""
    terms = []
    for power, c in enumerate(coeffs):
        c = Fraction(c)
        if c == 0:
            continue
        mag = abs(c)
        if power == 0:
            body = str(mag)
        else:
            head = "" if mag == 1 else str(mag)
            body = f"{head}x" if power == 1 else f"{head}x{exponent(power)}"
        sign = "-" if c < 0 else ("+" if terms else "")
        terms.append(f"{sign}{body}")
    return "".join(terms) if terms else "0"


def format_factor(m_abs: HalfInt, exponent) -> str:
    """Prefactor (1-x^2)^(|m|/2); "1" for |m| = 0, "(1-x^2)" for |m| = 2."""
    if m_abs.twice == 0:
        return "1"
    e = Fraction(m_abs.twice, 4)
    return "(1-x^2)" if e == 1 else f"(1-x^2){exponent(e)}"


def format_pi_scaled_latex(v: PiScaled) -> str:
    if v.is_zero:
        return "0"
    sign = "-" if v.q < 0 else ""
    num, den = abs(v.q.numerator), v.q.denominator
    if v.pi_exponent == 0:
        head = str(num)
    else:
        head = "\\pi" if num == 1 else f"{num}\\pi"
    if den == 1:
        return f"{sign}{head}"
    return f"{sign}\\frac{{{head}}}{{{den}}}"


def _latex_halfint(h: HalfInt) -> str:
    if h.is_integer:
        return str(h.twice // 2)
    return f"\\frac{{{h.twice}}}{{2}}"


def legendre_from_record(record: dict) -> LegendreFunction:
    """Exact reconstruction of a table entry from its JSON record."""
    return LegendreFunction(
        m_abs=HalfInt(int(record["two_m"])),
        degree=int(record["i"]),
        coeffs=tuple(Fraction(s) for s in record["coeffs"]),
        normalization=Normalization.SMALLEST_INTEGERS,
    )


def parse_table_json(text: str) -> list[LegendreFunction]:
    """Parse a `table legendre --format json` document back into functions."""
    doc = json.loads(text)
    return [legendre_from_record(rec) for rec in doc["entries"]]


# ---------------------------------------------------------------------------
# table subcommand
# ---------------------------------------------------------------------------

# Cell formatters of the symbolic formats: |m| label, exponent, norm.
_CELL_FORMATS = {
    "text": (str, text_exponent, str),
    "latex": (_latex_halfint, latex_exponent, format_pi_scaled_latex),
}


def render_table(kind: str, two_m_max: int, i_max: int, fmt: str) -> str:
    """Render the (|m|, i) grid of polynomials or norms in one format."""
    if kind not in ("legendre", "norms"):
        raise ValueError(f"unknown table kind {kind!r}")
    if fmt not in ("json", "csv", *_CELL_FORMATS):
        raise ValueError(f"unknown format {fmt!r}")
    legendre = kind == "legendre"
    grid = [
        [legendre_function(HalfInt(two_m + 2 * i), HalfInt(two_m)) for i in range(i_max + 1)]
        for two_m in range(two_m_max + 1)
    ]

    if fmt in ("json", "csv"):
        records = []
        for f in [f for row in grid for f in row]:
            if legendre:
                value = {"coeffs": [str(c) for c in f.coeffs]}
            else:
                value = {"norm": pi_scaled_to_json(norm_theta(f))}
            records.append({"two_m": f.m_abs.twice, "i": f.degree, **value})
        if fmt == "json":
            doc = {"kind": kind, "two_m_max": two_m_max, "i_max": i_max, "entries": records}
            return json.dumps(doc, indent=2) + "\n"
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["two_m", "i", "coeffs"] if legendre else ["two_m", "i", "q", "pi"])
        for r in records:
            tail = [" ".join(r["coeffs"])] if legendre else [r["norm"]["q"], r["norm"]["pi"]]
            writer.writerow([r["two_m"], r["i"], *tail])
        return buf.getvalue()

    label, exponent, norm_cell = _CELL_FORMATS[fmt]
    rows = [(["|m|", "factor"] if legendre else ["|m|"]) + [f"i={i}" for i in range(i_max + 1)]]
    for two_m, funcs in enumerate(grid):
        m_abs = HalfInt(two_m)
        row = [label(m_abs)]
        if legendre:
            row.append(format_factor(m_abs, exponent))
            row += [format_poly(f.coeffs, exponent) for f in funcs]
        else:
            row += [norm_cell(norm_theta(f)) for f in funcs]
        rows.append(row)

    if fmt == "text":
        widths = [max(len(r[c]) for r in rows) for c in range(len(rows[0]))]
        lines = ["  ".join(cell.ljust(w) for cell, w in zip(r, widths)).rstrip() for r in rows]
        return "\n".join(lines) + "\n"
    cols = "|c|" + ("l" * (i_max + 2) if legendre else "c" * (i_max + 1)) + "|"
    lines = [f"\\begin{{tabular}}{{{cols}}}", "\\hline", " & ".join(rows[0]) + " \\\\\\hline"]
    lines += [" & ".join(r) + " \\\\" for r in rows[1:]]
    lines += ["\\hline", "\\end{tabular}"]
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# argument plumbing
# ---------------------------------------------------------------------------


def _add_pair_args(p: argparse.ArgumentParser) -> None:
    lg = p.add_mutually_exclusive_group(required=True)
    lg.add_argument("--two-l", type=int, help="doubled l (e.g. 3 for l = 3/2)")
    lg.add_argument("--l", type=halfint_from_string, dest="l_human", metavar="L",
                    help="l as an exact string, e.g. 3/2 or 2")
    mg = p.add_mutually_exclusive_group(required=True)
    mg.add_argument("--two-m", type=int, help="doubled m (may be negative)")
    mg.add_argument("--m", type=halfint_from_string, dest="m_human", metavar="M",
                    help="m as an exact string, e.g. -1/2")


def _resolve_pair(args) -> tuple[HalfInt, HalfInt]:
    l = HalfInt(args.two_l) if args.two_l is not None else args.l_human
    m = HalfInt(args.two_m) if args.two_m is not None else args.m_human
    return l, m


def _write_out(text: str, out: str | None) -> None:
    if out is None or out == "-":
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qsharm",
        description="Exact associated Legendre functions and quasi-spherical "
                    "harmonics for integer and half-odd-integer l, m.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_table = sub.add_parser("table", help="render the (|m|, i) grid of polynomials or norms")
    p_table.add_argument("kind", choices=("legendre", "norms"))
    p_table.add_argument("--two-m-max", type=int, default=11)
    p_table.add_argument("--i-max", type=int, default=5)
    p_table.add_argument("--format", choices=("text", "csv", "json", "latex"), default="text")
    p_table.add_argument("--out", default=None)

    p_eval = sub.add_parser("eval", help="evaluate Y(theta, phi) at one point")
    _add_pair_args(p_eval)
    p_eval.add_argument("--theta", type=float, required=True)
    p_eval.add_argument("--phi", type=float, required=True)
    p_eval.add_argument("--normalized", action="store_true")
    p_eval.add_argument("--phi-range", choices=("2pi", "4pi"), default="2pi")

    p_sample = sub.add_parser("sample", help="export a theta/phi grid of Y values as CSV")
    _add_pair_args(p_sample)
    p_sample.add_argument("--n-theta", type=int, required=True)
    p_sample.add_argument("--n-phi", type=int, required=True)
    p_sample.add_argument("--normalized", action="store_true")
    p_sample.add_argument("--phi-range", choices=("2pi", "4pi"), default="2pi")
    p_sample.add_argument("--out", default=None)

    p_verify = sub.add_parser("verify", help="run a property suite and report pass/fail")
    p_verify.add_argument("suite", choices=SUITE_NAMES)
    p_verify.add_argument("--two-l-max", type=int, default=25)
    p_verify.add_argument("--format", choices=("text", "json"), default="text")

    return parser


# ---------------------------------------------------------------------------
# subcommand bodies
# ---------------------------------------------------------------------------


def _cmd_table(args) -> int:
    if args.two_m_max < 0 or args.i_max < 0:
        raise InvalidPair("table bounds must be non-negative")
    text = render_table(args.kind, args.two_m_max, args.i_max, args.format)
    _write_out(text, args.out)
    return 0


def _cmd_eval(args) -> int:
    l, m = _resolve_pair(args)
    h = harmonic(l, m)
    value = eval_harmonic(
        h, args.theta, args.phi,
        unit_normalized=args.normalized, phi_range=args.phi_range,
    )
    sys.stdout.write(f"{value.real!r},{value.imag!r}\n")
    return 0


def _cmd_sample(args) -> int:
    if args.n_theta < 2 or args.n_phi < 2:
        raise InvalidPair("need at least 2 samples per axis")
    l, m = _resolve_pair(args)
    h = harmonic(l, m)
    period = phi_period(m)
    thetas = [j * math.pi / (args.n_theta - 1) for j in range(args.n_theta)]
    phis = [k * period / args.n_phi for k in range(args.n_phi)]
    grid = eval_grid(h, thetas, phis, unit_normalized=args.normalized, phi_range=args.phi_range)
    phi_reprs = [repr(phi) for phi in phis]
    buf = io.StringIO()
    buf.write("theta,phi,re,im,abs2\n")
    # Float reprs hold no comma or quote, so rows need no CSV quoting.
    for theta, row in zip(thetas, grid):
        theta_repr = repr(theta)
        for phi_repr, value in zip(phi_reprs, row):
            re, im = value.real, value.imag
            buf.write(f"{theta_repr},{phi_repr},{re!r},{im!r},{re ** 2 + im ** 2!r}\n")
    _write_out(buf.getvalue(), args.out)
    return 0


def _cmd_verify(args) -> int:
    report = run_suite(args.suite, args.two_l_max)
    if args.format == "json":
        sys.stdout.write(report.to_json() + "\n")
    else:
        for case in report.cases:
            tag = "PASS" if case.passed else "FAIL"
            sys.stdout.write(f"{tag} {case.id:<40} {case.residual}\n")
        sys.stdout.write(
            f"{report.suite.value}: {report.pass_count} passed, "
            f"{report.fail_count} failed (2l <= {report.two_l_max})\n"
        )
    return 0 if report.fail_count == 0 else 1


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handler = {
        "table": _cmd_table,
        "eval": _cmd_eval,
        "sample": _cmd_sample,
        "verify": _cmd_verify,
    }[args.command]
    try:
        return handler(args)
    except (InvalidPair, DomainError, ValueError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
