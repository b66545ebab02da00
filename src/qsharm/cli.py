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
from .numerics import (
    HalfInt,
    PiScaled,
    halfint_from_string,
    pi_scaled_to_json,
    rational_to_string,
)
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


def format_poly_text(coeffs) -> str:
    """Render a coefficient list as e.g. "15x-80x^3+80x^5"."""
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
            body = f"{head}x" if power == 1 else f"{head}x^{power}"
        sign = "-" if c < 0 else ("+" if terms else "")
        terms.append(f"{sign}{body}")
    return "".join(terms) if terms else "0"


def format_poly_latex(coeffs) -> str:
    """Like format_poly_text but with braced exponents: "15x-80x^{3}+80x^{5}"."""
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
            body = f"{head}x" if power == 1 else f"{head}x^{{{power}}}"
        sign = "-" if c < 0 else ("+" if terms else "")
        terms.append(f"{sign}{body}")
    return "".join(terms) if terms else "0"


def format_factor_text(m_abs: HalfInt) -> str:
    """Prefactor (1-x^2)^(|m|/2) as text; "1" for |m| = 0."""
    if m_abs.twice == 0:
        return "1"
    e = Fraction(m_abs.twice, 4)
    if e == 1:
        return "(1-x^2)"
    if e.denominator == 1:
        return f"(1-x^2)^{e}"
    return f"(1-x^2)^({e})"


def format_factor_latex(m_abs: HalfInt) -> str:
    if m_abs.twice == 0:
        return "1"
    e = Fraction(m_abs.twice, 4)
    return "(1-x^2)" if e == 1 else f"(1-x^2)^{{{e}}}"


def format_pi_scaled_text(v: PiScaled) -> str:
    return str(v)


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


def legendre_record(f: LegendreFunction) -> dict:
    """JSON-facing record for one table entry."""
    return {
        "two_m": f.m_abs.twice,
        "i": f.degree,
        "coeffs": [rational_to_string(c) for c in f.coeffs],
    }


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


def _table_functions(two_m_max: int, i_max: int) -> list[LegendreFunction]:
    out = []
    for two_m in range(two_m_max + 1):
        for i in range(i_max + 1):
            m_abs = HalfInt(two_m)
            out.append(legendre_function(m_abs + HalfInt(2 * i), m_abs))
    return out


def _render_grid(rows: list[list[str]]) -> str:
    widths = [max(len(r[c]) for r in rows) for c in range(len(rows[0]))]
    lines = ["  ".join(cell.ljust(w) for cell, w in zip(r, widths)).rstrip() for r in rows]
    return "\n".join(lines) + "\n"


def render_table(kind: str, two_m_max: int, i_max: int, fmt: str) -> str:
    """Render the (|m|, i) grid of polynomials or norms in one format."""
    funcs = _table_functions(two_m_max, i_max)
    by_m: dict[int, list[LegendreFunction]] = {}
    for f in funcs:
        by_m.setdefault(f.m_abs.twice, []).append(f)

    if fmt == "json":
        entries = []
        for f in funcs:
            rec = legendre_record(f)
            if kind == "norms":
                rec = {
                    "two_m": rec["two_m"],
                    "i": rec["i"],
                    "norm": pi_scaled_to_json(norm_theta(f)),
                }
            entries.append(rec)
        doc = {"kind": kind, "two_m_max": two_m_max, "i_max": i_max, "entries": entries}
        return json.dumps(doc, indent=2) + "\n"

    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        if kind == "legendre":
            writer.writerow(["two_m", "i", "coeffs"])
            for f in funcs:
                writer.writerow(
                    [f.m_abs.twice, f.degree, " ".join(rational_to_string(c) for c in f.coeffs)]
                )
        else:
            writer.writerow(["two_m", "i", "q", "pi"])
            for f in funcs:
                v = norm_theta(f)
                writer.writerow([f.m_abs.twice, f.degree, rational_to_string(v.q), v.pi_exponent])
        return buf.getvalue()

    if fmt == "text":
        if kind == "legendre":
            rows = [["|m|", "factor"] + [f"i={i}" for i in range(i_max + 1)]]
            for two_m in sorted(by_m):
                m_abs = HalfInt(two_m)
                rows.append(
                    [str(m_abs), format_factor_text(m_abs)]
                    + [format_poly_text(f.coeffs) for f in by_m[two_m]]
                )
        else:
            rows = [["|m|"] + [f"i={i}" for i in range(i_max + 1)]]
            for two_m in sorted(by_m):
                rows.append(
                    [str(HalfInt(two_m))]
                    + [format_pi_scaled_text(norm_theta(f)) for f in by_m[two_m]]
                )
        return _render_grid(rows)

    if fmt == "latex":
        lines = []
        if kind == "legendre":
            cols = "|c|l" + "l" * (i_max + 1) + "|"
            lines.append(f"\\begin{{tabular}}{{{cols}}}")
            lines.append("\\hline")
            header = ["|m|", "factor"] + [f"i={i}" for i in range(i_max + 1)]
            lines.append(" & ".join(header) + " \\\\\\hline")
            for two_m in sorted(by_m):
                m_abs = HalfInt(two_m)
                cells = [_latex_halfint(m_abs), format_factor_latex(m_abs)]
                cells += [format_poly_latex(f.coeffs) for f in by_m[two_m]]
                lines.append(" & ".join(cells) + " \\\\")
        else:
            cols = "|c|" + "c" * (i_max + 1) + "|"
            lines.append(f"\\begin{{tabular}}{{{cols}}}")
            lines.append("\\hline")
            header = ["|m|"] + [f"i={i}" for i in range(i_max + 1)]
            lines.append(" & ".join(header) + " \\\\\\hline")
            for two_m in sorted(by_m):
                cells = [_latex_halfint(HalfInt(two_m))]
                cells += [format_pi_scaled_latex(norm_theta(f)) for f in by_m[two_m]]
                lines.append(" & ".join(cells) + " \\\\")
        lines.append("\\hline")
        lines.append("\\end{tabular}")
        return "\n".join(lines) + "\n"

    raise ValueError(f"unknown format {fmt!r}")


def _latex_halfint(h: HalfInt) -> str:
    if h.is_integer:
        return str(h.twice // 2)
    return f"\\frac{{{h.twice}}}{{2}}"


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
