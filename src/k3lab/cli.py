"""Command line front end: verification suites, family coefficients and
modular polynomials.

Exit codes: 0 all checks pass, 1 verification failure, 2 usage error,
3 domain or precision error (forbidden parameter values, or a tau beyond
the reach of the working precision); 1 also when stdout is a pipe that the
reader closed early.
"""

from __future__ import annotations

import argparse
import functools
import os
import re
import sys
from fractions import Fraction
from typing import TYPE_CHECKING

from . import LEVELS, SUITE_NAMES
from .errors import DomainError, PrecisionError

if TYPE_CHECKING:
    from .modular import RationalPoint

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_DOMAIN = 3


# Size bound of the rational readers: --j1 and --j2 take a numerator and a
# denominator of at most J_DIGITS decimal digits each, --lambda1 and
# --lambda2 a sixth of that, as j has degree 6 in lambda.  Then the printed
# j, a^3 and b^2 have a numerator and a denominator of at most 2 J_DIGITS + 10
# digits, within the 4300 that str(int) converts by default.
J_DIGITS = 2000
LAMBDA_DIGITS = J_DIGITS // 6

# Fraction's grammar: p/q, or a decimal with an optional exponent.  Kept as
# text, so that only a reader that needs it compiles it (re caches it).
_RATIONAL = r"""(?x)[+-]?(?=\d|\.\d)(?P<num>\d*|\d+(?:_\d+)*)
    (?:\s*/\s*(?P<den>\d+(?:_\d+)*)
      |(?:\.(?P<frac>\d*|\d+(?:_\d+)*))?(?:[eE](?P<exp>[+-]?\d+(?:_\d+)*))?)"""


def parse_rational(name: str, digits: int, text: str) -> Fraction:
    """`text` read exactly, as Fraction reads it, for the option `name`.  A
    numerator or denominator of more than `digits` digits as written raises
    PrecisionError (`_hold_to_bound`)."""
    cleaned = text.strip()
    # without an exponent, no part as written has more digits than the text
    if len(cleaned) > digits or "e" in cleaned or "E" in cleaned:
        _hold_to_bound(name, digits, cleaned)
    try:
        return Fraction(cleaned)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"not a rational number: {text!r}") from exc


def _hold_to_bound(name: str, digits: int, text: str) -> None:
    """Raise PrecisionError if the numerator or the denominator of `text`,
    as written, has more than `digits` digits; m.f e E is written as the
    integer mf over 10^(len(f) - E).  The digits are counted on the text, so
    no large integer is built for a value such as 1e-999999999."""
    match = re.fullmatch(_RATIONAL, text)
    if match is None:
        raise argparse.ArgumentTypeError(f"not a rational number: {text!r}")
    num, den, frac, exp = ((match[k] or "").replace("_", "")
                           for k in ("num", "den", "frac", "exp"))
    if den:
        written = {"numerator": len(num.lstrip("0")), "denominator": len(den.lstrip("0"))}
    else:
        if len(exp.lstrip("+-0")) > 9:
            raise PrecisionError(f"{name} has an exponent of more than 9 digits, "
                                 f"beyond its reader's bound of {digits} digits")
        shift = int(exp or 0) - len(frac)
        written = {"numerator": len((num + frac).lstrip("0")) + max(shift, 0),
                   "denominator": max(-shift, 0) + 1}
    for part, count in written.items():
        if count > digits:
            raise PrecisionError(f"{name} has a {part} of {count} digits, "
                                 f"beyond its reader's bound of {digits}")


# A real part, an imaginary part ending in i (or j), or both; 'i' alone is 1i.
# Kept as text, as _RATIONAL is, so that only a --tau reader compiles it.
_DECIMAL = r"(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?"
_COMPLEX = rf"(?P<re>[+-]?{_DECIMAL})??(?:(?P<im>[+-]?(?:{_DECIMAL})?)[ij])?"


def parse_complex(text: str) -> RationalPoint:
    """Accepts forms like '2', '1/2', 'i', '2i', '1+2i', '-0.5+1.25i'; read
    exactly, as a point of Q(i), so no digit is lost.  A decimal part
    outside the reader's size bound (modular.exact_part) raises
    PrecisionError.  Anything else, 'inf' and 'nan' included, is not a
    number."""
    from . import modular as md

    cleaned = text.strip().replace(" ", "")
    if "/" in cleaned:
        return md.RationalPoint(parse_rational("--tau", J_DIGITS, cleaned), Fraction(0))
    match = re.fullmatch(_COMPLEX, cleaned)
    if not cleaned or match is None:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}")
    im = match["im"]
    real = md.exact_part(match["re"] or "0", "Re(tau)")
    if im is None:
        return md.RationalPoint(real, Fraction(0))
    return md.RationalPoint(real, md.exact_part(im + "1" if im in ("", "+", "-") else im,
                                                "Im(tau)"))


def _fmt(value) -> str:
    """Deterministic decimal rendering of an mpmath number."""
    import mpmath

    return mpmath.nstr(value, 17)


# Options whose value may start with '-'.  argparse reads a separate token
# such as -5/2 or -0.5+1.2i as an option, because it takes only forms like
# -123 and -1.5 for negative numbers, so such a token is attached to its
# option as --option=value.
NUMBER_OPTIONS = ("--j1", "--j2", "--lambda1", "--lambda2", "--tau", "--n")


def _attach_dash_values(argv) -> list:
    out = []
    for token in argv:
        if (out and out[-1] in NUMBER_OPTIONS and token.startswith("-")
                and not token.startswith("--") and token != "-h"):
            out[-1] += "=" + token
        else:
            out.append(token)
    return out


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of the process: argparse keeps no state between
    parses, as each makes a new Namespace and looks up sys.stdout and
    sys.stderr only when it prints."""
    parser = argparse.ArgumentParser(
        prog="k3lab",
        description="verification workbench for the mirror family of "
                    "elliptically fibered K3 surfaces",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="run a verification suite")
    p_verify.add_argument("--suite", default="all",
                          choices=("all",) + SUITE_NAMES)

    p_report = sub.add_parser("report", help="run a suite and emit a report")
    p_report.add_argument("--suite", default="all",
                          choices=("all",) + SUITE_NAMES)
    p_report.add_argument("--format", default="json", choices=("json", "text"))

    p_family = sub.add_parser("family", help="family coefficients for one member")
    for option, digits in (("--j1", J_DIGITS), ("--j2", J_DIGITS),
                           ("--lambda1", LAMBDA_DIGITS), ("--lambda2", LAMBDA_DIGITS)):
        p_family.add_argument(option, type=functools.partial(parse_rational, option, digits))
    p_family.add_argument("--tau", type=parse_complex)
    p_family.add_argument("--n", type=int)

    p_modpoly = sub.add_parser("modpoly", help="build a modular polynomial")
    p_modpoly.add_argument("--n", type=int, required=True, choices=LEVELS)

    return parser


def run_suite(name: str):
    """`suites.run_suite`, importing `suites` only when a command runs a
    suite; each suite imports its own layers."""
    from . import suites

    return suites.run_suite(name)


def cmd_verify(args) -> int:
    report = run_suite(args.suite)
    for chk in report.checks:
        print(f"{chk.status.upper():4s} {chk.id}: {chk.description} [{chk.witness}]")
    print(f"suite {report.suite}: {report.status} "
          f"({len(report.checks)} checks, {report.elapsed_ms} ms)")
    return EXIT_PASS if report.status == "pass" else EXIT_FAIL


def cmd_report(args) -> int:
    report = run_suite(args.suite)
    if args.format == "json":
        import json

        print(json.dumps(report.to_dict(), indent=2))
    else:
        width = max(len(c.id) for c in report.checks)
        print(f"{'check':{width}s}  status  description")
        for chk in report.checks:
            print(f"{chk.id:{width}s}  {chk.status:6s}  {chk.description}")
        print(f"{'overall':{width}s}  {report.status:6s}  elapsed {report.elapsed_ms} ms")
    return EXIT_PASS if report.status == "pass" else EXIT_FAIL


def cmd_family(args) -> int:
    groups = {
        "j": (args.j1, args.j2),
        "lambda": (args.lambda1, args.lambda2),
        "tau": (args.tau, args.n),
    }
    complete = [name for name, vals in groups.items()
                if all(v is not None for v in vals)]
    partial = [name for name, vals in groups.items()
               if any(v is not None for v in vals)]
    if len(complete) != 1 or len(partial) != 1:
        print("family needs exactly one of: --j1/--j2, --lambda1/--lambda2, "
              "--tau/--n", file=sys.stderr)
        return EXIT_USAGE

    from . import modular as md
    from . import shioda_inose as si

    # every mode is answered from (j1, j2); disc(a, b - 2) disc(a, b + 2) =
    # (j1 - j2)^2 / 256 exactly, so the degeneracy flag is j1 == j2, exact
    # for tau too: fricke_pair compares the reduced points of its pair
    mode = complete[0]
    if mode == "tau":
        if args.n < 1:
            print("--n must be a positive integer", file=sys.stderr)
            return EXIT_USAGE
        # fricke_pair chops j1 and j2, so a and b follow the printed values
        j1, j2, degenerate = md.fricke_pair(args.tau, args.n)
        print(f"j1 = {_fmt(j1)}")
        print(f"j2 = {_fmt(j2)}")
        powers = None
    else:
        if mode == "lambda":
            j1, j2 = si.j_from_lambda(args.lambda1), si.j_from_lambda(args.lambda2)
            print(f"j1 = {j1}")
            print(f"j2 = {j2}")
        else:
            j1, j2 = args.j1, args.j2
        powers = si.ab_powers_from_j(j1, j2)
        print(f"a_cubed = {powers.a_cubed}")
        print(f"b_squared = {powers.b_squared}")
        degenerate = j1 == j2
    print(f"degenerate = {'true' if degenerate else 'false'}")
    # a and b of a rational pair are real roots of these exact powers times
    # an exact phase (ab_numeric); chop still clears a root below CHOP_TOL,
    # as a = 0.0 at --j1=1e-300 --j2=1e-300
    a, b = map(md.chop, si.ab_numeric(j1, j2, powers))
    print(f"a = {_fmt(a)}")
    print(f"b = {_fmt(b)}")
    return EXIT_PASS


def cmd_modpoly(args) -> int:
    from . import modular as md

    phi = md.build_modular_polynomial(args.n)
    print(f"n={phi.n}")
    for (i, j), coeff in sorted(phi.coefficients.items()):
        print(f"{i} {j} {coeff}")
    return EXIT_PASS


def main(argv=None) -> int:
    parser = build_parser()
    handlers = {
        "verify": cmd_verify,
        "report": cmd_report,
        "family": cmd_family,
        "modpoly": cmd_modpoly,
    }
    try:
        # a --tau or a rational beyond its reader's size bound raises
        # PrecisionError here
        args = parser.parse_args(_attach_dash_values(
            sys.argv[1:] if argv is None else argv))
        return handlers[args.command](args)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0,) else 0
    except DomainError as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except PrecisionError as exc:
        print(f"precision error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN


def console_main() -> None:
    try:
        code = main()
        sys.stdout.flush()  # a closed pipe shows here, not at shutdown
    except BrokenPipeError:
        # the reader has gone (as in `k3lab report ... | head`): send the
        # rest of stdout to devnull, so that the flush at exit does not fail
        # again, and exit 1 as Python does on EPIPE
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        code = EXIT_FAIL
    sys.exit(code)


if __name__ == "__main__":
    console_main()
