"""CLI behavior: exit codes, output formats, determinism, mutation response."""

import importlib.util
import inspect
import json
import os
import random
import re
import subprocess
import sys
import time
import typing
from fractions import Fraction
from pathlib import Path

import mpmath
import pytest

from conftest import principal_ab
from k3lab import cli
from k3lab import constants as cst
from k3lab import modular as md
from k3lab import suites
from k3lab.exact import MultiPolynomial


# `python -m k3lab` started here imports the same k3lab as these tests, from a
# checkout or an installation alike
PACKAGE_PARENT = Path(cli.__file__).resolve().parents[1]


# Points of Q(i) with -1/(n tau) = g tau for g = (a, b, c, d) in SL_2(Z), so
# that j(-1/(n tau)) = j(tau) exactly, by level n
FRICKE_FIXED_POINTS = {
    2: [("0.5+0.5i", (-1, 0, 2, -1)), ("-0.5+0.5i", (-1, -1, 0, -1))],
    4: [("0.5i", (1, 0, 0, 1))],
    5: [("0.2+0.4i", (1, 0, -2, 1))],
    20: [("0.1+0.2i", (-1, 0, 4, -1))],
    25: [("0.2i", (1, 0, 0, 1))],
    50: [("0.1+0.1i", (1, 0, -10, 1))],
    100: [("0.1i", (1, 0, 0, 1))],
    200: [("0.05+0.05i", (1, 0, -20, 1))],
}


def run_main(argv, capsys):
    code = cli.main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


# (constant, mutation, the kummer checks it must fail): one coefficient of
# each curve polynomial moved, keeping its bidegree, and one line factor of
# H_INF traded for another, each of which moves D off its section, so that
# every check that reads the fibration fails; the first edge redirected
KUMMER_MUTATIONS = [
    ("C1_POLY", lambda v: v + cst.v1 * cst.u2,  # (l1 - 1) v1 u2 -> l1 v1 u2
     "branch_octet d_class e8_fiber labeled_tree star_fibers"),
    ("C2_POLY", lambda v: v + cst.u1**2 * cst.u2 * cst.v2,  # (l2 - 1) -> l2
     "branch_octet d_class e8_fiber labeled_tree star_fibers"),
    ("C3_POLY", lambda v: v + cst.u1 * cst.u2,  # (l1 - 1) u1 u2 -> l1 u1 u2
     "branch_octet d_class e8_fiber labeled_tree star_fibers"),
    ("C4_POLY", lambda v: v + cst.u1**2 * cst.v2**2,  # (l1 - 1) -> l1
     "branch_octet d_class e8_fiber labeled_tree star_fibers"),
    ("H_INF",  # (u1 - l1 v1)^3 (u1 - v1) -> (u1 - l1 v1)^2 (u1 - v1)^2
     lambda v: (cst.l2 - 1) * (cst.u1 - cst.l1 * cst.v1) ** 2 * (cst.u1 - cst.v1) ** 2
     * cst.u2 * cst.v2**2,
     "branch_octet d_class e8_fiber labeled_tree star_fibers"),
    ("TWENTY_EDGES", lambda v: (("C1", "F2_2"),) + v[1:], "labeled_tree"),
]

# (suite, constant, mutation, the checks of that suite it must fail): the
# Kummer rows above; then the lattice rows, which the 19-curve tree reads off
# the dual simplex: x given the exponent of y (no character then cuts out the
# genus-1 curve alone), z moved off (-1, -2, -3) (the section moves from the
# middle of the A11 edge) and the Newton vertices v3 and v4 swapped (the
# weight relation breaks); then the toric rows: the A11 dual vertex moved to
# (12, -1, -1), the support shift changed, the y^2 vertex correspondence
# given to y, the xy exponent moved off its point, and v3 and v4 swapped
# again; each j-route divisor of a^3 and b^2 raised by one; last, the
# numerator and the denominator of j(lambda) raised by one
CONSTANT_MUTATIONS = [pytest.param("kummer", *row, id=row[0]) for row in KUMMER_MUTATIONS] + [
    pytest.param("lattice", "SUPPORT_MONOMIALS", lambda v: {**v, "x": (0, 1, 2)},
                 "coordinate_curves", id="lattice-SUPPORT_MONOMIALS-x"),
    pytest.param("lattice", "SUPPORT_MONOMIALS", lambda v: {**v, "z": (-1, -2, -2)},
                 "e8_sides kernel section_fiber", id="lattice-SUPPORT_MONOMIALS-z"),
    pytest.param("lattice", "DELTA_VERTICES", lambda v: (v[0], v[1], v[3], v[2]),
                 "coordinate_curves e8_sides kernel section_fiber tree_invariants",
                 id="lattice-DELTA_VERTICES"),
    pytest.param("toric", "DELTA_DUAL_VERTICES",
                 lambda v: tuple((12, -1, -1) if x == (11, -1, -1) else x for x in v),
                 "dual", id="DELTA_DUAL_VERTICES"),
    pytest.param("toric", "SUPPORT_SHIFT", lambda v: (0, -2, -2), "support_shift",
                 id="SUPPORT_SHIFT"),
    pytest.param("toric", "SUPPORT_VERTEX_MAP", lambda v: v[:-1] + (("y", 3),),
                 "points support_shift", id="SUPPORT_VERTEX_MAP"),
    pytest.param("toric", "SUPPORT_MONOMIALS", lambda v: {**v, "x*y": (0, 2, 4)},
                 "points support_shift", id="SUPPORT_MONOMIALS"),
    pytest.param("toric", "DELTA_VERTICES", lambda v: (v[0], v[1], v[3], v[2]),
                 "dual edges genera points support_shift", id="DELTA_VERTICES"),
    pytest.param("weierstrass", "A_CUBED_J_DIVISOR", lambda v: v + 1,
                 "degeneracy_equivalence", id="A_CUBED_J_DIVISOR"),
    pytest.param("weierstrass", "B_SQUARED_J_DIVISOR", lambda v: v + 1,
                 "degeneracy_equivalence", id="B_SQUARED_J_DIVISOR"),
    pytest.param("identities", "J_NUM", lambda v: v + 1,
                 "j1728_factorization route_independence", id="J_NUM"),
    pytest.param("identities", "J_DEN", lambda v: v + 1,
                 "j1728_factorization route_independence", id="J_DEN"),
]


def principal_ab_lines(j1, j2):
    """The a and b lines of `family` from four principal roots in mpmath
    (conftest.principal_ab), chopped and printed as the command prints them."""
    a, b = map(md.chop, principal_ab(j1, j2))
    return [f"a = {cli._fmt(a)}", f"b = {cli._fmt(b)}"]


def reference_tau_lines(tau, n):
    """The j1, j2, a and b lines of `family --tau --n` from j_series(128):
    j at each reduced point of tau and -1/(n tau), exactly in Q(i), as
    S(q)/q with S summed through q^128 by Horner's rule at PREC_BITS + 64."""
    x, y = tau
    norm = n * (x * x + y * y)
    js = []
    for point in (tau, md.RationalPoint(-x / norm, y / norm)):
        with mpmath.workprec(md.PREC_BITS):
            t = mpmath.mpc(*(mpmath.mpf(v.numerator) / v.denominator
                             for v in md.reduce_to_fundamental_domain(point)))
            q = mpmath.exp(2j * mpmath.pi * t)
        with mpmath.workprec(md.PREC_BITS + 64):
            total = mpmath.mpf(0)
            for c in reversed(md.j_series(128).coefficients):
                total = total * q + c
        with mpmath.workprec(md.PREC_BITS):
            js.append(md.chop(+total / q))
    return [f"j1 = {cli._fmt(js[0])}", f"j2 = {cli._fmt(js[1])}", *principal_ab_lines(*js)]


class TestFamilyCommand:
    def test_j_route(self, capsys):
        code, out, _ = run_main(["family", "--j1", "1728", "--j2", "1728"], capsys)
        assert code == 0
        assert "a_cubed = -27" in out
        assert "b_squared = 0" in out
        assert "degenerate = true" in out

    def test_lambda_route_shows_j_pair(self, capsys):
        code, out, _ = run_main(
            ["family", "--lambda1", "-1", "--lambda2", "1/4"], capsys)
        assert code == 0
        assert "j1 = 1728" in out
        assert "j2 = 35152/9" in out

    @pytest.mark.parametrize("l1, l2", [
        ("-1", "1/4"), ("3", "-5/2"), ("2/7", "5/7"), ("-3", "-1/3"), ("1/4", "4"),
        ("-40/11", "37/12"),
    ], ids=["harmonic", "separate-token", "one-minus-l", "one-over-l", "one-over-quarter",
            "generic"])
    def test_lambda_route_matches_j_route(self, capsys, l1, l2):
        # the lambda pair prints its j pair, then every line that the j pair
        # prints, byte for byte; (l, 1 - l) and (l, 1/l) are degenerate
        code1, out1, _ = run_main(["family", "--lambda1", l1, "--lambda2", l2], capsys)
        j1, j2 = (256 * (l * l - l + 1) ** 3 / (l * l * (l - 1) ** 2)
                  for l in map(Fraction, (l1, l2)))
        code2, out2, _ = run_main(["family", f"--j1={j1}", f"--j2={j2}"], capsys)
        assert code1 == code2 == 0
        assert out1.splitlines()[:2] == [f"j1 = {j1}", f"j2 = {j2}"]
        assert out1.splitlines()[2:] == out2.splitlines()
        assert ("degenerate = true" in out2) == (j1 == j2)

    @pytest.mark.parametrize("pair", [("0", "3"), ("3", "1"), ("1", "0")])
    def test_lambda_zero_or_one_exits_3(self, capsys, pair):
        code, out, err = run_main(
            ["family", "--lambda1", pair[0], "--lambda2", pair[1]], capsys)
        assert code == 3
        assert out == ""
        assert err.startswith("domain error:")

    def test_tau_route(self, capsys):
        code, out, _ = run_main(["family", "--tau", "i", "--n", "2"], capsys)
        assert code == 0
        assert "j1 = 1728.0" in out
        assert "j2 = 287496.0" in out

    @pytest.mark.parametrize("argv", [
        ["--lambda1", "3", "--lambda2", "-5/2"],
        ["--j1", "-1728/5", "--j2", "5"],
        ["--tau", "-0.5+1.2i", "--n", "2"],
    ], ids=["lambda", "j", "tau"])
    def test_negative_value_as_separate_token(self, capsys, argv):
        code, out, err = run_main(["family", *argv], capsys)
        assert code == 0, err
        attached = [f"{opt}={value}" for opt, value in zip(argv[::2], argv[1::2])]
        code, attached_out, _ = run_main(["family", *attached], capsys)
        assert code == 0
        assert out == attached_out

    @pytest.mark.parametrize("tau", ["1e-60i", "1e70i"])
    def test_tau_beyond_precision_exits_3(self, capsys, tau):
        code, out, err = run_main(["family", f"--tau={tau}", "--n=1"], capsys)
        assert code == 3
        assert out == ""
        assert err.startswith("precision error:")

    @pytest.mark.parametrize("re_tau", [10**71, 10**81], ids=["1e71", "1e81"])
    def test_huge_real_part_exits_3(self, capsys, re_tau):
        # the reader holds each part of tau within 2^112, so Re(tau) = 10^71
        # + 0.3 and 10^81 + 0.3 exit 3 before tau is reduced
        code, out, err = run_main(["family", f"--tau={re_tau}.3+1i", "--n=1"], capsys)
        assert code == 3
        assert out == ""
        assert err.startswith("precision error: Re(tau)")

    def test_large_real_part_keeps_j(self):
        # 10^21 is within the bound 2^112, and j(10^21 + 0.3 + i) = j(0.3 + i)
        far = md.j_numeric(cli.parse_complex(f"{10**21}.3+1i"))
        near = md.j_numeric(cli.parse_complex("0.3+1i"))
        assert abs(far - near) <= abs(near) * mpmath.mpf(2) ** -240

    @pytest.mark.parametrize("tau", ["1e-30i", "1e20i", "1i", "1.3333333333333333i",
                                     "1.6666666666666667i"])
    def test_extreme_tau_within_precision_degenerate(self, capsys, tau):
        # every level-1 member is degenerate, since j(-1/tau) = j(tau)
        code, out, _ = run_main(["family", f"--tau={tau}", "--n=1"], capsys)
        assert code == 0
        assert "degenerate = true" in out

    @pytest.mark.parametrize("tau", ["16i", "20i", "100i"])
    def test_large_j_not_degenerate(self, capsys, tau):
        # j(tau) != j(2 tau), though both are beyond 2^128
        code, out, _ = run_main(["family", f"--tau={tau}", "--n=2"], capsys)
        assert code == 0
        assert "degenerate = false" in out

    @pytest.mark.parametrize("n", sorted(FRICKE_FIXED_POINTS))
    def test_fricke_fixed_point_degenerate(self, capsys, n):
        for tau, (a, b, c, d) in FRICKE_FIXED_POINTS[n]:
            # -1/(n tau) = g tau: tau is a root of n a X^2 + (n b + c) X + d
            x, y = cli.parse_complex(tau)
            assert a * d - b * c == 1
            assert n * a * (x * x - y * y) + (n * b + c) * x + d == 0
            assert (2 * n * a * x + n * b + c) * y == 0
            code, out, _ = run_main(["family", f"--tau={tau}", f"--n={n}"], capsys)
            assert code == 0
            assert "degenerate = true" in out

    @pytest.mark.parametrize("n", [2, 5, 20, 50, 200])
    def test_decimal_near_fixed_point_not_degenerate(self, capsys, n):
        # 80 digits of i/sqrt(n) are not fixed by tau -> -1/(n tau), so j1 !=
        # j2 exactly, though the two print alike
        with mpmath.workprec(300):
            tau = mpmath.nstr(1 / mpmath.sqrt(n), 80) + "i"
        code, out, _ = run_main(["family", f"--tau={tau}", f"--n={n}"], capsys)
        j1, j2, degenerate = out.splitlines()[:3]
        assert code == 0
        assert j1.removeprefix("j1") == j2.removeprefix("j2")
        assert degenerate == "degenerate = false"

    @pytest.mark.parametrize("tau", ["i", "0.31+1.37i"])
    def test_off_fixed_point_not_degenerate(self, capsys, tau):
        # neither tau is fixed by tau -> -1/(2 tau), so j1 != j2
        code, out, _ = run_main(["family", f"--tau={tau}", "--n=2"], capsys)
        assert code == 0
        assert "degenerate = false" in out

    @pytest.mark.parametrize("tau", ["i/2", "1+nani", "inf", "infi", "0.5+infi", "nan"])
    def test_malformed_tau_exits_2(self, capsys, tau):
        code, out, err = run_main(["family", f"--tau={tau}", "--n=1"], capsys)
        assert code == 2
        assert out == ""
        assert "--tau" in err

    def test_rho_prints_the_chopped_member(self, capsys):
        # j is below the printing tolerance at this decimal rho, so a and b
        # are those of j1 = j2 = 0: a = 0 and b = 1728/864
        code, out, _ = run_main(
            ["family", "--tau=0.5+0.8660254037844386i", "--n=1"], capsys)
        assert code == 0
        assert out == "j1 = 0.0\nj2 = 0.0\ndegenerate = true\na = 0.0\nb = 2.0\n"

    @pytest.mark.parametrize("tau, lines", [
        ("0.5+1.32i", ("j1 = -3302.9224611803779", "j2 = -3302.9224611803779",
                       "a = (2.3102608535239578 - 4.0014891770409349j)",
                       "b = 5.8228269226624744")),
        ("0.5+1.46i", ("j1 = -8914.0209889367888", "j2 = -8914.0209889367888",
                       "a = (4.4782795662086678 - 7.7566077391709246j)",
                       "b = 12.317153922380543")),
    ])
    def test_real_j_below_1728_on_re_tau_one_half(self, capsys, tau, lines):
        # q < 0, so j is real; rounding noise in Im j must not pick the
        # branch: j1 = j2 = x < 1728 gives b = (1728 - x)/864 > 0 and
        # a = -x^(2/3)/48 with the principal cube root
        code, out, _ = run_main(["family", f"--tau={tau}", "--n=1"], capsys)
        assert code == 0
        assert out.splitlines() == [*lines[:2], "degenerate = true", *lines[2:]]

    @pytest.mark.parametrize("tau, n", [
        ("i", 1), ("i", 2), ("2i", 1), ("0.5i", 2), ("1.4142135623730951i", 1),
        ("0.7071067811865476i", 2), ("1.7320508075688772i", 1),
        ("0.5773502691896258i", 3), ("0.5+0.8660254037844386i", 1),
        ("0.31+1.37i", 2), ("-0.5+1.2i", 2), ("0.123456+1.654321i", 2),
        ("0.3+1.4i", 3), ("-0.27+1.05i", 3), ("0.05+0.2i", 3),
    ])
    def test_tau_lines_match_the_full_series(self, capsys, tau, n):
        # the CM table of the query stream and generic tau: the j1, j2, a
        # and b lines as j_numeric prints them, against j summed through
        # q^128 at 64 more bits, then rounded and printed the same way
        code, out, _ = run_main(["family", f"--tau={tau}", f"--n={n}"], capsys)
        assert code == 0
        assert [line for line in out.splitlines() if not line.startswith("degenerate")] \
            == reference_tau_lines(cli.parse_complex(tau), n)

    def test_tau_parsed_past_double_precision(self):
        assert cli.parse_complex("0.1+1.00000000000000000001i").imag != 1

    def test_mixed_groups_usage_error(self, capsys):
        code, _, err = run_main(
            ["family", "--j1", "1728", "--lambda2", "3"], capsys)
        assert code == 2

    def test_forbidden_lambda_domain_error(self, capsys):
        code, _, err = run_main(
            ["family", "--lambda1", "0", "--lambda2", "3"], capsys)
        assert code == 3
        assert "domain error" in err

    def test_lower_half_plane_domain_error(self, capsys):
        code, _, err = run_main(["family", "--tau=-i", "--n", "2"], capsys)
        assert code == 3
        assert "domain error" in err

    def test_tau_zero_domain_error(self, capsys):
        code, out, err = run_main(["family", "--tau=0", "--n=2"], capsys)
        assert code == 3
        assert out == ""
        assert err == "domain error: tau must lie in the upper half plane\n"

    def test_tau_read_exactly(self):
        assert cli.parse_complex("-0.1+1.00000000000000000001i") == md.RationalPoint(
            Fraction(-1, 10), Fraction(10**20 + 1, 10**20))
        assert cli.parse_complex("1/2") == md.RationalPoint(Fraction(1, 2), Fraction(0))

    @pytest.mark.parametrize("tau", ["1e-999999999+1i", "1e999999999i", "1+1e-999999999i",
                                     "1e99999999999999999999i"])
    def test_extreme_exponent_exits_3_at_once(self, capsys, tau):
        # Fraction("1e-999999999") would build a 10^9-digit integer: the
        # reader holds the exponent to its size bound before any Fraction
        result = subprocess.run([sys.executable, "-m", "k3lab", "family", f"--tau={tau}", "--n=1"],
                                capture_output=True, text=True, timeout=60, cwd=PACKAGE_PARENT)
        assert (result.returncode, result.stdout) == (3, "")
        assert result.stderr.startswith("precision error:")
        start = time.perf_counter()
        assert run_main(["family", f"--tau={tau}", "--n=1"], capsys)[0] == 3
        assert time.perf_counter() - start < 1

    @pytest.mark.parametrize("argv", [
        ["--j1=1e-100000", "--j2=1"], ["--lambda1=1e-5000", "--lambda2=3"],
        ["--j1=1e-999999999", "--j2=1"], ["--j1=1", "--j2=7e99999999999999999999"],
        ["--lambda1=2", "--lambda2=" + "9" * 5000], ["--j1=1/" + "3" * 2001, "--j2=1"],
    ], ids=["j-1e-100000", "lambda-1e-5000", "j-1e-999999999", "huge-exponent",
            "5000-digit-integer", "2001-digit-denominator"])
    def test_rational_beyond_bound_exits_3_at_once(self, capsys, argv):
        # the digits are counted on the text, before any Fraction is built
        result = subprocess.run([sys.executable, "-m", "k3lab", "family", *argv],
                                capture_output=True, text=True, timeout=60, cwd=PACKAGE_PARENT)
        assert (result.returncode, result.stdout) == (3, "")
        assert result.stderr.startswith("precision error: --")
        assert "Traceback" not in result.stderr
        start = time.perf_counter()
        assert run_main(["family", *argv], capsys)[0] == 3
        assert time.perf_counter() - start < 1

    @pytest.mark.parametrize("mode, digits", [("j", cli.J_DIGITS), ("lambda", cli.LAMBDA_DIGITS)])
    def test_rationals_at_the_bound_print_exactly(self, capsys, mode, digits):
        # j has degree 6 in lambda, and a^3, b^2 degree 2 in (j1, j2): at the
        # bound of either reader every exact answer still prints
        top = 10**digits - 1
        pairs = [(f"-{top}/{top - 1}", f"{top}/{top - 2}"), (f"1/{top}", f"-{top}/2"),
                 (f"1e{digits - 1}", f"-1e-{digits - 1}")]
        for v1, v2 in pairs:
            code, out, err = run_main(["family", f"--{mode}1={v1}", f"--{mode}2={v2}"], capsys)
            assert (code, err) == (0, "")
            j1, j2 = map(Fraction, (v1, v2))
            if mode == "lambda":
                j1, j2 = (256 * (l * l - l + 1) ** 3 / (l * l * (l - 1) ** 2) for l in (j1, j2))
            lines = out.splitlines()
            assert f"a_cubed = {-j1 * j2 / 48**3}" in lines
            assert f"b_squared = {(j1 - 1728) * (j2 - 1728) / 864**2}" in lines
        for beyond in (f"{top + 1}", f"1/{top + 1}", f"1e{digits}", f"3e-{digits}"):
            code, out, err = run_main(["family", f"--{mode}1={beyond}", f"--{mode}2=3"], capsys)
            assert (code, out) == (3, "")
            assert err.startswith(f"precision error: --{mode}1 has a ")

    @pytest.mark.parametrize("option, v1, v2", [
        # j1 and j2 below 0, in (0, 1728) or above 1728: a's phase e^(i k pi/3)
        # counts the negative j, b's i^m the j below 1728
        ("j", "-5/3", "-20000"), ("j", "-5/3", "1000/7"), ("j", "-90001", "62813/19"),
        ("j", "3/4", "1727"), ("j", "1", "1729"), ("j", "35152/9", "1000000000"),
        ("j", "0", "-25255"), ("j", "1728", "-1"), ("j", "0", "1728"), ("j", "1728", "1728"),
        ("j", "0", "0"), ("j", "-7", "-7"),
        ("lambda", "2", "3/7"), ("lambda", "-1", "1/4"), ("lambda", "1/3", "5"),
        ("lambda", "-40/11", "37/12"), ("lambda", "9", "9"),
    ])
    def test_rational_a_b_lines_match_principal_roots(self, capsys, option, v1, v2):
        code, out, _ = run_main(["family", f"--{option}1={v1}", f"--{option}2={v2}"], capsys)
        assert code == 0
        j1, j2 = map(Fraction, (v1, v2))
        if option == "lambda":
            j1, j2 = (256 * (l * l - l + 1) ** 3 / (l * l * (l - 1) ** 2) for l in (j1, j2))
        assert out.splitlines()[-2:] == principal_ab_lines(j1, j2)

    def test_tiny_member_prints_zero_a(self, capsys):
        # |a| is about 2e-202, below CHOP_TOL: the exact root is still chopped
        code, out, _ = run_main(["family", "--j1=1e-300", "--j2=1e-300"], capsys)
        assert code == 0
        assert out.splitlines()[-2:] == ["a = 0.0", "b = 2.0"]

    def test_purely_imaginary_b_keeps_its_digits(self, capsys):
        # the 256-bit b is -7.5522721384538315425...i; rounded to 53 bits by
        # the chop it printed ...318
        code, out, _ = run_main(["family", "--j1=62813/19", "--j2=-25255"], capsys)
        assert code == 0
        assert out.splitlines()[-1] == "b = (0.0 - 7.5522721384538315j)"

    def test_level_one_prints_equal_j(self, capsys):
        # -1/tau reduces to the point of tau, so j1 and j2 are one value
        rng = random.Random(17)
        for _ in range(30):
            tau = f"{rng.uniform(-3, 3):.6f}{rng.uniform(0.05, 2):+.6f}i"
            code, out, _ = run_main(["family", f"--tau={tau}", "--n=1"], capsys)
            lines = out.splitlines()
            assert code == 0
            assert lines[0][len("j1"):] == lines[1][len("j2"):], tau
            assert lines[2] == "degenerate = true"


class TestParserReuse:
    SEQUENCE = (
        ["family", "--j1", "1"],
        ["--help"],
        ["verify", "--suite", "toric"],
        ["family", "--j1", "1728", "--j2", "1728"],
        ["family", "--tau=i", "--n=2"],
        ["family", "--tau=1+nani", "--n=1"],
    )

    def run_sequence(self, capsys, fresh):
        results = []
        cli.build_parser.cache_clear()
        for argv in self.SEQUENCE:
            if fresh:
                cli.build_parser.cache_clear()
            code, out, err = run_main(argv, capsys)
            results.append((code, re.sub(r"\d+ ms\)", "ms)", out), err))
        return results

    def test_reuse_is_stateless(self, capsys):
        reused = self.run_sequence(capsys, fresh=False)
        assert cli.build_parser.cache_info().misses == 1
        assert reused == self.run_sequence(capsys, fresh=True)
        assert [code for code, _, _ in reused] == [2, 0, 0, 0, 0, 2]


class TestVerifyCommand:
    def test_toric_suite_passes(self, capsys):
        code, out, _ = run_main(["verify", "--suite", "toric"], capsys)
        assert code == 0
        assert "suite toric: pass" in out

    def test_unknown_suite_usage_error(self, capsys):
        code, _, _ = run_main(["verify", "--suite", "nonsense"], capsys)
        assert code == 2

    def test_mutated_constant_flips_to_failure(self, capsys, monkeypatch):
        # a single-coefficient mutation in one transcription constant
        mutated = cst.H_INF + cst.u1**4 * cst.u2**3
        monkeypatch.setattr(cst, "H_INF", mutated)
        code, out, _ = run_main(["verify", "--suite", "identities"], capsys)
        assert code == 1
        assert "FAIL identities.h_sum" in out

    def test_mutated_divisor_matrix_flips_kummer(self, capsys, monkeypatch):
        # D's matrix is read off H_INF: a line factor (u1 - v1) traded for
        # (u1 - l1 v1) moves its base points
        mutated = cst.H_INF.divide_exact(cst.u1 - cst.v1) * (cst.u1 - cst.l1 * cst.v1)
        monkeypatch.setattr(cst, "H_INF", mutated)
        code, out, _ = run_main(["verify", "--suite", "kummer"], capsys)
        assert code == 1
        assert "FAIL kummer.d_class" in out

    @pytest.mark.parametrize("name,mutated", [
        ("C3_POLY", cst.C3_POLY + cst.u1),
        ("H_INF", cst.H_INF.divide_exact(cst.u1 - cst.v1) * (cst.u1 - 2 * cst.v1)),
    ])
    def test_unreadable_polynomial_fails_inside_checks(self, capsys, monkeypatch,
                                                        name, mutated):
        # a polynomial that is not bihomogeneous, and an H_INF with a line
        # factor off the branch values, fail every check that reads a class
        monkeypatch.setattr(cst, name, mutated)
        code, out, err = run_main(["verify", "--suite", "kummer"], capsys)
        assert code == 1
        assert not err
        failed = set(re.findall(r"^FAIL kummer\.(\w+):.*raised ValueError", out, re.MULTILINE))
        assert failed == {"branch_octet", "d_class", "e8_fiber", "labeled_tree", "star_fibers"}
        assert "PASS kummer.isogeny_numbers" in out

    def test_mutated_vertex_flips_toric(self, capsys, monkeypatch):
        monkeypatch.setattr(
            cst, "DELTA_DUAL_VERTICES",
            ((-1, -1, -1), (12, -1, -1), (-1, 2, -1), (-1, -1, 1)))
        code, out, _ = run_main(["verify", "--suite", "toric"], capsys)
        assert code == 1
        assert "FAIL toric.dual" in out

    @pytest.mark.parametrize("suite,name,mutate,failing", CONSTANT_MUTATIONS)
    def test_mutated_kummer_constant_flips_owning_check(self, capsys, monkeypatch,
                                                        suite, name, mutate, failing):
        monkeypatch.setattr(cst, name, mutate(getattr(cst, name)))
        code, out, _ = run_main(["verify", "--suite", suite], capsys)
        assert code == 1
        failed = set(re.findall(rf"^FAIL {suite}\.(\w+):", out, re.MULTILINE))
        assert failed == set(failing.split())


def _sweep_mutation(value):
    """A constant raised by one: a number +1, a polynomial plus its first
    variable, the first entry of a numeric tuple or matrix +1; None for a
    label table, whose mutations are the hand-picked rows above."""
    if isinstance(value, (int, Fraction)):
        return value + 1
    if isinstance(value, MultiPolynomial):
        return value + MultiPolynomial.variable(value.vars, value.vars[0])
    if isinstance(value, tuple) and isinstance(value[0], int):
        return (value[0] + 1,) + value[1:]
    if isinstance(value, tuple) and all(isinstance(x, int) for x in value[0]):
        return ((value[0][0] + 1,) + value[0][1:],) + value[1:]
    return None


SWEPT = [name for name in dir(cst)
         if name.isupper() and _sweep_mutation(getattr(cst, name)) is not None]
LABEL_TABLES = {"FIBRATION_VARS", "SUPPORT_MONOMIALS", "SUPPORT_VERTEX_MAP", "TWENTY_EDGES"}
# cheapest first; warm cost per run (median of 15 in one process, 2-core
# machine): about 1 ms for weierstrass, 1-2 ms for toric, 3-4 ms each for
# kummer, lattice and modular, 25-30 ms for identities
SWEEP_ORDER = ("weierstrass", "toric", "kummer", "lattice", "modular", "identities")


class TestMutationSweep:
    def test_only_label_tables_are_left_out(self):
        upper = {name for name in dir(cst) if name.isupper()}
        assert upper - set(SWEPT) == LABEL_TABLES

    @pytest.mark.parametrize("name", SWEPT)
    def test_mutation_flips_a_check(self, monkeypatch, name):
        monkeypatch.setattr(cst, name, _sweep_mutation(getattr(cst, name)))
        for suite in SWEEP_ORDER:
            if suites.run_suite(suite).status == "fail":
                return
        pytest.fail(f"{name}, mutated, flips no check")

    @pytest.mark.parametrize("name", ["C1_POLY", "C2_POLY", "C3_POLY", "C4_POLY", "H_INF"])
    def test_kummer_polynomial_mutation_flips_kummer(self, monkeypatch, name):
        # the polynomials are the one transcription of the Kummer classes
        monkeypatch.setattr(cst, name, _sweep_mutation(getattr(cst, name)))
        assert suites.run_suite("kummer").status == "fail"

    @pytest.mark.parametrize("name", ["h_plus_factors", "h_minus_factors"])
    def test_pencil_factors_mutation_flips_both_readers(self, monkeypatch, name):
        # H_plus = u1 C1 C2 and H_minus = v1 C3 C4 are each stated once:
        # identities multiplies them out, kummer reads D and a star fiber off
        # their factors; the branch line u1 and v1 swapped
        first, *rest = getattr(cst, name)()
        swapped = cst.v1 if first == cst.u1 else cst.u1
        monkeypatch.setattr(cst, name, lambda: (swapped, *rest))
        assert suites.run_suite("identities").status == "fail"
        assert suites.run_suite("kummer").status == "fail"


class TestReportCommand:
    def test_json_schema(self, capsys):
        code, out, _ = run_main(
            ["report", "--suite", "lattice", "--format", "json"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert set(payload) == {"suite", "status", "checks", "elapsed_ms"}
        assert payload["status"] in ("pass", "fail")
        assert isinstance(payload["elapsed_ms"], int)
        ids = [c["id"] for c in payload["checks"]]
        assert ids == sorted(ids)
        assert len(set(ids)) == len(ids)
        for chk in payload["checks"]:
            assert set(chk) == {"id", "description", "status", "witness"}
            assert chk["status"] in ("pass", "fail")

    def test_text_format(self, capsys):
        code, out, _ = run_main(
            ["report", "--suite", "toric", "--format", "text"], capsys)
        assert code == 0
        assert "overall" in out
        assert not out.strip().startswith("{")

    def test_determinism_modulo_elapsed(self, capsys):
        def normalized():
            _, out, _ = run_main(
                ["report", "--suite", "weierstrass", "--format", "json"], capsys)
            payload = json.loads(out)
            payload.pop("elapsed_ms")
            return json.dumps(payload)
        assert normalized() == normalized()

    def test_failing_suite_reports_fail(self, capsys, monkeypatch):
        monkeypatch.setattr(cst, "KAPPA", Fraction(7))
        code, out, _ = run_main(
            ["report", "--suite", "identities", "--format", "json"], capsys)
        assert code == 1
        payload = json.loads(out)
        assert payload["status"] == "fail"
        failing = [c["id"] for c in payload["checks"] if c["status"] == "fail"]
        assert "identities.master_cubic" in failing


class TestModpolyCommand:
    def test_prints_cache_format(self, capsys):
        code, out, _ = run_main(["modpoly", "--n", "1"], capsys)
        assert code == 0
        assert out.splitlines()[0] == "n=1"

    def test_line_format(self, capsys):
        code, out, _ = run_main(["modpoly", "--n", "1"], capsys)
        assert code == 0
        assert out.splitlines() == ["n=1", "0 1 -1", "1 0 1"]  # lexicographic (i, j)

    def test_level_five(self, capsys):
        code, out, _ = run_main(["modpoly", "--n", "5"], capsys)
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 39 and lines[0] == "n=5"
        assert {"5 4 3720", "5 5 -1", "6 0 1"} <= set(lines)

    def test_unsupported_level_is_usage_error(self, capsys):
        code, _, err = run_main(["modpoly", "--n", "4"], capsys)
        assert code == 2
        assert "invalid choice: 4" in err
        assert "1, 2, 3, 5, 7, 11, 13" in err


def _into_closed_pipe(command):
    """Run `command report --suite kummer --format json` as in
    `k3lab report ... | head -c 1500`, with the reader gone before the
    first write, so that every write meets a closed pipe."""
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        return subprocess.run(
            [*command, "report", "--suite", "kummer", "--format", "json"],
            stdout=write_end, stderr=subprocess.PIPE, text=True, timeout=120,
            cwd=PACKAGE_PARENT,
        )
    finally:
        os.close(write_end)


# Modules no `k3lab` process should import unless it needs them.
UNWANTED_MODULES = ("dataclasses", "inspect", "mpmath")


def _imports_of(argv):
    """Exit code, stdout and the set of full module names that
    `python -m k3lab *argv` imports, read from its `-X importtime` lines."""
    result = subprocess.run([sys.executable, "-X", "importtime", "-m", "k3lab", *argv],
                            capture_output=True, text=True, timeout=120, cwd=PACKAGE_PARENT)
    names = {line.rsplit("|", 1)[-1].strip()
             for line in result.stderr.splitlines() if line.startswith("import time:")}
    return result.returncode, result.stdout, names


# The layers that only the suites run, and those that only `family` runs
SUITE_LAYERS = {"k3lab.suites", "k3lab.lattice", "k3lab.kummer", "k3lab.toric",
                "k3lab.weierstrass"}
FAMILY_LAYERS = {"k3lab.shioda_inose", "k3lab.constants", "k3lab.exact"}


class TestSubprocessEntry:
    def test_module_invocation(self, tmp_path):
        result = subprocess.run(
            [sys.executable, "-m", "k3lab", "verify", "--suite", "lattice"],
            capture_output=True, text=True, timeout=120, cwd=PACKAGE_PARENT,
        )
        assert result.returncode == 0
        assert "suite lattice: pass" in result.stdout

    def test_closed_pipe_exits_1_without_traceback(self):
        result = _into_closed_pipe([sys.executable, "-m", "k3lab"])
        assert result.returncode == 1
        assert "Traceback" not in result.stderr

    def test_console_script_exits_1_without_traceback(self):
        # the installed `k3lab` command calls its entry point as
        # sys.exit(entry()), and must end a closed pipe as `python -m k3lab` does
        tomllib = pytest.importorskip("tomllib")
        with open(PACKAGE_PARENT.parent / "pyproject.toml", "rb") as f:
            entry = tomllib.load(f)["project"]["scripts"]["k3lab"]
        assert entry == "k3lab.cli:console_main"
        module, name = entry.split(":")
        result = _into_closed_pipe(
            [sys.executable, "-c", f"import sys; from {module} import {name}; sys.exit({name}())"])
        assert result.returncode == 1
        assert "Traceback" not in result.stderr

    def test_import_leaves_out_dataclasses_and_inspect(self):
        # every `k3lab` process imports the CLI first; dataclasses and
        # inspect would add about 10 ms to each, mpmath about 20 ms
        code = ("import sys, k3lab.cli; "
                f"print(sorted(m for m in {UNWANTED_MODULES} if m in sys.modules))")
        result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                                timeout=60, cwd=PACKAGE_PARENT)
        assert result.returncode == 0, result.stderr
        assert result.stdout == "[]\n"

    @pytest.mark.parametrize("argv, last_line", [
        (["verify", "--suite", "all"], "suite all: pass"),
        (["report", "--suite", "all", "--format", "text"], "overall"),
        (["modpoly", "--n", "2"], "3 0 1"),
    ], ids=["verify", "report", "modpoly"])
    def test_exact_commands_leave_out_mpmath(self, argv, last_line):
        # every check is exact, so only `family` needs floating point
        code, stdout, imported = _imports_of(argv)
        assert code == 0
        assert stdout.splitlines()[-1].startswith(last_line)
        assert imported & set(UNWANTED_MODULES) == set()

    @pytest.mark.parametrize("argv, last_line, loaded, left_out", [
        (["family", "--tau=i", "--n=2"], "b = ", FAMILY_LAYERS, SUITE_LAYERS),
        (["family", "--lambda1=1/3", "--lambda2=2"], "b = ", FAMILY_LAYERS | {"k3lab.roots"},
         SUITE_LAYERS),
        (["modpoly", "--n", "2"], "3 0 1", {"k3lab.modular"},
         SUITE_LAYERS | FAMILY_LAYERS | {"k3lab.roots"}),
        (["verify", "--suite", "all"], "suite all: pass (26 checks",
         SUITE_LAYERS | FAMILY_LAYERS | {"k3lab.modular"}, {"k3lab.roots"}),
        (["verify", "--suite", "lattice"], "suite lattice: pass (5 checks",
         {"k3lab.suites", "k3lab.lattice", "k3lab.toric", "k3lab.constants", "k3lab.exact"},
         {"k3lab.shioda_inose", "k3lab.weierstrass", "k3lab.modular", "k3lab.kummer"}),
    ], ids=["family-tau", "family-lambda", "modpoly", "verify", "verify-lattice"])
    def test_each_command_imports_the_layers_it_runs(self, argv, last_line, loaded, left_out):
        code, stdout, imported = _imports_of(argv)
        assert code == 0
        assert stdout.splitlines()[-1].startswith(last_line)
        assert loaded <= imported
        assert imported & left_out == set()

    def test_family_loads_mpmath_when_it_runs(self):
        code, stdout, imported = _imports_of(["family", "--tau=i", "--n=2"])
        assert code == 0
        assert "j2 = 287496.0" in stdout.splitlines()
        assert "mpmath" in imported

    @pytest.mark.parametrize("command, expected", [
        ("verify", "usage: k3lab verify [-h]\n"
                   "                    [--suite {all,identities,lattice,kummer,toric,weierstrass,modular}]\n"
                   "\n"
                   "options:\n"
                   "  -h, --help            show this help message and exit\n"
                   "  --suite {all,identities,lattice,kummer,toric,weierstrass,modular}\n"),
        ("report", "usage: k3lab report [-h]\n"
                   "                    [--suite {all,identities,lattice,kummer,toric,weierstrass,modular}]\n"
                   "                    [--format {json,text}]\n"
                   "\n"
                   "options:\n"
                   "  -h, --help            show this help message and exit\n"
                   "  --suite {all,identities,lattice,kummer,toric,weierstrass,modular}\n"
                   "  --format {json,text}\n"),
    ])
    def test_suite_commands_help(self, command, expected):
        # the suite choices come from k3lab.SUITE_NAMES, which the CLI reads
        # without importing k3lab.suites
        result = subprocess.run([sys.executable, "-m", "k3lab", command, "--help"],
                                capture_output=True, text=True, timeout=60, cwd=PACKAGE_PARENT,
                                env={**os.environ, "COLUMNS": "80"})
        assert (result.returncode, result.stdout, result.stderr) == (0, expected, "")

    def test_usage_exit_code(self):
        result = subprocess.run(
            [sys.executable, "-m", "k3lab", "verify", "--suite", "bogus"],
            capture_output=True, text=True, timeout=60, cwd=PACKAGE_PARENT,
        )
        assert result.returncode == 2


def test_type_hints_resolve(monkeypatch):
    # k3lab.cli imports the types of its annotations only for a type checker,
    # so that `verify` does not load k3lab.modular; a second copy of the
    # module, run as a type checker reads it, resolves every function's hints
    spec = importlib.util.find_spec("k3lab.cli")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setattr(typing, "TYPE_CHECKING", True)
    spec.loader.exec_module(module)
    functions = [inspect.unwrap(value) for value in vars(module).values()
                 if callable(value) and getattr(value, "__module__", None) == "k3lab.cli"]
    assert len(functions) > 10
    for function in functions:
        typing.get_type_hints(function)
