"""The explicit fibration polynomials, the cubic relation, and (a, b) formulas."""

import random
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import cubic_relation_terms_at, principal_ab, random_lambda
from k3lab import cli
from k3lab import constants as c
from k3lab import kummer as km
from k3lab import modular as md
from k3lab import roots
from k3lab import shioda_inose as si
from k3lab import suites
from k3lab.errors import DomainError
from k3lab.exact import MultiPolynomial, RationalFunction, variables

UV = ("u1", "v1")
U2V2 = ("u2", "v2")


def _generic_point(rng, l1, l2):
    while True:
        pt = {
            "u1": rng.randint(-9, 12),
            "v1": rng.randint(1, 9),
            "u2": rng.randint(-9, 12),
            "v2": rng.randint(1, 9),
            "l1": l1,
            "l2": l2,
        }
        try:
            if c.X1_DEN.evaluate(pt) != 0 and c.Y1_DEN.evaluate(pt) != 0 \
                    and c.H_INF.evaluate(pt) != 0:
                return pt
        except ZeroDivisionError:
            pass


class TestHPolys:
    def test_h_inf_spot_value(self):
        # (l2-1)(u1-l1 v1)^3 (u1-v1) u2 v2^2 at (1,2,1,1,3,5):
        # 4 * (-5)^3 * (-1) * 1 * 1 = 500, by hand
        pt = {"u1": 1, "v1": 2, "u2": 1, "v2": 1, "l1": 3, "l2": 5}
        assert c.H_INF.evaluate(pt) == 500

    def test_divisibility(self):
        # u1 divides H_plus and v1 divides H_minus: each vanishes along the
        # branch line u1 = 0, resp. v1 = 0, of the first factor
        h = si.build_h_polys()
        assert km.line_orders(h.h_plus, 1)[0] >= 1
        assert km.line_orders(h.h_minus, 1)[1] >= 1

    def test_bidegrees(self):
        for p in si.build_h_polys()._asdict().values():
            assert p.is_homogeneous_in(UV, 4)
            assert p.is_homogeneous_in(U2V2, 3)

    def test_spot_checks_before_symbolic(self):
        h = si.build_h_polys()
        rng = random.Random(7)
        for _ in range(10):
            pt = _generic_point(rng, Fraction(5), Fraction(7))
            total = (h.h_inf + h.h_plus + h.h_minus).evaluate(pt)
            assert total == 0

    def test_h_sum_symbolic(self):
        assert si.verify_h_sum()

    def test_perturbation_control(self):
        h = si.build_h_polys()
        assert not (2 * h.h_inf + h.h_plus + h.h_minus).is_zero()


class TestZInvariant:
    def _point_on(self, poly, rng, l1, l2):
        # solve poly = 0 for u2 at random (u1, v1, v2)
        while True:
            pt = {
                "u1": rng.randint(-9, 12),
                "v1": rng.randint(1, 9),
                "v2": rng.randint(1, 9),
                "l1": l1,
                "l2": l2,
            }
            lin = [Fraction(0), Fraction(0)]  # coeff of u2^0, u2^1
            for e, coeff in poly.terms.items():
                k = e[poly.vars.index("u2")]
                rest = Fraction(coeff)
                for w, kk in zip(poly.vars, e):
                    if w in ("u2",):
                        continue
                    rest *= Fraction(pt[w]) ** kk
                lin[k] += rest
            if lin[1] == 0:
                continue
            pt["u2"] = -lin[0] / lin[1]
            try:
                if c.H_INF.evaluate(pt) != 0 and c.X1_DEN.evaluate(pt) != 0:
                    return pt
            except ZeroDivisionError:
                continue

    def test_value_two_where_h_minus_vanishes(self):
        rng = random.Random(3)
        pt = self._point_on(c.C3_POLY, rng, Fraction(5), Fraction(7))
        assert si.build_h_polys().h_minus.evaluate(pt) == 0
        assert si.z_invariant(si.build_h_polys()).evaluate(pt) == 2

    def test_value_minus_two_where_h_plus_vanishes(self):
        rng = random.Random(4)
        pt = self._point_on(c.C1_POLY, rng, Fraction(5), Fraction(7))
        assert si.build_h_polys().h_plus.evaluate(pt) == 0
        assert si.z_invariant(si.build_h_polys()).evaluate(pt) == -2

    def test_square_root_relation(self):
        # (z + 1/z - 2)/(z + 1/z + 2) == -H_minus/H_plus
        h = si.build_h_polys()
        s = si.z_invariant(h)
        lhs = RationalFunction(s.num - 2 * s.den, s.num + 2 * s.den)
        rhs = RationalFunction(-h.h_minus, h.h_plus)
        assert lhs.equals(rhs)

    def test_feeds_the_cubic_relation(self, monkeypatch):
        # z + 1/z with its sign swapped, and nothing else changed, must flip
        # the master_cubic check
        z_invariant = si.z_invariant
        monkeypatch.setattr(si, "z_invariant", lambda h: -1 * z_invariant(h))
        status = {chk.id: chk.status for chk in suites.run_suite("identities").checks}
        assert status.pop("identities.master_cubic") == "fail"
        assert set(status.values()) == {"pass"}


class TestMasterIdentity:
    def test_x1_shape(self):
        assert c.X1_NUM.is_homogeneous_in(UV, 2)
        assert c.X1_NUM.is_homogeneous_in(U2V2, 2)
        assert c.X1_DEN == (c.u1 - c.v1) * (c.u1 - c.l1 * c.v1) * (c.u2 - c.v2) * c.v2

    def test_y1_denominator_degree(self):
        assert c.Y1_DEN.degree_in(U2V2) == 7

    def test_x1_evaluation_matches_direct(self):
        rng = random.Random(11)
        pt = _generic_point(rng, Fraction(3), Fraction(5))
        x1 = RationalFunction(c.X1_NUM, c.X1_DEN)
        assert x1.evaluate(pt) == c.X1_NUM.evaluate(pt) / c.X1_DEN.evaluate(pt)

    def test_spot_checks_before_symbolic(self):
        rng = random.Random(13)
        for _ in range(10):
            l1 = random_lambda(rng)
            l2 = random_lambda(rng)
            pt = _generic_point(rng, l1, l2)
            assert sum(cubic_relation_terms_at(pt)) == 0

    def test_terms_match_the_reference(self):
        # the symbolic terms, evaluated at two rational points, against four
        # times the reference that evaluates the constants there
        points = ({"u1": 2, "v1": 1, "u2": 3, "v2": 1, "l1": 5, "l2": 7},
                  {"u1": 5, "v1": 3, "u2": -2, "v2": 7,
                   "l1": Fraction(11, 4), "l2": Fraction(-7, 3)})
        terms = si._identity_terms(c.KAPPA)
        for pt in points:
            reference = cubic_relation_terms_at(pt)
            assert [t.evaluate(pt) for t in terms] == [4 * value for value in reference]
            assert all(value != 0 for value in reference)

    def test_terms_are_integral(self):
        # the factor 4 enters before any product, so every product runs over Z
        for term in si._identity_terms(c.KAPPA):
            for poly in (term.num, term.den):
                assert all(type(v) is int for v in poly.terms.values())

    def test_master_identity_symbolic(self):
        assert si.verify_master_identity(c.KAPPA)

    def test_double_kappa_fails(self):
        assert not si.verify_master_identity(2 * c.KAPPA)

    @pytest.mark.parametrize("name", ["X1_DEN", "Y1_DEN"])
    def test_mutated_denominator_fails_symbolically(self, name, monkeypatch):
        # the mutated denominator no longer divides Y1_DEN * H_INF, so the
        # common multiple grows; the identity must still fail
        original = getattr(c, name)
        terms = dict(original.terms)
        exponents = min(terms)
        terms[exponents] += 1
        monkeypatch.setattr(c, name, MultiPolynomial(original.vars, terms))
        assert not si.verify_master_identity(c.KAPPA)

    def test_multiply_budget(self, monkeypatch):
        products = pairs = 0

        def multiply(p, q, _mul=MultiPolynomial.__mul__):
            nonlocal products, pairs
            if isinstance(q, MultiPolynomial):
                products += 1
                pairs += len(p.terms) * len(q.terms)
            return _mul(p, q)

        monkeypatch.setattr(MultiPolynomial, "__mul__", multiply)
        monkeypatch.setattr(MultiPolynomial, "__rmul__", multiply)
        assert si.verify_master_identity(c.KAPPA)
        # one Horner fraction for the cubic in x1, one numerator per factor
        # of Y1_DEN * H_INF, and no product by a unit denominator: 17
        # products of 19,072 term pairs
        assert products <= 17
        assert pairs <= 19_072
        monkeypatch.setattr(c, "X1_DEN", c.X1_DEN + c.u1)
        assert not si.verify_master_identity(c.KAPPA)

    def test_single_coefficient_mutation_detected(self):
        pt = {"u1": 2, "v1": 1, "u2": 3, "v2": 1, "l1": 5, "l2": 7}
        mutated = MultiPolynomial(
            c.C1_POLY.vars, dict(c.C1_POLY.terms)
        ) + MultiPolynomial.variable(c.C1_POLY.vars, "u1")
        original = c.C1_POLY
        try:
            c.C1_POLY = mutated  # noqa: the mutation-injection path used by the CLI tests
            assert sum(cubic_relation_terms_at(pt)) != 0
        finally:
            c.C1_POLY = original


class TestJFromLambda:
    def test_harmonic(self):
        assert si.j_from_lambda(Fraction(-1)) == 1728

    def test_orbit_of_harmonic(self):
        assert si.j_from_lambda(Fraction(2)) == 1728

    def test_quarter(self):
        assert si.j_from_lambda(Fraction(1, 4)) == Fraction(35152, 9)

    def test_matches_the_transcribed_quotient(self):
        rng = random.Random(7)
        for _ in range(50):
            l = random_lambda(rng)
            point = {"l": l}
            assert si.j_from_lambda(l) == c.J_NUM.evaluate(point) / c.J_DEN.evaluate(point)

    def test_reads_j_num(self, monkeypatch):
        monkeypatch.setattr(c, "J_NUM", c.J_NUM + 1)
        assert si.j_from_lambda(Fraction(1, 4)) == Fraction(35152, 9) + Fraction(256, 9)

    @pytest.mark.parametrize("bad", [0, 1])
    def test_forbidden(self, bad):
        with pytest.raises(DomainError):
            si.j_from_lambda(Fraction(bad))

    def test_s3_symmetry_samples(self):
        rng = random.Random(5)
        for _ in range(20):
            l = random_lambda(rng)
            j = si.j_from_lambda(l)
            if 1 - l not in (0, 1):
                assert si.j_from_lambda(1 - l) == j
            assert si.j_from_lambda(1 / l) == j

    def test_s3_symmetry_symbolic(self):
        # j(l) == j(1-l) and j(l) == j(1/l) as rational functions
        (lam,) = variables("l")
        one = MultiPolynomial.constant(("l",), 1)
        j = RationalFunction(c.J_NUM, c.J_DEN)
        n_flip = 256 * ((1 - lam) ** 2 - (1 - lam) + 1) ** 3
        d_flip = (1 - lam) ** 2 * (-lam) ** 2
        assert j.equals(RationalFunction(n_flip, d_flip))
        # j(1/l): clear l^6 from numerator and denominator
        n_inv = 256 * (one - lam + lam**2) ** 3
        d_inv = lam**2 * (one - lam) ** 2
        assert j.equals(RationalFunction(n_inv, d_inv))


class TestAbPowers:
    def test_harmonic_pair(self):
        l1, l2 = variables("l1", "l2")
        got = si._lambda_route(l1, l2)
        assert got.a_cubed.evaluate({"l1": -1, "l2": -1}) == -27
        assert got.b_squared.evaluate({"l1": -1, "l2": -1}) == 0

    def test_from_j_examples(self):
        assert si.ab_powers_from_j(1728, 1728) == si.AbPowers(Fraction(-27), Fraction(0))
        assert si.ab_powers_from_j(0, 555).a_cubed == 0
        assert si.ab_powers_from_j(1728, 999).b_squared == 0

    def test_route_independence_symbolic(self):
        # a^3(l1,l2) == -j(l1) j(l2)/110592 and the b^2 analogue, as
        # rational functions in two variables
        m1, m2 = variables("m1", "m2")
        one = MultiPolynomial.constant(("m1", "m2"), 1)

        def jn(m):
            return 256 * (m**2 - m + 1) ** 3

        def jd(m):
            return m**2 * (m - one) ** 2

        denom = (m1 * (m1 - one) * m2 * (m2 - one)) ** 2
        a3 = RationalFunction(
            Fraction(-16, 27) * (m1**2 - m1 + 1) ** 3 * (m2**2 - m2 + 1) ** 3, denom
        )
        a3_j = RationalFunction(
            -jn(m1) * jn(m2), Fraction(110592) * jd(m1) * jd(m2)
        )
        assert a3.equals(a3_j)

        def bj(m):
            return (m + one) * (m - 2) * (2 * m - one)

        b2 = RationalFunction(Fraction(4, 729) * bj(m1) ** 2 * bj(m2) ** 2, denom)
        b2_j = RationalFunction(
            (jn(m1) - 1728 * jd(m1)) * (jn(m2) - 1728 * jd(m2)),
            Fraction(746496) * jd(m1) * jd(m2),
        )
        assert b2.equals(b2_j)

    def test_route_independence_exact(self):
        assert si.route_independence()

    @pytest.mark.parametrize("name", ["J_NUM", "J_DEN", "A_CUBED_SCALE", "B_SQUARED_SCALE",
                                      "A_CUBED_J_DIVISOR", "B_SQUARED_J_DIVISOR"])
    def test_route_independence_fails_on_mutation(self, name, monkeypatch):
        monkeypatch.setattr(c, name, getattr(c, name) + 1)
        assert not si.route_independence()

    def test_swap_symmetry(self):
        l1, l2 = variables("l1", "l2")
        for got, swapped in zip(si._lambda_route(l1, l2), si._lambda_route(l2, l1)):
            assert got.equals(swapped)

    def test_forbidden_lambda(self):
        # a member is computed from (j1, j2), so j(0) stops it
        with pytest.raises(DomainError):
            si.ab_powers_from_j(si.j_from_lambda(Fraction(0)), si.j_from_lambda(Fraction(3)))


def assert_near(got, ref):
    with mpmath.workprec(md.PREC_BITS):
        assert abs(got - ref) <= mpmath.mpf(2) ** -240 * max(1, abs(ref))


def assert_no_noise(value):
    # each part is exactly zero or the share of the value that the phase
    # gives it, at least |value|/2 (checked against a third, for rounding);
    # a real value has no imaginary part at all
    parts = (value.real, value.imag) if isinstance(value, mpmath.mpc) else (value,)
    with mpmath.workprec(md.PREC_BITS):
        assert all(part == 0 or abs(part) >= abs(value) / 3 for part in parts)


_TOP = 10**cli.J_DIGITS - 1
# rational j below 0, between 0 and 1728 and above it, the points 0 and
# 1728 themselves and their neighbours, and parts at the --j reader's bound
RATIONAL_J = st.one_of(
    st.sampled_from([Fraction(0), Fraction(1728), Fraction(1727), Fraction(1729),
                     Fraction(-1728), Fraction(1, 10**300), Fraction(-1, 7),
                     Fraction(_TOP, _TOP - 1), Fraction(-_TOP, 2), Fraction(1, _TOP)]),
    st.fractions(min_value=-10**6, max_value=10**6, max_denominator=10**4),
    st.fractions(min_value=1700, max_value=1760, max_denominator=10**3),
    st.builds(Fraction, st.integers(-_TOP, _TOP), st.integers(1, _TOP)),
)


class TestAbNumeric:
    @settings(deadline=None, max_examples=300)
    @given(RATIONAL_J, RATIONAL_J)
    def test_rational_member_is_a_real_root_times_a_phase(self, j1, j2):
        a, b = si.ab_numeric(j1, j2)
        ref_a, ref_b = principal_ab(j1, j2)
        assert_near(a, ref_a)
        assert_near(b, ref_b)
        powers = si.ab_powers_from_j(j1, j2)
        k, m = (j1 < 0) + (j2 < 0), (j1 < 1728) + (j2 < 1728)
        assert isinstance(a, mpmath.mpf) == (powers.a_cubed == 0 or k == 0)
        assert isinstance(b, mpmath.mpf) == (powers.b_squared == 0 or m != 1)
        if isinstance(b, mpmath.mpc):
            assert b.real == 0 and b.imag < 0
        assert_no_noise(a)
        assert_no_noise(b)

    def test_exact_powers_passed_in(self):
        # the caller's exact powers give the same (a, b) as ab_numeric's own
        j1, j2 = Fraction(-35, 3), Fraction(1000, 7)
        assert si.ab_numeric(j1, j2, si.ab_powers_from_j(j1, j2)) == si.ab_numeric(j1, j2)

    @pytest.mark.parametrize("j", [mpmath.mpf(-5000.25), mpmath.mpf(300), mpmath.mpf(287496),
                                   mpmath.mpc(-3, 1e-30), mpmath.mpc(-3, -1e-30)])
    def test_degenerate_numeric_member(self, j):
        # j1 = j2: a = -cbrt(j)^2 / 48 and b = (1728 - j) / 864
        a, b = si.ab_numeric(j, j)
        ref_a, ref_b = principal_ab(j, j)
        assert_near(a, ref_a)
        assert_near(b, ref_b)
        assert isinstance(b, type(j))
        assert isinstance(a, mpmath.mpf) == (isinstance(j, mpmath.mpf) and j >= 0)

    def test_degenerate_tau_member(self):
        # a tau at level 1: the Fricke pair is one complex value twice
        j1, j2, same = md.fricke_pair(md.RationalPoint(Fraction(1, 5), Fraction(3, 2)), 1)
        assert same and j1 is j2 and isinstance(j1, mpmath.mpc)
        a, b = si.ab_numeric(j1, j2)
        ref_a, ref_b = principal_ab(j1, j2)
        assert_near(a, ref_a)
        assert_near(b, ref_b)

    @pytest.mark.parametrize("j1,j2", [
        (-1728, 5), (Fraction(-3, 7), -20000), (mpmath.mpc(-3302.5, 0.25), 10**9),
        (mpmath.mpc(2, -7), mpmath.mpc(-8914, -1e-30)), (0, 1728),
    ])
    def test_divisors_inside_the_roots(self, j1, j2):
        # the same principal branches as the roots 48 and 864 outside them
        a, b = si.ab_numeric(j1, j2)
        with mpmath.workprec(256):
            j1, j2 = mpmath.mpmathify(j1), mpmath.mpmathify(j2)
            third = mpmath.mpf(1) / 3
            a_out = -mpmath.power(j1, third) * mpmath.power(j2, third) / 48
            b_out = -mpmath.sqrt(j1 - 1728) * mpmath.sqrt(j2 - 1728) / 864
            assert abs(a - a_out) <= mpmath.mpf(2) ** -240 * max(1, abs(a))
            assert abs(b - b_out) <= mpmath.mpf(2) ** -240 * max(1, abs(b))

    def test_principal_harmonic(self):
        a, b = si.ab_numeric(1728, 1728)
        assert abs(a - (-3)) < mpmath.mpf(10) ** -70
        assert abs(b) < mpmath.mpf(10) ** -70

    def test_zero_pair(self):
        a, b = si.ab_numeric(0, 0)
        assert abs(a) < mpmath.mpf(10) ** -70
        assert abs(b * b - 4) < mpmath.mpf(10) ** -60

    def test_matches_exact_powers(self):
        rng = random.Random(23)
        for _ in range(5):
            j1 = Fraction(rng.randint(-4000, 4000), rng.randint(1, 7))
            j2 = Fraction(rng.randint(-4000, 4000), rng.randint(1, 7))
            a, b = si.ab_numeric(j1, j2)
            powers = si.ab_powers_from_j(j1, j2)
            with mpmath.workprec(256):
                scale_a = max(mpmath.mpf(1), abs(mpmath.mpmathify(powers.a_cubed)))
                scale_b = max(mpmath.mpf(1), abs(mpmath.mpmathify(powers.b_squared)))
                assert abs(a**3 - mpmath.mpmathify(powers.a_cubed)) / scale_a < mpmath.mpf(10) ** -30
                assert abs(b**2 - mpmath.mpmathify(powers.b_squared)) / scale_b < mpmath.mpf(10) ** -30


class TestRealRoot:
    @settings(deadline=None, max_examples=200)
    @given(st.integers(1, 10**60), st.integers(1, 10**60), st.sampled_from([2, 3, 6]))
    def test_rounded_once_to_nearest(self, p, q, k):
        # against the root at 200 more bits, rounded to PREC_BITS
        with mpmath.workprec(md.PREC_BITS + 200):
            wide = mpmath.root(mpmath.mpf(p) / q, k)
        with mpmath.workprec(md.PREC_BITS):
            assert roots.real_root(Fraction(p, q), k) == (+wide)._mpf_

    @pytest.mark.parametrize("x, k, root", [
        (Fraction(c.A_CUBED_J_DIVISOR), 3, 48), (Fraction(c.B_SQUARED_J_DIVISOR), 2, 864),
        (Fraction(729, 64), 6, Fraction(3, 2)), (Fraction(9, 4), 2, Fraction(3, 2)),
        (Fraction(1, 2**600), 3, Fraction(1, 2**200)),
    ])
    def test_exact_roots_are_exact(self, x, k, root):
        with mpmath.workprec(md.PREC_BITS):
            assert mpmath.mp.make_mpf(roots.real_root(x, k)) == mpmath.mpmathify(root)


class TestJ1728Factorization:
    def test_symbolic(self):
        assert si.j_minus_1728_factorization()

    def test_quarter_values(self):
        j = si.j_from_lambda(Fraction(1, 4))
        assert j - 1728 == Fraction(19600, 9)

    def test_harmonic_value(self):
        assert si.j_from_lambda(Fraction(-1)) - 1728 == 0
