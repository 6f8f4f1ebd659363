"""Weierstrass models, Kodaira classification, degeneration detection."""

import collections
import random
from fractions import Fraction
from math import inf

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import cubic_discriminant, random_lambda
from k3lab import shioda_inose as si
from k3lab import weierstrass as w
from k3lab import suites
from k3lab.exact import MultiPolynomial, variables


class TestToWeierstrass:
    def test_example(self):
        t, _, _ = variables("t", "a", "b")
        model = w.to_weierstrass(w.FamilyMember(Fraction(1), Fraction(0)))
        assert model.A == t**4
        assert model.B == -(t**5 + t**7)

    def test_a_zero(self):
        model = w.to_weierstrass(w.FamilyMember(Fraction(0), Fraction(0)))
        assert model.A.is_zero()

    def test_substitution_oracle(self):
        # eta^2 - xi^3 - A(t) xi - B(t) with xi = -x t^2, eta = y t^3 must
        # equal t^6 * (y^2 + x^3 + a x + b + t + 1/t), fully symbolically
        x, y, t, a, b = variables("x", "y", "t", "a", "b")
        vars5 = ("x", "y", "t", "a", "b")
        A = a * t**4
        B = -(t**5 + b * t**6 + t**7)
        xi = -x * t**2
        eta = y * t**3
        lhs = eta**2 - xi**3 - A * xi - B
        rhs = t**6 * (y**2 + x**3 + a * x + b) + t**7 + t**5
        assert (lhs - rhs).is_zero()

    def test_palindrome_symmetry(self):
        rng = random.Random(2)
        for _ in range(10):
            a = Fraction(rng.randint(-30, 30), rng.randint(1, 9))
            b = Fraction(rng.randint(-30, 30), rng.randint(1, 9))
            model = w.to_weierstrass(w.FamilyMember(a, b))
            # the chart at infinity: A(1/t) t^8 and B(1/t) t^12
            far = w.WeierstrassModel(_reverse(model.A, 8), _reverse(model.B, 12))
            assert far.A == model.A
            assert far.B == model.B
            assert far.discriminant() == model.discriminant()


def _reverse(p, degree):
    return MultiPolynomial(p.vars, {(degree - e[0], *e[1:]): c for e, c in p.terms.items()})


class TestSuiteCheck:
    def test_substitution_check_reads_the_library_model(self, monkeypatch):
        # B with its t^6 term doubled; only the substitution identity sees it
        monkeypatch.setattr(w, "coefficients",
                            lambda a, b, t: (a * t**4, -(t**5 + 2 * b * t**6 + t**7)))
        failing = [c.id for c in suites.run_suite("weierstrass").checks
                   if c.status == "fail"]
        assert failing == ["weierstrass.substitution"]

    def test_one_power_per_model(self, monkeypatch):
        calls = collections.Counter()

        def power(p, n, _pow=MultiPolynomial.__pow__):
            calls["__pow__"] += 1
            return _pow(p, n)

        def fiber_analysis(m, _fn=w.fiber_analysis):
            calls["fiber_analysis"] += 1
            return _fn(m)

        monkeypatch.setattr(MultiPolynomial, "__pow__", power)
        monkeypatch.setattr(w, "fiber_analysis", fiber_analysis)
        assert suites.run_suite("weierstrass").status == "pass"
        # the generic member and the a = 0 member, then the generic model
        # once more for its end coefficients: t^4 in `coefficients`, A^3 and
        # B^2 in the discriminant, three times; 11 more in the substitution
        # check and 3 in the degeneracy identity
        assert calls == {"fiber_analysis": 2, "__pow__": 3 * 3 + 14}

    def test_euler_budget_reads_every_member(self, monkeypatch):
        # the t^7 coefficient of B vanishes at a = -1/1000, where the model
        # is not minimal; no generic valuation sees it, the end coefficients do
        monkeypatch.setattr(w, "coefficients",
                            lambda a, b, t: (a * t**4, -(t**5 + b * t**6 + (1 + 1000 * a) * t**7)))
        with pytest.raises(ValueError, match="not minimal"):
            w.fiber_analysis(w.FamilyMember(Fraction(-1, 1000), Fraction(0)))
        checks = {c.id: c for c in suites.run_suite("weierstrass").checks}
        assert checks["weierstrass.euler_budget"].status == "fail"
        assert "end t-coefficients" in checks["weierstrass.euler_budget"].witness


class TestKodairaTable:
    @pytest.mark.parametrize("orders,expected", [
        ((4, 5, 10), "II*"),
        ((2, 3, 6), "I0*"),
        ((0, 0, 1), "I1"),
        ((0, 0, 5), "I5"),
        ((1, 1, 2), "II"),
        ((1, 2, 3), "III"),
        ((2, 2, 4), "IV"),
        ((2, 3, 8), "I2*"),
        ((3, 4, 8), "IV*"),
        ((3, 5, 9), "III*"),
        ((inf, 5, 10), "II*"),
        ((2, 4, 6), "I0*"),
        ((5, 5, 10), "II*"),
    ])
    def test_table(self, orders, expected):
        assert str(w.kodaira_type(*orders)) == expected

    def test_non_minimal_rejected(self):
        with pytest.raises(ValueError):
            w.kodaira_type(4, 6, 12)

    def test_i0(self):
        assert str(w.kodaira_type(0, 0, 0)) == "I0"


class TestFiberAnalysis:
    def test_generic_member(self):
        fa = w.fiber_analysis(w.FamilyMember(Fraction(1), Fraction(1)))
        assert str(fa.at_zero) == "II*"
        assert str(fa.at_infinity) == "II*"
        assert fa.extra_zero_multiplicity == 4
        assert fa.euler_total == 24

    def test_a_zero_member(self):
        fa = w.fiber_analysis(w.FamilyMember(Fraction(0), Fraction(0)))
        assert str(fa.at_zero) == "II*"
        assert str(fa.at_infinity) == "II*"
        assert fa.extra_zero_multiplicity == 4
        assert fa.euler_total == 24

    def test_order_at_infinity_from_degree(self):
        (t,) = variables("t")
        assert w._order_at_infinity(-(t**5 + t**6 + t**7), 12) == 5
        assert w._order_at_infinity(t - t, 8) == inf
        with pytest.raises(ValueError):
            w._order_at_infinity(t**9, 8)

    def test_euler_budget_random(self):
        rng = random.Random(6)
        checked = 0
        while checked < 50:
            a = Fraction(rng.randint(-40, 40), rng.randint(1, 9))
            b = Fraction(rng.randint(-40, 40), rng.randint(1, 9))
            if cubic_discriminant(a, b - 2) * cubic_discriminant(a, b + 2) == 0:
                continue
            fa = w.fiber_analysis(w.FamilyMember(a, b))
            assert fa.euler_total == 24
            assert str(fa.at_zero) == str(fa.at_infinity) == "II*"
            checked += 1


II_STAR = w.KodairaType("II*")
BUDGET = w.FiberAnalysis(II_STAR, II_STAR, 4, 24)


class TestFiberAnalyses:
    """Fiber analyses of particular members against the generic one."""

    def test_suite_members(self):
        # the members the weierstrass.euler_budget check once sampled
        rng = random.Random(99)
        members = [w.FamilyMember(Fraction(rng.randint(-40, 40), rng.randint(1, 9)),
                                  Fraction(rng.randint(-40, 40), rng.randint(1, 9)))
                   for _ in range(50)]
        generic = w.fiber_analysis(w.GENERIC)
        assert generic == BUDGET
        assert all(w.fiber_analysis(m) == generic for m in members)

    def test_special_members(self):
        # a = 0 empties A; (-3, 4) is degenerate: x^3 - 3x + 2 = (x - 1)^2 (x + 2)
        members = [w.FamilyMember(Fraction(0), Fraction(b)) for b in (0, 1, -5)]
        members.append(w.FamilyMember(Fraction(-3), Fraction(4)))
        assert w.degeneracy_indicator(Fraction(-27), Fraction(16)) == 0
        assert [w.fiber_analysis(m) for m in members] == [BUDGET] * 4

    def test_reads_the_library_model(self, monkeypatch):
        # A = a t^3: ord(A) = 3 at zero gives III* and ord(delta) = 9, and
        # at infinity ord(A) = 8 - 3 = 5 leaves II*
        monkeypatch.setattr(w, "coefficients",
                            lambda a, b, t: (a * t**3, -(t**5 + b * t**6 + t**7)))
        member = w.FamilyMember(Fraction(2), Fraction(1, 3))
        assert w.fiber_analysis(member) == w.FiberAnalysis(
            w.KodairaType("III*"), II_STAR, 5, 24)


class TestDegeneration:
    def test_known_degenerate(self):
        # (a, b) = (-3, 0) and (0, 2)
        assert w.degeneracy_indicator(Fraction(-27), Fraction(0)) == 0
        assert w.degeneracy_indicator(Fraction(0), Fraction(4)) == 0

    def test_known_smooth(self):
        # (a, b) = (1, 1)
        assert w.degeneracy_indicator(Fraction(1), Fraction(1)) != 0

    def test_indicator_matches_product(self):
        rng = random.Random(8)
        for _ in range(20):
            a = Fraction(rng.randint(-20, 20), rng.randint(1, 7))
            b = Fraction(rng.randint(-20, 20), rng.randint(1, 7))
            prod = cubic_discriminant(a, b - 2) * cubic_discriminant(a, b + 2)
            assert w.degeneracy_indicator(a**3, b**2) == prod

    def test_indicator_from_j_is_identity_in_j(self):
        j1, j2 = variables("j1", "j2")
        p = si.ab_powers_from_j(j1, j2)
        assert w.degeneracy_indicator(p.a_cubed, p.b_squared) == Fraction(1, 256) * (j1 - j2) ** 2

    @settings(deadline=None)
    @given(st.fractions(max_denominator=50), st.fractions(max_denominator=50))
    def test_indicator_from_j_is_squared_difference(self, j1, j2):
        # the product of the two discriminants is (j1 - j2)^2 / 256 exactly
        p = si.ab_powers_from_j(j1, j2)
        assert w.degeneracy_indicator(p.a_cubed, p.b_squared) == (j1 - j2) ** 2 / 256

    def test_double_root_example(self):
        # x^3 - 3x + 2 = (x-1)^2 (x+2): the member (-3, 0) hits b - 2 = -2
        assert cubic_discriminant(-3, -2) == 0


class TestDegenerationMatchesJEquality:
    """Degeneration exactly on the locus j1 = j2, via the branch-free
    indicator in a^3, b^2."""

    def test_matched_pairs_degenerate(self):
        rng = random.Random(10)
        orbit = [
            lambda l: l,
            lambda l: 1 - l,
            lambda l: 1 / l,
            lambda l: l / (l - 1),
            lambda l: (l - 1) / l,
            lambda l: 1 / (1 - l),
        ]
        count = 0
        while count < 20:
            l1 = random_lambda(rng)
            l2 = orbit[rng.randrange(6)](l1)
            if l2 in (0, 1):
                continue
            j1, j2 = si.j_from_lambda(l1), si.j_from_lambda(l2)
            assert j1 == j2
            powers = si.ab_powers_from_j(j1, j2)
            assert w.degeneracy_indicator(powers.a_cubed, powers.b_squared) == 0
            count += 1

    def test_unmatched_pairs_smooth(self):
        rng = random.Random(12)
        count = 0
        while count < 20:
            l1, l2 = random_lambda(rng), random_lambda(rng)
            j1, j2 = si.j_from_lambda(l1), si.j_from_lambda(l2)
            if j1 == j2:
                continue
            powers = si.ab_powers_from_j(j1, j2)
            assert w.degeneracy_indicator(powers.a_cubed, powers.b_squared) != 0
            count += 1
