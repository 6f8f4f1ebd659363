"""Exact arithmetic core: canonical form, evaluation, cross-multiplied equality."""

from fractions import Fraction
from operator import add, mul, sub

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import cubic_discriminant
from k3lab import constants as cst
from k3lab.exact import MultiPolynomial, RationalFunction, clear_denominators, variables

VARS = ("u1", "v1", "u2", "v2", "l1", "l2")
u1, v1, u2, v2, l1, l2 = variables(*VARS)


rf = RationalFunction


class TestPolyIsZero:
    def test_zero_polynomial(self):
        assert MultiPolynomial.zero(VARS).is_zero()

    def test_binomial_expansion(self):
        assert ((u1 + v1) ** 2 - u1**2 - 2 * u1 * v1 - v1**2).is_zero()

    def test_leftover_term(self):
        assert not (l1 * l2 - l2 * l1 + u1).is_zero()


class TestPolyEvaluate:
    def test_product(self):
        assert (u1 * v1).evaluate({w: 0 for w in VARS} | {"u1": 2, "v1": 3}) == 6

    def test_univariate(self):
        (lam,) = variables("l")
        assert (lam**2 - lam + 1).evaluate({"l": -1}) == 3

    def test_quarter(self):
        # lambda^2 (lambda-1)^2 at 1/4: (1/16)*(9/16) = 9/256, by hand
        (lam,) = variables("l")
        p = lam**2 * (lam - 1) ** 2
        assert p.evaluate({"l": Fraction(1, 4)}) == Fraction(9, 256)

    def test_missing_assignment(self):
        with pytest.raises(ValueError):
            (u1 * v1).evaluate({"u1": 1})


class TestRatfuncEqual:
    def test_common_factor(self):
        assert rf(u1, v1).equals(rf(u1 * u2, v1 * u2))

    def test_factorization(self):
        one = MultiPolynomial.constant(VARS, 1)
        assert rf(u1**2 - v1**2, u1 - v1).equals(rf(u1 + v1, one))

    def test_unequal(self):
        assert not rf(u1, v1).equals(rf(v1, u1))

    def test_shared_denominator(self):
        assert rf(u1 + v1, u2).equals(rf(v1 + u1, u2))
        assert not rf(u1, u2).equals(rf(v1, u2))


class TestRatfuncArithmetic:
    def test_difference(self):
        # u1/v1 - u2/v2 = (u1 v2 - u2 v1)/(v1 v2), by hand
        assert (rf(u1, v1) - rf(u2, v2)).equals(rf(u1 * v2 - u2 * v1, v1 * v2))

    def test_difference_with_constant(self):
        assert (rf(u1, v1) - 3).equals(rf(u1 - 3 * v1, v1))
        assert (rf(u1, v1) - Fraction(1, 2)).equals(rf(2 * u1 - v1, 2 * v1))

    def test_product_with_constant(self):
        assert (rf(u1, v1) * Fraction(1, 3)).equals(rf(u1, 3 * v1))


class TestCubicDiscriminant:
    def test_triple_root(self):
        assert cubic_discriminant(0, 0) == 0

    def test_double_root(self):
        # x^3 - 3x + 2 = (x-1)^2 (x+2)
        assert cubic_discriminant(-3, 2) == 0

    def test_distinct_roots(self):
        assert cubic_discriminant(-3, 0) == 108


class TestClearDenominators:
    def test_sum_of_inverses(self):
        got = clear_denominators([rf(1 * u1**0, u1), rf(1 * v1**0, v1)])
        assert got == u1 + v1

    def test_cancellation(self):
        one = MultiPolynomial.constant(VARS, 1)
        got = clear_denominators([rf(one, u1), rf(-one, u1)])
        assert got.is_zero()

    def test_cross_terms(self):
        got = clear_denominators([rf(u1, v1), rf(v1, u1)])
        assert got == u1**2 + v1**2

    def test_shared_factors(self):
        one = MultiPolynomial.constant(VARS, 1)
        got = clear_denominators([rf(one, u1 * v1), rf(one, u1)])
        assert got == 1 + v1

    def test_joins_a_later_factor(self):
        # u1 v1 and u2 v2 become the factors; u2 divides the second only:
        # 1/(u1 v1) + 1/(u2 v2) + 1/u2 = (u2 v2 + (1 + v2) u1 v1)/(u1 v1 u2 v2)
        one = MultiPolynomial.constant(VARS, 1)
        got = clear_denominators([rf(one, u1 * v1), rf(one, u2 * v2), rf(one, u2)])
        assert got == u2 * v2 + u1 * v1 + u1 * v1 * v2

    def test_divides_only_the_product(self):
        # u1 v1 divides u1^2 v1^2 but neither factor, so it becomes a third:
        # 1/u1^2 + 1/v1^2 + 1/(u1 v1) = (v1^2 u1 v1 + u1^2 u1 v1 + u1^2 v1^2)/(u1^3 v1^3)
        one = MultiPolynomial.constant(VARS, 1)
        got = clear_denominators([rf(one, u1**2), rf(one, v1**2), rf(one, u1 * v1)])
        assert got == u1 * v1**3 + u1**3 * v1 + u1**2 * v1**2

    def test_zero_denominator_rejected(self):
        one = MultiPolynomial.constant(VARS, 1)
        with pytest.raises(ZeroDivisionError):
            RationalFunction(one, MultiPolynomial.zero(VARS))


class TestDivideExact:
    def test_non_divisor_raises(self):
        with pytest.raises(ValueError):
            (u1**2 + v1).divide_exact(u1 + v1)

    def test_integer_quotient_stays_int(self):
        p = (3 * u1**2 - 5 * v1 * l1 + 7) * (v1 - u1 * l2)
        q = p.divide_exact(v1 - u1 * l2)
        assert q == 3 * u1**2 - 5 * v1 * l1 + 7
        assert all(type(c) is int for c in q.terms.values())


class TestIntegralCoefficients:
    def test_integral_fraction_stored_as_int(self):
        # Fraction(-1, 4) * 4 is Fraction(-1, 1); it is stored as the int -1
        scaled = cst.MASTER_Z * 4
        assert scaled.terms
        assert all(type(c) is int for c in scaled.terms.values())
        assert all(type(c) is int for c in (u1 * Fraction(6, 3)).terms.values())


# ---------------------------------------------------------------------------
# Property tests
# ---------------------------------------------------------------------------

coeffs = st.fractions(min_value=-40, max_value=40, max_denominator=7)
exponents = st.tuples(*[st.integers(0, 3)] * 3)
small_vars = ("x", "y", "z")


@st.composite
def polys(draw):
    terms = draw(st.dictionaries(exponents, coeffs, max_size=6))
    return MultiPolynomial(small_vars, terms)


@st.composite
def points(draw):
    return {w: draw(coeffs) for w in small_vars}


@given(polys(), polys())
def test_canonical_addition_commutes(p, q):
    assert p + q == q + p


@given(polys(), polys())
def test_canonical_multiplication_commutes(p, q):
    assert p * q == q * p


@given(polys(), polys(), polys())
def test_distributivity(p, q, r):
    assert p * (q + r) == p * q + p * r


@settings(deadline=None)
@given(polys(), polys())
def test_divide_exact_inverts_multiplication(p, d):
    if d.is_zero():
        return
    assert (p * d).divide_exact(d) == p


@settings(max_examples=100, deadline=None)
@given(polys(), polys(), points())
def test_evaluation_homomorphism(p, q, pt):
    assert (p * q).evaluate(pt) == p.evaluate(pt) * q.evaluate(pt)
    assert (p + q).evaluate(pt) == p.evaluate(pt) + q.evaluate(pt)
    assert (p - q).evaluate(pt) == p.evaluate(pt) - q.evaluate(pt)
    if p.evaluate(pt) and q.evaluate(pt):
        f, g = rf(p, q), rf(q, p)
        for op in (add, sub, mul):
            assert op(f, g).evaluate(pt) == op(f.evaluate(pt), g.evaluate(pt))


@settings(deadline=None)
@given(polys(), polys(), polys(), polys())
def test_ratfunc_equivalence_relation(p, d, s, t):
    # Build three pairwise-equivalent functions by scaling num and den.
    if d.is_zero() or s.is_zero() or t.is_zero():
        return
    f = rf(p, d)
    g = rf(p * s, d * s)
    h = rf(p * t, d * t)
    assert f.equals(f)
    assert f.equals(g) and g.equals(f)
    assert f.equals(g) and g.equals(h) and f.equals(h)


def _univariate_gcd_degree(p_coeffs, q_coeffs):
    """Degree of gcd of two rational coefficient lists (ascending)."""

    def trim(c):
        while c and c[-1] == 0:
            c.pop()
        return c

    a, b = trim(list(map(Fraction, p_coeffs))), trim(list(map(Fraction, q_coeffs)))
    while b:
        # a mod b by long division
        r = list(a)
        while len(r) >= len(b) and trim(r):
            factor = r[-1] / b[-1]
            shift = len(r) - len(b)
            for i, bc in enumerate(b):
                r[shift + i] -= factor * bc
            r = trim(r)
        a, b = b, r
    return len(a) - 1


@settings(deadline=None)
@given(st.fractions(min_value=-12, max_value=12, max_denominator=4),
       st.fractions(min_value=-12, max_value=12, max_denominator=4))
def test_discriminant_matches_gcd_oracle(p, q):
    # x^3 + p x + q has a repeated root iff gcd(f, f') is non-constant
    disc = cubic_discriminant(p, q)
    gcd_deg = _univariate_gcd_degree([q, p, 0, 1], [p, 0, 3])
    assert (disc == 0) == (gcd_deg >= 1)

