"""Exact arithmetic core: canonical form, evaluation, cross-multiplied equality."""

import copy
import pickle
from fractions import Fraction
from operator import add, mul, sub

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import cubic_discriminant
from k3lab import constants as cst
from k3lab import shioda_inose as si
from k3lab.exact import (
    MAX_EXPONENT,
    MultiPolynomial,
    RationalFunction,
    clear_denominators,
    variables,
)

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

    def test_divisor_left_by_cancellation(self):
        # (x + y) - x is y, though its degree bound in x is still 1
        x, y = variables("x", "y")
        assert (y**2).divide_exact((x + y) - x) == y

    def test_quotient_never_passes_the_degree_bound(self):
        # the second quotient term, y^30000, is above deg_y(self) -
        # deg_y(divisor) = 0; taken, it would double y's exponent past the
        # field
        x, y = variables("x", "y")
        with pytest.raises(ValueError):
            (x**2 + y**30000).divide_exact(x - y**30000)

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


class TestHash:
    def test_constant_hashes_as_its_number(self):
        three = MultiPolynomial.constant(("x",), 3)
        half = MultiPolynomial.constant(("x",), Fraction(1, 2))
        assert three == 3 and 3 in {three} and three in {3}
        assert half == Fraction(1, 2) and half in {Fraction(1, 2)}

    def test_zero_hashes_as_zero(self):
        zero = MultiPolynomial.zero(VARS)
        assert zero == 0 and 0 in {zero} and zero in {0}
        assert (u1 - u1) in {0}

    def test_constant_left_by_cancellation(self):
        assert (u1 + 5) - u1 in {5}

    def test_equal_polynomials_hash_alike(self):
        assert hash((u1 + v1) ** 2) == hash(u1**2 + 2 * u1 * v1 + v1**2)


class TestExponentChecks:
    @pytest.mark.parametrize("terms", [
        {(1,): 1},                      # too short
        {(1, 0, 0): 1},                 # too long
        {(1, -1): 1},                   # negative
        {(0, MAX_EXPONENT + 1): 1},     # past the field
        {(70000, 0): 1},                # past 16 bits
        {(1, 0): 0, (1,): 0},           # checked even with a zero coefficient
    ])
    def test_bad_exponents_rejected(self, terms):
        with pytest.raises(ValueError):
            MultiPolynomial(("x", "y"), terms)

    def test_field_limit_accepted(self):
        p = MultiPolynomial(("x", "y"), {(MAX_EXPONENT, 0): 1, (0, MAX_EXPONENT): 2})
        assert p.terms == {(MAX_EXPONENT, 0): 1, (0, MAX_EXPONENT): 2}

    def test_product_at_the_limit_never_carries(self):
        x, y = variables("x", "y")
        top = x**MAX_EXPONENT
        assert dict((top * y).terms) == {(MAX_EXPONENT, 1): 1}
        assert (top * y).divide_exact(y) == top
        for overflow in (lambda: top * x, lambda: (top + y) * x,
                         lambda: (x ** (MAX_EXPONENT // 2 + 1)) ** 2):
            with pytest.raises(OverflowError):
                overflow()

    def test_bound_survives_cancellation(self):
        # (x^MAX + y) - y is x^MAX; its product with x still raises, and its
        # product with y still fits
        x, y = variables("x", "y")
        p = (x**MAX_EXPONENT + y) - y
        with pytest.raises(OverflowError):
            p * x
        assert dict((p * y).terms) == {(MAX_EXPONENT, 1): 1}


class TestTermsView:
    def test_read_only_tuple_keys(self):
        p = 3 * u1**2 * v1 - l2
        assert dict(p.terms) == {(2, 1, 0, 0, 0, 0): 3, (0, 0, 0, 0, 0, 1): -1}
        assert (2, 1, 0, 0, 0, 0) in p.terms and (1,) not in p.terms
        with pytest.raises(TypeError):
            p.terms[(0,) * 6] = 1

    def test_length_without_unpacking(self):
        p = (u1 + v1 + l1) ** 3
        assert len(p.terms) == 10
        assert p._unpacked is None

    def test_copy_and_pickle(self):
        p = (u1 - Fraction(1, 2) * l2) ** 2
        assert copy.deepcopy(p) == pickle.loads(pickle.dumps(p)) == p


def _count_products(monkeypatch):
    count = {"products": 0, "pairs": 0}

    def multiply(p, q, _mul=MultiPolynomial.__mul__):
        if isinstance(q, MultiPolynomial):
            count["products"] += 1
            count["pairs"] += len(p.terms) * len(q.terms)
        return _mul(p, q)

    monkeypatch.setattr(MultiPolynomial, "__mul__", multiply)
    monkeypatch.setattr(MultiPolynomial, "__rmul__", multiply)
    return count


def test_master_identity_term_pairs(monkeypatch):
    # the packed keys change the cost of a term pair, not the number of them
    count = _count_products(monkeypatch)
    assert si.verify_master_identity(cst.KAPPA)
    assert count == {"products": 17, "pairs": 19_072}


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


# A tuple-keyed reference for the packed arithmetic: plain dicts from
# exponent tuples to nonzero coefficients.

def _ref_clean(terms: dict) -> dict:
    return {e: c for e, c in terms.items() if c}


def _ref_add(a: dict, b: dict, sign=1) -> dict:
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, 0) + sign * c
    return _ref_clean(out)


def _ref_mul(a: dict, b: dict) -> dict:
    out: dict = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            out[e] = out.get(e, 0) + c1 * c2
    return _ref_clean(out)


def _ref_pow(a: dict, n: int) -> dict:
    out = {(0,) * len(small_vars): 1}
    for _ in range(n):
        out = _ref_mul(out, a)
    return out


def _ref_divide(a: dict, d: dict):
    """The quotient by schoolbook lex division, or None when d does not
    divide a: a quotient term outside 0 .. deg(a) - deg(d) in some variable
    shows that it does not."""
    top = [max((e[i] for e in a), default=0) - max(e[i] for e in d)
           for i in range(len(small_vars))]
    lead = max(d)
    rem, quotient = dict(a), {}
    while rem:
        e = max(rem)
        qe = tuple(x - y for x, y in zip(e, lead))
        if any(k < 0 or k > t for k, t in zip(qe, top)):
            return None
        quotient[qe] = Fraction(rem[e]) / d[lead]
        rem = _ref_add(rem, _ref_mul({qe: quotient[qe]}, d), sign=-1)
    return quotient


def _ref_repr(a: dict) -> str:
    bits = []
    for e, c in sorted(a.items()):
        mono = "*".join(f"{w}^{k}" if k > 1 else w for w, k in zip(small_vars, e) if k)
        bits.append(f"{c}" + (f"*{mono}" if mono else ""))
    return " + ".join(bits) or "0"


mixed_coeffs = st.one_of(st.integers(-40, 40), coeffs)


@st.composite
def term_maps(draw):
    return draw(st.dictionaries(exponents, mixed_coeffs, max_size=6))


def _poly(terms: dict) -> MultiPolynomial:
    return MultiPolynomial(small_vars, terms)


def _agrees(p: MultiPolynomial, ref: dict) -> bool:
    """p has exactly the reference's terms, an integral one stored as int."""
    return (dict(p.terms) == ref and len(p.terms) == len(ref)
            and all(type(c) is int for c in p.terms.values() if c.denominator == 1))


@given(term_maps(), term_maps())
def test_arithmetic_matches_tuple_reference(a, b):
    p, q = _poly(a), _poly(b)
    a, b = _ref_clean(a), _ref_clean(b)
    assert _agrees(p + q, _ref_add(a, b))
    assert _agrees(p - q, _ref_add(a, b, sign=-1))
    assert _agrees(p * q, _ref_mul(a, b))
    assert _agrees(p * q - q * p, {})  # a product that cancels to zero
    assert _agrees(p * q + p * (-q), {})


@given(term_maps(), st.integers(0, 3))
def test_power_matches_tuple_reference(a, n):
    assert _agrees(_poly(a) ** n, _ref_pow(_ref_clean(a), n))


@settings(deadline=None)
@given(term_maps(), term_maps(), term_maps())
def test_divide_exact_matches_tuple_reference(a, b, d):
    d = _ref_clean(d)
    if not d:
        return
    product = _ref_mul(_ref_clean(b), d)
    assert _agrees(_poly(product).divide_exact(_poly(d)), _ref_clean(b))
    expected = _ref_divide(_ref_clean(a), d)
    if expected is None:
        with pytest.raises(ValueError):
            _poly(a).divide_exact(_poly(d))
    else:
        assert _agrees(_poly(a).divide_exact(_poly(d)), expected)


@given(term_maps())
def test_order_and_repr_match_tuple_reference(a):
    p, a = _poly(a), _ref_clean(a)
    assert p.coefficient_items() == sorted(a.items())
    assert repr(p) == _ref_repr(a)


@given(term_maps(), term_maps())
def test_hash_agrees_with_equality(a, b):
    p, q = _poly(a), _poly(b)
    if p == q:
        assert hash(p) == hash(q)
    for n in (0, 1, Fraction(-7, 3)):
        if p == n:
            assert hash(p) == hash(n)


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

