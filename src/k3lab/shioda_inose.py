"""Explicit coordinates of the Shioda-Inose correspondence.

The Kummer surface of E1 x E2 carries an elliptic fibration with one E8-type
fiber and two star fibers; on the product of the two projective lines below
it, those three fibers are cut out by bidegree-(4,3) forms H_inf, H_plus,
H_minus.  This module packages those forms, the fiberwise Weierstrass
coordinate x1, the square y1^2, and the cubic relation among them, together
with the closed-form coefficients (a, b) of the mirror-family member in both
the Legendre-lambda and the j-invariant parameterization.

Everything is verified exactly over Q.  Quantities with cube/square-root
ambiguities are exposed as a^3 and b^2; `ab_numeric` additionally returns a
principal-branch representative of the root orbit.

Conventions (pinned by the cubic relation; see constants.py):

* x1 = -C2_POLY / X1_DEN, a degree-2 map on each fiber with double pole
  along the section tree;
* z + 1/z = 2*(H_minus - H_plus)/H_inf, so the z = 1 fiber is the one cut
  by H_minus;
* y1^2 carries the normalization constant KAPPA = 1; the cubic relation
  holds with it and fails with any other value.
"""

from __future__ import annotations

import random
from fractions import Fraction
from operator import truediv
from typing import NamedTuple

import mpmath

from . import constants as c
from . import modular as md
from .errors import DomainError
from .exact import MultiPolynomial, RationalFunction, clear_denominators, variables


class HPolys(NamedTuple):
    """The three bidegree-(4,3) fiber forms, linearly dependent with sum 0."""

    h_inf: MultiPolynomial
    h_plus: MultiPolynomial
    h_minus: MultiPolynomial


def build_h_polys() -> HPolys:
    return HPolys(c.H_INF, c.h_plus(), c.h_minus())


def verify_h_sum() -> bool:
    """H_inf + H_plus + H_minus == 0, exactly."""
    h = build_h_polys()
    return (h.h_inf + h.h_plus + h.h_minus).is_zero()


def z_invariant() -> RationalFunction:
    """The function z + 1/z of the covering family, on the Kummer side.

    Takes the value infinity on the E8 fiber, 2 where H_minus vanishes and
    -2 where H_plus vanishes.
    """
    h = build_h_polys()
    return RationalFunction(2 * (h.h_minus - h.h_plus), h.h_inf)


def _identity_terms(kappa, at, ratio) -> list:
    """The three terms of the cubic relation's left side: the cubic in x1
    by Horner's rule, one ratio over X1_DEN^3, then y1^2 and the z + 1/z
    term.  Each is built from at(constant) and ratio(numerator,
    denominator): symbolic with at the identity and ratio RationalFunction,
    values at a point with at = p.evaluate(point) and ratio Fraction.  The
    polynomial coefficients enter without a denominator."""
    h = build_h_polys()
    h_plus, h_minus = at(h.h_plus), at(h.h_minus)
    x1 = ratio(at(c.X1_NUM), at(c.X1_DEN))
    return [
        ((x1 + at(c.MASTER_X2)) * x1 + at(c.MASTER_X1)) * x1 + at(c.MASTER_X0),
        ratio(kappa * at(c.Y1_NUM_FACTOR) * h_plus * h_minus, at(c.Y1_DEN)),
        # MASTER_Z (z + 1/z), with z + 1/z as in z_invariant
        ratio(at(c.MASTER_Z) * (2 * (h_minus - h_plus)), at(h.h_inf)),
    ]


def identity_residual_at(point) -> Fraction:
    """Exact value of the cubic relation's left side at a rational point.

    Zero for every point (off the denominators) when the constants are
    correct; any single-coefficient mutation makes this nonzero at a
    generic point.  Each constant is evaluated at the point and the values
    are combined there; raises ZeroDivisionError where X1_DEN, Y1_DEN or
    H_INF vanishes.
    """
    return sum(_identity_terms(c.KAPPA, lambda p: p.evaluate(point), Fraction))


def verify_master_identity(kappa: Fraction) -> bool:
    """Clear denominators and test the cubic relation as a polynomial.

    The common denominator is a common multiple of the three term
    denominators, built by `clear_denominators` from exact divisibility
    (Y1_DEN * H_INF for the true constants, with X1_DEN^3 dividing Y1_DEN);
    the sum is scaled by 4 first so that all coefficients stay integral,
    which is exactness-neutral.
    """
    terms = [RationalFunction(t.num * 4, t.den)
             for t in _identity_terms(kappa, lambda p: p, RationalFunction)]
    return clear_denominators(terms).is_zero()


# ---------------------------------------------------------------------------
# Parameterizations of the family coefficients.
# ---------------------------------------------------------------------------


def _check_lambda(l: Fraction) -> Fraction:
    l = Fraction(l)
    if l in (0, 1):
        raise DomainError(f"lambda = {l} is outside the Legendre parameter domain")
    return l


def _j_terms(n, d=1) -> tuple:
    """d^k J_NUM(n/d) and d^k J_DEN(n/d), with k the larger of their degrees:
    integers for integers n, d, and polynomials for a polynomial n and d = 1."""
    k = max(c.J_NUM.total_degree(), c.J_DEN.total_degree())
    return tuple(sum(coeff * n**e * d ** (k - e) for (e,), coeff in p.terms.items())
                 for p in (c.J_NUM, c.J_DEN))


def j_from_lambda(l: Fraction) -> Fraction:
    """j = J_NUM(l) / J_DEN(l), exact, from integers at l = n/d."""
    l = _check_lambda(l)
    return Fraction(*_j_terms(l.numerator, l.denominator))


class AbPowers(NamedTuple):
    a_cubed: Fraction
    b_squared: Fraction


def _lambda_route(l1, l2, ratio) -> AbPowers:
    """a^3 and b^2 in (lambda1, lambda2), each a ratio(numerator,
    denominator): a Fraction at a rational pair with ratio a division, a
    RationalFunction at the variables l1, l2 with ratio RationalFunction."""
    denom = (l1 * (l1 - 1) * l2 * (l2 - 1)) ** 2
    return AbPowers(
        ratio(c.A_CUBED_SCALE * (l1**2 - l1 + 1) ** 3 * (l2**2 - l2 + 1) ** 3, denom),
        ratio(c.B_SQUARED_SCALE * ((l1 + 1) * (l1 - 2) * (2 * l1 - 1)) ** 2
              * ((l2 + 1) * (l2 - 2) * (2 * l2 - 1)) ** 2, denom),
    )


def ab_powers_from_lambda(l1: Fraction, l2: Fraction) -> AbPowers:
    """Branch-free a^3 and b^2 of the family member for (lambda1, lambda2)."""
    return _lambda_route(_check_lambda(l1), _check_lambda(l2), truediv)


def ab_powers_from_j(j1, j2) -> AbPowers:
    """a^3 = -j1 j2 / 48^3 and b^2 = (j1-1728)(j2-1728) / 864^2, for numbers,
    polynomials or rational functions."""
    return AbPowers(
        j1 * j2 * Fraction(-1, c.A_CUBED_J_DIVISOR),
        (j1 - 1728) * (j2 - 1728) * Fraction(1, c.B_SQUARED_J_DIVISOR),
    )


def route_independence() -> bool:
    """The lambda route and the j route give the same a^3 and b^2, as
    rational functions in Q(l1, l2); the j route reads j = J_NUM/J_DEN."""
    l1, l2 = variables("l1", "l2")
    via_l = _lambda_route(l1, l2, RationalFunction)
    via_j = ab_powers_from_j(*(RationalFunction(*_j_terms(l)) for l in (l1, l2)))
    return (via_l.a_cubed.equals(via_j.a_cubed)
            and via_l.b_squared.equals(via_j.b_squared))


def ab_numeric(j1, j2):
    """Principal-branch (a, b) at modular.PREC_BITS; one representative of
    the root orbit.

    Different root choices give isomorphic surfaces; only a^3 and b^2 are
    canonical, and those agree with ab_powers_from_j by construction.  The
    j-divisors are positive, so they divide under the principal roots.
    """
    with mpmath.workprec(md.PREC_BITS):
        j1, j2 = mpmath.mpmathify(j1), mpmath.mpmathify(j2)
        third = mpmath.mpf(1) / 3
        a = -mpmath.power(j1 / c.A_CUBED_J_DIVISOR, third) * mpmath.power(j2, third)
        b = -mpmath.sqrt((j1 - 1728) / c.B_SQUARED_J_DIVISOR) * mpmath.sqrt(j2 - 1728)
        return a, b


def j_minus_1728_factorization() -> bool:
    """256(l^2-l+1)^3 - 1728 l^2(l-1)^2 == 64 ((l+1)(l-2)(2l-1))^2, exactly."""
    lhs = c.J_NUM - 1728 * c.J_DEN
    return (lhs - c.J_MINUS_1728_NUM).is_zero()


def random_lambda(rng: random.Random) -> Fraction:
    """A random Legendre parameter outside {0, 1}."""
    while True:
        l = Fraction(rng.randint(-40, 40), rng.randint(1, 12))
        if l not in (0, 1):
            return l
