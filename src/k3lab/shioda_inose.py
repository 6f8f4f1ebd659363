"""Explicit coordinates of the Shioda-Inose correspondence.

The Kummer surface of E1 x E2 carries an elliptic fibration with one E8-type
fiber and two star fibers; on the product of the two projective lines below
it, those three fibers are cut out by bidegree-(4,3) forms H_inf, H_plus,
H_minus.  This module packages those forms, the fiberwise Weierstrass
coordinate x1, the square y1^2, and the cubic relation among them, together
with the closed-form coefficients (a, b) of the mirror-family member.

Each formula is stated once.  The cubic relation is built as rational
functions only.  The closed forms in the Legendre parameters lambda1,
lambda2 exist only as rational functions, for the route-independence
identity in Q(l1, l2); every member is computed from (j1, j2), with
j = J_NUM/J_DEN for a Legendre pair.  Quantities with cube/square-root
ambiguities are exposed as a^3 and b^2; `ab_numeric` additionally returns a
principal-branch representative of the root orbit.  For rational j1, j2 it
takes that representative from the exact a^3 and b^2: one real root of each,
rounded once, times an exact phase, e^(i k pi/3) for a and i^m for b, with k
and m the numbers of j below 0 and below 1728.  A member with j1 = j2 = j
needs one root of j; other numeric members take four principal roots.

Conventions (pinned by the cubic relation; see constants.py):

* x1 = -C2_POLY / X1_DEN, a degree-2 map on each fiber with double pole
  along the section tree;
* z + 1/z = 2*(H_minus - H_plus)/H_inf (`z_invariant`), so the z = 1 fiber
  is the one cut by H_minus;
* y1^2 carries the normalization constant KAPPA = 1; the cubic relation
  holds with it and fails with any other value.
"""

from __future__ import annotations

from fractions import Fraction
from numbers import Rational
from typing import NamedTuple

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


def z_invariant(h: HPolys) -> RationalFunction:
    """The function z + 1/z of the covering family, on the Kummer side: the
    one statement of it, read by the cubic relation.

    Takes the value infinity on the E8 fiber, 2 where H_minus vanishes and
    -2 where H_plus vanishes.
    """
    return RationalFunction(2 * (h.h_minus - h.h_plus), h.h_inf)


def _identity_terms(kappa) -> list:
    """Four times the three terms of the cubic relation's left side, as
    rational functions: the cubic in x1 by Horner's rule, one ratio over
    X1_DEN^3, then y1^2 and the z + 1/z term.  The factor 4 enters the
    numerators before any product (4 x1 in the first Horner step, 4 times
    each coefficient), so MASTER_X0's halves and MASTER_Z's quarters become
    integers and every product runs over Z."""
    h = build_h_polys()
    x1 = RationalFunction(c.X1_NUM, c.X1_DEN)
    return [
        ((RationalFunction(4 * c.X1_NUM, c.X1_DEN) + 4 * c.MASTER_X2) * x1
         + 4 * c.MASTER_X1) * x1 + 4 * c.MASTER_X0,
        RationalFunction(4 * kappa * c.Y1_NUM_FACTOR * h.h_plus * h.h_minus, c.Y1_DEN),
        z_invariant(h) * (4 * c.MASTER_Z),
    ]


def verify_master_identity(kappa: Fraction) -> bool:
    """Clear denominators and test the cubic relation, times 4, as a
    polynomial.

    The common denominator is a common multiple of the three term
    denominators, built by `clear_denominators` from exact divisibility
    (Y1_DEN * H_INF for the true constants, with X1_DEN^3 dividing Y1_DEN).
    """
    return clear_denominators(_identity_terms(kappa)).is_zero()


# ---------------------------------------------------------------------------
# Parameterizations of the family coefficients.
# ---------------------------------------------------------------------------


def _j_terms(n, d=1) -> tuple:
    """d^k J_NUM(n/d) and d^k J_DEN(n/d), with k the larger of their degrees:
    integers for integers n, d, and polynomials for a polynomial n and d = 1."""
    k = max(c.J_NUM.total_degree(), c.J_DEN.total_degree())
    return tuple(sum(coeff * n**e * d ** (k - e) for (e,), coeff in p.terms.items())
                 for p in (c.J_NUM, c.J_DEN))


def j_from_lambda(l: Fraction) -> Fraction:
    """j = J_NUM(l) / J_DEN(l), exact, from integers at l = n/d."""
    l = Fraction(l)
    if l in (0, 1):
        raise DomainError(f"lambda = {l} is outside the Legendre parameter domain")
    return Fraction(*_j_terms(l.numerator, l.denominator))


class AbPowers(NamedTuple):
    a_cubed: Fraction
    b_squared: Fraction


def _lambda_route(l1, l2) -> AbPowers:
    """a^3 and b^2 in Q(l1, l2), for the variables l1, l2."""
    denom = (l1 * (l1 - 1) * l2 * (l2 - 1)) ** 2
    return AbPowers(
        RationalFunction(c.A_CUBED_SCALE * (l1**2 - l1 + 1) ** 3 * (l2**2 - l2 + 1) ** 3,
                         denom),
        RationalFunction(c.B_SQUARED_SCALE * ((l1 + 1) * (l1 - 2) * (2 * l1 - 1)) ** 2
                         * ((l2 + 1) * (l2 - 2) * (2 * l2 - 1)) ** 2, denom),
    )


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
    via_l = _lambda_route(l1, l2)
    via_j = ab_powers_from_j(*(RationalFunction(*_j_terms(l)) for l in (l1, l2)))
    return (via_l.a_cubed.equals(via_j.a_cubed)
            and via_l.b_squared.equals(via_j.b_squared))


def ab_numeric(j1, j2, powers: AbPowers | None = None):
    """(a, b) = (-cbrt(j1/48^3) cbrt(j2), -sqrt((j1-1728)/864^2)
    sqrt(j2-1728)) under principal roots, at modular.PREC_BITS; one
    representative of the root orbit.  `powers` is ab_powers_from_j(j1, j2)
    where the caller holds it already.

    Different root choices give isomorphic surfaces; only a^3 and b^2 are
    canonical, and those agree with ab_powers_from_j by construction.  The
    j-divisors are positive, so they divide under the principal roots.

    For rational j1, j2 each principal root is a real root times an exact
    phase, a = -|a^3|^(1/3) e^(i k pi/3) and b = -|b^2|^(1/2) i^m, with k
    the number of j below 0 and m that below 1728; each part is one real
    root of an exact rational, rounded once (`roots.rational_ab`).  For
    j1 = j2 = j otherwise, the roots of j pair off: a = -cbrt(j)^2 / 48 and
    b = (1728 - j) / 864.  Other members take four principal roots in
    mpmath.
    """
    if isinstance(j1, Rational) and isinstance(j2, Rational):
        from . import roots

        return roots.rational_ab(j1, j2, powers or ab_powers_from_j(j1, j2))
    import mpmath

    with mpmath.workprec(md.PREC_BITS):
        j1, j2 = mpmath.mpmathify(j1), mpmath.mpmathify(j2)
        if j1 == j2:
            # the roots of the divisors are 48 and 864, exactly
            root = mpmath.cbrt(j1)
            return (-root * root / mpmath.cbrt(c.A_CUBED_J_DIVISOR),
                    (1728 - j1) / mpmath.sqrt(c.B_SQUARED_J_DIVISOR))
        a = -mpmath.cbrt(j1 / c.A_CUBED_J_DIVISOR) * mpmath.cbrt(j2)
        b = -mpmath.sqrt((j1 - 1728) / c.B_SQUARED_J_DIVISOR) * mpmath.sqrt(j2 - 1728)
        return a, b


def j_minus_1728_factorization() -> bool:
    """256(l^2-l+1)^3 - 1728 l^2(l-1)^2 == 64 ((l+1)(l-2)(2l-1))^2, exactly."""
    lhs = c.J_NUM - 1728 * c.J_DEN
    return (lhs - c.J_MINUS_1728_NUM).is_zero()

