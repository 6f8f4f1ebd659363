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
* y1^2 carries the normalization constant KAPPA (fitted, equal to 1).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

import mpmath

from . import constants as c
from . import modular as md
from .errors import DomainError
from .exact import (
    MultiPolynomial,
    RationalFunction,
    clear_denominators,
)

_ONE = MultiPolynomial.constant(c.FIBRATION_VARS, 1)


@dataclass(frozen=True)
class HPolys:
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
    """The six terms of the cubic relation's left side, each a
    ratio(at(numerator), at(denominator)) of constants: symbolic with at the
    identity and ratio RationalFunction, values at a point with
    at = p.evaluate(point) and ratio Fraction."""
    h = build_h_polys()
    h_plus, h_minus, one = at(h.h_plus), at(h.h_minus), at(_ONE)
    x1 = ratio(at(c.X1_NUM), at(c.X1_DEN))
    return [
        x1**3,
        ratio(at(c.MASTER_X2), one) * x1**2,
        ratio(at(c.MASTER_X1), one) * x1,
        ratio(at(c.MASTER_X0), one),
        ratio(kappa * at(c.Y1_NUM_FACTOR) * h_plus * h_minus, at(c.Y1_DEN)),
        # z + 1/z, as in z_invariant
        ratio(at(c.MASTER_Z), one) * ratio(2 * (h_minus - h_plus), at(h.h_inf)),
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

    The common denominator is a common multiple of the six term
    denominators, built by `clear_denominators` from exact divisibility
    (Y1_DEN * H_INF for the true constants); the sum is scaled by 4 first
    so that all coefficients stay integral, which is exactness-neutral.
    """
    terms = [RationalFunction(t.num * 4, t.den)
             for t in _identity_terms(kappa, lambda p: p, RationalFunction)]
    return clear_denominators(terms).is_zero()


_FIT_POINTS = (
    {"u1": 2, "v1": 1, "u2": 3, "v2": 1, "l1": 5, "l2": 7},
    {"u1": 3, "v1": 2, "u2": 5, "v2": 3, "l1": Fraction(7, 2), "l2": Fraction(11, 3)},
)


def fit_kappa() -> Fraction:
    """Solve the cubic relation for the y1^2 normalization constant.

    Fits at one generic rational point and confirms at a second; raises if
    no single nonzero constant fits both.  The symbolic identity itself is
    `verify_master_identity`'s to decide.
    """
    values = []
    for pt in _FIT_POINTS:
        # kappa multiplies only the fifth term, y1^2: one evaluation at kappa = 1
        terms = _identity_terms(1, lambda p: p.evaluate(pt), Fraction)
        y_part = terms.pop(4)
        if y_part == 0:
            raise ValueError("degenerate fit point: y1^2 vanishes")
        values.append(-sum(terms) / y_part)
    if values[0] != values[1]:
        raise ValueError(f"no single constant fits: {values}")
    if values[0] == 0:
        raise ValueError("the fitted constant is zero")
    return values[0]


# ---------------------------------------------------------------------------
# Parameterizations of the family coefficients.
# ---------------------------------------------------------------------------


def _check_lambda(l: Fraction) -> Fraction:
    l = Fraction(l)
    if l in (0, 1):
        raise DomainError(f"lambda = {l} is outside the Legendre parameter domain")
    return l


def j_from_lambda(l: Fraction) -> Fraction:
    """j = 256 (l^2-l+1)^3 / (l^2 (l-1)^2), exact."""
    l = _check_lambda(l)
    return 256 * (l**2 - l + 1) ** 3 / (l**2 * (l - 1) ** 2)


@dataclass(frozen=True)
class AbPowers:
    a_cubed: Fraction
    b_squared: Fraction


def ab_powers_from_lambda(l1: Fraction, l2: Fraction) -> AbPowers:
    """Branch-free a^3 and b^2 of the family member for (lambda1, lambda2)."""
    l1, l2 = _check_lambda(l1), _check_lambda(l2)
    denom = (l1 * (l1 - 1) * l2 * (l2 - 1)) ** 2
    a3 = c.A_CUBED_SCALE * ((l1**2 - l1 + 1) ** 3 * (l2**2 - l2 + 1) ** 3) / denom
    b2 = (
        c.B_SQUARED_SCALE
        * ((l1 + 1) * (l1 - 2) * (2 * l1 - 1)) ** 2
        * ((l2 + 1) * (l2 - 2) * (2 * l2 - 1)) ** 2
        / denom
    )
    return AbPowers(a3, b2)


def ab_powers_from_j(j1, j2) -> AbPowers:
    """a^3 = -j1 j2 / 48^3 and b^2 = (j1-1728)(j2-1728) / 864^2, for numbers
    or polynomials."""
    return AbPowers(
        -j1 * j2 * Fraction(1, c.A_CUBED_J_DIVISOR),
        (j1 - 1728) * (j2 - 1728) * Fraction(1, c.B_SQUARED_J_DIVISOR),
    )


def ab_numeric(j1, j2):
    """Principal-branch (a, b) at modular.PREC_BITS; one representative of
    the root orbit.

    Different root choices give isomorphic surfaces; only a^3 and b^2 are
    canonical, and those agree with ab_powers_from_j by construction.
    """
    with mpmath.workprec(md.PREC_BITS):
        j1, j2 = mpmath.mpmathify(j1), mpmath.mpmathify(j2)
        a = -(mpmath.power(j1, mpmath.mpf(1) / 3) * mpmath.power(j2, mpmath.mpf(1) / 3)) / c.A_J_ROOT_DIVISOR
        b = -(mpmath.sqrt(j1 - 1728) * mpmath.sqrt(j2 - 1728)) / c.B_J_ROOT_DIVISOR
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
