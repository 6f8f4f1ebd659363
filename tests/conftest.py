"""Helpers for the tests: random Legendre parameters, the curve tree, and
references that are written apart from the code they check."""

import random
from fractions import Fraction

from k3lab import constants as c
from k3lab import modular as md
from k3lab import toric


def random_lambda(rng: random.Random) -> Fraction:
    """A random Legendre parameter outside {0, 1}."""
    while True:
        l = Fraction(rng.randint(-40, 40), rng.randint(1, 12))
        if l not in (0, 1):
            return l


def curve_tree() -> toric.CurveTree:
    """The 19-curve tree, read off Delta and its dual."""
    simplex = toric.delta()
    return toric.curve_tree(simplex, toric.dual_polytope(simplex))


def cubic_relation_terms_at(point) -> list:
    """The three terms of the cubic relation

        x1^3 + MASTER_X2 x1^2 + MASTER_X1 x1 + MASTER_X0,  y1^2,
        MASTER_Z (z + 1/z)

    at a rational point, from the constants evaluated there:
    x1 = X1_NUM/X1_DEN, y1^2 = KAPPA Y1_NUM_FACTOR H_plus H_minus / Y1_DEN and
    z + 1/z = 2 (H_minus - H_plus)/H_INF.  Their sum is zero for the true
    constants.  Raises ZeroDivisionError where X1_DEN, Y1_DEN or H_INF
    vanishes."""
    def at(p):
        return Fraction(p.evaluate(point))

    x1 = at(c.X1_NUM) / at(c.X1_DEN)
    h_plus, h_minus = at(c.h_plus()), at(c.h_minus())
    return [
        x1**3 + at(c.MASTER_X2) * x1**2 + at(c.MASTER_X1) * x1 + at(c.MASTER_X0),
        c.KAPPA * at(c.Y1_NUM_FACTOR) * h_plus * h_minus / at(c.Y1_DEN),
        at(c.MASTER_Z) * 2 * (h_minus - h_plus) / at(c.H_INF),
    ]


def cubic_discriminant(p, q) -> Fraction:
    """Discriminant -4p^3 - 27q^2 of x^3 + p*x + q; zero iff a repeated root."""
    p, q = Fraction(p), Fraction(q)
    return -4 * p**3 - 27 * q**2


def principal_ab(j1, j2):
    """The reference (a, b) of a member: four principal roots in mpmath at
    PREC_BITS, -cbrt(j1/48^3) cbrt(j2) and -sqrt((j1-1728)/864^2) sqrt(j2-1728)."""
    import mpmath

    with mpmath.workprec(md.PREC_BITS):
        j1, j2 = mpmath.mpmathify(j1), mpmath.mpmathify(j2)
        return (-mpmath.cbrt(j1 / 48**3) * mpmath.cbrt(j2),
                -mpmath.sqrt((j1 - 1728) / 864**2) * mpmath.sqrt(j2 - 1728))
