"""Weierstrass models and Kodaira fibers of the two-parameter family.

A member y^2 + z + 1/z + x^3 + a*x + b = 0, read as an elliptic fibration
over the z-line, becomes y^2 = X^3 + A(t) X + B(t) with

    A(t) = a t^4,    B(t) = -(t^5 + b t^6 + t^7)

after x -> -X, X -> xi/t^2, y -> eta/t^3 at t = z.  Both ends of the base
carry a fiber with valuations (4, 5, 10): the standard residue-
characteristic-zero table classifies it as II*, and the discriminant
budget 10 + 10 + 4 = 24 accounts for the Euler number.  Every model lives
over (t, a, b), so `fiber_analysis` reads the same valuations off a member
with rational a, b and off the generic member `GENERIC`, whose a and b are
the variables themselves; where the lowest and the highest t-coefficients
of B and the discriminant are nonzero constants, the generic valuations
hold at every member.

Degeneration happens exactly when x^3 + a x + b - 2 or x^3 + a x + b + 2
has a repeated root.  The product of the two cubic discriminants,
`degeneracy_indicator`, is a polynomial in a^3 and b^2 (no root
extraction), and at the closed forms in (j1, j2) it is (j1 - j2)^2 / 256
exactly, an identity in Q[j1, j2] that the check
weierstrass.degeneracy_equivalence decides.  So the family command, which
answers every input from (j1, j2), flags a member as degenerate exactly
when j1 = j2: on the rational values, or for a tau on its reduced points
(modular.fricke_pair).
"""

from __future__ import annotations

from fractions import Fraction
from math import inf
from typing import NamedTuple

from .exact import MultiPolynomial, variables

_T, _A, _B = variables("t", "a", "b")


class FamilyMember(NamedTuple):
    """y^2 + z + 1/z + x^3 + a x + b = 0, for rational a, b or for the
    variables a, b of the model ring."""

    a: Fraction | MultiPolynomial
    b: Fraction | MultiPolynomial


GENERIC = FamilyMember(_A, _B)


class WeierstrassModel(NamedTuple):
    """Coefficients A(t), B(t) of y^2 = X^3 + A X + B over the base line."""

    A: MultiPolynomial
    B: MultiPolynomial

    def discriminant(self) -> MultiPolynomial:
        return -16 * (4 * self.A**3 + 27 * self.B**2)


class KodairaType(NamedTuple):
    symbol: str  # one of I0, In, II, III, IV, I0*, In*, IV*, III*, II*
    n: "int | None" = None

    def __str__(self) -> str:
        if self.symbol == "In":
            return f"I{self.n}"
        if self.symbol == "In*":
            return f"I{self.n}*"
        return self.symbol

    @property
    def euler_contribution(self) -> int:
        table = {"I0": 0, "II": 2, "III": 3, "IV": 4,
                 "I0*": 6, "IV*": 8, "III*": 9, "II*": 10}
        if self.symbol == "In":
            return self.n
        if self.symbol == "In*":
            return 6 + self.n
        return table[self.symbol]


def coefficients(a, b, t):
    """(A, B) = (a t^4, -(t^5 + b t^6 + t^7)), for numbers or polynomials;
    t^4 is the one power taken."""
    t4 = t**4
    return a * t4, -(t4 * t) * (1 + b * t + t * t)


def to_weierstrass(m: FamilyMember) -> WeierstrassModel:
    """The model of m over (t, a, b)."""
    return WeierstrassModel(*coefficients(m.a, m.b, _T))


def _order_at_zero(p: MultiPolynomial):
    if p.is_zero():
        return inf
    return min(e[0] for e in p.terms)


def _order_at_infinity(p: MultiPolynomial, weight: int):
    """Order at t = infinity of a coefficient of the given weight (8 for A,
    12 for B, 24 for the discriminant): in the chart s = 1/t it becomes
    s^weight p(1/s), of order weight - deg_t p."""
    if p.is_zero():
        return inf
    degree = p.degree_in(("t",))
    if degree > weight:
        raise ValueError("polynomial degree exceeds the homogenization degree")
    return weight - degree


def end_coefficients(p: MultiPolynomial) -> tuple:
    """The coefficients of the lowest and of the highest power of t in p,
    each a polynomial free of t."""
    return tuple(
        MultiPolynomial(p.vars, {(0, *e[1:]): c for e, c in p.terms.items() if e[0] == k})
        for k in (_order_at_zero(p), p.degree_in(("t",))))


def kodaira_type(ord_a, ord_b, ord_delta) -> KodairaType:
    """Classify by the valuation table (residue characteristic zero).

    ord_a may be `math.inf` (zero coefficient polynomial), which satisfies
    every lower-bound clause.
    """
    if ord_delta == 0:
        return KodairaType("I0")
    if ord_a == 0:
        return KodairaType("In", int(ord_delta))
    if ord_a >= 4 and ord_b >= 6:
        raise ValueError("model is not minimal: ord(A) >= 4 and ord(B) >= 6")
    if ord_b == 1:
        return KodairaType("II")
    if ord_a == 1:
        return KodairaType("III")
    if ord_b == 2:
        return KodairaType("IV")
    if ord_delta == 6:
        return KodairaType("I0*")
    if ord_a == 2 and ord_b == 3:
        return KodairaType("In*", int(ord_delta) - 6)
    if ord_b == 4:
        return KodairaType("IV*")
    if ord_a == 3:
        return KodairaType("III*")
    if ord_b == 5:
        return KodairaType("II*")
    raise ValueError(f"no table entry for orders ({ord_a}, {ord_b}, {ord_delta})")


class FiberAnalysis(NamedTuple):
    at_zero: KodairaType
    at_infinity: KodairaType
    extra_zero_multiplicity: int  # discriminant zeros away from 0, infinity
    euler_total: int


def fiber_analysis(m: FamilyMember) -> FiberAnalysis:
    """The fibers at t = 0 and t = infinity of m, and its discriminant budget;
    at `GENERIC` the valuations are those over Q(a, b)."""
    model = to_weierstrass(m)
    delta = model.discriminant()
    if delta.is_zero():
        raise ValueError("degenerate family: the discriminant vanishes identically")
    at_zero = kodaira_type(
        _order_at_zero(model.A), _order_at_zero(model.B), _order_at_zero(delta))
    at_infinity = kodaira_type(
        _order_at_infinity(model.A, 8), _order_at_infinity(model.B, 12),
        _order_at_infinity(delta, 24))
    extra = delta.degree_in(("t",)) - _order_at_zero(delta)
    euler = at_zero.euler_contribution + at_infinity.euler_contribution + extra
    return FiberAnalysis(at_zero, at_infinity, extra, euler)


def degeneracy_indicator(a_cubed, b_squared):
    """disc(a, b-2) * disc(a, b+2) as a polynomial in a^3 and b^2, for
    numbers or polynomials.

    Expanding (-4p - 27(b-2)^2)(-4p - 27(b+2)^2) with p = a^3 and q = b^2:

        16 p^2 + 216 p q + 864 p + 729 q^2 - 5832 q + 11664.

    Zero iff the member is degenerate; branch-free in a and b.
    """
    p, q = a_cubed, b_squared
    return (16 * p**2 + 216 * p * q + 864 * p
            + 729 * q**2 - 5832 * q + 11664)

