"""Every transcribed input constant, collected in one auditable place.

Whatever is checked elsewhere in the package is *built* from the data below:
the defining polynomials of the double-cover model in Legendre parameters
(the Kummer classes and fibers are read off them), the incidence graph of
the Kummer curves, and the reflexive simplex with its hypersurface monomial
support (the curves of X are read off that simplex, in toric.curve_tree).
Mutating any single entry here must flip the verification suite to failure;
the CLI test suite exercises exactly that.

Variable conventions:

* ``u1, v1`` and ``u2, v2`` are homogeneous coordinates on the two P^1
  factors under the Kummer surface; ``l1, l2`` are the Legendre parameters
  of the two elliptic curves.
* On the mirror side ``t`` is the coordinate of the base of the elliptic
  fibration (the torus coordinate whose fibers are the elliptic curves).
"""

from __future__ import annotations

from fractions import Fraction
from math import prod

from .exact import MultiPolynomial, variables

FIBRATION_VARS = ("u1", "v1", "u2", "v2", "l1", "l2")
u1, v1, u2, v2, l1, l2 = variables(*FIBRATION_VARS)

half = Fraction(1, 2)
quarter = Fraction(1, 4)

# ---------------------------------------------------------------------------
# Fiber polynomials of the second elliptic fibration, bidegree (4,3) in the
# (u1:v1), (u2:v2) coordinates.  H_INF cuts the fiber with an E8 configuration
# (over z = infinity); H_PLUS and H_MINUS cut the two half-fiber stars.
# ---------------------------------------------------------------------------

H_INF = (l2 - 1) * (u1 - l1 * v1) ** 3 * (u1 - v1) * u2 * v2**2

# (1,1) curve through the three exceptional points indexed (1,3),(2,2),(3,4)
C1_POLY = (l1 - 1) * v1 * u2 - u1 * v2 + v1 * v2

# (2,2) curve with a double point and five simple base points
C2_POLY = (
    l1 * (l1 - 1) * v1**2 * v2**2
    + l1 * (l1 * l2 - 2 * l1 + 1) * v1**2 * u2 * v2
    - l1 * (l1 - 1) * u1 * v1 * v2**2
    + (2 * l1**2 - 2 * l1 * l2 - l1 + 1) * u1 * v1 * u2 * v2
    - (l1 - 1) ** 2 * u1 * v1 * u2**2
    + (l2 - 1) * u1**2 * u2 * v2
)

# (1,1) curve through the points indexed (1,3),(2,1),(3,4)
C3_POLY = (l1 - 1) * u1 * u2 - l1 * u1 * v2 + l1 * v1 * v2

# (2,2) companion of C3 in the second star fiber
C4_POLY = (
    -(l1**2) * (l2 - 1) * v1**2 * u2 * v2
    + (1 - l1) * u1 * v1 * v2**2
    + (-(l1**2) + 2 * l1 * l2 + l1 - 2) * u1 * v1 * u2 * v2
    + (l1 - 1) ** 2 * u1 * v1 * u2**2
    + (l1 - 1) * u1**2 * v2**2
    + (-l1 - l2 + 2) * u1**2 * u2 * v2
)


def h_plus_factors() -> tuple:
    """H_plus = u1 * C1_POLY * C2_POLY: the one statement of its factors,
    multiplied out by h_plus and read factor by factor by kummer."""
    return u1, C1_POLY, C2_POLY


def h_minus_factors() -> tuple:
    """H_minus = v1 * C3_POLY * C4_POLY, stated and read as h_plus_factors."""
    return v1, C3_POLY, C4_POLY


def h_plus() -> MultiPolynomial:
    return prod(h_plus_factors())


def h_minus() -> MultiPolynomial:
    return prod(h_minus_factors())


# ---------------------------------------------------------------------------
# The rational function x1 (the fiberwise Weierstrass coordinate of the
# second fibration, normalized by the cubic relation below).
#
# Its numerator is the negated C2-curve polynomial.  This is forced: the
# numerator must be a bidegree-(2,2) form vanishing simply at the five
# blown-up points indexed (1,2), (1,3), (4,3), (2,1), (2,2) and doubly at (3,4)
# (the class of the section-tree divisor), and the cubic relation pins the
# normalization inside that pencil to exactly -C2_POLY.  A member of any
# other coefficient choice fails the vanishing profile and makes x1 a
# degree-20 map on fibers instead of degree 2.
# ---------------------------------------------------------------------------

X1_NUM = -C2_POLY

X1_DEN = (u1 - v1) * (u1 - l1 * v1) * (u2 - v2) * v2

Y1_NUM_FACTOR = u2 - l2 * v2  # multiplies KAPPA * H_PLUS * H_MINUS

Y1_DEN = (
    u1 * v1 * (u2 - v2) ** 3 * (u1 - v1) ** 3 * v2**3 * (u1 - l1 * v1) ** 3 * u2
)

# Normalization of y1^2 under the conventions above: the cubic relation
# below holds with this value and with no other (identities.master_cubic).
KAPPA = Fraction(1)

# ---------------------------------------------------------------------------
# Coefficients of the cubic relation satisfied by x1, y1^2 and z + 1/z:
#   x1^3 + MASTER_X2*x1^2 + MASTER_X1*x1 + MASTER_X0 + y1^2
#        + MASTER_Z*(z + 1/z) = 0
# where z + 1/z = 2*(H_MINUS - H_PLUS)/H_INF is stated once, in
# shioda_inose.z_invariant.  The fiber order is pinned by this relation:
# z = 1 is the star fiber cut by H_MINUS, z = -1 the one cut by H_PLUS.
# ---------------------------------------------------------------------------

MASTER_X2 = l1 * l2 - 2 * l1 + l2 + 1
MASTER_X1 = -(l1 * l2 - l1 + 1) * (l1 - l2)
MASTER_X0 = -half * (l1 - 1) * (l2 - 1) * l1 * l2
MASTER_Z = -quarter * l1 * (l1 - 1) * l2 * (l2 - 1)

# ---------------------------------------------------------------------------
# Legendre lambda to j-invariant, and the closed forms for the family
# coefficients.  Univariate data in the variable "l".
# ---------------------------------------------------------------------------

(lam,) = variables("l")

J_NUM = 256 * (lam**2 - lam + 1) ** 3
J_DEN = lam**2 * (lam - 1) ** 2

# j - 1728 = 64 ((l+1)(l-2)(2l-1))^2 / (l^2 (l-1)^2)
J_MINUS_1728_NUM = 64 * ((lam + 1) * (lam - 2) * (2 * lam - 1)) ** 2

A_CUBED_SCALE = Fraction(-16, 27)  # times prod (li^2-li+1)^3 / (li(li-1))^2
B_SQUARED_SCALE = Fraction(4, 729)  # times prod ((li+1)(li-2)(2li-1))^2 / (..)^2

A_CUBED_J_DIVISOR = 110592  # 48^3; a^3 = -j1 j2 / 110592
B_SQUARED_J_DIVISOR = 746496  # 864^2; b^2 = (j1-1728)(j2-1728) / 746496

# ---------------------------------------------------------------------------
# The incidence tree of twenty curves on the Kummer surface, as drawn in the
# paper.  kummer.fibration reads the curves, their labels, the fibers of |D|,
# its section and the branch octet off the polynomials above.
# ---------------------------------------------------------------------------

TWENTY_EDGES = (
    ("C1", "F2_1"), ("C2", "F2_1"), ("F2_1", "G4_1"), ("F2_1", "G3_1"),
    ("G3_1", "F1_3"),
    ("F1_3", "G3_3"), ("G3_3", "F2_3"), ("F2_3", "G2_3"), ("G2_3", "F1_2"),
    ("F1_2", "G2_4"), ("G2_4", "F2_4"), ("F2_4", "G1_4"), ("G1_4", "F1_1"),
    ("F2_4", "G4_4"),
    ("F1_3", "G3_2"),
    ("G3_2", "F2_2"), ("F2_2", "C4"), ("F2_2", "G4_2"), ("F2_2", "C3"),
)

# ---------------------------------------------------------------------------
# Toric data: the Newton simplex of the family, its expected dual, and the
# monomial support of the unreduced hypersurface equation.
# ---------------------------------------------------------------------------

DELTA_VERTICES = ((-1, -4, -6), (1, 0, 0), (0, 1, 0), (0, 0, 1))

# Dual simplex; the second vertex is (11, -1, -1).
DELTA_DUAL_VERTICES = ((-1, -1, -1), (11, -1, -1), (-1, 2, -1), (-1, -1, 1))

# Exponent vectors of the nine monomials z, 1/z, 1, x, x^2, x^3, y, y^2, xy
# with x = (0,1,1), y = (0,1,2), z = (-1,-2,-3).
SUPPORT_MONOMIALS = {
    "z": (-1, -2, -3),
    "z^-1": (1, 2, 3),
    "1": (0, 0, 0),
    "x": (0, 1, 1),
    "x^2": (0, 2, 2),
    "x^3": (0, 3, 3),
    "y": (0, 1, 2),
    "y^2": (0, 2, 4),
    "x*y": (0, 2, 3),
}

# Vertex correspondence used to pin the support shift
SUPPORT_VERTEX_MAP = (("z", 0), ("z^-1", 1), ("x^3", 2), ("y^2", 3))

SUPPORT_SHIFT = (0, -2, -3)
