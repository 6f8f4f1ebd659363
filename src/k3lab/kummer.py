"""Divisor-class calculus on the Kummer surface of a product E1 x E2.

A class a*F1 + b*F2 + sum_ij A[i][j]*G_ij is its coordinate vector
(a, b, A[1][1], A[1][2], ..., A[4][4]) in `KUMMER_LATTICE`, whose Gram is
U(2) + <-2>^16: F1, F2 pull back the two rulings of P^1 x P^1
(F1.F2 = 2) and the G_ij are the sixteen exceptional curves.  Every
pairing comes from `KUMMER_LATTICE.pairings`: in a batch, or one pair at a
time through `pair`.

The eight half-fiber curves need half-integer entries:

    F_1i = (1/2, 0; row i all -1/2),   F_2j = (0, 1/2; column j all -1/2).

This is the unique representation compatible with the fiber relations
F1 = 2 F_1i + sum_j G_ij and F2 = 2 F_2j + sum_i G_ij and with integral
pairings (a representation with first slots (1,0)/(0,1) breaks both).

Index dictionary: G_ij meets F_1i and F_2j; on the two projective lines the
four branch values are ordered (0, infinity, 1, lambda) -> 1 ... 4, the
second factor (u2:v2, lambda = l2) indexed by i and the first (u1:v1,
lambda = l1) by j.

Every curve class is read off its polynomial P in constants, of degree d1
in (u1:v1) and d2 in (u2:v2), by one rule,
class(P) = d2*F1 + d1*F2 - sum_ij mult_ij(P)*G_ij, with mult_ij(P) the order
of P at the branch point (i, j).  Orders are minima of exponents once branch
values sit at u = 0 (`_moved`), decided in Q[l1, l2]: along a branch line
the least u-exponent, at a point the least (u1 + u2)-exponent.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb
from typing import NamedTuple

from . import constants as c
from .exact import MultiPolynomial
from .lattice import GramLattice, curve_gram, direct_sum, induced_gram, matrix_rank

# branch values, the G_ij in coordinate order, and the (u, v, lambda) exponent
# slots of each factor in FIBRATION_VARS
_BRANCH = range(1, 5)
_GRID = tuple((i, j) for i in _BRANCH for j in _BRANCH)
_SLOTS = {1: (0, 1, 4), 2: (2, 3, 5)}

KUMMER_LATTICE = direct_sum(
    GramLattice(("F1", "F2"), ((0, 2), (2, 0))),
    *(GramLattice((f"G{i}_{j}",), ((-2,),)) for i, j in _GRID),
)


def pair(x, y) -> Fraction:
    """Symmetric bilinear intersection pairing."""
    return KUMMER_LATTICE.pairing(x, y)


def combination(gens: dict, weights) -> tuple:
    """The coordinate vector of sum(mult * gens[label] for label, mult in weights)."""
    total = [0] * KUMMER_LATTICE.dim
    for label, mult in weights:
        for k, x in enumerate(gens[label]):
            if x:
                total[k] += mult * x
    return tuple(total)


def standard_generators() -> dict:
    """The 26 named generators: F1, F2, the sixteen G_ij, and the eight
    half-fiber curves."""
    n = KUMMER_LATTICE.dim
    gens = {lab: (0,) * k + (1,) + (0,) * (n - 1 - k)
            for k, lab in enumerate(KUMMER_LATTICE.labels)}
    half = Fraction(1, 2)
    for k in _BRANCH:
        gens[f"F1_{k}"] = (half, 0, *(-half if i == k else 0 for i, _ in _GRID))
        gens[f"F2_{k}"] = (0, half, *(-half if j == k else 0 for _, j in _GRID))
    return gens


def _moved(terms: dict, factor: int, k: int) -> dict:
    """The exponent map `terms` with branch value k of one factor moved to
    u = 0: u <-> v for infinity, u -> u + v for 1, u -> u + lambda*v for lambda."""
    u, v, lam = _SLOTS[factor]
    if k == 1:
        return terms
    if k == 2:
        return {e[:u] + (e[v], e[u]) + e[v + 1:]: x for e, x in terms.items()}
    out: dict = {}
    for e, x in terms.items():
        for m in range(e[u] + 1):
            f = list(e)
            f[u] -= m
            f[v] += m
            if k == 4:
                f[lam] += m
            f = tuple(f)
            out[f] = out.get(f, 0) + comb(e[u], m) * x
    return {e: x for e, x in out.items() if x}


def _bidegree(p: MultiPolynomial) -> tuple:
    """(d1, d2), the degrees of p in (u1:v1), (u2:v2); raises unless p is bihomogeneous."""
    d1, d2 = next(((e[0] + e[1], e[2] + e[3]) for e in p.terms), (0, 0))
    if not (p.terms and p.vars == c.FIBRATION_VARS and p.is_homogeneous_in(("u1", "v1"), d1)
            and p.is_homogeneous_in(("u2", "v2"), d2)):
        raise ValueError("not a nonzero bihomogeneous polynomial over FIBRATION_VARS")
    return d1, d2


def line_orders(p: MultiPolynomial, factor: int) -> list:
    """The orders of p along the branch lines of factor 1 (u1:v1) or 2 (u2:v2)."""
    u = _SLOTS[factor][0]
    return [min(e[u] for e in _moved(p.terms, factor, k)) for k in _BRANCH]


def curve_class(p: MultiPolynomial) -> tuple:
    """The coordinate vector of class(p).  The second move keeps u1-exponents,
    so it runs on one u1-exponent a at a time while a < the least order yet."""
    d1, d2 = _bidegree(p)
    mult = {}
    for j in _BRANCH:
        by_u1: dict = {}
        for e, x in _moved(p.terms, 1, j).items():
            by_u1.setdefault(e[0], {})[e] = x
        for i in _BRANCH:
            order = d1 + d2
            for a in sorted(by_u1):
                if a >= order:
                    break
                order = min(order, a + min(e[2] for e in _moved(by_u1[a], 2, i)))
            mult[i, j] = order
    return (d2, d1, *(-mult[ij] for ij in _GRID))


def _h_inf_lines() -> tuple:
    """The bidegree of H_INF and its line orders on each factor; raises unless
    H_INF is a product of branch lines, so mult_ij(H_INF) = rows[i] + cols[j]."""
    d1, d2 = _bidegree(c.H_INF)
    rows, cols = line_orders(c.H_INF, 2), line_orders(c.H_INF, 1)
    if (sum(rows), sum(cols)) != (d2, d1):
        raise ValueError("H_INF is not a product of branch lines")
    return d1, d2, rows, cols


def named_classes() -> dict:
    """All generators plus C1..C4 and the class D of the pencil <H_INF,
    H_plus, H_minus> (identities.h_sum): base_ij = min(mult_ij(H_INF),
    mult_ij(H_plus)), the orders of the factors of H_plus
    (constants.h_plus_factors) added up; a factor among C1..C4 keeps the
    class already read."""
    gens = standard_generators()
    by_poly = {}
    for k in range(1, 5):
        poly = getattr(c, f"C{k}_POLY")
        gens[f"C{k}"] = by_poly[poly] = curve_class(poly)
    d1, d2, rows, cols = _h_inf_lines()
    plus = [-sum(x) for x in zip(*(by_poly.get(p) or curve_class(p)
                                   for p in c.h_plus_factors()))]
    gens["D"] = (d2, d1, *(-min(m, rows[i - 1] + cols[j - 1])
                           for (i, j), m in zip(_GRID, plus[2:])))
    return gens


def e8_fiber_weights(gens: dict) -> list:
    """The components of the E8-type fiber over H_INF = 0 with their weights,
    for the `named_classes` table `gens`: F_1i weighs 2*rows[i], F_2j
    2*cols[j] and G_ij mult_ij(H_INF) - base_ij, so they sum to D."""
    _, _, rows, cols = _h_inf_lines()
    weights = ([(f"F1_{i}", 2 * r) for i, r in zip(_BRANCH, rows)]
               + [(f"F2_{j}", 2 * r) for j, r in zip(_BRANCH, cols)]
               + [(f"G{i}_{j}", rows[i - 1] + cols[j - 1] + x)
                  for (i, j), x in zip(_GRID, gens["D"][2:])])
    return [(label, w) for label, w in weights if w]


def verify_e8_fiber(gens: dict) -> bool:
    """Every E8-fiber component of the `named_classes` table `gens` is D-orthogonal."""
    components = [gens[label] for label, _ in e8_fiber_weights(gens)]
    return not any(KUMMER_LATTICE.pairings([gens["D"]], components)[0])


def verify_star_fibers(gens: dict) -> bool:
    """The two five-curve star fibers of the `named_classes` table `gens`
    each sum to D."""
    return all(combination(gens, fiber) == gens["D"]
               for fiber in (c.STAR_FIBER_1, c.STAR_FIBER_2))


def branch_octet(gens: dict) -> list:
    """The eight disjoint (-2)-curves over which the double cover recovers
    the mirror surface, from the `named_classes` table `gens`."""
    return [(label, gens[label]) for label in c.BRANCH_OCTET]


class TreeReport(NamedTuple):
    matches_expected: bool
    rank: int


def labeled_tree_report(gens: dict) -> TreeReport:
    """Pairings of the twenty labeled curves of the `named_classes` table
    `gens` against the incidence tree.

    Diagonal -2, 1 exactly on tree edges, 0 elsewhere; the pairing matrix
    has rank 18 (the three fiber decompositions of D give two relations).
    """
    labels = c.TWENTY_LABELS
    induced = induced_gram(KUMMER_LATTICE, [gens[lab] for lab in labels], labels)
    expected = curve_gram(labels, c.TWENTY_EDGES)
    return TreeReport(induced.gram == expected.gram, matrix_rank(induced.gram))


class IsogenyFiberNumbers(NamedTuple):
    """Intersection data of the graph fibration induced by an n-isogeny."""

    ry_f1: int
    ry_f2: int
    proj_square: int
    rx_square: int
    generator_square: int


def isogeny_fiber_numbers(n: int) -> IsogenyFiberNumbers:
    """For the fibration induced by an n-isogeny between the two factors:
    the fiber class R_Y pairs 2n with F1 and 2 with F2 and is G-orthogonal;
    projecting away the F-part gives square -4n, doubling under the
    branched-cover pullback gives R_X^2 = -8n, and the primitive generator
    of the rank-one complement has square -2n.
    """
    if n < 1:
        raise ValueError("the isogeny degree must be a positive integer")
    ambient = GramLattice(
        ("F1", "F2", "RY"),
        ((0, 2, 2 * n), (2, 0, 2), (2 * n, 2, 0)),
    )
    proj = induced_gram(ambient, [(-1, -n, 1)], labels=("RY-nF2-F1",))
    proj_square = proj.gram[0][0]
    rx_square = 2 * proj_square
    return IsogenyFiberNumbers(
        ry_f1=2 * n,
        ry_f2=2,
        proj_square=proj_square,
        rx_square=rx_square,
        generator_square=rx_square // 4,
    )
