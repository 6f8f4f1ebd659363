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

The fibration |D| is read off the pencil <H_INF, H_plus, H_minus>
(`fibration`), and its section, the branch octet and the twenty labels of
the incidence tree are read off its three reducible fibers.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from math import comb
from typing import NamedTuple

from . import constants as c
from .exact import MultiPolynomial
from .lattice import (GramLattice, curve_gram, direct_sum, induced_gram, integer_kernel,
                      matrix_rank)

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


def _divisor(factors, gens: dict) -> Counter:
    """div(H), H the product of `factors`, as weighted components: a factor
    among C1..C4 weighs its exponent and adds its mult_ij to G_ij; any other
    must be a product of branch lines, and its order r along line i of
    (u2:v2) gives F_1i 2r and each G_ij r, and likewise on (u1:v1)."""
    curves = {getattr(c, f"C{k}_POLY"): f"C{k}" for k in _BRANCH}
    div = Counter()
    for p in factors:
        if p in curves:
            div[curves[p]] += 1
            div.update({f"G{i}_{j}": -x for (i, j), x in zip(_GRID, gens[curves[p]][2:])})
            continue
        d1, d2 = _bidegree(p)
        rows, cols = line_orders(p, 2), line_orders(p, 1)
        if (sum(rows), sum(cols)) != (d2, d1):
            raise ValueError("a factor of the pencil is not a product of branch lines")
        div.update({f"G{i}_{j}": rows[i - 1] + cols[j - 1] for i, j in _GRID})
        div.update({f"F1_{k}": 2 * r for k, r in zip(_BRANCH, rows)})
        div.update({f"F2_{k}": 2 * r for k, r in zip(_BRANCH, cols)})
    return div


class Fibration(NamedTuple):
    """The named classes (the 26 standard generators, C1..C4, D), the fibers of
    |D| over H_INF, H_plus and H_minus = 0 as {label: weight}, and D's section."""

    gens: dict
    fibers: tuple
    section: str

    @property
    def octet(self) -> list:
        """The branch locus of the mirror's double cover: the stars' simple curves."""
        return [label for star in self.fibers[1:] for label, w in star.items() if w == 1]


def fibration() -> Fibration:
    """C1..C4 by `curve_class`; for each member H of the pencil <H_INF,
    H_plus, H_minus> (identities.h_sum), the fiber over H = 0, div(H) less the
    base locus (the least div over the three); D, the bidegree less the base;
    the section, the one standard generator off the fibers with D.s = 1."""
    gens = standard_generators()
    standard = tuple(gens)
    for k in _BRANCH:
        gens[f"C{k}"] = curve_class(getattr(c, f"C{k}_POLY"))
    pencil = (c.H_INF,), c.h_plus_factors(), c.h_minus_factors()
    divisors = [_divisor(member, gens) for member in pencil]
    base = divisors[0] & divisors[1] & divisors[2]
    d1, d2 = _bidegree(c.H_INF)
    gens["D"] = (d2, d1, *(-base[f"G{i}_{j}"] for i, j in _GRID))
    fibers = tuple(div - base for div in divisors)
    outside = [label for label in standard if not any(label in fiber for fiber in fibers)]
    meets = KUMMER_LATTICE.pairings([gens["D"]], [gens[label] for label in outside])[0]
    sections = [label for label, x in zip(outside, meets) if x == 1]
    if len(sections) != 1:
        raise ValueError(f"{len(sections)} standard generators off the fibers meet D once")
    return Fibration(gens, fibers, sections[0])


E8_DEGREES, D4_DEGREES = [1, 1, 1, 2, 2, 2, 2, 2, 3], [1, 1, 1, 1, 4]


def is_affine(fiber: dict, gram: GramLattice, degrees: list) -> bool:
    """Whether the weights of `fiber` span the kernel of its block of `gram`,
    which makes it an affine Dynkin diagram (Kac, "Infinite dimensional Lie
    algebras", Thm 4.3), and its curves, meeting at most once each, have the
    sorted `degrees`: E8_DEGREES (arms 1, 2, 5) or D4_DEGREES (a degree-4 hub)."""
    labels, weights = zip(*fiber.items())
    own = gram.block(labels, labels)
    simple = all(row[i] == -2 and {*row[:i], *row[i + 1:]} <= {0, 1} for i, row in enumerate(own))
    return (simple and sorted(sum(row) + 2 for row in own) == degrees
            and integer_kernel(own) == [list(weights)])


def verify_star_fibers(fib: Fibration, gram: GramLattice) -> bool:
    """Read off `gram`, the twenty curves' Gram: both stars are affine D4, the
    fibers mutually orthogonal, and the section meets each once, with weight 1."""
    for k, fiber in enumerate(fib.fibers):
        later = [label for other in fib.fibers[k + 1:] for label in other]
        meets = [(x, w) for x, w in zip(gram.block([fib.section], fiber)[0], fiber.values()) if x]
        if (k and not is_affine(fiber, gram, D4_DEGREES)
                or any(map(any, gram.block(fiber, later))) or meets != [(1, 1)]):
            return False
    return True


class TreeReport(NamedTuple):
    matches_expected: bool
    rank: int
    gram: GramLattice


def labeled_tree_report(fib: Fibration) -> TreeReport:
    """The twenty curves' Gram against TWENTY_EDGES: -2 on the diagonal, 1 on
    tree edges, 0 elsewhere, of rank 18 (three fibers sum to D: two relations)."""
    e8, star1, star2 = fib.fibers
    labels = (*star1, fib.section, *e8, *star2)
    induced = induced_gram(KUMMER_LATTICE, [fib.gens[lab] for lab in labels], labels)
    drawn = {label for edge in c.TWENTY_EDGES for label in edge}
    matches = drawn <= set(labels) and induced.gram == curve_gram(labels, c.TWENTY_EDGES).gram
    return TreeReport(matches, matrix_rank(induced.gram), induced)


class IsogenyFiberNumbers(NamedTuple):
    """Intersection data of the graph fibration induced by an n-isogeny."""

    proj_square: int
    rx_square: int


def isogeny_fiber_numbers(n: int) -> IsogenyFiberNumbers:
    """For the fibration induced by an n-isogeny between the two factors:
    the fiber class R_Y pairs 2n with F1 and 2 with F2 and is G-orthogonal;
    projecting away the F-part gives square -4n, and doubling under the
    branched-cover pullback gives R_X^2 = -8n.
    """
    if n < 1:
        raise ValueError("the isogeny degree must be a positive integer")
    ambient = GramLattice(("F1", "F2", "RY"), ((0, 2, 2 * n), (2, 0, 2), (2 * n, 2, 0)))
    proj_square = induced_gram(ambient, [(-1, -n, 1)], ("RY-nF2-F1",)).gram[0][0]
    return IsogenyFiberNumbers(proj_square, 2 * proj_square)
