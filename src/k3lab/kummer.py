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
four branch values are ordered (0, infinity, 1, lambda), the second factor
indexed by i and the first by j.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import constants as c
from .lattice import GramLattice, curve_gram, direct_sum, induced_gram, matrix_rank

KUMMER_LATTICE = direct_sum(
    GramLattice(("F1", "F2"), ((0, 2), (2, 0))),
    *(GramLattice((f"G{i}_{j}",), ((-2,),)) for i in range(1, 5) for j in range(1, 5)),
)


def pair(x, y) -> Fraction:
    """Symmetric bilinear intersection pairing."""
    return KUMMER_LATTICE.pairing(x, y)


def _vector(f1, f2, matrix) -> tuple:
    """The coordinate vector of f1*F1 + f2*F2 + sum_ij matrix[i][j]*G_ij."""
    return (f1, f2, *(x for row in matrix for x in row))


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
    ks = range(1, 5)
    for i in ks:
        gens[f"F1_{i}"] = combination(gens, [("F1", half)] + [(f"G{i}_{j}", -half) for j in ks])
    for j in ks:
        gens[f"F2_{j}"] = combination(gens, [("F2", half)] + [(f"G{i}_{j}", -half) for i in ks])
    return gens


def one_one_curve_class(gens: dict, rows, cols) -> tuple:
    """F1 + F2 - G_{r1,c1} - G_{r2,c2} - G_{r3,c3}, self-intersection -2,
    over the generator table `gens`."""
    rows, cols = tuple(rows), tuple(cols)
    if len(set(rows)) != 3 or len(set(cols)) != 3:
        raise ValueError("row and column indices must each be distinct triples")
    return combination(gens,
                       [("F1", 1), ("F2", 1)] + [(f"G{r}_{s}", -1) for r, s in zip(rows, cols)])


def named_classes() -> dict:
    """All generators plus C1..C4 and the fibration class D.

    C1 and C3 are the (1,1)-curves through the index triples recorded in
    constants; C2, C4 and D are their transcribed expansions, so both star
    fibers are decided from transcriptions.
    """
    gens = standard_generators()
    gens["C1"] = one_one_curve_class(gens, *zip(*c.C1_NODES))
    gens["C2"] = _vector(c.C2_F1, c.C2_F2, c.C2_MATRIX)
    gens["C3"] = one_one_curve_class(gens, *zip(*c.C3_NODES))
    gens["C4"] = _vector(c.C4_F1, c.C4_F2, c.C4_MATRIX)
    gens["D"] = _vector(c.D_F1, c.D_F2, c.D_MATRIX)
    return gens


def verify_e8_fiber(gens: dict) -> bool:
    """The weighted nine-curve sum equals D and every component is
    D-orthogonal, over the `named_classes` table `gens`."""
    return (all(pair(gens["D"], gens[label]) == 0 for label, _ in c.E8_FIBER_WEIGHTS)
            and combination(gens, c.E8_FIBER_WEIGHTS) == gens["D"])


def verify_star_fibers(gens: dict) -> bool:
    """The two five-curve star fibers of the `named_classes` table `gens`
    each sum to D."""
    return all(combination(gens, fiber) == gens["D"]
               for fiber in (c.STAR_FIBER_1, c.STAR_FIBER_2))


def branch_octet(gens: dict) -> list:
    """The eight disjoint (-2)-curves over which the double cover recovers
    the mirror surface, from the `named_classes` table `gens`."""
    return [(label, gens[label]) for label in c.BRANCH_OCTET]


@dataclass(frozen=True)
class TreeReport:
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


@dataclass(frozen=True)
class IsogenyFiberNumbers:
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


def integrality_report(gens: dict) -> bool:
    """Every class of the `named_classes` table `gens` pairs integrally with
    the 24 standard generators G_ij, F_1i and F_2j.

    Pairing with G_ij is -2 A_ij and with F_1i is b + sum_j A_ij, so this
    also forces every coordinate into (1/2)Z.
    """
    probes = [v for k, v in gens.items() if k.startswith(("G", "F1_", "F2_"))]
    return all(p.denominator == 1
               for row in KUMMER_LATTICE.pairings(list(gens.values()), probes) for p in row)

