"""Divisor-class calculus on the Kummer surface of a product E1 x E2.

A class is written a*F1 + b*F2 + sum_ij A[i][j]*G_ij where F1, F2 pull back
the two rulings of P^1 x P^1 and the G_ij are the sixteen exceptional
curves.  The intersection pairing polarizes the self-intersection rule
(a,b);A -> 4ab - 2 Tr(A A^T) to

    <(a,b;A), (a',b';A')> = 2(a b' + a' b) - 2 sum_ij A_ij A'_ij.

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
from .lattice import GramLattice, induced_gram, matrix_rank


@dataclass(frozen=True)
class KummerClass:
    f1: Fraction
    f2: Fraction
    g: tuple  # 4x4 tuple of tuples of Fractions

    @classmethod
    def build(cls, f1, f2, matrix) -> "KummerClass":
        g = tuple(tuple(Fraction(x) for x in row) for row in matrix)
        if len(g) != 4 or any(len(row) != 4 for row in g):
            raise ValueError("G-coefficient matrix must be 4x4")
        return cls(Fraction(f1), Fraction(f2), g)

    @classmethod
    def zero(cls) -> "KummerClass":
        return cls.build(0, 0, [[0] * 4] * 4)

    def __add__(self, other: "KummerClass") -> "KummerClass":
        return KummerClass(
            self.f1 + other.f1,
            self.f2 + other.f2,
            tuple(
                tuple(a + b for a, b in zip(r1, r2))
                for r1, r2 in zip(self.g, other.g)
            ),
        )

    def __sub__(self, other: "KummerClass") -> "KummerClass":
        return self + (-1) * other

    def __rmul__(self, scalar) -> "KummerClass":
        s = Fraction(scalar)
        return KummerClass(
            s * self.f1, s * self.f2,
            tuple(tuple(s * x for x in row) for row in self.g),
        )

    def is_zero(self) -> bool:
        return self.f1 == 0 and self.f2 == 0 and all(
            x == 0 for row in self.g for x in row)

    def has_half_integral_entries(self) -> bool:
        entries = [self.f1, self.f2] + [x for row in self.g for x in row]
        return all(x.denominator in (1, 2) for x in entries)


def pair(x: KummerClass, y: KummerClass) -> Fraction:
    """Symmetric bilinear intersection pairing."""
    cross = sum(a * b for r1, r2 in zip(x.g, y.g) for a, b in zip(r1, r2))
    return 2 * (x.f1 * y.f2 + y.f1 * x.f2) - 2 * cross


def _unit_matrix(i: int, j: int):
    return [[1 if (r, s) == (i - 1, j - 1) else 0 for s in range(4)]
            for r in range(4)]


def standard_generators() -> dict:
    """The 26 named generators: F1, F2, the sixteen G_ij, and the eight
    half-fiber curves."""
    gens = {
        "F1": KummerClass.build(1, 0, [[0] * 4] * 4),
        "F2": KummerClass.build(0, 1, [[0] * 4] * 4),
    }
    for i in range(1, 5):
        for j in range(1, 5):
            gens[f"G{i}_{j}"] = KummerClass.build(0, 0, _unit_matrix(i, j))
    half = Fraction(1, 2)
    for i in range(1, 5):
        row = [[-half if r == i - 1 else 0 for _ in range(4)] for r in range(4)]
        gens[f"F1_{i}"] = KummerClass.build(half, 0, row)
    for j in range(1, 5):
        col = [[-half if s == j - 1 else 0 for s in range(4)] for _ in range(4)]
        gens[f"F2_{j}"] = KummerClass.build(0, half, col)
    return gens


def one_one_curve_class(rows, cols) -> KummerClass:
    """F1 + F2 - G_{r1,c1} - G_{r2,c2} - G_{r3,c3}, self-intersection -2."""
    rows, cols = tuple(rows), tuple(cols)
    if len(set(rows)) != 3 or len(set(cols)) != 3:
        raise ValueError("row and column indices must each be distinct triples")
    g = standard_generators()
    out = g["F1"] + g["F2"]
    for r, s in zip(rows, cols):
        out = out - g[f"G{r}_{s}"]
    return out


def quotient_fibration_class() -> KummerClass:
    """The class inducing the second elliptic fibration (square zero)."""
    return KummerClass.build(c.D_F1, c.D_F2, c.D_MATRIX)


def named_classes() -> dict:
    """All generators plus C1..C4 and the fibration class D.

    C1 and C3 are the (1,1)-curves through the index triples recorded in
    constants; C2 is defined by the star-fiber difference and also checked
    against its transcribed expansion; C4 is transcribed directly.
    """
    gens = standard_generators()
    gens["C1"] = one_one_curve_class(*zip(*c.C1_NODES))
    gens["C3"] = one_one_curve_class(*zip(*c.C3_NODES))
    gens["C4"] = KummerClass.build(c.C4_F1, c.C4_F2, c.C4_MATRIX)
    d = quotient_fibration_class()
    gens["D"] = d
    gens["C2"] = (
        d - 2 * gens["F2_1"] - gens["G3_1"] - gens["G4_1"] - gens["C1"]
    )
    return gens


def c2_matches_transcription() -> bool:
    """The difference definition of C2 equals its displayed expansion."""
    displayed = KummerClass.build(c.C2_F1, c.C2_F2, c.C2_MATRIX)
    return (named_classes()["C2"] - displayed).is_zero()


def _sums_to(gens: dict, weights, target: str) -> bool:
    """sum(mult * gens[label] for label, mult in weights) == gens[target]."""
    total = KummerClass.zero()
    for label, mult in weights:
        total = total + mult * gens[label]
    return (total - gens[target]).is_zero()


def verify_e8_fiber() -> bool:
    """The weighted nine-curve sum equals D and every component is
    D-orthogonal."""
    gens = named_classes()
    return (all(pair(gens["D"], gens[label]) == 0 for label, _ in c.E8_FIBER_WEIGHTS)
            and _sums_to(gens, c.E8_FIBER_WEIGHTS, "D"))


def verify_star_fibers() -> bool:
    """The two five-curve star fibers each sum to D."""
    gens = named_classes()
    return all(_sums_to(gens, fiber, "D") for fiber in (c.STAR_FIBER_1, c.STAR_FIBER_2))


def branch_octet() -> list:
    """The eight disjoint (-2)-curves over which the double cover recovers
    the mirror surface."""
    gens = named_classes()
    return [(label, gens[label]) for label in c.BRANCH_OCTET]


@dataclass(frozen=True)
class TreeReport:
    labels: tuple
    adjacency: tuple  # full 20x20 pairing matrix
    matches_expected: bool
    rank: int


def expected_tree_adjacency() -> dict:
    edges = set()
    for a, b in c.TWENTY_EDGES:
        edges.add(frozenset((a, b)))
    return edges


def labeled_tree_report() -> TreeReport:
    """Pairings of the twenty labeled curves against the incidence tree.

    Diagonal -2, 1 exactly on tree edges, 0 elsewhere; the pairing matrix
    has rank 18 (the three fiber decompositions of D give two relations).
    """
    gens = named_classes()
    labels = c.TWENTY_LABELS
    classes = [gens[lab] for lab in labels]
    edges = expected_tree_adjacency()
    n = len(labels)
    matrix = []
    ok = True
    for i in range(n):
        row = []
        for j in range(n):
            p = pair(classes[i], classes[j])
            row.append(p)
            if i == j:
                ok = ok and p == -2
            else:
                expected = 1 if frozenset((labels[i], labels[j])) in edges else 0
                ok = ok and p == expected
        matrix.append(tuple(row))
    rank = matrix_rank(matrix)
    return TreeReport(labels, tuple(matrix), ok, rank)


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


def integrality_report() -> bool:
    """Every named class pairs integrally with all 24 standard generators."""
    gens = standard_generators()
    probes = [v for k, v in gens.items() if k not in ("F1", "F2")]
    all_named = named_classes()
    for cls in all_named.values():
        if not cls.has_half_integral_entries():
            return False
        for p in probes:
            if pair(cls, p).denominator != 1:
                return False
    return True


def fiber_relations_hold() -> bool:
    """F1 = 2 F_1i + sum_j G_ij and F2 = 2 F_2j + sum_i G_ij for all indices."""
    gens = standard_generators()
    ks = range(1, 5)
    return (all(_sums_to(gens, [(f"F1_{i}", 2)] + [(f"G{i}_{j}", 1) for j in ks], "F1")
                for i in ks)
            and all(_sums_to(gens, [(f"F2_{j}", 2)] + [(f"G{i}_{j}", 1) for i in ks], "F2")
                    for j in ks))
