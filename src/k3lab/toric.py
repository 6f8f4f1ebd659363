"""The reflexive Newton simplex of the family, its combinatorics, and the
curves of X read off its dual.

Exact lattice 3-simplex computations: facets, duality, lattice point
enumeration by bounding box against facet inequalities, edge lattice lengths
(surface singularity types), and facet interior points (curve genera).  A
simplex is all the toric data needs: the Newton polytope and its dual both
have four vertices, every vertex pair spans an edge, and facet k is opposite
vertex k.  `curve_tree` reads the 19-curve tree of the resolved family
member, its fiber, section and coordinate-curve classes off the dual
simplex, the facet genera and the exponents of z, x and y; no triangulation
engine is involved.
"""

from __future__ import annotations

from functools import cached_property
from itertools import combinations, product
from math import gcd
from typing import NamedTuple

from . import constants as c
from .lattice import GramLattice, curve_gram, integer_kernel, matrix_rank

Vec3 = tuple[int, int, int]


def _sub(a, b):
    return (a[0] - b[0], a[1] - b[1], a[2] - b[2])


def _dot(a, b):
    return a[0] * b[0] + a[1] * b[1] + a[2] * b[2]


class Facet(NamedTuple):
    """Supporting inequality dot(normal, x) <= offset, tight on the facet."""

    normal: Vec3
    offset: int


class LatticePolytope:
    """A lattice 3-simplex: four integer vertices that do not lie in a plane."""

    def __init__(self, vertices: tuple):
        if len(vertices) != 4 or any(
                len(v) != 3 or any(not isinstance(x, int) for x in v) for v in vertices):
            raise ValueError("a lattice simplex has four integer 3-vectors as vertices")
        v0 = vertices[0]
        if matrix_rank([_sub(v, v0) for v in vertices[1:]]) != 3:
            raise ValueError("the vertices lie in a plane")
        self.vertices = vertices

    @cached_property
    def facets(self) -> tuple[Facet, ...]:
        """Facet k lies opposite vertex k.  Its primitive (normal, -offset)
        spans the kernel of the rows [v, 1] of the other three vertices, with
        the sign that puts vertex k strictly inside."""
        out = []
        for k, vk in enumerate(self.vertices):
            (kernel,) = integer_kernel([[*v, 1] for i, v in enumerate(self.vertices) if i != k])
            normal, offset = tuple(kernel[:3]), -kernel[3]
            if _dot(normal, vk) > offset:
                normal, offset = (-normal[0], -normal[1], -normal[2]), -offset
            out.append(Facet(normal, offset))
        return tuple(out)

    @cached_property
    def points(self) -> tuple:
        """The integer points, enumerated once by `lattice_points`."""
        return tuple(lattice_points(self))

    # plain loops: a generator per point costs more than the four tests
    def contains(self, point) -> bool:
        for f in self.facets:
            if _dot(f.normal, point) > f.offset:
                return False
        return True

    def strictly_contains(self, point) -> bool:
        for f in self.facets:
            if _dot(f.normal, point) >= f.offset:
                return False
        return True


def delta() -> LatticePolytope:
    """The Newton simplex; the vertex relation v1 + v2 + 4 v3 + 6 v4 = 0
    reflects the weights (1, 1, 4, 6)."""
    v1, v2, v3, v4 = c.DELTA_VERTICES
    relation = tuple(
        v1[i] + v2[i] + 4 * v3[i] + 6 * v4[i] for i in range(3)
    )
    if relation != (0, 0, 0):
        raise AssertionError("vertex weight relation violated")
    return LatticePolytope(c.DELTA_VERTICES)


def dual_polytope(p: LatticePolytope) -> LatticePolytope:
    """{y : <y, x> >= -1 for all x in p}, for p with the origin interior.
    Its vertex k is -normal/offset of facet k of p."""
    if not p.strictly_contains((0, 0, 0)):
        raise ValueError("origin is not interior to the polytope")
    duals = []
    for f in p.facets:
        n = f.normal
        if any(x % f.offset for x in n):
            raise ValueError("dual vertex is not integral; polytope not reflexive")
        duals.append((-n[0] // f.offset, -n[1] // f.offset, -n[2] // f.offset))
    return LatticePolytope(tuple(duals))


def lattice_points(p: LatticePolytope) -> list:
    """All integer points of p: bounding box filtered by facet inequalities.
    This is the enumerator; read a polytope's points as `p.points`, which
    runs it once per polytope, as `p.facets` solves the facets once."""
    lo = [min(v[i] for v in p.vertices) for i in range(3)]
    hi = [max(v[i] for v in p.vertices) for i in range(3)]
    return [point for point in product(*(range(lo[i], hi[i] + 1) for i in range(3)))
            if p.contains(point)]


def interior_lattice_points(p: LatticePolytope) -> list:
    return [q for q in p.points if p.strictly_contains(q)]


class EdgeReport(NamedTuple):
    endpoints: tuple
    lattice_length: int
    singularity: str  # "A<k>" or "smooth"


def edge_reports(p: LatticePolytope) -> list[EdgeReport]:
    """Lattice length (gcd of coordinate differences) per edge, that is per
    vertex pair of the simplex.

    Length L corresponds to an A_{L-1} surface singularity along the dual
    stratum; length 1 is smooth.
    """
    out = []
    for a, b in combinations(p.vertices, 2):
        d = _sub(b, a)
        length = gcd(gcd(abs(d[0]), abs(d[1])), abs(d[2]))
        sing = "smooth" if length == 1 else f"A{length - 1}"
        out.append(EdgeReport((a, b), length, sing))
    return out


def facet_genera(p: LatticePolytope) -> tuple[int, ...]:
    """Lattice points in the relative interior of each facet, facet k
    opposite vertex k, from one enumeration: a point counts for facet k when
    facet k is the only facet it is tight on (points on two lie on an edge)."""
    counts = [0] * len(p.facets)
    for q in p.points:
        tight = [k for k, f in enumerate(p.facets) if _dot(f.normal, q) == f.offset]
        if len(tight) == 1:
            counts[tight[0]] += 1
    return tuple(counts)


def support_shift(simplex: LatticePolytope):
    """The translation taking the hypersurface monomial support into the
    Newton simplex `simplex` (`delta()`), with z, 1/z, x^3, y^2 landing on
    the four vertices."""
    shifts = set()
    for mono, vidx in c.SUPPORT_VERTEX_MAP:
        m = c.SUPPORT_MONOMIALS[mono]
        v = simplex.vertices[vidx]
        shifts.add(_sub(v, m))
    if len(shifts) != 1:
        raise ValueError(f"vertex correspondences disagree: {shifts}")
    (s,) = shifts
    for mono, e in c.SUPPORT_MONOMIALS.items():
        shifted = (e[0] + s[0], e[1] + s[1], e[2] + s[2])
        if not simplex.contains(shifted):
            raise ValueError(f"shifted monomial {mono} falls outside the simplex")
    return s


def shifted_support_points(simplex: LatticePolytope) -> dict:
    """The monomial support translated by `support_shift(simplex)`."""
    s = support_shift(simplex)
    return {
        mono: (e[0] + s[0], e[1] + s[1], e[2] + s[2])
        for mono, e in c.SUPPORT_MONOMIALS.items()
    }


# ---------------------------------------------------------------------------
# The 19-curve tree on the resolved family member
# ---------------------------------------------------------------------------


class CurveTree(NamedTuple):
    """The curves of `curve_tree`, labeled by their points of the dual
    simplex; a class is a list of weights in label order."""

    gram: GramLattice
    section: list
    fiber_zero: list
    fiber_infinity: list
    coordinate_classes: tuple  # (genus, class) per coordinate curve
    e8_sides: tuple  # per fiber, eight curve indices in lattice.E8_NODES order


def _edge_interior(a, b) -> list:
    """The lattice points strictly inside the segment from a to b, from a on."""
    d = _sub(b, a)
    n = gcd(*d)
    return [tuple(a[i] + k * d[i] // n for i in range(3)) for k in range(1, n)]


def curve_tree() -> CurveTree:
    """The 19-curve tree of the generic hypersurface X with Newton simplex
    Delta, read off the dual simplex (Batyrev, "Dual polyhedra and mirror
    symmetry for Calabi-Yau hypersurfaces in toric varieties", 1994).

    A point inside an edge of Delta* carries a rational curve, vertex k one
    of the genus of facet k of Delta; genus-0 vertices are the hubs, the
    others the coordinate curves.  Edge neighbours meet once.  A character m
    gives sum <m, p> C_p = 0: div z = F0 - F_infinity, its one zero the
    section; div x and div y each cut out one coordinate curve, its class.
    An E8 side is a fiber less the curve meeting the section.
    """
    simplex = delta()
    dual = dual_polytope(simplex)
    genera = dict(zip(dual.vertices, facet_genera(simplex)))
    hubs = [v for v in dual.vertices if not genera[v]]
    curves, meetings = list(hubs), []
    for a, b in combinations(dual.vertices, 2):
        inner = _edge_interior(a, b)
        curves += inner
        line = [a] * (a in hubs) + inner + [b] * (b in hubs)
        meetings += zip(line, line[1:])

    z, x, y = (c.SUPPORT_MONOMIALS[m] for m in ("z", "x", "y"))
    weights = [_dot(z, p) for p in curves]
    (section,) = [p for p, w in zip(curves, weights) if not w]

    coordinate, others = [], [v for v in dual.vertices if genera[v]]
    for v in others:  # no class, None, if neither div x nor div y cuts out v alone
        cut = [m for m in (x, y) if [_dot(m, u) for u in others] == [u == v for u in others]]
        coordinate.append((genera[v], [-_dot(cut[0], p) for p in curves] if cut else None))

    sides = []
    for hub in sorted(hubs, key=lambda h: -_dot(z, h)):  # the side of F0 first
        arms = [_edge_interior(hub, v) for v in dual.vertices if v != hub]
        arms = sorted((arm[:arm.index(section)][:-1] if section in arm else arm
                       for arm in arms), key=len, reverse=True)
        sides.append(tuple(curves.index(p) for p in arms[0][::-1] + [hub] + arms[1] + arms[2]))

    return CurveTree(curve_gram(curves, meetings), [int(p == section) for p in curves],
                     [max(w, 0) for w in weights], [max(-w, 0) for w in weights],
                     tuple(coordinate), tuple(sides))
