"""The reflexive Newton simplex of the family and its combinatorics.

Exact 3-dimensional lattice polytope computations: facets, duality, lattice
point enumeration by bounding box against facet inequalities, edge lattice
lengths (surface singularity types), and facet interior points (curve
genera).  Also exposes the Gram of the 19-curve incidence tree of the
resolved family member, which this module owns as a constant: the incidence
structure is fixed, and no triangulation engine is involved.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, product
from math import gcd

from . import constants as c
from .lattice import GramLattice, curve_gram, matrix_rank

Vec3 = tuple[int, int, int]


def _sub(a, b):
    return (a[0] - b[0], a[1] - b[1], a[2] - b[2])


def _dot(a, b):
    return a[0] * b[0] + a[1] * b[1] + a[2] * b[2]


def _cross(a, b):
    return (
        a[1] * b[2] - a[2] * b[1],
        a[2] * b[0] - a[0] * b[2],
        a[0] * b[1] - a[1] * b[0],
    )


def _reduce(v):
    g = gcd(gcd(abs(v[0]), abs(v[1])), abs(v[2]))
    return v if g in (0, 1) else (v[0] // g, v[1] // g, v[2] // g)


@dataclass(frozen=True)
class Facet:
    """Supporting inequality dot(normal, x) <= offset, tight on the facet."""

    normal: Vec3
    offset: int
    vertex_indices: tuple[int, ...]


@dataclass(frozen=True)
class LatticePolytope:
    vertices: tuple

    def __post_init__(self):
        if any(len(v) != 3 or any(not isinstance(x, int) for x in v)
               for v in self.vertices):
            raise ValueError("vertices must be integer 3-vectors")
        if len(set(self.vertices)) != len(self.vertices):
            raise ValueError("duplicate vertices")
        if _affine_rank(self.vertices) != 3:
            raise ValueError("polytope is not 3-dimensional")
        for i, v in enumerate(self.vertices):
            if not self._is_vertex(i):
                raise ValueError(f"{v} is not a vertex of the hull")

    def facets(self) -> list[Facet]:
        verts = self.vertices
        found = {}
        for i, j, k in combinations(range(len(verts)), 3):
            n = _cross(_sub(verts[j], verts[i]), _sub(verts[k], verts[i]))
            if n == (0, 0, 0):
                continue
            d = _dot(n, verts[i])
            values = [_dot(n, v) for v in verts]
            if all(x <= d for x in values):
                pass
            elif all(x >= d for x in values):
                n = (-n[0], -n[1], -n[2])
                d = -d
                values = [-x for x in values]
            else:
                continue
            n = _reduce(n)
            d = _dot(n, verts[i])
            on = tuple(m for m, v in enumerate(verts) if _dot(n, v) == d)
            found[(n, d)] = Facet(n, d, on)
        return sorted(found.values(), key=lambda f: (f.normal, f.offset))

    def _is_vertex(self, i: int) -> bool:
        # a generating point is a vertex iff the facet normals through it
        # span all of R^3
        verts = self.vertices
        normals = [f.normal for f in self.facets() if i in f.vertex_indices]
        return _affine_rank([(0, 0, 0)] + normals) == 3 if normals else False

    def edges(self) -> list[tuple[int, int]]:
        """Vertex index pairs joined by a 1-face (two facets in common)."""
        facets = self.facets()
        out = []
        for i, j in combinations(range(len(self.vertices)), 2):
            common = [f for f in facets
                      if i in f.vertex_indices and j in f.vertex_indices]
            if len({f.normal for f in common}) >= 2:
                out.append((i, j))
        return out

    def contains(self, point) -> bool:
        return all(_dot(f.normal, point) <= f.offset for f in self.facets())

    def strictly_contains(self, point) -> bool:
        return all(_dot(f.normal, point) < f.offset for f in self.facets())


def _affine_rank(points) -> int:
    if not points:
        return -1
    return matrix_rank([_sub(p, points[0]) for p in points[1:]])


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
    """{y : <y, x> >= -1 for all x in p}, for p with the origin interior."""
    if not p.strictly_contains((0, 0, 0)):
        raise ValueError("origin is not interior to the polytope")
    duals = []
    for f in p.facets():
        if f.offset <= 0:
            raise ValueError("origin is not interior to the polytope")
        n = f.normal
        if any(x % f.offset for x in n):
            raise ValueError("dual vertex is not integral; polytope not reflexive")
        duals.append((-n[0] // f.offset, -n[1] // f.offset, -n[2] // f.offset))
    return LatticePolytope(tuple(duals))


def lattice_points(p: LatticePolytope) -> list:
    """All integer points of p: bounding box filtered by facet inequalities."""
    facets = p.facets()
    lo = [min(v[i] for v in p.vertices) for i in range(3)]
    hi = [max(v[i] for v in p.vertices) for i in range(3)]
    out = []
    for point in product(*(range(lo[i], hi[i] + 1) for i in range(3))):
        if all(_dot(f.normal, point) <= f.offset for f in facets):
            out.append(point)
    return out


def interior_lattice_points(p: LatticePolytope) -> list:
    facets = p.facets()
    return [q for q in lattice_points(p)
            if all(_dot(f.normal, q) < f.offset for f in facets)]


@dataclass(frozen=True)
class EdgeReport:
    endpoints: tuple
    lattice_length: int
    singularity: str  # "A<k>" or "smooth"


def edge_reports(p: LatticePolytope) -> list[EdgeReport]:
    """Lattice length (gcd of coordinate differences) per edge.

    Length L corresponds to an A_{L-1} surface singularity along the dual
    stratum; length 1 is smooth.
    """
    out = []
    for i, j in p.edges():
        a, b = p.vertices[i], p.vertices[j]
        d = _sub(b, a)
        length = gcd(gcd(abs(d[0]), abs(d[1])), abs(d[2]))
        sing = "smooth" if length == 1 else f"A{length - 1}"
        out.append(EdgeReport((a, b), length, sing))
    return out


def facet_genus(p: LatticePolytope, facet_vertices) -> int:
    """Number of lattice points in the relative interior of a facet: on its
    plane and strictly inside every other facet."""
    facets = p.facets()
    want = set(facet_vertices)
    match = next((f for f in facets
                  if {p.vertices[i] for i in f.vertex_indices} == want), None)
    if match is None:
        raise ValueError(f"{facet_vertices} is not a facet")
    others = [f for f in facets if f is not match]
    return sum(1 for q in lattice_points(p)
               if _dot(match.normal, q) == match.offset
               and all(_dot(f.normal, q) < f.offset for f in others))


def support_shift():
    """The translation taking the hypersurface monomial support into the
    Newton simplex, with z, 1/z, x^3, y^2 landing on the four vertices."""
    dd = delta()
    shifts = set()
    for mono, vidx in c.SUPPORT_VERTEX_MAP:
        m = c.SUPPORT_MONOMIALS[mono]
        v = c.DELTA_VERTICES[vidx]
        shifts.add(_sub(v, m))
    if len(shifts) != 1:
        raise ValueError(f"vertex correspondences disagree: {shifts}")
    (s,) = shifts
    for mono, e in c.SUPPORT_MONOMIALS.items():
        shifted = (e[0] + s[0], e[1] + s[1], e[2] + s[2])
        if not dd.contains(shifted):
            raise ValueError(f"shifted monomial {mono} falls outside the simplex")
    return s


def shifted_support_points() -> dict:
    s = support_shift()
    return {
        mono: (e[0] + s[0], e[1] + s[1], e[2] + s[2])
        for mono, e in c.SUPPORT_MONOMIALS.items()
    }


# ---------------------------------------------------------------------------
# The 19-curve tree on the resolved family member
# ---------------------------------------------------------------------------


def x_tree_lattice() -> GramLattice:
    """Gram of two chains of eight (-2)-curves with branch nodes (the fibers
    over z = 0 and z = infinity) joined through the section.

    Labels are X_TREE_NODES, in order: z=0 chain, its branch, the section,
    z=infinity chain, its branch.  The trivalent chain nodes are the genus-0
    coordinate curves; the others resolve one A11, two A2 and two A1
    singularities.
    """
    return curve_gram(c.X_TREE_NODES, c.X_TREE_EDGES)


def _node_weights(chain, branch, sides, section=0) -> list[int]:
    """Weights over X_TREE_NODES: `chain` along each side's chain, `branch`
    on its branch node, `section` on the section, 0 elsewhere."""
    w = {"sec": section}
    for side in sides:
        w.update({f"{side}_{i}": x for i, x in enumerate(chain, 1)})
        w[f"{side}_b"] = branch
    return [w.get(node, 0) for node in c.X_TREE_NODES]


def fiber_class_at_zero() -> list[int]:
    return _node_weights(c.E8_AFFINE_CHAIN_WEIGHTS, c.E8_AFFINE_BRANCH_WEIGHT, ("z0",))


def fiber_class_at_infinity() -> list[int]:
    return _node_weights(c.E8_AFFINE_CHAIN_WEIGHTS, c.E8_AFFINE_BRANCH_WEIGHT, ("zi",))


def section_class() -> list[int]:
    return [1 if node == "sec" else 0 for node in c.X_TREE_NODES]


def e8_side_nodes(side: str) -> tuple:
    """The eight nodes generating one E8 summand: the chain minus its
    multiplicity-one end, plus the branch node."""
    if side not in ("z0", "zi"):
        raise ValueError("side must be 'z0' or 'zi'")
    return tuple(f"{side}_{i}" for i in range(2, 9)) + (f"{side}_b",)


def genus1_curve_class() -> list[int]:
    return _node_weights(c.GENUS1_CHAIN_WEIGHTS, c.GENUS1_BRANCH_WEIGHT, ("z0", "zi"),
                         c.GENUS1_SECTION_WEIGHT)


def genus2_curve_class() -> list[int]:
    return _node_weights(c.GENUS2_CHAIN_WEIGHTS, c.GENUS2_BRANCH_WEIGHT, ("z0", "zi"),
                         c.GENUS2_SECTION_WEIGHT)
