"""Integer lattices with bilinear forms, and curve-incidence graphs.

A lattice is a labeled symmetric integer Gram matrix.  Everything is exact:
rank and kernels by Gaussian elimination over Q, signatures by congruence
diagonalization (never floating eigenvalues), determinants on the quotient
by the kernel via unimodular basis completion.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd
from typing import Iterable, Sequence


@dataclass(frozen=True)
class GramLattice:
    labels: tuple[str, ...]
    gram: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        n = len(self.labels)
        if len(self.gram) != n or any(len(row) != n for row in self.gram):
            raise ValueError("Gram matrix size does not match label count")
        for i in range(n):
            for j in range(n):
                if self.gram[i][j] != self.gram[j][i]:
                    raise ValueError("Gram matrix is not symmetric")

    @property
    def dim(self) -> int:
        return len(self.labels)

    def pairing(self, v: Sequence, w: Sequence) -> Fraction:
        if len(v) != self.dim or len(w) != self.dim:
            raise ValueError("vector length does not match lattice dimension")
        total = Fraction(0)
        for i, vi in enumerate(v):
            if vi == 0:
                continue
            row = self.gram[i]
            total += Fraction(vi) * sum(Fraction(wj) * row[j] for j, wj in enumerate(w) if wj != 0)
        return total


@dataclass(frozen=True)
class CurveGraph:
    """Nodes with self-intersections (default -2) and simple crossings."""

    nodes: tuple[str, ...]
    edges: frozenset[frozenset]
    self_intersections: dict = field(default_factory=dict)

    @classmethod
    def build(cls, nodes: Iterable[str], edges: Iterable[tuple[str, str]],
              self_intersections: "dict | None" = None) -> "CurveGraph":
        nodes = tuple(nodes)
        node_set = set(nodes)
        edge_set = set()
        for a, b in edges:
            if a not in node_set or b not in node_set:
                raise ValueError(f"edge ({a}, {b}) references unknown node")
            if a == b:
                raise ValueError(f"self-loop at {a}")
            edge_set.add(frozenset((a, b)))
        return cls(nodes, frozenset(edge_set), dict(self_intersections or {}))

    def degree(self, node: str) -> int:
        return sum(1 for e in self.edges if node in e)

    def adjacent(self, a: str, b: str) -> bool:
        return frozenset((a, b)) in self.edges

    def subgraph(self, nodes: Iterable[str]) -> "CurveGraph":
        keep = tuple(nodes)
        keep_set = set(keep)
        edges = [tuple(e) for e in self.edges if e <= keep_set]
        selfi = {n: s for n, s in self.self_intersections.items() if n in keep_set}
        return CurveGraph.build(keep, edges, selfi)


def standard_lattice(name: str) -> GramLattice:
    """U, E8, E8(-1), or rank1(m) by name."""
    name = name.strip()
    if name == "U":
        return GramLattice(("e", "f"), ((0, 1), (1, 0)))
    if name == "E8":
        return _e8(1)
    if name == "E8(-1)":
        return _e8(-1)
    if name.startswith("rank1(") and name.endswith(")"):
        m = int(name[6:-1])
        if m == 0:
            raise ValueError("rank1 requires a nonzero integer")
        return GramLattice((f"<{m}>",), ((m,),))
    raise ValueError(f"unknown lattice name {name!r}")


def e8_dynkin_graph(prefix: str = "n") -> CurveGraph:
    """Chain of seven nodes with the eighth attached to the fifth.

    Arm lengths from the trivalent node are 1, 2 and 4.
    """
    nodes = [f"{prefix}{i}" for i in range(1, 9)]
    edges = [(nodes[i], nodes[i + 1]) for i in range(6)]
    edges.append((nodes[4], nodes[7]))
    return CurveGraph.build(nodes, edges)


def _e8(sign: int) -> GramLattice:
    lat = graph_to_gram(e8_dynkin_graph())  # the negative-definite form
    if sign > 0:
        # the positive-definite Cartan form is its negation
        gram = tuple(tuple(-x for x in row) for row in lat.gram)
        return GramLattice(lat.labels, gram)
    return lat


def direct_sum(*lattices: GramLattice) -> GramLattice:
    labels: list[str] = []
    seen: dict = {}
    for lat in lattices:
        for lab in lat.labels:
            seen[lab] = seen.get(lab, 0) + 1
            labels.append(lab if seen[lab] == 1 else f"{lab}#{seen[lab]}")
    n = sum(lat.dim for lat in lattices)
    gram = [[0] * n for _ in range(n)]
    offset = 0
    for lat in lattices:
        d = lat.dim
        for i in range(d):
            for j in range(d):
                gram[offset + i][offset + j] = lat.gram[i][j]
        offset += d
    return GramLattice(tuple(labels), tuple(tuple(row) for row in gram))


def graph_to_gram(g: CurveGraph) -> GramLattice:
    """Diagonal from self-intersections (default -2), 1 on edges, else 0."""
    n = len(g.nodes)
    index = {node: i for i, node in enumerate(g.nodes)}
    gram = [[0] * n for _ in range(n)]
    for node, i in index.items():
        gram[i][i] = g.self_intersections.get(node, -2)
    for e in g.edges:
        a, b = tuple(e)
        gram[index[a]][index[b]] = 1
        gram[index[b]][index[a]] = 1
    return GramLattice(g.nodes, tuple(tuple(row) for row in gram))


# ---------------------------------------------------------------------------
# Exact linear algebra
# ---------------------------------------------------------------------------


def _rational_matrix(m) -> list[list[Fraction]]:
    return [[Fraction(x) for x in row] for row in m]


def _det(m: list[list[Fraction]]) -> Fraction:
    n = len(m)
    m = [row[:] for row in m]
    det = Fraction(1)
    for col in range(n):
        piv = next((r for r in range(col, n) if m[r][col] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != col:
            m[col], m[piv] = m[piv], m[col]
            det = -det
        det *= m[col][col]
        inv = 1 / m[col][col]
        for r in range(col + 1, n):
            if m[r][col] != 0:
                f = m[r][col] * inv
                for j in range(col, n):
                    m[r][j] -= f * m[col][j]
    return det


def _row_reduce(m) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form of m over Q, and its pivot columns."""
    rows = _rational_matrix(m)
    nr = len(rows)
    nc = len(rows[0]) if rows else 0
    piv_cols: list[int] = []
    for col in range(nc):
        r = len(piv_cols)
        if r == nr:
            break
        piv = next((i for i in range(r, nr) if rows[i][col] != 0), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        # the pivot row is zero left of col, so only columns from col change
        inv = 1 / rows[r][col]
        tail = [x * inv for x in rows[r][col:]]
        rows[r][col:] = tail
        for i in range(nr):
            row = rows[i]
            if i != r and row[col] != 0:
                f = row[col]
                row[col:] = [x - f * y for x, y in zip(row[col:], tail)]
        piv_cols.append(col)
    return rows, piv_cols


def matrix_rank(m) -> int:
    """Rank over Q of a rational matrix given as a list of rows."""
    return len(_row_reduce(m)[1])


def _nullspace(m) -> list[list[Fraction]]:
    """Basis of the rational null space {v : m v = 0}, reduced echelon form."""
    if not m:
        return []
    rows, piv_cols = _row_reduce(m)
    nc = len(rows[0])
    basis = []
    for free in (cset for cset in range(nc) if cset not in piv_cols):
        v = [Fraction(0)] * nc
        v[free] = Fraction(1)
        for i, pc in enumerate(piv_cols):
            v[pc] = -rows[i][free]
        basis.append(v)
    return basis


def _primitive(v: Sequence[Fraction]) -> list[int]:
    from math import lcm

    denom = lcm(*(f.denominator for f in v)) if v else 1
    ints = [int(f * denom) for f in v]
    g = 0
    for x in ints:
        g = gcd(g, x)
    if g > 1:
        ints = [x // g for x in ints]
    # fix sign: first nonzero entry positive
    for x in ints:
        if x != 0:
            if x < 0:
                ints = [-y for y in ints]
            break
    return ints


def kernel_basis(L: GramLattice) -> list[list[int]]:
    """Primitive integer generators of the null space of the Gram matrix."""
    return [_primitive(v) for v in _nullspace(L.gram)]


def _unimodular_with_first_row(v: list[int]) -> list[list[int]]:
    """A unimodular integer matrix whose first row is the primitive vector v.

    Column-reduces v to a unit vector by gcd steps, tracking the inverse
    column operations.
    """
    n = len(v)
    work = list(v)
    # U accumulates the column operations: work = v * U_ops, start identity
    ops: list[list[int]] = [[1 if i == j else 0 for j in range(n)] for i in range(n)]

    def col_axpy(dst, src, f):
        # column dst += f * column src
        for i in range(n):
            ops[i][dst] += f * ops[i][src]

    def col_swap(a, b):
        for i in range(n):
            ops[i][a], ops[i][b] = ops[i][b], ops[i][a]

    def col_neg(a):
        for i in range(n):
            ops[i][a] = -ops[i][a]

    # Euclid across the entries until work = (g, 0, ..., 0)
    while True:
        nz = [i for i in range(n) if work[i] != 0]
        if len(nz) == 1:
            if nz[0] != 0:
                work[0], work[nz[0]] = work[nz[0]], work[0]
                col_swap(0, nz[0])
            break
        nz.sort(key=lambda i: abs(work[i]))
        a, b = nz[0], nz[1]
        q = work[b] // work[a]
        work[b] -= q * work[a]
        col_axpy(b, a, -q)
    if work[0] < 0:
        work[0] = -work[0]
        col_neg(0)
    if work[0] != 1:
        raise ValueError("vector is not primitive")
    # v * ops = e1, hence rows of ops^{-1} start with v; invert exactly
    inv = _invert_unimodular(ops)
    return inv


def _invert_unimodular(m: list[list[int]]) -> list[list[int]]:
    n = len(m)
    reduced, piv_cols = _row_reduce([list(row) + [1 if i == j else 0 for j in range(n)]
                                     for i, row in enumerate(m)])
    inverse = [row[n:] for row in reduced]
    if piv_cols[:n] != list(range(n)) or any(x.denominator != 1
                                             for row in inverse for x in row):
        raise ValueError("matrix is not unimodular")
    return [[int(x) for x in row] for row in inverse]


def _quotient_gram(gram) -> list[list[Fraction]]:
    """Gram of the quotient by the kernel, via unimodular completion.

    Peels one primitive kernel vector at a time: completes it to a basis of
    Z^n and restricts the form to the remaining basis vectors.
    """
    g = _rational_matrix(gram)
    while True:
        null = _nullspace(g)
        if not null:
            return g
        k = _primitive(null[0])
        u = _unimodular_with_first_row(k)
        rest = u[1:]
        n = len(g)
        g = [
            [
                sum(Fraction(vi) * g[i][j] * Fraction(wj)
                    for i, vi in enumerate(v) for j, wj in enumerate(w) if vi and wj)
                for w in rest
            ]
            for v in rest
        ]


@dataclass(frozen=True)
class LatticeInvariants:
    rank: int
    signature: tuple[int, int]
    determinant: Fraction
    is_even: bool


def lattice_invariants(L: GramLattice) -> LatticeInvariants:
    """Rank over Q, signature of the kernel quotient, its determinant, parity."""
    n = L.dim
    if n == 0:
        return LatticeInvariants(0, (0, 0), Fraction(1), True)
    q = _quotient_gram(L.gram)
    rank = len(q)
    det = _det(q) if q else Fraction(1)
    pos, neg = _signature(q)
    is_even = all(L.gram[i][i] % 2 == 0 for i in range(n))
    return LatticeInvariants(rank, (pos, neg), det, is_even)


def _signature(gram: list[list[Fraction]]) -> tuple[int, int]:
    """Counts of positive and negative squares via congruence diagonalization."""
    m = [row[:] for row in gram]
    n = len(m)
    pos = neg = 0
    idx = list(range(n))
    while idx:
        i = next((k for k in idx if m[k][k] != 0), None)
        if i is None:
            # all remaining diagonal zero; find a nonzero off-diagonal pair
            found = None
            for a in idx:
                for b in idx:
                    if a != b and m[a][b] != 0:
                        found = (a, b)
                        break
                if found:
                    break
            if found is None:
                break  # remaining block is zero (kernel), contributes nothing
            a, b = found
            # row/col a += row/col b turns m[a][a] into 2 m[a][b] != 0
            for j in range(n):
                m[a][j] += m[b][j]
            for j in range(n):
                m[j][a] += m[j][b]
            continue
        d = m[i][i]
        if d > 0:
            pos += 1
        else:
            neg += 1
        idx.remove(i)
        for r in idx:
            if m[r][i] != 0:
                f = m[r][i] / d
                for j in range(n):
                    m[r][j] -= f * m[i][j]
                for j in range(n):
                    m[j][r] -= f * m[j][i]
    return pos, neg


def induced_gram(ambient: GramLattice, vectors: Sequence[Sequence],
                 labels: "Sequence[str] | None" = None) -> GramLattice:
    """Gram of the pairwise ambient pairings of the given vectors.

    Raises if any pairing is non-integral; use ambient.pairing directly for
    rational-valued needs.
    """
    vecs = [list(v) for v in vectors]
    for v in vecs:
        if len(v) != ambient.dim:
            raise ValueError("vector length does not match ambient dimension")
    if labels is None:
        labels = tuple(f"v{i}" for i in range(len(vecs)))
    gram = []
    for v in vecs:
        row = []
        for w in vecs:
            p = ambient.pairing(v, w)
            if p.denominator != 1:
                raise ValueError(f"non-integer pairing {p} in induced form")
            row.append(int(p))
        gram.append(tuple(row))
    return GramLattice(tuple(labels), tuple(gram))


def is_e8_dynkin(g: CurveGraph) -> bool:
    """Graph isomorphism test against the E8 diagram via arm lengths."""
    if len(g.nodes) != 8 or len(g.edges) != 7:
        return False
    degrees = {node: g.degree(node) for node in g.nodes}
    if sorted(degrees.values()) != [1, 1, 1, 2, 2, 2, 2, 3]:
        return False
    if not _is_connected(g):
        return False
    center = next(node for node, d in degrees.items() if d == 3)
    arms = sorted(_arm_length(g, center, nbr) for nbr in _neighbors(g, center))
    return arms == [1, 2, 4]


def _neighbors(g: CurveGraph, node: str) -> list[str]:
    out = []
    for e in g.edges:
        if node in e:
            (other,) = e - {node}
            out.append(other)
    return out


def _arm_length(g: CurveGraph, center: str, start: str) -> int:
    length = 1
    prev, cur = center, start
    while True:
        nxt = [n for n in _neighbors(g, cur) if n != prev]
        if not nxt:
            return length
        if len(nxt) > 1:
            return -1  # branches again; not a clean arm
        prev, cur = cur, nxt[0]
        length += 1


def _is_connected(g: CurveGraph) -> bool:
    if not g.nodes:
        return True
    seen = {g.nodes[0]}
    frontier = [g.nodes[0]]
    while frontier:
        cur = frontier.pop()
        for n in _neighbors(g, cur):
            if n not in seen:
                seen.add(n)
                frontier.append(n)
    return len(seen) == len(g.nodes)
