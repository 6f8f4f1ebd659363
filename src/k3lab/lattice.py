"""Integer lattices with bilinear forms; a curve configuration is its Gram.

A lattice is a labeled symmetric integer Gram matrix.  A configuration of
(-2)-curves is stored only as its Gram (`curve_gram`): an induced Gram equal
to a reference Gram read in the same order fixes both which curves meet and
how.  Everything is exact and stays in Z: rank and kernels by one
fraction-free row reduction; the quotient by the kernel by integer
congruence, so its Gram stays integral; its signature and determinant by
integer congruence diagonalization (never floating eigenvalues); pairings
as integer dot products, divided once by the denominators of the
coordinates.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from math import gcd, lcm
from operator import mul
from typing import Iterable, NamedTuple, Sequence

from .exact import _exact_ratio


class GramLattice:
    """A symmetric integer Gram matrix with one label per basis vector."""

    def __init__(self, labels: tuple, gram: tuple[tuple[int, ...], ...]):
        n = len(labels)
        if len(gram) != n or any(len(row) != n for row in gram):
            raise ValueError("Gram matrix size does not match label count")
        if any(gram[i][j] != gram[j][i] for i in range(n) for j in range(i)):
            raise ValueError("Gram matrix is not symmetric")
        self.labels = labels
        self.gram = gram

    @property
    def dim(self) -> int:
        return len(self.labels)

    @cached_property
    def _nonzero_rows(self) -> list:
        return [tuple((j, g) for j, g in enumerate(row) if g) for row in self.gram]

    def _scaled(self, v: Sequence) -> tuple[int, Sequence[int]]:
        """(s, s v) for s the lcm of the denominators of v's coordinates."""
        if len(v) != self.dim:
            raise ValueError("vector length does not match lattice dimension")
        if all(type(x) is int for x in v):
            return 1, v
        s = lcm(*[x.denominator for x in v])
        return s, [x.numerator * (s // x.denominator) for x in v]

    def pairings(self, vectors: Sequence[Sequence], others: Sequence[Sequence]) -> list:
        """The matrix of exact pairings v.w, v in `vectors`, w in `others`:
        an ``int`` where the pairing is integral, a ``Fraction`` elsewhere.

        Each vector is scaled into Z once; G w is formed once per w over the
        nonzero Gram entries, so each pairing is one integer dot product,
        divided by the two scales at the end.
        """
        rows = self._nonzero_rows
        images, scales = [], []
        for w in others:
            t, w = self._scaled(w)
            gw = [0] * self.dim
            for wj, row in zip(w, rows):  # G w = sum_j w_j G_j, as G is symmetric
                if wj:
                    for i, g in row:
                        gw[i] += g * wj
            images.append(gw)
            scales.append(t)
        scaled_others = max(scales, default=1) > 1
        out = []
        for s, v in map(self._scaled, vectors):
            row = [sum(map(mul, v, gw)) for gw in images]
            if s > 1 or scaled_others:
                row = [_exact_ratio(x, s * t) for x, t in zip(row, scales)]
            out.append(row)
        return out

    def pairing(self, v: Sequence, w: Sequence) -> Fraction:
        """sum_ij v_i g_ij w_j, exactly."""
        return Fraction(self.pairings([v], [w])[0][0])

    def block(self, rows: Sequence, cols: Sequence) -> list:
        """The Gram entries between the basis vectors labeled `rows` and `cols`."""
        at = {label: k for k, label in enumerate(self.labels)}
        return [[self.gram[at[a]][at[b]] for b in cols] for a in rows]


def curve_gram(nodes: Sequence, edges: Iterable[tuple]) -> GramLattice:
    """Gram of a configuration of (-2)-curves: -2 on the diagonal, 1 for each
    pair of curves that meet (listed in `edges`), 0 elsewhere."""
    nodes = tuple(nodes)
    index = {node: i for i, node in enumerate(nodes)}
    gram = [[-2 if i == j else 0 for j in range(len(nodes))] for i in range(len(nodes))]
    for a, b in edges:
        if a not in index or b not in index:
            raise ValueError(f"edge ({a}, {b}) references unknown node")
        if a == b:
            raise ValueError(f"self-loop at {a}")
        gram[index[a]][index[b]] = gram[index[b]][index[a]] = 1
    return GramLattice(nodes, tuple([tuple(row) for row in gram]))


# The E8 diagram: a chain of seven nodes with the eighth attached to the fifth,
# so the arms from the trivalent node have lengths 1, 2 and 4.
E8_NODES = tuple(f"n{i}" for i in range(1, 9))
E8_EDGES = tuple(zip(E8_NODES[:6], E8_NODES[1:7])) + ((E8_NODES[4], E8_NODES[7]),)


def standard_lattice(name: str) -> GramLattice:
    """U, E8, E8(-1), or rank1(m) by name."""
    name = name.strip()
    if name == "U":
        return GramLattice(("e", "f"), ((0, 1), (1, 0)))
    if name == "E8(-1)":
        return curve_gram(E8_NODES, E8_EDGES)
    if name == "E8":
        # the positive-definite Cartan form is the negated curve Gram
        lat = curve_gram(E8_NODES, E8_EDGES)
        return GramLattice(lat.labels, tuple([tuple([-x for x in row]) for row in lat.gram]))
    if name.startswith("rank1(") and name.endswith(")"):
        m = int(name[6:-1])
        if m == 0:
            raise ValueError("rank1 requires a nonzero integer")
        return GramLattice((f"<{m}>",), ((m,),))
    raise ValueError(f"unknown lattice name {name!r}")


def direct_sum(*lattices: GramLattice) -> GramLattice:
    labels: list[str] = []
    seen: dict = {}
    for lat in lattices:
        for lab in lat.labels:
            seen[lab] = seen.get(lab, 0) + 1
            labels.append(lab if seen[lab] == 1 else f"{lab}#{seen[lab]}")
    n = sum(lat.dim for lat in lattices)
    gram, offset = [], 0
    for lat in lattices:
        gram += [(0,) * offset + tuple(row) + (0,) * (n - offset - lat.dim) for row in lat.gram]
        offset += lat.dim
    return GramLattice(tuple(labels), tuple(gram))


# ---------------------------------------------------------------------------
# Exact linear algebra
# ---------------------------------------------------------------------------


def _content_free(row: list[int]) -> list[int]:
    """The row divided by the gcd of its entries."""
    g = gcd(*row)
    return [x // g for x in row] if g > 1 else row


def _row_reduce(m) -> tuple[list[list[int]], list[int]]:
    """Fraction-free reduced echelon form of the integer matrix m, and its
    pivot columns.

    A pivot p in column col is cleared from row i by
    row_i := p row_i - row_i[col] row_r, and row_i is then divided by the gcd
    of its entries, so every row stays integral and content-free.  Each
    pivot row ends up zero in every other pivot column.
    """
    rows = [_content_free(list(row)) for row in m]
    nr = len(rows)
    nc = len(rows[0]) if rows else 0
    piv_cols: list[int] = []
    for col in range(nc):
        r = len(piv_cols)
        if r == nr:
            break
        piv = next((i for i in range(r, nr) if rows[i][col]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        pivot_row = rows[r]
        p = pivot_row[col]
        for i, row in enumerate(rows):
            f = row[col]
            if i != r and f:
                rows[i] = _content_free([p * x - f * y for x, y in zip(row, pivot_row)])
        piv_cols.append(col)
    return rows, piv_cols


def matrix_rank(m) -> int:
    """Rank over Q of an integer matrix given as a list of rows."""
    return len(_row_reduce(m)[1])


def _nullspace(m) -> list[list[int]]:
    """One primitive integer vector of {v : m v = 0} per free column of the
    integer matrix m, with its first nonzero entry positive; together they
    span the rational null space."""
    if not m:
        return []
    rows, piv_cols = _row_reduce(m)
    nc = len(rows[0])
    pivots = [row[pc] for row, pc in zip(rows, piv_cols)]
    scale = lcm(*pivots)
    basis = []
    for free in (col for col in range(nc) if col not in piv_cols):
        v = [0] * nc
        v[free] = scale
        for row, pc, p in zip(rows, piv_cols, pivots):
            v[pc] = -row[free] * (scale // p)
        v = _content_free(v)
        basis.append(v if next(x for x in v if x) > 0 else [-x for x in v])
    return basis


def kernel_basis(L: GramLattice) -> list[list[int]]:
    """Primitive integer generators of the null space of the Gram matrix."""
    return _nullspace(L.gram)


def _quotient_gram(gram) -> list[list[int]]:
    """Integer Gram of the quotient by the kernel.

    Peels the kernel basis of one row reduction a vector v at a time.
    Euclid's steps on the entries of v bring it to a multiple of a unit
    vector e_k; each step v[b] -= q v[a] is the change of basis
    e_a -> e_a + q e_b, applied to the Gram as a congruence (row a += q row
    b, then column a += q column b) and to the vectors left.  Then row and
    column k are zero and are dropped, as is entry k of the vectors left.
    """
    g = [list(row) for row in gram]
    null = _nullspace(g)
    while null:
        v = null.pop()
        while True:
            nz = sorted((i for i, x in enumerate(v) if x), key=lambda i: abs(v[i]))
            if len(nz) == 1:
                break
            a, b = nz[:2]
            q = v[b] // v[a]
            for w in (v, *null):
                w[b] -= q * w[a]
            g[a] = [x + q * y for x, y in zip(g[a], g[b])]
            for row in g:
                row[a] += q * row[b]
        for row in (*g, *null):
            del row[nz[0]]
        del g[nz[0]]
    return g


class LatticeInvariants(NamedTuple):
    rank: int
    signature: tuple[int, int]
    determinant: int
    is_even: bool


def lattice_invariants(L: GramLattice) -> LatticeInvariants:
    """Rank over Q, signature of the kernel quotient, its determinant, parity."""
    q = _quotient_gram(L.gram)
    pos, neg, det = _signature(q)
    is_even = all(L.gram[i][i] % 2 == 0 for i in range(L.dim))
    return LatticeInvariants(len(q), (pos, neg), det, is_even)


def _signature(gram) -> tuple[int, int, int]:
    """Counts of positive and negative squares, and the determinant, of an
    integer Gram by congruence diagonalization in Z.

    A nonzero diagonal pivot d is split off by the integer Schur complement:
    the remaining block M becomes |d| M_rs - sgn(d) M_ri M_is, which is |d|
    times the rational Schur complement and so has its signature.  The block
    is then divided by the gcd g of its entries.  With k rows left, the
    determinant gains the factor d g^k / |d|^k; the factors are carried as
    one numerator and one denominator, divided at the end.  A
    remaining block with zero diagonal first takes row/col a += row/col b,
    which turns m[a][a] into 2 m[a][b] != 0 and has determinant 1; a zero
    block gives determinant 0.
    """
    m = [list(row) for row in gram]
    pos = neg = 0
    num = den = 1
    while m:
        i = next((k for k, row in enumerate(m) if row[k]), None)
        if i is None:
            found = next(((a, b) for a, row in enumerate(m) for b, x in enumerate(row) if x),
                         None)
            if found is None:
                return pos, neg, 0  # the remaining block is zero
            a, b = found
            m[a] = [x + y for x, y in zip(m[a], m[b])]
            for row in m:
                row[a] += row[b]
            continue
        pivot = m.pop(i)
        d = pivot.pop(i)
        if d > 0:
            pos += 1
        else:
            neg += 1
        scale, sign = abs(d), (1 if d > 0 else -1)
        column = [row.pop(i) for row in m]
        m = [[scale * x - sign * f * y for x, y in zip(row, pivot)] if f
             else [scale * x for x in row]
             for row, f in zip(m, column)]
        g = gcd(*[x for row in m for x in row])
        if g > 1:
            m = [[x // g for x in row] for row in m]
        num *= d * g ** len(m)
        den *= scale ** len(m)
    return pos, neg, num // den  # exact: the determinant is an integer


def induced_gram(ambient: GramLattice, vectors: Sequence[Sequence],
                 labels: "Sequence[str] | None" = None) -> GramLattice:
    """Gram of the pairwise ambient pairings of the given vectors.

    Raises if any pairing is non-integral; use ambient.pairings directly for
    rational-valued needs.
    """
    vecs = [list(v) for v in vectors]
    if labels is None:
        labels = tuple(f"v{i}" for i in range(len(vecs)))
    gram = []
    for row in ambient.pairings(vecs, vecs):
        for p in row:
            if p.denominator != 1:
                raise ValueError(f"non-integer pairing {p} in induced form")
        gram.append(tuple(int(p) for p in row))
    return GramLattice(tuple(labels), tuple(gram))
