"""Integer lattices with bilinear forms; a curve configuration is its Gram.

A lattice is a labeled symmetric integer Gram matrix.  A configuration of
(-2)-curves is stored only as its Gram (`curve_gram`): an induced Gram equal
to a reference Gram read in the same order fixes both which curves meet and
how.  Everything is exact and stays in Z: rank, a Z-basis of the kernel
and a basis of the quotient by it from one unimodular integer reduction,
so the quotient's Gram stays integral; its signature and determinant by
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

    def _image(self, w: Sequence[int]) -> list:
        """G w for an integer vector w, over the nonzero Gram entries."""
        gw = [0] * self.dim
        for wj, row in zip(w, self._nonzero_rows):  # G w = sum_j w_j G_j, G symmetric
            if wj:
                for i, g in row:
                    gw[i] += g * wj
        return gw

    def pairings(self, vectors: Sequence[Sequence], others: Sequence[Sequence]) -> list:
        """The matrix of exact pairings v.w, v in `vectors`, w in `others`:
        an ``int`` where the pairing is integral, a ``Fraction`` elsewhere.

        Each vector is scaled into Z once; G w is formed once per w over the
        nonzero Gram entries, so each pairing is one integer dot product,
        divided by the two scales at the end.
        """
        images, scales = [], []
        for w in others:
            t, w = self._scaled(w)
            images.append(self._image(w))
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


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, x, y) with x a + y b = g, a gcd of a and b."""
    x0, x1, y0, y1 = 1, 0, 0, 1
    while b:
        q, r = divmod(a, b)
        a, b, x0, x1, y0, y1 = b, r, x1, x0 - q * x1, y1, y0 - q * y1
    return a, x0, y0


def _unimodular_reduce(m) -> tuple[int, list[list[int]], list[list[int]]]:
    """(r, basis, images) for the integer matrix m with n columns: `basis` is
    a basis of Z^n whose first r vectors v have images m v (`images`) in
    echelon form, so r is the rank of m, and whose last n - r vectors are a
    Z-basis of the integer kernel of m.

    Each vector is carried as v followed by m v, and only unimodular moves
    are applied to them, starting from the unit vectors.  Row i of m is
    cleared with the live vector p of least nonzero |entry| a as pivot, by
    one step per other vector w with entry b != 0: w becomes w - (b/a) p
    where a divides b; elsewhere, with x a + y b = g, the pair becomes
    (x p + y w, (b/g) p - (a/g) w), of determinant -1.  The pivot then
    leaves the live vectors; what is live after the last row is the kernel
    (Cohen, "A Course in Computational Algebraic Number Theory", 2.4).
    """
    n = len(m[0]) if m else 0
    live = [[*([0] * j), 1, *([0] * (n - 1 - j)), *col] for j, col in enumerate(zip(*m))]
    done = []
    for i in range(n, n + len(m)):
        hits = [(abs(w[i]), k) for k, w in enumerate(live) if w[i]]
        if not hits:
            continue
        p = live.pop(min(hits)[1])
        for k, w in enumerate(live):
            a, b = p[i], w[i]
            if b % a:
                g, x, y = _xgcd(a, b)
                a, b = a // g, b // g
                p, live[k] = ([x * s + y * t for s, t in zip(p, w)],
                              [b * s - a * t for s, t in zip(p, w)])
            elif b:
                f = b // a
                live[k] = [t - f * s for s, t in zip(p, w)]
        done.append(p)
    return len(done), [w[:n] for w in done + live], [w[n:] for w in done]


def matrix_rank(m) -> int:
    """Rank over Q of an integer matrix given as a list of rows."""
    return _unimodular_reduce(m)[0]


def integer_kernel(m) -> list[list[int]]:
    """A Z-basis of {v in Z^n : m v = 0} for the integer matrix m, each
    vector with its first nonzero entry positive."""
    r, basis, _ = _unimodular_reduce(m)
    return [v if next(x for x in v if x) > 0 else [-x for x in v] for v in basis[r:]]


def kernel_basis(L: GramLattice) -> list[list[int]]:
    """A Z-basis of the integer kernel of the Gram matrix (`integer_kernel`)."""
    return integer_kernel(L.gram)


def _quotient_gram(gram) -> list[list[int]]:
    """Integer Gram of the quotient by the kernel: the pairings v_i . (G v_j)
    of the first r vectors of `_unimodular_reduce`'s basis, which map to a
    basis of the quotient because the rest are a Z-basis of the kernel."""
    r, basis, images = _unimodular_reduce(gram)
    return [[sum(map(mul, v, gw)) for gw in images] for v in basis[:r]]


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

    The vectors are scaled into Z by one common denominator s and each G w
    is formed once; only the pairings v_i . w_j with i <= j are computed,
    each an integer dot product divided by s^2.  Raises if any pairing is
    non-integral; use ambient.pairings directly for rational-valued needs.
    """
    if any(len(v) != ambient.dim for v in vectors):
        raise ValueError("vector length does not match lattice dimension")
    if labels is None:
        labels = tuple(f"v{i}" for i in range(len(vectors)))
    s = lcm(*[x.denominator for v in vectors for x in v])
    vecs = [[x.numerator * (s // x.denominator) for x in v] for v in vectors]
    images = [ambient._image(w) for w in vecs]
    s2 = s * s
    gram = [[0] * len(vecs) for _ in vecs]
    for i, v in enumerate(vecs):
        for j in range(i, len(vecs)):
            x = sum(map(mul, v, images[j]))
            p, r = divmod(x, s2)
            if r:
                raise ValueError(f"non-integer pairing {Fraction(x, s2)} in induced form")
            gram[i][j] = gram[j][i] = p
    return GramLattice(tuple(labels), tuple(map(tuple, gram)))
