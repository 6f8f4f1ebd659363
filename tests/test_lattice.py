"""Gram lattices: standard forms, curve Grams, invariants, kernels."""

import collections
import itertools
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import curve_tree
from k3lab import kummer, lattice, suites, toric
from k3lab.lattice import (
    E8_EDGES,
    E8_NODES,
    _quotient_gram,
    _signature,
    _unimodular_reduce,
    GramLattice,
    curve_gram,
    direct_sum,
    induced_gram,
    integer_kernel,
    kernel_basis,
    lattice_invariants,
    matrix_rank,
    standard_lattice,
)


def affine_e8_lattice():
    """Chain of eight plus a branch node on the sixth; the two-isotropic
    extension of the E8 diagram."""
    nodes = [f"a{i}" for i in range(1, 10)]
    edges = [(nodes[i], nodes[i + 1]) for i in range(7)] + [(nodes[5], nodes[8])]
    return curve_gram(nodes, edges)


class TestStandardLattices:
    def test_u(self):
        u = standard_lattice("U")
        inv = lattice_invariants(u)
        assert (inv.rank, inv.signature, inv.determinant, inv.is_even) == (
            2, (1, 1), -1, True)

    def test_e8_negative(self):
        inv = lattice_invariants(standard_lattice("E8(-1)"))
        assert (inv.rank, inv.signature, inv.determinant, inv.is_even) == (
            8, (0, 8), 1, True)

    def test_e8_positive(self):
        inv = lattice_invariants(standard_lattice("E8"))
        assert (inv.rank, inv.signature, inv.determinant) == (8, (8, 0), 1)

    def test_rank1(self):
        lat = standard_lattice("rank1(-4)")
        assert lat.gram == ((-4,),)
        inv = lattice_invariants(standard_lattice("rank1(-6)"))
        assert (inv.rank, inv.signature, inv.determinant, inv.is_even) == (
            1, (0, 1), -6, True)

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            standard_lattice("E7")


class TestDirectSum:
    def test_u_plus_u(self):
        inv = lattice_invariants(direct_sum(standard_lattice("U"), standard_lattice("U")))
        assert (inv.rank, inv.signature, inv.determinant) == (4, (2, 2), 1)

    def test_mirror_lattice(self):
        lat = direct_sum(
            standard_lattice("E8(-1)"), standard_lattice("E8(-1)"), standard_lattice("U")
        )
        inv = lattice_invariants(lat)
        assert (inv.rank, inv.signature, inv.determinant, inv.is_even) == (
            18, (1, 17), -1, True)

    def test_empty_identity(self):
        empty = GramLattice((), ())
        u = standard_lattice("U")
        assert direct_sum(u, empty).gram == u.gram

    def test_label_disambiguation(self):
        lat = direct_sum(standard_lattice("U"), standard_lattice("U"))
        assert len(set(lat.labels)) == 4


class TestGramValidation:
    @pytest.mark.parametrize("gram, message", [
        (((0, 1),), "size does not match"),
        (((0, 1), (1,)), "size does not match"),
        (((0, 1), (2, 0)), "not symmetric"),
    ], ids=["rows", "row-length", "asymmetric"])
    def test_rejected(self, gram, message):
        with pytest.raises(ValueError, match=message):
            GramLattice(("e", "f"), gram)


class TestGraphToGram:
    def test_a2(self):
        lat = curve_gram(["p", "q"], [("p", "q"), ("q", "p")])
        assert lat.gram == ((-2, 1), (1, -2))
        assert lattice_invariants(lat).determinant == 3

    def test_unknown_node_rejected(self):
        with pytest.raises(ValueError, match=r"^edge \(p, r\) references unknown node$"):
            curve_gram(["p", "q"], [("p", "r")])

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError, match="self-loop at p"):
            curve_gram(["p", "q"], [("p", "p")])

    def test_e8_dynkin_graph_lattice(self):
        inv = lattice_invariants(curve_gram(E8_NODES, E8_EDGES))
        assert inv.determinant == 1
        assert inv.signature == (0, 8)

    def test_full_tree_rank_and_kernel(self):
        lat = curve_tree().gram
        inv = lattice_invariants(lat)
        assert inv.rank == 18
        assert len(kernel_basis(lat)) == 1


class TestKernel:
    def test_u_nondegenerate(self):
        assert kernel_basis(standard_lattice("U")) == []

    def test_affine_e8_multiplicities(self):
        lat = affine_e8_lattice()
        basis = kernel_basis(lat)
        assert basis == [[1, 2, 3, 4, 5, 6, 4, 2, 3]]

    def test_tree_kernel_is_fiber_difference(self):
        tree = curve_tree()
        (k,) = kernel_basis(tree.gram)
        diff = [a - b for a, b in zip(tree.fiber_zero, tree.fiber_infinity)]
        assert k == diff or k == [-x for x in diff]

    def test_kernel_pairs_to_zero_with_nodes(self):
        lat = curve_tree().gram
        (k,) = kernel_basis(lat)
        n = lat.dim
        for i in range(n):
            e = [1 if j == i else 0 for j in range(n)]
            assert lat.pairing(k, e) == 0

    def test_kernel_is_a_z_basis(self):
        # the Gram v v^T, v = (2, 1, 1): (0, 1, -1) is in the kernel, so it
        # is an integer combination of a Z-basis
        v = (2, 1, 1)
        lat = GramLattice(("a", "b", "c"), tuple(tuple(x * y for y in v) for x in v))
        basis = kernel_basis(lat)
        assert len(basis) == 2
        (b1, b2), target = basis, (0, 1, -1)
        i, j = next((i, j) for i in range(3) for j in range(i + 1, 3)
                    if b1[i] * b2[j] - b1[j] * b2[i])
        det = b1[i] * b2[j] - b1[j] * b2[i]
        c1 = Fraction(target[i] * b2[j] - target[j] * b2[i], det)
        c2 = Fraction(b1[i] * target[j] - b1[j] * target[i], det)
        assert c1.denominator == c2.denominator == 1
        assert [c1 * x + c2 * y for x, y in zip(b1, b2)] == list(target)


def _fraction_det(m):
    """Determinant by elimination over Fraction."""
    rows = [[Fraction(x) for x in row] for row in m]
    det = Fraction(1)
    for col in range(len(rows)):
        piv = next((i for i in range(col, len(rows)) if rows[i][col]), None)
        if piv is None:
            return Fraction(0)
        if piv != col:
            rows[col], rows[piv] = rows[piv], rows[col]
            det = -det
        det *= rows[col][col]
        for row in rows[col + 1:]:
            f = row[col] / rows[col][col]
            row[:] = [x - f * y for x, y in zip(row, rows[col])]
    return det


def _rational_rank(m):
    """Rank by Gauss-Jordan elimination over Fraction: the reference that the
    integer row reduction must agree with."""
    rows = [[Fraction(x) for x in row] for row in m]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        piv = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        for i, row in enumerate(rows):
            if i != rank and row[col]:
                f = row[col] / rows[rank][col]
                rows[i] = [x - f * y for x, y in zip(row, rows[rank])]
        rank += 1
    return rank


@st.composite
def _integer_matrices(draw):
    """Up to 6 x 8: dense, with zero rows, or a rank-deficient product B C."""
    nr, nc = draw(st.integers(1, 6)), draw(st.integers(1, 8))
    entries = st.one_of(st.integers(-4, 4), st.integers(-10**12, 10**12))
    kind = draw(st.sampled_from(["dense", "zero_rows", "product"]))
    if kind == "product":
        k = draw(st.integers(1, max(1, min(nr, nc) - 1)))
        b = draw(st.lists(st.lists(st.integers(-5, 5), min_size=k, max_size=k),
                          min_size=nr, max_size=nr))
        c = draw(st.lists(st.lists(st.integers(-5, 5), min_size=nc, max_size=nc),
                          min_size=k, max_size=k))
        return [[sum(b[i][t] * c[t][j] for t in range(k)) for j in range(nc)]
                for i in range(nr)]
    m = draw(st.lists(st.lists(entries, min_size=nc, max_size=nc),
                      min_size=nr, max_size=nr))
    if kind == "zero_rows":
        for i in draw(st.lists(st.integers(0, nr - 1), max_size=nr)):
            m[i] = [0] * nc
    return m


class TestIntegerKernel:
    @settings(deadline=None, max_examples=200)
    @given(_integer_matrices())
    def test_matches_rational_elimination(self, m):
        rank = matrix_rank(m)
        assert rank == _rational_rank(m)
        basis = integer_kernel(m)
        assert len(basis) == len(m[0]) - rank
        for v in basis:
            assert all(type(x) is int for x in v)
            assert all(sum(a * x for a, x in zip(row, v)) == 0 for row in m)
            assert gcd(*v) == 1
            assert next(x for x in v if x) > 0
        if basis:
            assert _rational_rank(basis) == len(basis)
            # saturation: the maximal minors of a Z-basis of a kernel, which
            # is a primitive sublattice, have gcd 1
            k = len(basis)
            minors = [_fraction_det([[v[j] for j in cols] for v in basis])
                      for cols in itertools.combinations(range(len(m[0])), k)]
            assert gcd(*map(int, minors)) == 1

    def test_input_left_unchanged(self):
        m = [[2, 4, 6], [1, 1, 1]]
        assert integer_kernel(m) == [[1, -2, 1]]
        assert m == [[2, 4, 6], [1, 1, 1]]


class TestSectionAndFiber:
    def test_u_pairings(self):
        tree = curve_tree()
        lat, s, f, f2 = tree.gram, tree.section, tree.fiber_zero, tree.fiber_infinity
        assert lat.pairing(s, s) == -2
        assert lat.pairing(f, f) == 0
        assert lat.pairing(s, f) == 1
        assert lat.pairing(s, f2) == 1
        assert lat.pairing(f2, f2) == 0
        assert lat.pairing(f, f2) == 0


class TestPairing:
    @settings(deadline=None)
    @given(st.data())
    def test_matches_dense_sum(self, data):
        n = data.draw(st.integers(1, 8))
        upper = {(i, j): data.draw(st.integers(-4, 4)) for i in range(n) for j in range(i, n)}
        gram = tuple(tuple(upper[min(i, j), max(i, j)] for j in range(n)) for i in range(n))
        coordinate = st.one_of(st.integers(-6, 6),
                               st.integers(-13, 13).map(lambda k: Fraction(k, 2)))
        v = data.draw(st.lists(coordinate, min_size=n, max_size=n))
        w = data.draw(st.lists(coordinate, min_size=n, max_size=n))
        got = GramLattice(tuple(f"x{i}" for i in range(n)), gram).pairing(v, w)
        assert isinstance(got, Fraction)
        assert got == sum(Fraction(v[i]) * gram[i][j] * w[j]
                          for i in range(n) for j in range(n))

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            standard_lattice("U").pairing((1, 0, 0), (1, 0))


class TestInducedGram:
    def test_identity_on_u(self):
        u = standard_lattice("U")
        got = induced_gram(u, [(1, 0), (0, 1)])
        assert got.gram == u.gram

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            induced_gram(standard_lattice("U"), [(1, 0, 0)])

    def test_twenty_curves_match_pairings(self):
        # Fraction halves (the half-fiber curves) mixed with int vectors
        fib = kummer.fibration()
        e8, star1, star2 = fib.fibers
        vs = [fib.gens[label] for label in (*star1, fib.section, *e8, *star2)]
        assert any(isinstance(x, Fraction) for v in vs for x in v)
        got = induced_gram(kummer.KUMMER_LATTICE, vs).gram
        assert [list(row) for row in got] == kummer.KUMMER_LATTICE.pairings(vs, vs)

    def test_non_integral_pairing_raises(self):
        # (G1_1 / 2)^2 = -1/2
        half = [Fraction(1, 2) if label == "G1_1" else 0
                for label in kummer.KUMMER_LATTICE.labels]
        with pytest.raises(ValueError, match="-1/2"):
            induced_gram(kummer.KUMMER_LATTICE, [half])

    def test_e8_sides_match_standard(self):
        # both eight-node sides of the tree induce the standard E8(-1) Gram
        # when read off in chain-then-branch order
        tree = curve_tree()
        lat = tree.gram
        std = standard_lattice("E8(-1)")
        for idx in tree.e8_sides:
            vecs = [[1 if j == i else 0 for j in range(lat.dim)] for i in idx]
            got = induced_gram(lat, vecs, labels=[lat.labels[i] for i in idx])
            assert got.gram == std.gram


class TestCoordinateCurveClasses:
    def test_genus1_self_pairing(self):
        tree = curve_tree()
        g, w = tree.coordinate_classes[0]
        assert g == 1
        assert tree.gram.pairing(w, w) == 0  # 2g - 2 with g = 1

    def test_genus2_self_pairing(self):
        tree = curve_tree()
        lat = tree.gram
        g, w = tree.coordinate_classes[1]
        assert g == 2
        assert lat.pairing(w, w) == 2  # 2g - 2 with g = 2
        doubled = [2 * x for x in w]
        assert lat.pairing(doubled, doubled) == 8


class TestInvariantUniquenessCrossCheck:
    def test_tree_matches_mirror_lattice_invariants(self):
        tree_inv = lattice_invariants(curve_tree().gram)
        ref_inv = lattice_invariants(direct_sum(
            standard_lattice("E8(-1)"), standard_lattice("E8(-1)"), standard_lattice("U")))
        assert tree_inv.rank == ref_inv.rank == 18
        assert tree_inv.signature == ref_inv.signature == (1, 17)
        assert abs(tree_inv.determinant) == abs(ref_inv.determinant) == 1
        assert tree_inv.is_even and ref_inv.is_even


def _congruence_move(gram, a, b, q):
    """U gram U^T in place, for U: e_a -> e_a + q e_b, or e_a -> -e_a if a == b."""
    if a == b:
        gram[a] = [-x for x in gram[a]]
        for row in gram:
            row[a] = -row[a]
    else:
        gram[a] = [x + q * y for x, y in zip(gram[a], gram[b])]
        for row in gram:
            row[a] += q * row[b]


def _invariants(gram):
    inv = lattice_invariants(GramLattice(tuple(f"x{i}" for i in range(len(gram))),
                                         tuple(map(tuple, gram))))
    return inv.rank, inv.signature, inv.determinant, inv.is_even


class TestQuotientByKernel:
    def test_kernel_vector_without_unit_entry(self):
        # the primitive kernel vector (2, 3) has no entry of absolute value 1
        assert _invariants([[9, -6], [-6, 4]])[:3] == (1, (1, 0), 1)

    def test_affine_e8(self):
        assert _invariants(affine_e8_lattice().gram)[:3] == (8, (0, 8), 1)

    def test_two_affine_e8(self):
        gram = affine_e8_lattice()
        inv = lattice_invariants(direct_sum(gram, gram))
        assert (inv.rank, inv.signature, inv.determinant) == (16, (0, 16), 1)

    def test_one_row_reduction_on_the_tree(self, monkeypatch):
        # one unimodular reduction of the 19 x 19 Gram gives the kernel and
        # the quotient together; nothing else is reduced
        gram, calls = curve_tree().gram, []
        monkeypatch.setattr(lattice, "_unimodular_reduce",
                            lambda m, _fn=_unimodular_reduce: calls.append(len(m)) or _fn(m))
        assert lattice_invariants(gram).rank == 18
        assert calls == [19]

    @settings(deadline=None, max_examples=60)
    @given(st.data())
    def test_invariant_under_unimodular_congruence(self, data):
        # a possibly degenerate Gram B^T D B, moved by elementary integer moves
        n = data.draw(st.integers(1, 6))
        r = data.draw(st.integers(1, n))
        b = data.draw(st.lists(st.lists(st.integers(-3, 3), min_size=n, max_size=n),
                               min_size=r, max_size=r))
        d = data.draw(st.lists(st.sampled_from([-2, -1, 1, 2, 3]), min_size=r, max_size=r))
        gram = [[sum(b[k][i] * d[k] * b[k][j] for k in range(r)) for j in range(n)]
                for i in range(n)]
        moved = [row[:] for row in gram]
        index = st.integers(0, n - 1)
        for a, c, q in data.draw(st.lists(st.tuples(index, index, st.integers(-3, 3)),
                                          max_size=12)):
            _congruence_move(moved, a, c, q)
        assert _invariants(moved) == _invariants(gram)


def _fraction_signature(gram):
    """Congruence diagonalization over Q, pivot by pivot: the reference the
    integer `_signature` must reproduce."""
    m = [[Fraction(x) for x in row] for row in gram]
    n = len(m)
    pos = neg = 0
    det = Fraction(1)
    idx = list(range(n))
    while idx:
        i = next((k for k in idx if m[k][k] != 0), None)
        if i is None:
            found = next(((a, b) for a in idx for b in idx if a != b and m[a][b]), None)
            if found is None:
                return pos, neg, Fraction(0)
            a, b = found
            for j in range(n):
                m[a][j] += m[b][j]
            for j in range(n):
                m[j][a] += m[j][b]
            continue
        d = m[i][i]
        det *= d
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
    return pos, neg, det


@st.composite
def _symmetric_matrices(draw):
    """Symmetric integer matrices of size 1-7; some with a zero diagonal,
    some singular through a repeated row and column."""
    n = draw(st.integers(1, 7))
    zero_diagonal = draw(st.booleans())
    upper = {(i, j): 0 if i == j and zero_diagonal else draw(st.integers(-4, 4))
             for i in range(n) for j in range(i, n)}
    m = [[upper[min(i, j), max(i, j)] for j in range(n)] for i in range(n)]
    if n > 1 and draw(st.booleans()):
        a, b = draw(st.permutations(range(n)))[:2]
        m[b] = m[a][:]
        for row in m:
            row[b] = row[a]
    return m


class TestIntegerSignature:
    @settings(deadline=None, max_examples=150)
    @given(_symmetric_matrices())
    def test_matches_fraction_diagonalization(self, m):
        got = _signature(m)
        assert got == _fraction_signature(m)
        assert type(got[2]) is int

    @pytest.mark.parametrize("m", [
        [[0, 1], [1, 0]],                      # U: zero diagonal
        [[0, 0, 1], [0, 0, 2], [1, 2, 0]],     # zero diagonal, then a zero block
        [[0, 0], [0, 0]],
        [[2, 1, 0], [1, 2, 1], [0, 1, 2]],     # A3, determinant 4
        [[-2, 4], [4, 6]],                     # pivots scale the block by |d| = 2
    ])
    def test_small_cases(self, m):
        assert _signature(m) == _fraction_signature(m)

    def test_tree_quotient(self):
        q = _quotient_gram(curve_tree().gram.gram)
        assert _signature(q) == _fraction_signature(q) == (1, 17, -1)


class TestLatticeSuite:
    def test_one_tree_per_run(self, monkeypatch):
        # the checks share one tree and one set of its invariants, and decide
        # the kernel by rank-nullity, with no kernel basis
        calls = collections.Counter()
        for module, name in ((toric, "curve_tree"), (lattice, "lattice_invariants"),
                             (lattice, "kernel_basis")):
            def counted(*args, _fn=getattr(module, name), _name=name):
                calls[_name] += 1
                return _fn(*args)
            monkeypatch.setattr(module, name, counted)
        assert suites.run_suite("lattice").status == "pass"
        assert calls == {"curve_tree": 1, "lattice_invariants": 1}
