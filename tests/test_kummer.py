"""Kummer-surface divisor classes: pairings, fibers, the labeled tree."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from k3lab import constants as c
from k3lab import kummer as km
from k3lab.exact import variables
from k3lab.kummer import pair
from k3lab.lattice import GramLattice, curve_gram

# (a, b; A) as the 18 coordinates a, b, A_11, A_12, ..., A_44
half_integral_classes = st.lists(st.integers(-9, 9).map(lambda k: Fraction(k, 2)),
                                 min_size=18, max_size=18)
# the same with integer coordinates too, so that some vectors need no scaling
mixed_classes = st.lists(st.one_of(st.integers(-9, 9),
                                   st.integers(-9, 9).map(lambda k: Fraction(k, 2))),
                         min_size=18, max_size=18)


# The curves and fibers as drawn in the paper: the reference the derived
# fibration must reproduce
STAR_1 = {"C1": 1, "C2": 1, "G3_1": 1, "G4_1": 1, "F2_1": 2}
STAR_2 = {"C3": 1, "C4": 1, "G3_2": 1, "G4_2": 1, "F2_2": 2}
E8_FIBER = {"F1_1": 2, "G1_4": 4, "G4_4": 3, "F2_4": 6, "G2_4": 5,
            "F1_2": 4, "G2_3": 3, "F2_3": 2, "G3_3": 1}
BRANCH_OCTET = {"C1", "C2", "C3", "C4", "G3_1", "G3_2", "G4_1", "G4_2"}
TWENTY_LABELS = {*STAR_1, "F1_3", *E8_FIBER, *STAR_2}


def combination(gens: dict, weights) -> tuple:
    """The coordinate vector of sum(mult * gens[label] for label, mult in weights)."""
    total = [0] * km.KUMMER_LATTICE.dim
    for label, mult in weights:
        for k, x in enumerate(gens[label]):
            total[k] += mult * x
    return tuple(total)


def polarized_pairing(x, y):
    """<(a,b;A), (a',b';A')> = 2(a b' + a' b) - 2 sum_ij A_ij A'_ij, the
    polarization of the self-intersection rule (a,b;A) -> 4ab - 2 Tr(A A^T)."""
    return 2 * (x[0] * y[1] + y[0] * x[1]) - 2 * sum(p * q for p, q in zip(x[2:], y[2:]))


@pytest.fixture(scope="module")
def fib():
    return km.fibration()


@pytest.fixture(scope="module")
def gens(fib):
    return fib.gens


@pytest.fixture(scope="module")
def tree(fib):
    return km.labeled_tree_report(fib)


class TestPairing:
    def test_d_square_zero(self, gens):
        assert pair(gens["D"], gens["D"]) == 0

    def test_g_meets_matching_halves(self, gens):
        assert pair(gens["G1_1"], gens["F1_1"]) == 1
        assert pair(gens["G1_1"], gens["F1_2"]) == 0
        assert pair(gens["G1_1"], gens["F2_1"]) == 1

    def test_half_fibers_disjoint(self, gens):
        assert pair(gens["F1_3"], gens["F2_2"]) == 0
        assert pair(gens["F1_1"], gens["F1_2"]) == 0

    def test_half_fiber_self(self, gens):
        for k in range(1, 5):
            assert pair(gens[f"F1_{k}"], gens[f"F1_{k}"]) == -2
            assert pair(gens[f"F2_{k}"], gens[f"F2_{k}"]) == -2

    def test_ruling_pairing(self, gens):
        assert pair(gens["F1"], gens["F2"]) == 2
        assert pair(gens["F1"], gens["F1"]) == 0

    def test_section_of_d(self, gens):
        assert pair(gens["D"], gens["F1_3"]) == 1

    def test_d_orthogonal_examples(self, gens):
        assert pair(gens["D"], gens["C1"]) == 0
        assert pair(gens["D"], gens["G4_4"]) == 0

    @settings(deadline=None)
    @given(half_integral_classes, half_integral_classes)
    def test_matches_polarized_formula(self, x, y):
        assert pair(x, y) == polarized_pairing(x, y)

    @settings(deadline=None, max_examples=40)
    @given(st.lists(mixed_classes, min_size=1, max_size=3),
           st.lists(mixed_classes, min_size=1, max_size=3))
    def test_batched_pairings_match_fraction_reference(self, xs, ys):
        entries = [(i, j, g) for i, row in enumerate(km.KUMMER_LATTICE.gram)
                   for j, g in enumerate(row) if g]
        got = km.KUMMER_LATTICE.pairings(xs, ys)
        assert got == [[sum(Fraction(x[i]) * g * y[j] for i, j, g in entries) for y in ys]
                       for x in xs]
        # an int exactly where the pairing is integral
        assert all(type(p) is (int if p.denominator == 1 else Fraction)
                   for row in got for p in row)


class TestGenerators:
    def test_fiber_relations(self):
        # F1 = 2 F_1i + sum_j G_ij and F2 = 2 F_2j + sum_i G_ij for all indices
        gens = km.standard_generators()
        ks = range(1, 5)
        for i in ks:
            relation = [(f"F1_{i}", 2)] + [(f"G{i}_{j}", 1) for j in ks]
            assert combination(gens, relation) == gens["F1"]
        for j in ks:
            relation = [(f"F2_{j}", 2)] + [(f"G{i}_{j}", 1) for i in ks]
            assert combination(gens, relation) == gens["F2"]

    def test_relation_explicit(self, gens):
        residual = combination(gens, [("F1", 1), ("F1_1", -2)]
                               + [(f"G1_{j}", -1) for j in range(1, 5)])
        assert not any(residual)


def _expansion(gens, f1, f2, nodes):
    """f1*F1 + f2*F2 - sum of mult*G_ij over the ((i, j), mult) in `nodes`."""
    return combination(gens, [("F1", f1), ("F2", f2)]
                       + [(f"G{i}_{j}", -mult) for (i, j), mult in nodes])


class TestClassesFromPolynomials:
    # the classes as transcribed by hand from the curves' incidences
    @pytest.mark.parametrize("name,f1,f2,nodes", [
        ("C1", 1, 1, {(1, 3): 1, (2, 2): 1, (3, 4): 1}),
        ("C2", 2, 2, {(1, 2): 1, (1, 3): 1, (2, 1): 1, (2, 2): 1, (4, 3): 1, (3, 4): 2}),
        ("C3", 1, 1, {(1, 3): 1, (2, 1): 1, (3, 4): 1}),
        ("C4", 2, 2, {(1, 1): 1, (1, 3): 1, (2, 2): 1, (2, 1): 1, (4, 3): 1, (3, 4): 2}),
        ("D", 3, 4, {(1, 1): 1, (1, 2): 1, (1, 3): 2, (2, 1): 2, (2, 2): 2,
                     (3, 4): 3, (4, 3): 1}),
    ])
    def test_reference_class(self, gens, name, f1, f2, nodes):
        assert gens[name] == _expansion(gens, f1, f2, nodes.items())

    def test_reference_e8_weights(self, fib):
        assert dict(fib.fibers[0]) == E8_FIBER

    def test_reference_stars(self, fib):
        # H_plus = u1 C1 C2 and H_minus = v1 C3 C4, read by the same rule
        assert [dict(star) for star in fib.fibers[1:]] == [STAR_1, STAR_2]

    def test_every_fiber_sums_to_d(self, fib):
        for fiber in fib.fibers:
            assert combination(fib.gens, fiber.items()) == fib.gens["D"]

    def test_h_inf_line_orders(self):
        # (l2-1)(u1-l1 v1)^3 (u1-v1) u2 v2^2: columns (0, inf, 1, l1), rows (0, inf, 1, l2)
        assert km.line_orders(c.H_INF, 1) == [0, 0, 1, 3]
        assert km.line_orders(c.H_INF, 2) == [1, 2, 0, 0]

    def test_orders_add_over_factors(self):
        # H_plus = u1 C1 C2 and H_minus = v1 C3 C4: the class of a product is the sum
        for product, factors in ((c.h_plus(), c.h_plus_factors()),
                                 (c.h_minus(), c.h_minus_factors())):
            classes = [km.curve_class(p) for p in factors]
            assert km.curve_class(product) == tuple(map(sum, zip(*classes)))

    def test_h_inf_not_a_product_of_branch_lines(self, monkeypatch):
        monkeypatch.setattr(c, "H_INF", c.H_INF + c.u1**4 * c.u2**3)
        with pytest.raises(ValueError, match="branch lines"):
            km.fibration()


class TestOneOneCurves:
    def test_c1_self_intersection(self, gens):
        assert pair(gens["C1"], gens["C1"]) == -2

    def test_c3_self_intersection(self, gens):
        assert pair(gens["C3"], gens["C3"]) == -2

    def test_f1_pairing(self, gens):
        # the (1,1)-form through G1_2, G2_3 and G4_1
        cls = km.curve_class(c.u1 * c.u2 - c.v1 * c.u2 + c.l2 * c.v1 * c.v2)
        assert cls == _expansion(gens, 1, 1, [((1, 2), 1), ((2, 3), 1), ((4, 1), 1)])
        assert pair(cls, gens["F1"]) == 2
        assert pair(cls, cls) == -2

    @pytest.mark.parametrize("poly", [c.C1_POLY + c.u1, c.u1 * c.v1 + c.u2, c.u1 - c.u1,
                                      variables("u1", "v1", "u2", "v2")[0]],
                             ids=["C1_POLY+u1", "u1*v1+u2", "zero", "other-variables"])
    def test_not_bihomogeneous(self, poly):
        with pytest.raises(ValueError):
            km.curve_class(poly)


def _raised(fiber: dict, label: str) -> dict:
    return {**fiber, label: fiber[label] + 1}


class TestE8Fiber:
    def test_decomposition(self, fib, tree):
        assert km.is_affine(fib.fibers[0], tree.gram, km.E8_DEGREES)
        assert combination(fib.gens, fib.fibers[0].items()) == fib.gens["D"]

    def test_perturbed_weight_fails(self, fib, tree):
        weights = _raised(fib.fibers[0], "F2_4")
        assert not km.is_affine(weights, tree.gram, km.E8_DEGREES)
        assert combination(fib.gens, weights.items()) != fib.gens["D"]

    def test_component_orthogonality(self, gens):
        assert pair(gens["D"], gens["G3_3"]) == 0

    def test_degrees_tell_e8_from_d8(self):
        # affine E8 and affine D8 both have nine curves and a positive null
        # vector; only E8 has one node of degree 3 and arms 1, 2, 5
        e8 = [f"e{k}" for k in range(9)]
        e8_gram = curve_gram(e8, [*zip(e8[:7], e8[1:8]), (e8[5], e8[8])])
        assert km.is_affine(dict(zip(e8, (1, 2, 3, 4, 5, 6, 4, 2, 3))), e8_gram, km.E8_DEGREES)
        d8 = [f"d{k}" for k in range(9)]
        d8_gram = curve_gram(d8, [("d0", "d2"), ("d1", "d2"), *zip(d8[2:6], d8[3:7]),
                                  ("d6", "d7"), ("d6", "d8")])
        d8_weights = dict(zip(d8, (1, 1, 2, 2, 2, 2, 2, 1, 1)))
        assert not km.is_affine(d8_weights, d8_gram, km.E8_DEGREES)
        assert km.is_affine(d8_weights, d8_gram, [1, 1, 1, 1, 2, 2, 2, 3, 3])

    def test_double_meeting_is_not_simple(self):
        # two curves meeting twice have the null vector (1, 1), but are no tree
        pair_gram = GramLattice(("a", "b"), ((-2, 2), (2, -2)))
        assert not km.is_affine({"a": 1, "b": 1}, pair_gram, [1, 1])


class TestStarFibers:
    def test_sums(self, fib, tree):
        assert km.verify_star_fibers(fib, tree.gram)

    @pytest.mark.parametrize("star,label", [(1, "F2_1"), (1, "C1"), (2, "G4_2")])
    def test_raised_weight_fails_null_vector(self, fib, tree, star, label):
        fibers = list(fib.fibers)
        fibers[star] = _raised(fibers[star], label)
        assert not km.verify_star_fibers(fib._replace(fibers=tuple(fibers)), tree.gram)

    def test_overlapping_fibers_fail(self, fib, tree):
        # the first star twice: each is affine D4 and met once by the section,
        # but the two are not orthogonal
        e8, star1, _ = fib.fibers
        assert not km.verify_star_fibers(fib._replace(fibers=(e8, star1, star1)), tree.gram)

    @pytest.mark.parametrize("section", ["F2_1", "G3_3"])
    def test_section_off_a_simple_component_fails(self, fib, tree, section):
        # the hub of a star, and a curve of the E8-type fiber
        assert not km.verify_star_fibers(fib._replace(section=section), tree.gram)

    def test_c2_numbers(self, gens):
        assert pair(gens["C2"], gens["C2"]) == -2
        assert pair(gens["C2"], gens["F2_1"]) == 1
        assert pair(gens["C2"], gens["G3_1"]) == 0

    def test_c4_self_intersection(self, gens):
        assert pair(gens["C4"], gens["C4"]) == -2


class TestLabeledTree:
    def test_report(self, tree):
        assert tree.matches_expected
        assert tree.rank == 18

    def test_reference_labels(self, tree):
        assert set(tree.gram.labels) == TWENTY_LABELS
        assert len(tree.gram.labels) == 20

    def test_pairing_one_graph_is_the_drawn_tree(self, tree):
        g, labels = tree.gram.gram, tree.gram.labels
        ones = {frozenset((labels[i], labels[j]))
                for i in range(20) for j in range(i) if g[i][j] == 1}
        assert ones == set(map(frozenset, c.TWENTY_EDGES))

    def test_specific_adjacencies(self, gens):
        assert pair(gens["F1_3"], gens["G3_3"]) == 1
        assert pair(gens["C1"], gens["C2"]) == 0

    def test_section_isolation(self, fib, gens):
        # F1_3 is the one standard generator off the fibers with D.s = 1, and
        # meets exactly its three tree neighbors among the twenty
        assert fib.section == "F1_3"
        off = [label for label in km.standard_generators()
               if not any(label in fiber for fiber in fib.fibers)]
        assert [label for label in off if pair(gens["D"], gens[label]) == 1] == ["F1_3"]
        neighbors = {b for a, b in c.TWENTY_EDGES if a == "F1_3"}
        neighbors |= {a for a, b in c.TWENTY_EDGES if b == "F1_3"}
        assert neighbors == {"G3_1", "G3_2", "G3_3"}
        for label in TWENTY_LABELS - {"F1_3"}:
            expected = 1 if label in neighbors else 0
            assert pair(gens["F1_3"], gens[label]) == expected


class TestBranchOctet:
    def test_reference_octet(self, fib):
        assert set(fib.octet) == BRANCH_OCTET
        assert len(fib.octet) == 8

    def test_pairwise_orthogonal_minus_two(self, fib, gens):
        octet = [gens[label] for label in fib.octet]
        assert len(octet) == 8
        for i, a in enumerate(octet):
            assert pair(a, a) == -2
            for b in octet[i + 1:]:
                assert pair(a, b) == 0

    def test_examples(self, gens):
        assert pair(gens["C1"], gens["G3_2"]) == 0
        assert pair(gens["C2"], gens["C4"]) == 0
        assert pair(gens["G4_1"], gens["G4_1"]) == -2


class TestIsogenyFiberNumbers:
    @pytest.mark.parametrize("n,expected", [
        (1, (-4, -8)),
        (2, (-8, -16)),
        (3, (-12, -24)),
        (5, (-20, -40)),
    ])
    def test_table(self, n, expected):
        got = km.isogeny_fiber_numbers(n)
        assert (got.proj_square, got.rx_square) == expected

    def test_bad_degree(self):
        with pytest.raises(ValueError):
            km.isogeny_fiber_numbers(0)

