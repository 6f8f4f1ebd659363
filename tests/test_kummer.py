"""Kummer-surface divisor classes: pairings, fibers, the labeled tree."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from k3lab import constants as c
from k3lab import kummer as km
from k3lab.exact import variables
from k3lab.kummer import combination, pair

# (a, b; A) as the 18 coordinates a, b, A_11, A_12, ..., A_44
half_integral_classes = st.lists(st.integers(-9, 9).map(lambda k: Fraction(k, 2)),
                                 min_size=18, max_size=18)
# the same with integer coordinates too, so that some vectors need no scaling
mixed_classes = st.lists(st.one_of(st.integers(-9, 9),
                                   st.integers(-9, 9).map(lambda k: Fraction(k, 2))),
                         min_size=18, max_size=18)


def polarized_pairing(x, y):
    """<(a,b;A), (a',b';A')> = 2(a b' + a' b) - 2 sum_ij A_ij A'_ij, the
    polarization of the self-intersection rule (a,b;A) -> 4ab - 2 Tr(A A^T)."""
    return 2 * (x[0] * y[1] + y[0] * x[1]) - 2 * sum(p * q for p, q in zip(x[2:], y[2:]))


@pytest.fixture(scope="module")
def gens():
    return km.named_classes()


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

    def test_reference_e8_weights(self, gens):
        assert set(km.e8_fiber_weights(gens)) == {
            ("F1_1", 2), ("G1_4", 4), ("G4_4", 3), ("F2_4", 6), ("G2_4", 5),
            ("F1_2", 4), ("G2_3", 3), ("F2_3", 2), ("G3_3", 1)}

    def test_h_inf_line_orders(self):
        # (l2-1)(u1-l1 v1)^3 (u1-v1) u2 v2^2: columns (0, inf, 1, l1), rows (0, inf, 1, l2)
        assert km.line_orders(c.H_INF, 1) == [0, 0, 1, 3]
        assert km.line_orders(c.H_INF, 2) == [1, 2, 0, 0]

    def test_orders_add_over_factors(self):
        # H_plus = u1 * C1_POLY * C2_POLY: the class of a product is the sum
        factors = [km.curve_class(p) for p in (c.u1, c.C1_POLY, c.C2_POLY)]
        assert km.curve_class(c.h_plus()) == tuple(map(sum, zip(*factors)))

    def test_h_inf_not_a_product_of_branch_lines(self, monkeypatch):
        monkeypatch.setattr(c, "H_INF", c.H_INF + c.u1**4 * c.u2**3)
        with pytest.raises(ValueError, match="branch lines"):
            km.named_classes()


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


class TestE8Fiber:
    def test_decomposition(self, gens):
        assert km.verify_e8_fiber(gens)
        assert combination(gens, km.e8_fiber_weights(gens)) == gens["D"]

    def test_perturbed_weight_fails(self, gens):
        weights = [(label, 5 if label == "F2_4" else mult)
                   for label, mult in km.e8_fiber_weights(gens)]
        assert any(combination(gens, weights + [("D", -1)]))

    def test_component_orthogonality(self, gens):
        assert pair(gens["D"], gens["G3_3"]) == 0


class TestStarFibers:
    def test_sums(self, gens):
        assert km.verify_star_fibers(gens)

    def test_c2_numbers(self, gens):
        assert pair(gens["C2"], gens["C2"]) == -2
        assert pair(gens["C2"], gens["F2_1"]) == 1
        assert pair(gens["C2"], gens["G3_1"]) == 0

    def test_c4_self_intersection(self, gens):
        assert pair(gens["C4"], gens["C4"]) == -2


class TestLabeledTree:
    def test_report(self, gens):
        report = km.labeled_tree_report(gens)
        assert report.matches_expected
        assert report.rank == 18

    def test_specific_adjacencies(self, gens):
        assert pair(gens["F1_3"], gens["G3_3"]) == 1
        assert pair(gens["C1"], gens["C2"]) == 0

    def test_section_isolation(self, gens):
        # F1_3 meets exactly its three tree neighbors among the twenty
        neighbors = {b for a, b in c.TWENTY_EDGES if a == "F1_3"}
        neighbors |= {a for a, b in c.TWENTY_EDGES if b == "F1_3"}
        assert neighbors == {"G3_1", "G3_2", "G3_3"}
        for label in c.TWENTY_LABELS:
            if label == "F1_3":
                continue
            expected = 1 if label in neighbors else 0
            assert pair(gens["F1_3"], gens[label]) == expected


class TestBranchOctet:
    def test_pairwise_orthogonal_minus_two(self, gens):
        octet = km.branch_octet(gens)
        assert len(octet) == 8
        for i, (_, a) in enumerate(octet):
            assert pair(a, a) == -2
            for _, b in octet[i + 1:]:
                assert pair(a, b) == 0

    def test_examples(self, gens):
        assert pair(gens["C1"], gens["G3_2"]) == 0
        assert pair(gens["C2"], gens["C4"]) == 0
        assert pair(gens["G4_1"], gens["G4_1"]) == -2


class TestIsogenyFiberNumbers:
    @pytest.mark.parametrize("n,expected", [
        (1, (2, 2, -4, -8, -2)),
        (2, (4, 2, -8, -16, -4)),
        (3, (6, 2, -12, -24, -6)),
        (5, (10, 2, -20, -40, -10)),
    ])
    def test_table(self, n, expected):
        got = km.isogeny_fiber_numbers(n)
        assert (got.ry_f1, got.ry_f2, got.proj_square,
                got.rx_square, got.generator_square) == expected

    def test_bad_degree(self):
        with pytest.raises(ValueError):
            km.isogeny_fiber_numbers(0)

