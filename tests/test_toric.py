"""Polytope duality, point counts, singularity profile, monomial support."""

import collections
import math

import pytest

from conftest import curve_tree
from k3lab import constants as c
from k3lab import suites, toric
from k3lab.toric import (
    LatticePolytope,
    delta,
    dual_polytope,
    edge_reports,
    facet_genera,
    interior_lattice_points,
    lattice_points,
    shifted_support_points,
    support_shift,
)


def weighted_degree12_monomial_count():
    """Oracle: monomials x0^a x1^b x2^c x3^d with a + b + 4c + 6d = 12."""
    count = 0
    for d in range(3):
        for cc in range(4):
            rest = 12 - 4 * cc - 6 * d
            if rest >= 0:
                count += rest + 1
    return count


class TestDelta:
    def test_vertex_relation_and_count(self):
        p = delta()
        assert len(p.vertices) == 4

    def test_origin_strictly_inside(self):
        assert delta().strictly_contains((0, 0, 0))

    def test_point_count_against_weighted_monomials(self):
        # the dual simplex is the Newton polytope of the weighted-degree-12
        # forms; the simplex itself holds exactly the nine equation monomials
        assert weighted_degree12_monomial_count() == 39
        assert len(lattice_points(dual_polytope(delta()))) == 39
        pts = set(lattice_points(delta()))
        assert len(pts) == 9
        assert pts == set(shifted_support_points(delta()).values())


class TestDual:
    def test_dual_of_delta(self):
        d = dual_polytope(delta())
        assert set(d.vertices) == set(c.DELTA_DUAL_VERTICES)

    def test_reflexivity(self):
        dd = dual_polytope(dual_polytope(delta()))
        assert set(dd.vertices) == set(c.DELTA_VERTICES)

    def test_dual_vertex_weight_relation(self):
        # mirror relation n1 + n2 + 4 n3 + 6 n4 = 0 in the dual ordering
        n1, n2, n3, n4 = c.DELTA_DUAL_VERTICES
        assert tuple(n1[i] + n2[i] + 4 * n3[i] + 6 * n4[i] for i in range(3)) == (0, 0, 0)

    def test_standard_reflexive_simplex(self):
        p = LatticePolytope(((1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -1)))
        d = dual_polytope(p)
        assert set(d.vertices) == {(3, -1, -1), (-1, 3, -1), (-1, -1, 3), (-1, -1, -1)}

    def test_unique_interior_points(self):
        assert interior_lattice_points(delta()) == [(0, 0, 0)]
        assert interior_lattice_points(dual_polytope(delta())) == [(0, 0, 0)]

    def test_origin_not_interior_rejected(self):
        shifted = LatticePolytope(((5, 0, 0), (6, 1, 0), (6, 0, 1), (6, -1, -1)))
        with pytest.raises(ValueError):
            dual_polytope(shifted)


class TestSimplex:
    @pytest.mark.parametrize("vertices", [
        ((1, 0, 0), (0, 1, 0), (-1, -1, 0), (0, 0, 1), (0, 0, -1)),  # a bipyramid
        ((0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 0)),  # coplanar
        ((0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 0.5)),  # not integral
        ((0, 0, 0), (1, 0, 0), (0, 1, 0)),  # a triangle
    ], ids=["bipyramid", "coplanar", "non-integer", "three-vertices"])
    def test_rejects_non_simplex(self, vertices):
        with pytest.raises(ValueError):
            LatticePolytope(vertices)

    @pytest.mark.parametrize("polytope", [delta, lambda: dual_polytope(delta())],
                             ids=["delta", "dual"])
    def test_facet_k_opposite_vertex_k(self, polytope):
        p = polytope()
        assert len(p.facets) == 4
        for k, f in enumerate(p.facets):
            values = [sum(a * b for a, b in zip(f.normal, v)) for v in p.vertices]
            assert values[k] < f.offset
            assert values[:k] + values[k + 1:] == [f.offset] * 3
            assert math.gcd(*f.normal) == 1


class TestUnitSimplex:
    def test_four_points(self):
        p = LatticePolytope(((0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)))
        assert len(lattice_points(p)) == 4


class TestEdgeReports:
    def test_dual_singularity_profile(self):
        reports = edge_reports(dual_polytope(delta()))
        profile = sorted(r.singularity for r in reports)
        assert profile == sorted(["A11", "A2", "A2", "A1", "A1", "smooth"])

    def test_a11_edge(self):
        reports = edge_reports(dual_polytope(delta()))
        (a11,) = [r for r in reports if r.singularity == "A11"]
        assert set(a11.endpoints) == {(-1, -1, -1), (11, -1, -1)}
        assert a11.lattice_length == 12

    def test_delta_two_point_stratum(self):
        reports = edge_reports(delta())
        (long_edge,) = [r for r in reports
                        if set(r.endpoints) == {(-1, -4, -6), (1, 0, 0)}]
        assert long_edge.lattice_length == 2


class TestFacetGenus:
    def test_all_four(self):
        # facet k lies opposite vertex k of DELTA_VERTICES = (v1, v2, v3, v4)
        g_v2v3v4, g_v1v3v4, g_v1v2v4, g_v1v2v3 = facet_genera(delta())
        assert g_v1v2v3 == 2  # the genus-two curve
        assert g_v1v2v4 == 1  # the genus-one curve
        assert g_v2v3v4 == 0
        assert g_v1v3v4 == 0

    def test_dual_facets(self):
        # every facet of the dual has lattice points inside its edges (the A11
        # edge holds eleven); they are not interior to the facet
        assert facet_genera(dual_polytope(delta())) == (1, 1, 5, 10)

    def test_genus_sum_and_curve_count(self):
        assert sum(facet_genera(delta())) == 3
        # exceptional curves 11 + 2 + 2 + 1 + 1 plus the two genus-zero
        # curves give the 19 tree nodes
        lengths = [r.lattice_length - 1 for r in edge_reports(dual_polytope(delta()))]
        assert sum(lengths) == 17
        assert sum(lengths) + 2 == curve_tree().gram.dim == 19


class TestSupportShift:
    def test_shift_value(self):
        assert support_shift(delta()) == c.SUPPORT_SHIFT == (0, -2, -3)

    def test_vertex_correspondence(self):
        pts = shifted_support_points(delta())
        assert pts["z"] == c.DELTA_VERTICES[0]
        assert pts["z^-1"] == c.DELTA_VERTICES[1]
        assert pts["x^3"] == c.DELTA_VERTICES[2]
        assert pts["y^2"] == c.DELTA_VERTICES[3]

    def test_all_nine_inside(self):
        p = delta()
        for q in shifted_support_points(p).values():
            assert p.contains(q)

    def test_exactly_one_interior(self):
        p = delta()
        interior = [m for m, q in shifted_support_points(p).items()
                    if p.strictly_contains(q)]
        assert len(interior) == 1


class TestTreeShape:
    def test_node_and_edge_counts(self):
        lat = curve_tree().gram
        assert lat.dim == 19
        assert all(row[i] == -2 for i, row in enumerate(lat.gram))
        meetings = [x for i, row in enumerate(lat.gram) for x in row[i + 1:] if x]
        assert meetings == [1] * 18  # a tree

    def test_trivalent_nodes(self):
        # the hubs of the tree are the genus-0 vertices of the dual simplex
        lat = curve_tree().gram
        trivalent = [lab for lab, row in zip(lat.labels, lat.gram) if row.count(1) == 3]
        assert trivalent == [(-1, -1, -1), (11, -1, -1)]
        genera = dict(zip(dual_polytope(delta()).vertices, facet_genera(delta())))
        assert [genera[v] for v in trivalent] == [0, 0]

    def test_section_is_the_midpoint_of_the_a11_edge(self):
        tree = curve_tree()
        (section,) = [lab for lab, w in zip(tree.gram.labels, tree.section) if w]
        (ends,) = [r.endpoints for r in edge_reports(dual_polytope(delta()))
                   if r.singularity == "A11"]
        assert section == (5, -1, -1)
        assert [2 * x for x in section] == [a + b for a, b in zip(*ends)]

    def test_fibers_are_affine_e8_null_vectors(self):
        # each fiber, read in the side's E8_NODES order with its
        # multiplicity-one curve first, is the affine-E8 null vector
        tree = curve_tree()
        for fiber, side in zip((tree.fiber_zero, tree.fiber_infinity), tree.e8_sides):
            (end,) = [i for i, w in enumerate(fiber) if w == 1]
            order = [end, *side]
            assert [fiber[i] for i in order] == [1, 2, 3, 4, 5, 6, 4, 2, 3]
            assert sorted(i for i, w in enumerate(fiber) if w) == sorted(order)

    def test_coordinate_classes(self):
        # on each fiber, read from the curve that meets the section in the
        # side's E8_NODES order, then on the section: chain, branch and
        # section weights (2,...,2,1,0; 1; 2) of genus 1, (3,...,3,2,1; 1; 3)
        # of genus 2
        tree = curve_tree()
        (sec,) = [i for i, w in enumerate(tree.section) if w]
        expected = {1: [2, 2, 2, 2, 2, 2, 1, 0, 1], 2: [3, 3, 3, 3, 3, 3, 2, 1, 1]}
        for genus, cls in tree.coordinate_classes:
            assert cls[sec] == genus + 1
            for fiber, side in zip((tree.fiber_zero, tree.fiber_infinity), tree.e8_sides):
                (end,) = [i for i, w in enumerate(fiber) if w == 1]
                assert [cls[i] for i in [end, *side]] == expected[genus]


class TestToricSuite:
    @staticmethod
    def _count_builds(monkeypatch, suite):
        calls = collections.Counter()
        for name in ("delta", "lattice_points", "dual_polytope", "facet_genera"):
            def counted(*args, _fn=getattr(toric, name), _name=name):
                calls[_name] += 1
                return _fn(*args)
            monkeypatch.setattr(toric, name, counted)
        assert suites.run_suite(suite).status == "pass"
        return calls

    def test_one_simplex_pair_per_run(self, monkeypatch):
        # one Delta and one dual per run, each enumerated once; Delta** is
        # built once, in toric.dual, and never enumerated
        assert self._count_builds(monkeypatch, "toric") == {
            "delta": 1, "facet_genera": 1, "lattice_points": 2, "dual_polytope": 2}

    def test_all_shares_the_simplex_pair(self, monkeypatch):
        # the lattice suite reads the curve tree off the same Delta and dual
        # that the toric suite checks
        assert self._count_builds(monkeypatch, "all") == {
            "delta": 1, "facet_genera": 1, "lattice_points": 2, "dual_polytope": 2}
