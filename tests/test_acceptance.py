"""Acceptance criteria: one check per stated requirement, each printing a
pass/fail line with its runtime.  Run with `pytest -s tests/test_acceptance.py`
to see the lines directly."""

import json
import random
import time
from fractions import Fraction

import mpmath
import pytest

from conftest import cubic_relation_terms_at, curve_tree, random_lambda
from k3lab import cli
from k3lab import constants as cst
from k3lab import kummer as km
from k3lab import lattice as lat
from k3lab import modular as md
from k3lab import shioda_inose as si
from k3lab import toric
from k3lab import weierstrass as w
from k3lab.exact import MultiPolynomial, RationalFunction, variables


class _Criterion:
    def __init__(self, number, description, limit_seconds):
        self.number = number
        self.description = description
        self.limit = limit_seconds

    def __enter__(self):
        self.started = time.monotonic()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.monotonic() - self.started
        status = "PASS" if exc_type is None else "FAIL"
        print(f"criterion {self.number:2d}: {status} ({elapsed:6.2f} s) "
              f"- {self.description}")
        if exc_type is None and self.limit is not None:
            assert elapsed < self.limit, (
                f"criterion {self.number} exceeded its {self.limit} s budget "
                f"({elapsed:.2f} s)")
        return False


def test_criterion_01_h_sum():
    with _Criterion(1, "H_inf + H_plus + H_minus == 0 as a 6-variable polynomial", 5):
        assert si.verify_h_sum()


def _mutation_targets():
    polys = {
        "C1_POLY": cst.C1_POLY,
        "C2_POLY": cst.C2_POLY,
        "C3_POLY": cst.C3_POLY,
        "C4_POLY": cst.C4_POLY,
        "H_INF": cst.H_INF,
        "X1_NUM": cst.X1_NUM,
        "X1_DEN": cst.X1_DEN,
        "Y1_NUM_FACTOR": cst.Y1_NUM_FACTOR,
        "MASTER_X2": cst.MASTER_X2,
        "MASTER_X1": cst.MASTER_X1,
        "MASTER_X0": cst.MASTER_X0,
        "MASTER_Z": cst.MASTER_Z,
    }
    for name, poly in polys.items():
        for exponents in poly.terms:
            yield name, exponents


def test_criterion_02_master_identity(monkeypatch):
    with _Criterion(2, "master cubic identity exact with KAPPA; "
                       "every single-coefficient mutation fails", 60):
        assert si.verify_master_identity(cst.KAPPA)

        points = (
            {"u1": 2, "v1": 1, "u2": 3, "v2": 1, "l1": 5, "l2": 7},
            {"u1": 5, "v1": 3, "u2": -2, "v2": 7,
             "l1": Fraction(11, 4), "l2": Fraction(-7, 3)},
            {"u1": -4, "v1": 9, "u2": 5, "v2": 2,
             "l1": Fraction(13, 6), "l2": Fraction(17, 5)},
            {"u1": 7, "v1": 2, "u2": 9, "v2": 5, "l1": -6, "l2": 10},
        )

        def detected() -> bool:
            # residual nonzero at a generic point shows the identity broke;
            # a mutated denominator may vanish at a probe point, so skip
            # those and fall back to the symbolic check if needed
            for pt in points:
                try:
                    if sum(cubic_relation_terms_at(pt)) != 0:
                        return True
                except ZeroDivisionError:
                    continue
            return not si.verify_master_identity(cst.KAPPA)

        mutations = 0
        for name, exponents in _mutation_targets():
            original = getattr(cst, name)
            terms = dict(original.terms)
            terms[exponents] = terms[exponents] + 1
            monkeypatch.setattr(cst, name, MultiPolynomial(original.vars, terms))
            caught = detected()
            monkeypatch.setattr(cst, name, original)
            assert caught, f"mutation of {name} at {exponents} went undetected"
            mutations += 1
        # and the normalization constant itself
        monkeypatch.setattr(cst, "KAPPA", cst.KAPPA + 1)
        assert any(sum(cubic_relation_terms_at(pt)) != 0 for pt in points)
        monkeypatch.setattr(cst, "KAPPA", Fraction(1))
        assert mutations > 50


def test_criterion_03_route_independence():
    with _Criterion(3, "a^3, b^2 agree along the lambda and j routes, "
                       "as identities in Q(l1, l2)", 10):
        assert si.route_independence()

        m1, m2 = variables("m1", "m2")
        one = MultiPolynomial.constant(("m1", "m2"), 1)
        jn = lambda m: 256 * (m**2 - m + 1) ** 3
        jd = lambda m: m**2 * (m - one) ** 2
        denom = (m1 * (m1 - one) * m2 * (m2 - one)) ** 2
        a3 = RationalFunction(
            Fraction(-16, 27) * (m1**2 - m1 + 1) ** 3 * (m2**2 - m2 + 1) ** 3, denom)
        assert a3.equals(
            RationalFunction(-jn(m1) * jn(m2), Fraction(110592) * jd(m1) * jd(m2)))
        bj = lambda m: (m + one) * (m - 2) * (2 * m - one)
        b2 = RationalFunction(Fraction(4, 729) * bj(m1) ** 2 * bj(m2) ** 2, denom)
        assert b2.equals(
            RationalFunction(
                (jn(m1) - 1728 * jd(m1)) * (jn(m2) - 1728 * jd(m2)),
                Fraction(746496) * jd(m1) * jd(m2)))


def test_criterion_04_tree_lattice():
    with _Criterion(4, "19-curve tree: even rank-18 lattice, signature (1,17), "
                       "unimodular basis, E8 sides, hyperbolic S/F, kernel", 5):
        tree = curve_tree()
        gram = tree.gram
        inv = lat.lattice_invariants(gram)
        assert inv.rank == 18
        assert inv.signature == (1, 17)
        assert abs(inv.determinant) == 1
        assert inv.is_even

        e8 = lat.standard_lattice("E8(-1)")
        for idx in tree.e8_sides:
            vecs = [[1 if j == i else 0 for j in range(gram.dim)] for i in idx]
            assert lat.induced_gram(gram, vecs).gram == e8.gram

        s, f = tree.section, tree.fiber_zero
        assert gram.pairing(s, s) == -2
        assert gram.pairing(f, f) == 0
        assert gram.pairing(s, f) == 1

        basis = lat.kernel_basis(gram)
        diff = [a - b for a, b in zip(tree.fiber_zero, tree.fiber_infinity)]
        assert len(basis) == 1
        assert basis[0] == diff or basis[0] == [-x for x in diff]


def test_criterion_05_kummer_side():
    with _Criterion(5, "Kummer: D^2 = 0, fiber decompositions, 20-label "
                       "adjacency, branch octet, rank 18, isogeny squares", 5):
        fib = km.fibration()
        gens = fib.gens
        assert km.pair(gens["D"], gens["D"]) == 0
        assert km.pair(gens["D"], gens[fib.section]) == 1
        report = km.labeled_tree_report(fib)
        assert km.is_affine(fib.fibers[0], report.gram, km.E8_DEGREES)
        assert km.verify_star_fibers(fib, report.gram)
        assert report.matches_expected
        assert report.rank == 18
        octet = [gens[label] for label in fib.octet]
        for i, a in enumerate(octet):
            assert km.pair(a, a) == -2
            for b in octet[i + 1:]:
                assert km.pair(a, b) == 0
        for n in (1, 2, 3, 5):
            numbers = km.isogeny_fiber_numbers(n)
            assert numbers.proj_square == -4 * n
            assert numbers.rx_square == -8 * n


def test_criterion_06_toric():
    with _Criterion(6, "toric: dual vertices, singularity profile, genera, "
                       "lattice point counts, support shift", 5):
        p = toric.delta()
        d = toric.dual_polytope(p)
        assert set(d.vertices) == set(cst.DELTA_DUAL_VERTICES)
        profile = sorted(r.singularity for r in toric.edge_reports(d))
        assert profile == sorted(["A11", "A2", "A2", "A1", "A1", "smooth"])
        v1, v2, v3, v4 = cst.DELTA_VERTICES
        assert sorted(toric.facet_genera(p)) == [0, 0, 1, 2]
        # the weighted-degree-12 monomial count (39) is realized by the dual
        # simplex; the simplex itself carries exactly the nine equation
        # monomials
        oracle = sum(rest + 1
                     for dd in range(3) for cc in range(4)
                     if (rest := 12 - 4 * cc - 6 * dd) >= 0)
        assert oracle == 39
        assert len(toric.lattice_points(d)) == 39
        own = set(toric.lattice_points(p))
        assert own == set(toric.shifted_support_points(p).values())
        assert len(own) == 9
        assert toric.support_shift(p) == (0, -2, -3)
        pts = toric.shifted_support_points(p)
        assert pts["z"] == v1 and pts["z^-1"] == v2
        assert pts["x^3"] == v3 and pts["y^2"] == v4


def test_criterion_07_weierstrass():
    with _Criterion(7, "Weierstrass: II* ends with Euler budget 24 on 50 "
                       "members; degeneracy equals the j1 = j2 predicate", 10):
        rng = random.Random(77)
        checked = 0
        while checked < 50:
            a = Fraction(rng.randint(-40, 40), rng.randint(1, 9))
            b = Fraction(rng.randint(-40, 40), rng.randint(1, 9))
            if w.degeneracy_indicator(a**3, b**2) == 0:
                continue
            fa = w.fiber_analysis(w.FamilyMember(a, b))
            assert str(fa.at_zero) == str(fa.at_infinity) == "II*"
            assert fa.at_zero.euler_contribution + fa.at_infinity.euler_contribution \
                + fa.extra_zero_multiplicity == 24
            checked += 1

        orbit = [lambda l: 1 - l, lambda l: 1 / l, lambda l: l,
                 lambda l: l / (l - 1), lambda l: (l - 1) / l, lambda l: 1 / (1 - l)]
        matched = unmatched = 0
        while matched < 20:
            l1 = random_lambda(rng)
            l2 = orbit[rng.randrange(6)](l1)
            if l2 in (0, 1):
                continue
            j1, j2 = si.j_from_lambda(l1), si.j_from_lambda(l2)
            assert j1 == j2
            p = si.ab_powers_from_j(j1, j2)
            assert w.degeneracy_indicator(p.a_cubed, p.b_squared) == 0
            matched += 1
        while unmatched < 20:
            l1, l2 = random_lambda(rng), random_lambda(rng)
            j1, j2 = si.j_from_lambda(l1), si.j_from_lambda(l2)
            if j1 == j2:
                continue
            p = si.ab_powers_from_j(j1, j2)
            assert w.degeneracy_indicator(p.a_cubed, p.b_squared) != 0
            unmatched += 1


def _relative_residual(phi, x, y):
    """|Phi(x, y)| over its largest monomial magnitude (at least 1)."""
    total, scale = mpmath.mpf(0), mpmath.mpf(1)
    for (i, j), c in sorted(phi.coefficients.items()):
        term = c * x**i * y**j
        total += term
        scale = max(scale, abs(term))
    return abs(total) / scale


def test_criterion_08_modular():
    with _Criterion(8, "modular: j special values, reconstructed level-2/3 "
                       "polynomials, Fricke vanishing; second build under 5 s", 120):
        assert abs(md.j_numeric(mpmath.mpc(0, 1)) - 1728) < mpmath.mpf(10) ** -15
        assert abs(md.j_numeric(mpmath.mpc(0, 2)) - 287496) < mpmath.mpf(10) ** -10

        for n in (2, 3):
            phi = md.build_modular_polynomial(n)
            assert phi.is_symmetric()
            assert all(isinstance(v, int) for v in phi.coefficients.values())
            rng = random.Random(800 + n)
            with mpmath.workprec(256):
                for _ in range(10):
                    tau = mpmath.mpc(rng.uniform(-0.4, 0.4), rng.uniform(0.9, 1.9))
                    x, y, _ = md.fricke_pair(tau, n)
                    assert _relative_residual(phi, x, y) < mpmath.mpf(10) ** -4

    second_start = time.monotonic()
    for n in (2, 3):
        assert md.build_modular_polynomial(n) is not None
    second_elapsed = time.monotonic() - second_start
    print(f"criterion  8: second build {second_elapsed:.3f} s")
    assert second_elapsed < 5


def test_criterion_09_j1728():
    with _Criterion(9, "j - 1728 square factorization and the spot values "
                       "at lambda = 1/4", 1):
        assert si.j_minus_1728_factorization()
        j = si.j_from_lambda(Fraction(1, 4))
        assert j == Fraction(35152, 9)
        assert j - 1728 == Fraction(19600, 9)


def test_criterion_10_cli(capsys, monkeypatch):
    with _Criterion(10, "CLI: full suite exits 0; a mutated constant exits 1 "
                        "naming the failing check; JSON schema validates", None):
        code = cli.main(["verify", "--suite", "all"])
        out = capsys.readouterr().out
        assert code == 0
        assert "suite all: pass" in out

        code = cli.main(["report", "--suite", "all", "--format", "json"])
        payload = json.loads(capsys.readouterr().out)
        assert list(payload) == ["suite", "status", "checks", "elapsed_ms"]
        assert payload["status"] == "pass"
        for chk in payload["checks"]:
            assert list(chk) == ["id", "description", "status", "witness"]

        mutated = cst.H_INF + cst.u1**4 * cst.u2**3
        monkeypatch.setattr(cst, "H_INF", mutated)
        code = cli.main(["verify", "--suite", "all"])
        out = capsys.readouterr().out
        assert code == 1
        assert "FAIL identities.h_sum" in out
