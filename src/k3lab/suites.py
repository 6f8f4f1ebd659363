"""Named verification suites behind the CLI: every check re-derives its
claim from the constants at call time, so a mutated constant flips the
owning check to fail.  Each suite imports its layers when it runs.

Each object a suite derives (Delta and its dual, the curve tree, the Kummer
fibration and the Gram of its twenty curves, each Phi_n) is built once per
run, by the first check that needs it, and nothing outlives the run: a
constant mutated before a run still reaches every check, and a build that
raises fails each check that needs it.  Delta and its dual are built once
per `run_suite` call, so that `all` shares them between the lattice suite,
which reads the curve tree off them, and the toric suite.  A polytope keeps
its lattice points and facet genera as it keeps its facets."""

from __future__ import annotations

import functools
import time
from fractions import Fraction
from math import gcd
from operator import mul
from typing import NamedTuple

from . import SUITE_NAMES


class CheckResult(NamedTuple):
    id: str
    description: str
    status: str  # "pass" | "fail"
    witness: str


class SuiteReport(NamedTuple):
    suite: str
    status: str
    checks: tuple
    elapsed_ms: int

    def to_dict(self) -> dict:
        """The report as nested dicts, fields in declaration order."""
        return {**self._asdict(), "checks": tuple(chk._asdict() for chk in self.checks)}


class _Polytopes:
    """Delta and its dual for one `run_suite` call, each built on first use."""

    @functools.cached_property
    def simplex(self):
        from . import toric
        return toric.delta()

    @functools.cached_property
    def dual(self):
        from . import toric
        return toric.dual_polytope(self.simplex)


def _check(checks, cid, description, fn):
    try:
        ok, witness = fn()
    except Exception as exc:  # a raising check is a failing check
        ok, witness = False, f"raised {type(exc).__name__}: {exc}"
    checks.append(CheckResult(cid, description, "pass" if ok else "fail", witness))


# ---------------------------------------------------------------------------
# identities
# ---------------------------------------------------------------------------


def _identities_checks(checks, polytopes):
    from . import constants as cst
    from . import shioda_inose as si

    _check(checks, "identities.h_sum",
           "the three fiber forms are linearly dependent with sum zero",
           lambda: (si.verify_h_sum(), "H_inf + H_plus + H_minus == 0"))

    _check(checks, "identities.master_cubic",
           "the cubic relation among x1, y1^2, z+1/z holds exactly",
           lambda: (si.verify_master_identity(cst.KAPPA),
                    "zero polynomial after clearing denominators"))

    def j1728():
        ok = si.j_minus_1728_factorization()
        j = si.j_from_lambda(Fraction(1, 4))
        ok = ok and j == Fraction(35152, 9) and j - 1728 == Fraction(19600, 9)
        return ok, f"j(1/4) = {j}"
    _check(checks, "identities.j1728_factorization",
           "the square factorization of j - 1728 and its spot values", j1728)

    _check(checks, "identities.route_independence",
           "a^3 and b^2 agree between the lambda route and the j route",
           lambda: (si.route_independence(),
                    "compared in Q(l1, l2), with j = J_NUM/J_DEN"))


# ---------------------------------------------------------------------------
# lattice
# ---------------------------------------------------------------------------


def _lattice_checks(checks, polytopes):
    from . import lattice as lat
    from . import toric

    tree = functools.cache(lambda: toric.curve_tree(polytopes.simplex, polytopes.dual))
    invariants = functools.cache(lambda: lat.lattice_invariants(tree().gram))

    def tree_invariants():
        inv = invariants()
        ok = (inv.rank == 18 and inv.signature == (1, 17)
              and abs(inv.determinant) == 1 and inv.is_even)
        return ok, f"rank {inv.rank}, signature {inv.signature}, det {inv.determinant}"
    _check(checks, "lattice.tree_invariants",
           "the 19-curve tree spans an even rank-18 lattice of signature (1,17), det ±1",
           tree_invariants)

    def e8_sides():
        gram = tree().gram
        std = [list(row) for row in lat.standard_lattice("E8(-1)").gram]
        for side, idx in zip(("z0", "zi"), tree().e8_sides):
            labels = [gram.labels[i] for i in idx]
            if gram.block(labels, labels) != std:
                return False, f"{side} side induced Gram differs"
        return True, "both sides are E8 diagrams inducing the standard form"
    _check(checks, "lattice.e8_sides",
           "both eight-node sides are E8 diagrams with the standard Gram", e8_sides)

    def section_fiber():
        t = tree()
        s, f0, fi = t.section, t.fiber_zero, t.fiber_infinity
        (ss, sf0, sfi), (_, ff0, ffi) = t.gram.pairings([s, f0], [s, f0, fi])
        values = tuple(int(v) for v in (ss, ff0, sf0, sfi, ffi))
        ok = values == (-2, 0, 1, 1, 0)
        return ok, f"(S^2, F^2, S.F, S.F', F.F') = {values}"
    _check(checks, "lattice.section_fiber",
           "the section and fiber classes span a hyperbolic pair", section_fiber)

    def kernel():
        # rank-nullity; a primitive vector spans a kernel of dimension 1
        t = tree()
        dim = t.gram.dim - invariants().rank
        diff = [a - b for a, b in zip(t.fiber_zero, t.fiber_infinity)]
        null = all(sum(map(mul, row, diff)) == 0 for row in t.gram.gram)
        return dim == 1 and null and gcd(*diff) == 1, f"kernel dimension {dim}"
    _check(checks, "lattice.kernel",
           "the kernel is spanned by the difference of the two fiber classes",
           kernel)

    def coordinate_curves():
        gram = tree().gram
        (g1, c1), (g2, c2) = tree().coordinate_classes
        if c1 is None or c2 is None:
            return False, "div x and div y do not cut out both coordinate curves"
        # the class of an irreducible curve of positive genus is nef, so it
        # meets every curve of the tree non-negatively
        units = [[int(i == j) for j in range(gram.dim)] for i in range(gram.dim)]
        rows = gram.pairings([c1, c2], [c1, c2, *units])
        v1, v2 = (row[k] for k, row in enumerate(rows))
        m1, m2 = (min(row[2:]) for row in rows)
        ok = (v1, v2) == (2 * g1 - 2, 2 * g2 - 2) and min(m1, m2) >= 0
        return ok, f"self-pairings {v1}, {v2}; least tree pairings {m1}, {m2}"
    _check(checks, "lattice.coordinate_curves",
           "the genus-1 and genus-2 curve classes match adjunction and are nef on the tree",
           coordinate_curves)


# ---------------------------------------------------------------------------
# kummer
# ---------------------------------------------------------------------------


def _kummer_checks(checks, polytopes):
    from . import kummer as km

    fibration = functools.cache(km.fibration)
    tree = functools.cache(lambda: km.labeled_tree_report(fibration()))

    def d_class():
        gens, sec = fibration().gens, fibration().section
        d2, ds = km.pair(gens["D"], gens["D"]), km.pair(gens["D"], gens[sec])
        return (d2, ds) == (0, 1), f"D^2 = {d2}, D.{sec} = {ds}"
    _check(checks, "kummer.d_class",
           "the fibration class is isotropic with one standard section", d_class)

    _check(checks, "kummer.e8_fiber",
           "the fiber over H_INF = 0 is affine E8 with its weights as null vector",
           lambda: (km.is_affine(fibration().fibers[0], tree().gram, km.E8_DEGREES),
                    "read off the Gram of the twenty curves"))

    _check(checks, "kummer.star_fibers",
           "the two star fibers are affine D4, the three fibers mutually orthogonal, "
           "and the section meets each once in a simple component",
           lambda: (km.verify_star_fibers(fibration(), tree().gram),
                    "read off the Gram of the twenty curves"))

    def labeled_tree():
        report = tree()
        return (report.matches_expected and report.rank == 18,
                f"adjacency ok: {report.matches_expected}, rank {report.rank}")
    _check(checks, "kummer.labeled_tree",
           "the twenty labeled curves realize the incidence tree at rank 18", labeled_tree)

    def octet():
        octet = fibration().octet
        diagonal = [[-2 * (a == b) for b in octet] for a in octet]
        ok = len(octet) == 8 and tree().gram.block(octet, octet) == diagonal
        return ok, f"{len(octet)} simple star components: {', '.join(octet)}"
    _check(checks, "kummer.branch_octet",
           "the branch octet is pairwise orthogonal of square -2", octet)

    def isogeny():
        rows = []
        for n in (1, 2, 3, 5):
            got = km.isogeny_fiber_numbers(n)
            if got != (-4 * n, -8 * n):
                return False, f"mismatch at n = {n}"
            rows.append(f"n={n}: {got.proj_square}/{got.rx_square}")
        return True, "; ".join(rows)
    _check(checks, "kummer.isogeny_numbers",
           "projection and pullback squares are -4n and -8n", isogeny)


# ---------------------------------------------------------------------------
# toric
# ---------------------------------------------------------------------------


def _toric_checks(checks, polytopes):
    from . import constants as cst
    from . import toric

    def dual():
        d = polytopes.dual
        ok = set(d.vertices) == set(cst.DELTA_DUAL_VERTICES)
        dd = toric.dual_polytope(d)
        ok = ok and set(dd.vertices) == set(cst.DELTA_VERTICES)
        ok = ok and toric.interior_lattice_points(polytopes.simplex) == [(0, 0, 0)]
        ok = ok and toric.interior_lattice_points(d) == [(0, 0, 0)]
        return ok, f"dual vertices {sorted(d.vertices)}"
    _check(checks, "toric.dual",
           "the dual simplex has the expected vertices and is reflexive", dual)

    def edges():
        profile = sorted(r.singularity for r in toric.edge_reports(polytopes.dual))
        ok = profile == sorted(["A11", "A2", "A2", "A1", "A1", "smooth"])
        return ok, ", ".join(profile)
    _check(checks, "toric.edges",
           "the edge singularity profile is A11, A2, A2, A1, A1, smooth", edges)

    def genera():
        got = sorted(polytopes.simplex.genera)
        return got == [0, 0, 1, 2], f"facet genera {got}"
    _check(checks, "toric.genera", "facet genera are 0, 0, 1, 2", genera)

    def points():
        dual_count = len(polytopes.dual.points)
        own = set(polytopes.simplex.points)
        shifted = set(toric.shifted_support_points(polytopes.simplex).values())
        oracle = 0
        for dd in range(3):
            for cc in range(4):
                rest = 12 - 4 * cc - 6 * dd
                if rest >= 0:
                    oracle += rest + 1
        ok = dual_count == oracle == 39 and own == shifted and len(own) == 9
        return ok, f"dual count {dual_count}, own count {len(own)}"
    _check(checks, "toric.points",
           "lattice point counts match the weighted-monomial oracle", points)

    def shift():
        p = polytopes.simplex
        s = toric.support_shift(p)
        pts = toric.shifted_support_points(p)
        interior = [m for m, q in pts.items() if p.strictly_contains(q)]
        ok = s == cst.SUPPORT_SHIFT and len(interior) == 1
        return ok, f"shift {s}, interior monomial {interior}"
    _check(checks, "toric.support_shift",
           "the support shift lands the nine monomials in the simplex", shift)


# ---------------------------------------------------------------------------
# weierstrass
# ---------------------------------------------------------------------------


def _weierstrass_checks(checks, polytopes):
    from . import shioda_inose as si
    from . import weierstrass as w
    from .exact import variables

    def substitution():
        x, y, t, a, b = variables("x", "y", "t", "a", "b")
        A, B = w.coefficients(a, b, t)
        lhs = (y * t**3) ** 2 - (-x * t**2) ** 3 - A * (-x * t**2) - B
        rhs = t**6 * (y**2 + x**3 + a * x + b) + t**7 + t**5
        return (lhs - rhs).is_zero(), "chart substitution identity"
    _check(checks, "weierstrass.substitution",
           "the Weierstrass model re-substitutes to the defining equation",
           substitution)

    def euler():
        fa = w.fiber_analysis(w.GENERIC)
        budget = (f"{fa.at_zero} + {fa.at_infinity} + {fa.extra_zero_multiplicity}"
                  f" = {fa.euler_total}")
        if not (str(fa.at_zero) == str(fa.at_infinity) == "II*" and fa.euler_total == 24):
            return False, f"generic member: {budget}"
        # the generic orders hold at every member when the end t-coefficients
        # of B and the discriminant do not vanish anywhere
        model = w.to_weierstrass(w.GENERIC)
        ends = [c for p in (model.B, model.discriminant()) for c in w.end_coefficients(p)]
        if any(c.total_degree() for c in ends):
            return False, f"end t-coefficients of B and the discriminant: {ends}"
        # A = c a^i t^k is one term: its order is k, or infinity at a = 0
        if len(model.A.terms) != 1 or model.A.degree_in(("b",)):
            return False, f"A = {model.A} is not one term free of b"
        no_a = w.fiber_analysis(w.FamilyMember(0, w.GENERIC.b))
        if no_a != fa:
            return False, f"a = 0: {no_a.at_zero} + {no_a.at_infinity}"
        return True, f"every member: {budget}"
    _check(checks, "weierstrass.euler_budget",
           "II* fibers at both ends with Euler budget 24", euler)

    def degeneracy():
        j1, j2 = variables("j1", "j2")
        p = si.ab_powers_from_j(j1, j2)
        indicator = w.degeneracy_indicator(p.a_cubed, p.b_squared)
        ok = indicator == Fraction(1, 256) * (j1 - j2) ** 2
        return ok, "disc(a, b-2) disc(a, b+2) = (j1 - j2)^2/256 in Q[j1, j2]"
    _check(checks, "weierstrass.degeneracy_equivalence",
           "degeneration happens exactly on the equal-j locus", degeneracy)


# ---------------------------------------------------------------------------
# modular
# ---------------------------------------------------------------------------


# The build solves for q^-(n+1)^2 .. q^0; the check goes on past that.
PHI_CHECK_TOP = 16
# Sturm's bound for weight 12 on SL_2(Z) (Sturm, "On the congruence of
# modular forms", 1987): a weight-12 form whose q-expansion vanishes
# through q^(12/12) = q^1 is zero.
STURM_TOP_WEIGHT_12 = 1


def _modular_checks(checks, polytopes):
    from . import modular as md

    # read off md when the run starts, so a build replaced before the run is used
    build = functools.cache(md.build_modular_polynomial)

    def j_values():
        # E4^3 - E6^2 and 1728 Delta, Delta = q prod (1 - q^n)^24, are
        # weight-12 forms, so they are equal once they agree through q^1.
        # E6(-1/tau) = tau^6 E6(tau) gives E6(i) = -E6(i) = 0, so then
        # j(i) = E4(i)^3 / Delta(i) = 1728 + E6(i)^2 / Delta(i) = 1728.
        top = STURM_TOP_WEIGHT_12
        e4_cubed = md.eisenstein_e4(top).power(3).coefficients
        e6_squared = md.eisenstein_e6(top).power(2).coefficients
        lhs = [a - b for a, b in zip(e4_cubed, e6_squared)]
        rhs = [0] + [1728 * c for c in md.eta_product_24(top - 1).coefficients]
        if lhs != rhs:
            return False, f"through q^{top}: E4^3 - E6^2 = {lhs}, 1728 Delta = {rhs}"
        # Phi_2(j(i), j(2i)) = 0, which modular.phi2 decides, and
        # j(2i) != j(i), as 2i and i are distinct points of the fundamental
        # domain: so j(2i) is the other root of Phi_2(1728, Y).  Both sides
        # are lists of coefficients in Y, constant term first.
        row = [0] * 4
        for (i, k), c in build(2).coefficients.items():
            row[k] += c * 1728**i
        expected = [1]
        for r in (1728, 287496, 287496):  # times (Y - r)
            expected = [a - r * b for a, b in zip([0] + expected, expected + [0])]
        if row != expected:
            return False, f"Phi_2(1728, Y) has coefficients {row}, constant term first"
        return True, (f"E4^3 - E6^2 = 1728 Delta through q^{top}, the Sturm bound; "
                      "Phi_2(1728, Y) = (Y - 1728)(Y - 287496)^2")
    _check(checks, "modular.j_values",
           "j(i) = 1728 and j(2i) = 287496, exactly", j_values)

    def phi(n):
        def run():
            p = build(n)
            ok = p.is_symmetric() and p.degree() == n + 1
            ok = ok and all(isinstance(v, int) for v in p.coefficients.values())
            ok = ok and p.coefficients.get((n, n)) == -1
            if not ok:
                return False, f"Phi_{n} is not an integer symmetric polynomial of degree {n + 1}"
            expansion = md.q_expansion(p, PHI_CHECK_TOP)
            nonzero = [e for e, c in expansion.items() if c]
            if nonzero:
                return False, f"Phi_{n}(j(q), j(q^{n})) has a q^{nonzero[0]} term"
            return True, (f"Phi_{n}(j(q), j(q^{n})) = 0 from q^{min(expansion)} "
                          f"through q^{max(expansion)}")
        return run
    _check(checks, "modular.phi2",
           "level-2 polynomial: integer, symmetric, Phi_2(j(q), j(q^2)) = 0 exactly",
           phi(2))
    _check(checks, "modular.phi3",
           "level-3 polynomial: integer, symmetric, Phi_3(j(q), j(q^3)) = 0 exactly",
           phi(3))


# suite name -> `_<name>_checks`, which appends its checks given the run's polytopes
_SUITE_BUILDERS = {name: globals()[f"_{name}_checks"] for name in SUITE_NAMES}


def run_suite(name: str) -> SuiteReport:
    """Run one suite (or 'all'); checks are reported sorted by id."""
    if name != "all" and name not in SUITE_NAMES:
        raise ValueError(f"unknown suite {name!r}")
    started = time.monotonic()
    checks: list[CheckResult] = []
    names = SUITE_NAMES if name == "all" else (name,)
    polytopes = _Polytopes()
    for suite in names:
        _SUITE_BUILDERS[suite](checks, polytopes)
    checks.sort(key=lambda chk: chk.id)
    ids = [chk.id for chk in checks]
    if len(set(ids)) != len(ids):
        raise AssertionError("duplicate check ids")
    status = "pass" if all(chk.status == "pass" for chk in checks) else "fail"
    elapsed_ms = int((time.monotonic() - started) * 1000)
    return SuiteReport(name, status, tuple(checks), elapsed_ms)
