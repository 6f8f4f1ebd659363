"""Numeric j, Fricke pairs, modular polynomials solved from q-expansions."""

import collections
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import mpmath
import pytest

from k3lab import modular as md
from k3lab import shioda_inose as si
from k3lab import suites
from k3lab.errors import DomainError, PrecisionError


# The levels solved from the q-series; Phi_1 = X - Y is set, not solved.
SOLVED_LEVELS = [n for n in md.LEVELS if n > 1]


def tol(e):
    return mpmath.mpf(10) ** e


def relative_residual(phi, x, y):
    """|Phi(x, y)| over its largest monomial magnitude (at least 1)."""
    total, scale = mpmath.mpf(0), mpmath.mpf(1)
    for (i, j), c in sorted(phi.coefficients.items()):
        term = c * x**i * y**j
        total += term
        scale = max(scale, abs(term))
    return abs(total) / scale


class TestJNumeric:
    def test_j_i(self):
        # the numeric side of modular.j_values, which decides j(i) exactly
        assert abs(md.j_numeric(mpmath.mpc(0, 1)) - 1728) <= 1728 * mpmath.mpf(2) ** -240

    def test_j_rho(self):
        rho = (1 + mpmath.mpc(0, 1) * mpmath.sqrt(3)) / 2
        assert abs(md.j_numeric(rho)) < tol(-20)

    def test_j_2i(self):
        assert abs(md.j_numeric(mpmath.mpc(0, 2)) - 287496) <= 287496 * mpmath.mpf(2) ** -240

    def test_lower_half_plane_rejected(self):
        with pytest.raises(DomainError):
            md.j_numeric(mpmath.mpc(0, -1))
        with pytest.raises(DomainError):
            md.j_numeric(mpmath.mpc(2, 0))

    @pytest.mark.parametrize("re, im", [(0, "1e60"), (0, "1e-60"), ("0.25", "1e40")])
    def test_beyond_precision_rejected(self, re, im):
        with pytest.raises(PrecisionError):
            md.j_numeric(mpmath.mpc(re, im))

    def test_precision_bound_follows_prec_bits(self):
        # the bound is 2^(PREC_BITS/2 - 16) = 2^112
        assert md.PREC_BITS == 256
        md.j_numeric(mpmath.mpc(0, 2**111))
        with pytest.raises(PrecisionError):
            md.j_numeric(mpmath.mpc(0, 2**113))

    def test_modularity(self):
        rng = random.Random(5)
        with mpmath.workprec(256):
            for _ in range(10):
                tau = mpmath.mpc(rng.uniform(-1.5, 1.5), rng.uniform(0.4, 2.0))
                j = md.j_numeric(tau)
                scale = max(mpmath.mpf(1), abs(j))
                assert abs(md.j_numeric(tau + 1) - j) / scale < tol(-30)
                assert abs(md.j_numeric(-1 / tau) - j) / scale < tol(-30)


def horner_reference(series, q):
    """Horner's rule in mpmath numbers, rounding at the working precision:
    the reference for the fixed-point sum of QSeries.evaluate."""
    total = mpmath.mpf(0)
    for c in reversed(series.coefficients):
        total = total * q + c
    return total


# (Re tau, Im tau, n) of the CM table in the family_sweep query stream;
# j_numeric is called at tau and at -1/(n tau)
CM_TABLE = ((0, "1", 1), (0, "1", 2), (0, "2", 1), (0, "0.5", 2),
            (0, "1.4142135623730951", 1), (0, "0.7071067811865476", 2),
            (0, "1.7320508075688772", 1), (0, "0.5773502691896258", 3),
            ("0.5", "0.8660254037844386", 1))


def reduced_points():
    """The reduced CM points, 100 seeded random reduced tau and the point
    Im tau = 2^111, where q is below the last fixed-point bit."""
    taus = []
    for re, im, n in CM_TABLE:
        tau = mpmath.mpc(re, im)
        taus += [tau, -1 / (n * tau)]
    rng = random.Random(13)
    taus += [mpmath.mpc(rng.uniform(-2, 2), rng.uniform(0.05, 3)) for _ in range(100)]
    taus.append(mpmath.mpc(0, 2**111))
    return [md.reduce_to_fundamental_domain(tau) for tau in taus]


def reduced_q_values():
    """q at each of the reduced_points(), as j_numeric computes it."""
    return [md.q_at(t) for t in reduced_points()]


# W, the fractional bits of the fixed-point sum
FIXED_BITS = md.PREC_BITS + md.GUARD_BITS
SQRT3_HALF = Fraction(8660254037844386, 10**16)  # just below sqrt(3)/2


def tail_bound(y, order):
    """sum_{k > order} e^(4 pi sqrt k - 2 pi y k), through k = 400, where
    the terms are far below 2^-10000 for y >= sqrt(3)/2."""
    with mpmath.workprec(64):
        return mpmath.fsum(mpmath.exp(4 * mpmath.pi * mpmath.sqrt(k) - 2 * mpmath.pi * y * k)
                           for k in range(order + 1, 401))


class TestTruncationOrder:
    def test_coefficient_bound(self):
        # |s_k| <= e^(4 pi sqrt k), from Brisebarre and Philibert's bound on
        # the coefficients of j, on the exact coefficients of S = q j
        with mpmath.workprec(96):
            for k, s in enumerate(md.j_series(128).coefficients):
                assert 0 < s <= mpmath.exp(4 * mpmath.pi * mpmath.sqrt(k)), k

    def test_order_fits_the_cached_series(self):
        assert md.truncation_order(SQRT3_HALF) == 53 <= md.SERIES_ORDER
        assert [md.truncation_order(y) for y in (1, 2, 4, 35)] == [45, 20, 9, 0]

    def test_order_never_rises(self):
        heights = sorted({SQRT3_HALF, Fraction(2**111)}
                         | {Fraction(k, 64) for k in range(56, 64 * 40)})
        orders = [md.truncation_order(y) for y in heights]
        assert all(a >= b for a, b in zip(orders, orders[1:]))
        assert orders[0] == 53 and orders[-1] == 0

    @pytest.mark.parametrize("y", [SQRT3_HALF, 1, Fraction(3, 2), 2, Fraction(31, 7), 33, 34])
    def test_order_bounds_the_tail(self, y):
        # the tail beyond N is below 2^-W, and N is at most one order more
        # than that needs: the tail beyond N - 1 is above 2^-(W + 2)
        n = md.truncation_order(y)
        assert tail_bound(y, n) < mpmath.mpf(2) ** -FIXED_BITS
        if n:
            assert tail_bound(y, n - 1) > mpmath.mpf(2) ** -(FIXED_BITS + 2)

    def test_truncated_sum_within_the_bound(self):
        # at every reduced point, the sum through q^N is within
        # 2^(14 - W) + 2^-W of S(q), read off j_series(128) at W + 64 bits
        full = md.j_series(128)
        bound = mpmath.mpf(2) ** (14 - FIXED_BITS) + mpmath.mpf(2) ** -FIXED_BITS
        for t in reduced_points():
            q = md.q_at(t)
            head = md.QSeries(full.coefficients[: md.truncation_order(t.imag) + 1])
            with mpmath.workprec(FIXED_BITS + 64):
                assert abs(head.evaluate(q) - horner_reference(full, q)) <= bound, t


class TestQSeries:
    def test_q_within_its_bound(self):
        # q_at against exp(2 pi i t) at twice the precision, at every reduced
        # point: within (1.001 + 2 pi Im(t) 2^-14) 2^-PREC_BITS, relative to |q|
        for t in reduced_points():
            q = md.q_at(t)
            with mpmath.workprec(2 * md.PREC_BITS):
                exact = mpmath.exp(2j * mpmath.pi * mpmath.mpc(
                    *(mpmath.mpf(v.numerator) / v.denominator for v in t)))
                bound = (1.001 + 2 * mpmath.pi * t.imag / 2**14) / mpmath.mpf(2) ** md.PREC_BITS
                assert abs(q - exact) <= bound * abs(exact), t

    @pytest.mark.parametrize("order", [64, 128])
    def test_fixed_point_sum_matches_horner(self, order):
        series = md.j_series(order)
        with mpmath.workprec(md.PREC_BITS):
            qs = reduced_q_values()
            assert qs[-1] != 0 and abs(qs[-1]) < mpmath.mpf(2) ** -(md.PREC_BITS + 64)
            for q in qs:
                got, want = series.evaluate(q), horner_reference(series, q)
                bound = mpmath.mpf(2) ** (8 - md.PREC_BITS) * max(abs(want), 1)
                assert abs(got - want) <= bound, q

    def test_multiplication_truncates_consistently(self):
        a = md.QSeries(tuple(range(1, 22)))
        b = md.QSeries(tuple(range(2, 19)))
        prod = a * b
        assert prod.order == 16
        assert len(prod.coefficients) == 17
        # low-order coefficients agree with the full convolution
        assert prod.coefficients[0] == 1 * 2
        assert prod.coefficients[1] == 1 * 3 + 2 * 2

    def test_inverse_roundtrip(self):
        s = md.QSeries((1, -24, 252, -1472) + (0,) * 13)
        prod = s * s.inverse()
        assert prod.coefficients == (1,) + (0,) * 16

    def test_j_series_head(self):
        assert md.j_series(16).coefficients[:3] == (1, 744, 196884)


def moebius(g, tau):
    """g tau for g = (a, b, c, d) in SL_2(Z), exactly in Q(i): Im(g tau) =
    Im(tau) / |c tau + d|^2, as ad - bc = 1."""
    a, b, c, d = g
    x, y = tau
    norm = (c * x + d) ** 2 + (c * y) ** 2
    return md.RationalPoint((a * c * (x * x + y * y) + (a * d + b * c) * x + b * d) / norm,
                            y / norm)


def random_sl2z(rng):
    """A random word in T^k and S = ((0, -1), (1, 0))."""
    a, b, c, d = 1, 0, 0, 1
    for _ in range(rng.randint(1, 8)):
        k = rng.randint(-6, 6)
        a, b, c, d = a, a * k + b, c, c * k + d  # times T^k
        a, b, c, d = b, -a, d, -c  # times S
    assert a * d - b * c == 1
    return a, b, c, d


def in_domain(t) -> bool:
    """The canonical fundamental domain: Re in [-1/2, 1/2), |tau| >= 1,
    and Re <= 0 on |tau| = 1."""
    norm = t.real**2 + t.imag**2
    return -Fraction(1, 2) <= t.real < Fraction(1, 2) and norm >= 1 and (norm > 1 or t.real <= 0)


class TestExactReduction:
    def test_orbit_reduces_to_one_point(self):
        rng = random.Random(29)
        for _ in range(200):
            tau = md.RationalPoint(Fraction(rng.randint(-10**6, 10**6), 10**6),
                                   Fraction(rng.randint(1, 3 * 10**6), 10**6))
            t = md.reduce_to_fundamental_domain(tau)
            assert in_domain(t), tau
            assert md.reduce_to_fundamental_domain(moebius(random_sl2z(rng), tau)) == t, tau

    @pytest.mark.parametrize("x, y, want", [
        ("1/2", "1", ("-1/2", "1")),
        ("-1/2", "1", ("-1/2", "1")),
        ("7/25", "24/25", ("-7/25", "24/25")),
        ("-7/25", "24/25", ("-7/25", "24/25")),
        ("0", "1", ("0", "1")),
        ("0", "1/2", ("0", "2")),
        ("5/2", "1/2", ("0", "1")),  # 1/2 + i/2, then -1 + i
    ], ids=["re_half", "re_minus_half", "unit_circle_re_positive", "unit_circle_re_negative",
            "i", "i_over_2", "half_plus_half_i"])
    def test_boundary_points(self, x, y, want):
        tau = md.RationalPoint(Fraction(x), Fraction(y))
        t = md.reduce_to_fundamental_domain(tau)
        assert t == md.RationalPoint(*map(Fraction, want))
        assert in_domain(t)
        for g in [(1, 1, 0, 1), (0, -1, 1, 0), (2, 1, 1, 1)]:
            assert md.reduce_to_fundamental_domain(moebius(g, tau)) == t

    def test_mpmath_arguments_convert_exactly(self):
        with mpmath.workprec(md.PREC_BITS):
            x = mpmath.mpf(3) / 2**300
            assert md.exact_part(x, "Re(tau)") == Fraction(3, 2**300)
            tau = mpmath.mpc(0.25, 1.5)
        assert md.reduce_to_fundamental_domain(tau) == md.RationalPoint(Fraction(1, 4),
                                                                        Fraction(3, 2))

    @pytest.mark.parametrize("re, im", [(0, "1e999999999"), ("1e-999999999", 1),
                                        ("1e81", 1)])
    def test_mpf_beyond_the_size_bound(self, re, im):
        # no Fraction of 10^9 digits is built: the exponent is tested first
        with pytest.raises(PrecisionError):
            md.j_numeric(mpmath.mpc(mpmath.mpf(re), mpmath.mpf(im)))


class TestChop:
    def test_kept_part_keeps_every_bit(self):
        # made at 256 bits, chopped at mpmath's default 53
        with mpmath.workprec(md.PREC_BITS):
            x = mpmath.mpf(-7) / 3
            noise = x * mpmath.mpf(10) ** -45
            values = mpmath.mpc(noise, x), mpmath.mpc(x, noise)
        imaginary, real = map(md.chop, values)
        assert imaginary.real == 0 and imaginary.imag == x
        assert isinstance(real, mpmath.mpf) and real == x

    def test_tolerance(self):
        tiny = mpmath.mpf(10) ** -41
        assert md.chop(mpmath.mpc(tiny, tiny)) == 0
        assert md.chop(tiny) == 0
        # a part counts as noise relative to the value once |value| > 1
        big = mpmath.mpf(10) ** 10
        assert isinstance(md.chop(mpmath.mpc(big, big * 10**-39)), mpmath.mpc)
        assert isinstance(md.chop(mpmath.mpc(big, big * 10**-41)), mpmath.mpf)
        assert isinstance(md.chop(mpmath.mpc(1, mpmath.mpf(10) ** -39)), mpmath.mpc)


class TestFrickePair:
    def test_level_one_fixed(self):
        a, b, same = md.fricke_pair(mpmath.mpc(0, 1), 1)
        assert same
        assert abs(a - 1728) < tol(-20)
        assert abs(b - 1728) < tol(-20)

    def test_level_two_at_i(self):
        a, b, same = md.fricke_pair(mpmath.mpc(0, 1), 2)
        assert not same
        assert abs(a - 1728) < tol(-20)
        assert abs(b - 287496) < tol(-15)

    def test_level_two_fixed_point(self):
        with mpmath.workprec(256):
            tau = mpmath.mpc(0, 1) / mpmath.sqrt(2)
            # 256 bits of i/sqrt(2) are near the fixed point, not on it
            a, b, same = md.fricke_pair(tau, 2)
            assert not same
            assert abs(a - b) < tol(-20)
            # classical CM value at this fixed point
            assert abs(a - 8000) < tol(-20)

    @pytest.mark.parametrize("tau", [mpmath.mpc(0, -1), 0, 2], ids=["-i", "0", "2"])
    def test_outside_upper_half_plane_rejected(self, tau):
        with pytest.raises(DomainError, match="^tau must lie in the upper half plane$"):
            md.fricke_pair(tau, 2)

    @pytest.mark.parametrize("tau, n, calls", [
        (("3/10", "7/5"), 1, 1), (("1/2", "1/2"), 2, 1), (("0", "1"), 2, 2),
        (("-31/100", "137/100"), 3, 2),
    ], ids=["level_one", "half_plus_half_i_level_two", "i_level_two", "generic_level_three"])
    def test_one_evaluation_per_reduced_point(self, monkeypatch, tau, n, calls):
        evaluated = []
        j_numeric = md.j_numeric
        monkeypatch.setattr(md, "j_numeric", lambda t: evaluated.append(t) or j_numeric(t))
        j1, j2, same = md.fricke_pair(md.RationalPoint(*map(Fraction, tau)), n)
        assert len(evaluated) == calls
        assert (j1 is j2) == same == (calls == 1)

    def test_involution_swaps(self):
        rng = random.Random(7)
        with mpmath.workprec(256):
            for n in (2, 3):
                for _ in range(5):
                    tau = mpmath.mpc(rng.uniform(-0.4, 0.4), rng.uniform(0.8, 1.8))
                    a, b, _ = md.fricke_pair(tau, n)
                    c, d, _ = md.fricke_pair(-1 / (n * tau), n)
                    scale = max(mpmath.mpf(1), abs(a), abs(b))
                    assert abs(c - b) / scale < tol(-25)
                    assert abs(d - a) / scale < tol(-25)


class TestModularPolynomials:
    def test_level_one(self):
        phi = md.build_modular_polynomial(1)
        assert phi.coefficients == {(1, 0): 1, (0, 1): -1}

    @pytest.mark.parametrize("n", SOLVED_LEVELS)
    def test_integer_symmetric_of_degree_n_plus_one(self, n):
        phi = md.build_modular_polynomial(n)
        assert phi.degree() == n + 1
        assert phi.is_symmetric()
        assert all(isinstance(v, int) for v in phi.coefficients.values())

    @pytest.mark.parametrize("p", SOLVED_LEVELS)
    def test_kronecker_congruence(self, p):
        # Phi_p = (X^p - Y)(X - Y^p) mod p: a certificate that does not
        # read the q-series
        phi = md.build_modular_polynomial(p)
        residues = {m: c % p for m, c in phi.coefficients.items() if c % p}
        assert residues == {(p + 1, 0): 1, (0, p + 1): 1, (p, p): p - 1, (1, 1): p - 1}
        assert phi.coefficients[(p, p)] == -1
        assert phi.coefficients[(p, p - 1)] == 744 * p

    @pytest.mark.parametrize("n", [0, 4, 17])
    def test_unsupported_level(self, n):
        with pytest.raises(ValueError):
            md.build_modular_polynomial(n)

    @pytest.mark.parametrize("n", [2, 3])
    def test_vanishing_on_fricke_pairs(self, n):
        phi = md.build_modular_polynomial(n)
        rng = random.Random(11 + n)
        for _ in range(10):
            tau = mpmath.mpc(rng.uniform(-0.4, 0.4), rng.uniform(0.9, 1.9))
            x, y, _ = md.fricke_pair(tau, n)
            assert relative_residual(phi, x, y) < tol(-4)

    def test_vanishing_at_integer_pair(self):
        # 1728 and 287496 are the j-invariants of a 2-isogenous pair, so
        # the reconstructed polynomial vanishes there exactly over Z
        phi = md.build_modular_polynomial(2)
        exact = sum(c * 1728**i * 287496**j
                    for (i, j), c in phi.coefficients.items())
        assert exact == 0
        with mpmath.workprec(256):
            x, y = mpmath.mpf(1728), mpmath.mpf(287496)
            assert relative_residual(phi, x, y) < tol(-4)

    def test_off_curve_control(self):
        phi = md.build_modular_polynomial(2)
        x, y = mpmath.mpf(1728), mpmath.mpf(1729)
        assert relative_residual(phi, x, y) > tol(-8)

    def test_phi1_exact_on_diagonal(self):
        phi = md.build_modular_polynomial(1)
        assert sum(c * 5**i * 5**j for (i, j), c in phi.coefficients.items()) == 0

    def test_phi2_classical_table(self):
        # X^3 + Y^3 - X^2 Y^2 + 1488 (X^2 Y + X Y^2) - 162000 (X^2 + Y^2)
        # + 40773375 X Y + 8748000000 (X + Y) - 157464000000000
        assert md.build_modular_polynomial(2).coefficients == _symmetric({
            (3, 0): 1, (2, 2): -1, (2, 1): 1488, (2, 0): -162000,
            (1, 1): 40773375, (1, 0): 8748000000, (0, 0): -157464000000000,
        })

    def test_phi3_classical_table(self):
        assert md.build_modular_polynomial(3).coefficients == _symmetric({
            (4, 0): 1, (3, 3): -1, (3, 2): 2232, (3, 1): -1069956,
            (3, 0): 36864000, (2, 2): 2587918086, (2, 1): 8900222976000,
            (2, 0): 452984832000000, (1, 1): -770845966336000000,
            (1, 0): 1855425871872000000000,
        })

    def test_inconsistent_row_raises(self, monkeypatch):
        # no unknown of Phi_3 has pole order 5, so the q^-5 equation must
        # already vanish; put a stray 1 into the X^4 series there
        monomial_series = md._monomial_series

        def perturbed(n, monomials, top):
            series = monomial_series(n, monomials, top)
            series[(4, 0)][-5 + (n + 1) ** 2] += 1
            return series

        monkeypatch.setattr(md, "_monomial_series", perturbed)
        with pytest.raises(ArithmeticError) as info:
            md.build_modular_polynomial(3)
        assert str(info.value) == "level 3: inconsistent at q^-5"

    @pytest.mark.parametrize("n", md.LEVELS)
    def test_q_expansion_vanishes(self, n):
        phi = md.build_modular_polynomial(n)
        expansion = md.q_expansion(phi, 16)
        assert list(expansion) == list(range(-(n + 1) ** 2, 17))
        assert not any(expansion.values())

    def test_q_expansion_sees_a_changed_coefficient(self):
        phi = md.build_modular_polynomial(2)
        coefficients = dict(phi.coefficients)
        coefficients[(0, 0)] += 1
        expansion = md.q_expansion(md.ModularPolynomial(2, coefficients), 16)
        # the constant term moves by one, every other coefficient stays zero
        assert {e: c for e, c in expansion.items() if c} == {0: 1}

    def test_q_expansion_rejects_a_degree_beyond_n_plus_one(self):
        with pytest.raises(ValueError):
            md.q_expansion(md.ModularPolynomial(2, {(4, 0): 1, (0, 0): 1}), 16)


def test_imports_only_errors():
    # modular sits below every other layer of k3lab
    code = ("import sys, k3lab.modular; "
            "print(sorted(m for m in sys.modules if m.startswith('k3lab')))")
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                            timeout=60, cwd=Path(md.__file__).resolve().parents[1])
    assert result.returncode == 0, result.stderr
    assert result.stdout == "['k3lab', 'k3lab.errors', 'k3lab.modular']\n"


def _symmetric(half):
    return {**half, **{(j, i): c for (i, j), c in half.items()}}


class TestSuiteChecks:
    @pytest.mark.parametrize("key", [(2, 2), (1, 1)], ids=["X2Y2", "XY"])
    def test_phi3_check_fails_on_changed_coefficient(self, monkeypatch, key):
        build = md.build_modular_polynomial
        coefficients = dict(build(3).coefficients)
        coefficients[key] += 1  # diagonal: still integer, symmetric, degree 4
        mutated = md.ModularPolynomial(3, coefficients)
        monkeypatch.setattr(md, "build_modular_polynomial",
                            lambda n: mutated if n == 3 else build(n))
        checks = {c.id: c.status for c in suites.run_suite("modular").checks}
        assert checks == {"modular.j_values": "pass", "modular.phi2": "pass",
                          "modular.phi3": "fail"}

    @pytest.mark.parametrize("name, scale", [("eisenstein_e4", 240), ("eisenstein_e6", -504)],
                             ids=["E4", "E6"])
    def test_j_values_fails_on_changed_eisenstein_constant(self, monkeypatch, name, scale):
        # the q^1 coefficient of the series is the constant times sigma(1) = 1
        md.j_series(md.SERIES_ORDER)  # cached from the true E4 before the change
        series = getattr(md, name)

        def changed(order):
            c = list(series(order).coefficients)
            assert c[:2] == [1, scale]
            c[1] += 1
            return md.QSeries(tuple(c))
        monkeypatch.setattr(md, name, changed)
        checks = {c.id: c.status for c in suites.run_suite("modular").checks}
        assert checks == {"modular.j_values": "fail", "modular.phi2": "pass",
                          "modular.phi3": "pass"}

    def test_j_values_fails_on_each_changed_phi2_coefficient(self, monkeypatch):
        build = md.build_modular_polynomial
        true = build(2).coefficients
        for key in true:
            coefficients = dict(true)
            coefficients[key] += 1
            mutated = md.ModularPolynomial(2, coefficients)
            monkeypatch.setattr(md, "build_modular_polynomial",
                                lambda n: mutated if n == 2 else build(n))
            checks = {c.id: c for c in suites.run_suite("modular").checks}
            assert checks["modular.j_values"].status == "fail", key
            assert checks["modular.j_values"].witness.startswith("Phi_2(1728, Y) has")

    def test_one_build_per_level_per_run(self, monkeypatch):
        # j_values and phi2 share one Phi_2
        build, calls = md.build_modular_polynomial, collections.Counter()

        def counted(n):
            calls[n] += 1
            return build(n)
        monkeypatch.setattr(md, "build_modular_polynomial", counted)
        assert suites.run_suite("modular").status == "pass"
        assert calls == {2: 1, 3: 1}

    def test_j_values_is_exact(self, monkeypatch):
        # no floating point: the numeric j is never called
        def numeric(tau):
            raise AssertionError("j_numeric called")
        monkeypatch.setattr(md, "j_numeric", numeric)
        checks = {c.id: c.status for c in suites.run_suite("modular").checks}
        assert checks["modular.j_values"] == "pass"


class TestFamilyCoefficients:
    def test_level_one_at_i(self):
        a, b = si.ab_numeric(*md.fricke_pair(mpmath.mpc(0, 1), 1)[:2])
        assert abs(a - (-3)) < tol(-20)
        assert abs(b) < tol(-15)

    def test_level_two_at_i(self):
        a, b = si.ab_numeric(*md.fricke_pair(mpmath.mpc(0, 1), 2)[:2])
        # a^3 = -1728 * 287496 / 110592 = -35937/8 exactly
        assert abs(a**3 - mpmath.mpf(-35937) / 8) < tol(-10)
