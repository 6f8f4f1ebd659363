"""Numeric j, Fricke pairs, reconstructed modular polynomials, disk cache."""

import random

import mpmath
import pytest

from k3lab import modular as md
from k3lab.errors import DomainError


def tol(e):
    return mpmath.mpf(10) ** e


class TestJNumeric:
    def test_j_i(self):
        assert abs(md.j_numeric(mpmath.mpc(0, 1)) - 1728) < tol(-20)

    def test_j_rho(self):
        rho = (1 + mpmath.mpc(0, 1) * mpmath.sqrt(3)) / 2
        assert abs(md.j_numeric(rho)) < tol(-20)

    def test_j_2i(self):
        assert abs(md.j_numeric(mpmath.mpc(0, 2)) - 287496) < tol(-15)

    def test_lower_half_plane_rejected(self):
        with pytest.raises(DomainError):
            md.j_numeric(mpmath.mpc(0, -1))
        with pytest.raises(DomainError):
            md.j_numeric(mpmath.mpc(2, 0))

    def test_truncation_error_by_doubling(self):
        rng = random.Random(3)
        for _ in range(5):
            tau = mpmath.mpc(rng.uniform(-0.5, 0.5), rng.uniform(0.9, 2.0))
            coarse = md.j_numeric(tau, series_order=64)
            fine = md.j_numeric(tau, series_order=128)
            scale = max(mpmath.mpf(1), abs(fine))
            assert abs(coarse - fine) / scale < tol(-40)

    def test_modularity(self):
        rng = random.Random(5)
        with mpmath.workprec(256):
            for _ in range(10):
                tau = mpmath.mpc(rng.uniform(-1.5, 1.5), rng.uniform(0.4, 2.0))
                j = md.j_numeric(tau)
                scale = max(mpmath.mpf(1), abs(j))
                assert abs(md.j_numeric(tau + 1) - j) / scale < tol(-30)
                assert abs(md.j_numeric(-1 / tau) - j) / scale < tol(-30)


class TestQSeries:
    def test_minimum_order_enforced(self):
        with pytest.raises(ValueError):
            md.QSeries((1,) * 9, 8)

    def test_multiplication_truncates_consistently(self):
        a = md.QSeries(tuple(range(1, 22)), 20)
        b = md.QSeries(tuple(range(2, 19)), 16)
        prod = a * b
        assert prod.order == 16
        assert len(prod.coefficients) == 17
        # low-order coefficients agree with the full convolution
        assert prod.coefficients[0] == 1 * 2
        assert prod.coefficients[1] == 1 * 3 + 2 * 2

    def test_inverse_roundtrip(self):
        s = md.QSeries((1, -24, 252, -1472) + (0,) * 13, 16)
        prod = s * s.inverse()
        assert prod.coefficients == (1,) + (0,) * 16

    def test_j_series_head(self):
        assert md.j_series(16).coefficients[:3] == (1, 744, 196884)


class TestFrickePair:
    def test_level_one_fixed(self):
        a, b = md.fricke_pair(mpmath.mpc(0, 1), 1)
        assert abs(a - 1728) < tol(-20)
        assert abs(b - 1728) < tol(-20)

    def test_level_two_at_i(self):
        a, b = md.fricke_pair(mpmath.mpc(0, 1), 2)
        assert abs(a - 1728) < tol(-20)
        assert abs(b - 287496) < tol(-15)

    def test_level_two_fixed_point(self):
        with mpmath.workprec(256):
            tau = mpmath.mpc(0, 1) / mpmath.sqrt(2)
            a, b = md.fricke_pair(tau, 2)
            assert abs(a - b) < tol(-20)
            # classical CM value at this fixed point
            assert abs(a - 8000) < tol(-20)

    def test_involution_swaps(self):
        rng = random.Random(7)
        with mpmath.workprec(256):
            for n in (2, 3):
                for _ in range(5):
                    tau = mpmath.mpc(rng.uniform(-0.4, 0.4), rng.uniform(0.8, 1.8))
                    a, b = md.fricke_pair(tau, n)
                    c, d = md.fricke_pair(-1 / (n * tau), n)
                    scale = max(mpmath.mpf(1), abs(a), abs(b))
                    assert abs(c - b) / scale < tol(-25)
                    assert abs(d - a) / scale < tol(-25)


class TestModularPolynomials:
    def test_level_one(self):
        phi = md.build_modular_polynomial(1)
        assert phi.coefficients == {(1, 0): 1, (0, 1): -1}

    def test_level_two_properties(self):
        phi = md.build_modular_polynomial(2)
        assert phi.degree() == 3
        assert phi.is_symmetric()
        assert phi.coefficients[(2, 2)] == -1
        assert all(isinstance(v, int) for v in phi.coefficients.values())

    def test_level_three_properties(self):
        phi = md.build_modular_polynomial(3)
        assert phi.degree() == 4
        assert phi.is_symmetric()

    def test_unsupported_level(self):
        with pytest.raises(ValueError):
            md.build_modular_polynomial(4)

    @pytest.mark.parametrize("n", [2, 3])
    def test_vanishing_on_fricke_pairs(self, n):
        phi = md.build_modular_polynomial(n)
        rng = random.Random(11 + n)
        for _ in range(10):
            tau = mpmath.mpc(rng.uniform(-0.4, 0.4), rng.uniform(0.9, 1.9))
            x, y = md.fricke_pair(tau, n)
            val = abs(md.eval_modpoly(phi, x, y))
            assert val / phi.coefficient_scale(x, y) < tol(-4)

    def test_vanishing_at_integer_pair(self):
        # 1728 and 287496 are the j-invariants of a 2-isogenous pair, so
        # the reconstructed polynomial vanishes there exactly over Z
        phi = md.build_modular_polynomial(2)
        exact = sum(c * 1728**i * 287496**j
                    for (i, j), c in phi.coefficients.items())
        assert exact == 0
        with mpmath.workprec(256):
            x, y = mpmath.mpf(1728), mpmath.mpf(287496)
            val = abs(md.eval_modpoly(phi, x, y))
            assert val / phi.coefficient_scale(x, y) < tol(-4)

    def test_off_curve_control(self):
        phi = md.build_modular_polynomial(2)
        x, y = mpmath.mpf(1728), mpmath.mpf(1729)
        val = abs(md.eval_modpoly(phi, x, y))
        assert val / phi.coefficient_scale(x, y) > tol(-8)

    def test_phi1_exact_on_diagonal(self):
        phi = md.build_modular_polynomial(1)
        assert md.eval_modpoly(phi, mpmath.mpf(5), mpmath.mpf(5)) == 0


class TestCache:
    def test_roundtrip(self, tmp_path):
        phi = md.build_modular_polynomial(2)
        path = md.save_modular_polynomial(phi, tmp_path)
        assert path.name == "modpoly_2.txt"
        text = path.read_text()
        assert text.startswith("n=2\n")
        assert text.endswith("\n")
        loaded = md.load_modular_polynomial(2, tmp_path)
        assert loaded == phi

    def test_line_format(self, tmp_path):
        md.save_modular_polynomial(md.build_modular_polynomial(1), tmp_path)
        lines = (tmp_path / "modpoly_1.txt").read_text().splitlines()
        assert lines[0] == "n=1"
        assert lines[1:] == ["0 1 -1", "1 0 1"]  # lexicographic (i, j)

    def test_modular_polynomial_uses_cache(self, tmp_path):
        first = md.modular_polynomial(2, tmp_path)
        # corrupt one coefficient on disk; the cached version must be served
        path = md.cache_path(2, tmp_path)
        mangled = path.read_text().replace("1488", "1489")
        path.write_text(mangled)
        second = md.modular_polynomial(2, tmp_path)
        assert second != first
        assert second.coefficients[(1, 2)] == 1489

    def test_env_var_controls_default(self, tmp_path, monkeypatch):
        monkeypatch.setenv("K3LAB_CACHE_DIR", str(tmp_path))
        assert md.default_cache_dir() == tmp_path
        assert md.cache_path(3) == tmp_path / "modpoly_3.txt"


class TestFamilyCoefficients:
    def test_level_one_at_i(self):
        a, b = md.family_coefficients(mpmath.mpc(0, 1), 1)
        assert abs(a - (-3)) < tol(-20)
        assert abs(b) < tol(-15)

    def test_level_two_at_i(self):
        a, b = md.family_coefficients(mpmath.mpc(0, 1), 2)
        # a^3 = -1728 * 287496 / 110592 = -35937/8 exactly
        assert abs(a**3 - mpmath.mpf(-35937) / 8) < tol(-10)

    @pytest.mark.parametrize("n", [2, 5, 20, 50, 100, 200])
    def test_fricke_fixed_point_degenerate(self, n):
        # at tau = i/sqrt(n), j(tau) = j(-1/(n tau)), so the member is
        # degenerate at every level, however large a and b are
        from k3lab.weierstrass import is_degenerate_numeric
        with mpmath.workprec(256):
            a, b = md.family_coefficients(mpmath.mpc(0, 1) / mpmath.sqrt(n), n)
            assert is_degenerate_numeric(a, b)

    def test_off_fixed_point_not_degenerate(self):
        from k3lab.weierstrass import is_degenerate_numeric
        a, b = md.family_coefficients(mpmath.mpc(0, 1), 2)
        assert not is_degenerate_numeric(a, b)

    def test_generic_tau_not_degenerate(self):
        from k3lab.weierstrass import is_degenerate_numeric
        a, b = md.family_coefficients(mpmath.mpc("0.31", "1.37"), 2)
        assert not is_degenerate_numeric(a, b, tolerance=tol(-12))
