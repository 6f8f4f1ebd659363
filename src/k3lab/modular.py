"""Numeric j-function, Fricke pairs, and small classical modular polynomials.

The j-function is evaluated through its integer q-expansion: with
E4 = 1 + 240 sum sigma_3(n) q^n and the weight-12 cusp form written as
q * prod (1 - q^n)^24,

    j(q) = E4(q)^3 / (q * prod(1 - q^n)^24),

truncated at order N (default 64) after reducing the argument into the
standard fundamental domain, where |q| <= exp(-pi sqrt(3)) makes the tail
negligible at 256-bit precision.  The truncation error is bounded
empirically by doubling N (see the test suite).

Modular polynomials are reconstructed, not transcribed: the coset product
prod (X - j(gamma tau)) over the n+1 degree-n isogenies is expanded at
sample points on a vertical line, the coefficient functions of Y = j(tau)
are fitted by least squares at high precision, rounded to integers, and
audited (residue < 1e-6 of each coefficient's scale).  Level 1 is X - Y;
levels 2 and 3 are supported, and results are cached on disk.

The one-parameter family members here have Picard rank 19 for very general
tau; that rank statement itself is out of computational reach and is not
asserted anywhere, only the coefficients and degeneracy flags are computed.
"""

from __future__ import annotations

import os
import tempfile
from dataclasses import dataclass
from pathlib import Path

import mpmath

from .errors import DomainError, PrecisionError
from .shioda_inose import ab_numeric

DEFAULT_PREC_BITS = 256
DEFAULT_SERIES_ORDER = 64


@dataclass(frozen=True)
class QSeries:
    """Truncated integer power series in q, inclusive of order N >= 16."""

    coefficients: tuple  # c_0 ... c_N
    order: int

    def __post_init__(self):
        if self.order < 16:
            raise ValueError("series order must be at least 16")
        if len(self.coefficients) != self.order + 1:
            raise ValueError("coefficient count must be order + 1")

    def __mul__(self, other: "QSeries") -> "QSeries":
        n = min(self.order, other.order)
        out = [0] * (n + 1)
        for i, a in enumerate(self.coefficients[: n + 1]):
            if a == 0:
                continue
            for j in range(0, n + 1 - i):
                b = other.coefficients[j]
                if b:
                    out[i + j] += a * b
        return QSeries(tuple(out), n)

    def power(self, k: int) -> "QSeries":
        result = QSeries((1,) + (0,) * self.order, self.order)
        base = self
        while k:
            if k & 1:
                result = result * base
            k >>= 1
            if k:
                base = base * base
        return result

    def inverse(self) -> "QSeries":
        if self.coefficients[0] != 1:
            raise ValueError("inverse needs constant term 1")
        n = self.order
        out = [0] * (n + 1)
        out[0] = 1
        for m in range(1, n + 1):
            out[m] = -sum(self.coefficients[k] * out[m - k] for k in range(1, m + 1))
        return QSeries(tuple(out), n)

    def evaluate(self, q):
        total = mpmath.mpf(0)
        for c in reversed(self.coefficients):
            total = total * q + c
        return total


def _sigma3(n: int) -> int:
    return sum(d**3 for d in range(1, n + 1) if n % d == 0)


def eisenstein_e4(order: int = DEFAULT_SERIES_ORDER) -> QSeries:
    return QSeries(tuple([1] + [240 * _sigma3(n) for n in range(1, order + 1)]), order)


def eta_product_24(order: int = DEFAULT_SERIES_ORDER) -> QSeries:
    """prod_{n>=1} (1 - q^n)^24, truncated."""
    coeffs = [1] + [0] * order
    current = QSeries(tuple(coeffs), order)
    for n in range(1, order + 1):
        factor = [0] * (order + 1)
        factor[0] = 1
        if n <= order:
            factor[n] = -1
        current = current * QSeries(tuple(factor), order)
    return current.power(24)


def j_series(order: int = DEFAULT_SERIES_ORDER) -> QSeries:
    """Integer series S with j(q) = S(q)/q; starts 1, 744, 196884, ..."""
    return eisenstein_e4(order).power(3) * eta_product_24(order).inverse()


_SERIES_CACHE: dict = {}


def _cached_series(order: int) -> QSeries:
    if order not in _SERIES_CACHE:
        _SERIES_CACHE[order] = j_series(order)
    return _SERIES_CACHE[order]


def reduce_to_fundamental_domain(tau, max_steps: int = 4000):
    """Translate and invert until |Re| <= 1/2 and |tau| >= 1."""
    tau = mpmath.mpc(tau)
    if mpmath.im(tau) <= 0:
        raise DomainError("tau must lie in the upper half plane")
    for _ in range(max_steps):
        tau = tau - mpmath.floor(mpmath.re(tau) + mpmath.mpf(1) / 2)
        if abs(tau) < 1:
            tau = -1 / tau
        else:
            return tau
    raise PrecisionError("fundamental domain reduction did not converge")


def j_numeric(tau, prec_bits: int = DEFAULT_PREC_BITS,
              series_order: int = DEFAULT_SERIES_ORDER):
    """j(tau) at the given working precision (>= 64 bits)."""
    if prec_bits < 64:
        raise ValueError("precision below 64 bits is not supported")
    with mpmath.workprec(prec_bits):
        t = reduce_to_fundamental_domain(tau)
        q = mpmath.exp(2j * mpmath.pi * t)
        s = _cached_series(series_order)
        return s.evaluate(q) / q


def fricke_pair(tau, n: int, prec_bits: int = DEFAULT_PREC_BITS):
    """(j(tau), j(-1/(n tau)))."""
    if n < 1:
        raise ValueError("the level must be a positive integer")
    with mpmath.workprec(prec_bits):
        tau = mpmath.mpc(tau)
        if mpmath.im(tau) <= 0:
            raise DomainError("tau must lie in the upper half plane")
        return j_numeric(tau, prec_bits), j_numeric(-1 / (n * tau), prec_bits)


# ---------------------------------------------------------------------------
# Modular polynomials
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ModularPolynomial:
    n: int
    coefficients: dict  # (i, j) -> int, exponents of (X, Y)

    def degree(self) -> int:
        return max(max(i, j) for i, j in self.coefficients)

    def is_symmetric(self) -> bool:
        return all(self.coefficients.get((j, i), 0) == c
                   for (i, j), c in self.coefficients.items())

    def evaluate(self, x, y):
        total = mpmath.mpf(0)
        for (i, j), c in sorted(self.coefficients.items()):
            total += c * x**i * y**j
        return total

    def coefficient_scale(self, x, y):
        """Largest monomial magnitude at (x, y), for relative residues."""
        best = mpmath.mpf(1)
        for (i, j), c in self.coefficients.items():
            m = abs(c * x**i * y**j)
            if m > best:
                best = m
        return best


def eval_modpoly(phi: ModularPolynomial, x, y):
    return phi.evaluate(x, y)


def _coset_values(tau, n: int, prec_bits: int):
    """j at the n+1 images under the degree-n cosets (n prime)."""
    values = [j_numeric(n * tau, prec_bits)]
    for k in range(n):
        values.append(j_numeric((tau + k) / n, prec_bits))
    return values


def build_modular_polynomial(n: int, prec_bits: int = DEFAULT_PREC_BITS,
                             rounding_tolerance=1e-6) -> ModularPolynomial:
    """Phi_1 = X - Y; Phi_2, Phi_3 reconstructed from coset products."""
    if n == 1:
        return ModularPolynomial(1, {(1, 0): 1, (0, 1): -1})
    if n not in (2, 3):
        raise ValueError("only levels 1, 2 and 3 are supported")
    with mpmath.workprec(prec_bits):
        deg = n + 1
        sample_count = deg + 4  # oversampled for the least-squares audit
        taus = [mpmath.mpc(0, mpmath.mpf("1.1") + mpmath.mpf("1.4") * k / (sample_count - 1))
                for k in range(sample_count)]
        tol = mpmath.mpf(rounding_tolerance)
        ys = []
        prods = []  # per sample: coefficients of X^0 .. X^deg of the coset product
        for tau in taus:
            y = j_numeric(tau, prec_bits)
            if abs(mpmath.im(y)) / max(mpmath.mpf(1), abs(y)) > tol:
                raise PrecisionError("sample j-value is not real")
            ys.append(mpmath.re(y))
            roots = _coset_values(tau, n, prec_bits)
            coeffs = [mpmath.mpc(1)]
            for r in roots:
                nxt = [mpmath.mpc(0)] * (len(coeffs) + 1)
                for idx, ccoef in enumerate(coeffs):
                    nxt[idx] += ccoef * (-r)
                    nxt[idx + 1] += ccoef
                coeffs = nxt
            prods.append(coeffs)
        coefficients = {(deg, 0): 1}
        for i in range(deg):
            # fit coefficient of X^i as a degree-deg polynomial in Y
            a = mpmath.matrix(sample_count, deg + 1)
            rhs = mpmath.matrix(sample_count, 1)
            for srow in range(sample_count):
                for jpow in range(deg + 1):
                    a[srow, jpow] = ys[srow] ** jpow
                value = prods[srow][i]
                if abs(mpmath.im(value)) / max(mpmath.mpf(1), abs(value)) > tol:
                    raise PrecisionError("coset product has a non-real coefficient")
                rhs[srow] = mpmath.re(value)
            sol, _ = mpmath.qr_solve(a, rhs)
            for jpow in range(deg + 1):
                value = mpmath.re(sol[jpow])
                rounded = int(mpmath.nint(value))
                scale = max(mpmath.mpf(1), abs(mpmath.mpf(rounded)))
                if abs(value - rounded) / scale > tol:
                    raise PrecisionError(
                        f"rounding residue too large for X^{i} Y^{jpow}: {value}"
                    )
                if rounded:
                    coefficients[(i, jpow)] = rounded
        return ModularPolynomial(n, coefficients)


# ---------------------------------------------------------------------------
# Disk cache
# ---------------------------------------------------------------------------


def default_cache_dir() -> Path:
    env = os.environ.get("K3LAB_CACHE_DIR")
    if env:
        return Path(env)
    return Path.home() / ".cache" / "k3lab"


def cache_path(n: int, cache_dir=None) -> Path:
    base = Path(cache_dir) if cache_dir else default_cache_dir()
    return base / f"modpoly_{n}.txt"


def save_modular_polynomial(phi: ModularPolynomial, cache_dir=None) -> Path:
    """Write the cache file atomically (temp file, then rename)."""
    path = cache_path(phi.n, cache_dir)
    path.parent.mkdir(parents=True, exist_ok=True)
    lines = [f"n={phi.n}"]
    for (i, j), coeff in sorted(phi.coefficients.items()):
        lines.append(f"{i} {j} {coeff}")
    payload = "\n".join(lines) + "\n"
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=".modpoly_tmp")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(payload)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
    return path


def load_modular_polynomial(n: int, cache_dir=None) -> "ModularPolynomial | None":
    """The cached Phi_n, or None on a miss.

    A file that does not parse, or whose polynomial is not of degree n+1,
    monic in X and symmetric (Phi_1 = X - Y is antisymmetric instead), is a
    miss too, so the caller rebuilds it and overwrites the file.
    """
    path = cache_path(n, cache_dir)
    if not path.exists():
        return None
    lines = path.read_text().splitlines()
    if not lines or lines[0] != f"n={n}":
        return None
    coefficients = {}
    try:
        for line in lines[1:]:
            if not line.strip():
                continue
            i, j, coeff = line.split()
            coefficients[(int(i), int(j))] = int(coeff)
    except ValueError:
        return None
    phi = ModularPolynomial(n, coefficients)
    monic = coefficients.get((n + 1, 0)) == 1 and all(
        i <= n for i, j in coefficients if (i, j) != (n + 1, 0))
    if not monic or phi.degree() != n + 1:
        return None
    if not (phi.is_symmetric() if n > 1 else coefficients == {(1, 0): 1, (0, 1): -1}):
        return None
    return phi


def modular_polynomial(n: int, cache_dir=None,
                       prec_bits: int = DEFAULT_PREC_BITS) -> ModularPolynomial:
    """Load from cache or reconstruct and cache."""
    cached = load_modular_polynomial(n, cache_dir)
    if cached is not None:
        return cached
    phi = build_modular_polynomial(n, prec_bits)
    save_modular_polynomial(phi, cache_dir)
    return phi


def family_coefficients(tau, n: int, prec_bits: int = DEFAULT_PREC_BITS):
    """Principal-branch (a, b) of the family member attached to
    (j(tau), j(-1/(n tau)))."""
    j1, j2 = fricke_pair(tau, n, prec_bits)
    return ab_numeric(j1, j2, prec_bits)
