"""Numeric j-function, Fricke pairs, and small classical modular polynomials.

The j-function is evaluated through its integer q-expansion: with
E4 = 1 + 240 sum sigma_3(n) q^n and the weight-12 cusp form written as
q * prod (1 - q^n)^24,

    j(q) = E4(q)^3 / (q * prod(1 - q^n)^24),

truncated after reducing the argument into the standard fundamental domain,
where |q| <= exp(-pi sqrt(3)).  The reduction is exact: a tau read from
decimal text is a point of Q(i) (RationalPoint), an mpf is dyadic, and
Gauss's reduction of the binary quadratic form whose root is tau runs in
integers, so the reduced point stays exact until q is built from it (q_at).

The truncation order rests on a proven bound.  The coefficients c(n) of j
satisfy c(n) <= e^(4 pi sqrt n) / (sqrt 2 n^(3/4)) (1 + 0.055/n)
(Brisebarre and Philibert, "Effective lower and upper bounds for the Fourier
coefficients of powers of the modular invariant j", J. Ramanujan Math. Soc.
20, 2005), so every coefficient s_k of S = q j satisfies
|s_k| <= e^(4 pi sqrt k).  At the reduced point t, with y = Im t, the tail
of S beyond q^N is then at most sum_{k > N} e^(4 pi sqrt k - 2 pi y k).
`truncation_order` takes the least N with e^(4 pi x - 2 pi y x^2) <=
2^-(W + 1) at x = sqrt(N + 1), W = PREC_BITS + GUARD_BITS: the root of that
quadratic in x, in closed form.  The exponent is concave in k and falls
past k = N + 1 by at least 2 pi (y - 1/x) > 4.5 per step, so the whole tail
is below 2^-W.  N is 53 at y = sqrt(3)/2, 45 at i, 20 at y = 2 and 0 once
y > 34; the series is cached once, at SERIES_ORDER = 64, and j_numeric
sums its first N + 1 coefficients once, by Horner's rule over Python
integers scaled by 2^W (`_fixed_sum`, which QSeries.evaluate shares), and
divides the sum by q once, on mpmath's raw mpc layer.  At a reduced q that
sum is within 2^(14 - W) of the truncated series, so it is within
2^(14 - W) + 2^-W of S(q).  That is far below the rounding that q itself
carries, relative to S, except near rho = e^(2 pi i/3), where S and j
vanish; j_numeric states the bound with its absolute terms.

This module alone fixes the working precision, the series order and the
one tolerance, `CHOP_TOL`, below which a part of a numeric value is
rounding noise; no two j-values are ever compared numerically.  mpmath
is imported by the numeric functions when they first run, so a process that
only verifies (`k3lab verify`, `report`, `modpoly`) never loads it; of the
CLI commands only `family` does.

Modular polynomials are derived, not transcribed: Phi_n is solved from
the linear conditions that Phi_n(j(q), j(q^n)) = 0 puts on the q-expansion,
computed over the same integer series (the classical q-expansion method;
Elkies, "Elliptic and modular curves over finite fields and related
computational issues", 1998).  The conditions are triangular in pole order,
so the integer coefficients follow by back-substitution, without division.
Level 1 is X - Y; the other LEVELS are the primes up to 13, the levels at
which Phi_n has degree n+1.

Two CM values are decided exactly, with no floating point, by the check
`modular.j_values`, on classical facts.  j(i) = 1728: E4^3 - E6^2 and
1728 Delta (Delta = q prod (1 - q^n)^24, E6 = 1 - 504 sum sigma_5(n) q^n)
are weight-12 forms on SL_2(Z), so by Sturm's bound they are equal once
q^0 and q^1 agree; E6(-1/tau) = tau^6 E6(tau) gives E6(i) = 0, so
j(i) = 1728 + E6(i)^2/Delta(i) = 1728.  j(2i) = 287496: it is a root of
Phi_2(1728, Y) = (Y - 1728)(Y - 287496)^2, and not 1728, since i and 2i
are distinct points of the fundamental domain.

The one-parameter family members here have Picard rank 19 for very general
tau; that rank statement itself is out of computational reach and is not
asserted anywhere, only the coefficients and degeneracy flags are computed.
"""

from __future__ import annotations

import decimal
import functools
import math
from decimal import Decimal
from fractions import Fraction
from typing import NamedTuple

from . import LEVELS
from .errors import DomainError, PrecisionError

PREC_BITS = 256
# The length of the cached j-series; truncation_order is at most 53 on the
# fundamental domain.
SERIES_ORDER = 64
# Fractional bits of the fixed-point q-series sum beyond PREC_BITS.
GUARD_BITS = 32
# a = (W + 1) ln 2 / (2 pi), W = PREC_BITS + GUARD_BITS: truncation_order's
# target 2^-(W + 1) for the first omitted term, as an exponent over 2 pi.
_TAIL_TARGET = (PREC_BITS + GUARD_BITS + 1) * math.log(2) / (2 * math.pi)


class QSeries(NamedTuple):
    """Truncated integer power series in q, inclusive of its order N."""

    coefficients: tuple  # c_0 ... c_N

    @property
    def order(self) -> int:
        return len(self.coefficients) - 1

    def __mul__(self, other: "QSeries") -> "QSeries":
        n = min(self.order, other.order)
        theirs = other.coefficients
        out = [0] * (n + 1)
        for i, a in enumerate(self.coefficients[: n + 1]):
            if a == 0:
                continue
            for j in range(0, n + 1 - i):
                b = theirs[j]
                if b:
                    out[i + j] += a * b
        return QSeries(tuple(out))

    def power(self, k: int) -> "QSeries":
        result = QSeries((1,) + (0,) * self.order)
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
        ours = self.coefficients
        out = [0] * (n + 1)
        out[0] = 1
        for m in range(1, n + 1):
            out[m] = -sum(ours[k] * out[m - k] for k in range(1, m + 1))
        return QSeries(tuple(out))

    def evaluate(self, q):
        """The sum at the mpc q (_fixed_sum), rounded to the working
        precision once at the end."""
        import mpmath

        w = PREC_BITS + GUARD_BITS
        re, im = _fixed_sum(self.coefficients, q._mpc_)
        return mpmath.mpc(mpmath.mpf((re, -w)), mpmath.mpf((im, -w)))


def _fixed_sum(coefficients, q) -> tuple:
    """The sum of the integer series `coefficients` at the raw mpc q, by
    Horner's rule over Python integers scaled by 2^W, W = PREC_BITS +
    GUARD_BITS: integers (re, im) such that the sum of the series at q is
    within 2^(14 - W) of (re + i im) 2^-W.

    Made for a reduced q, |q| <= exp(-pi sqrt(3)) < 1/200, where j_series
    has |S'(q)| < 2^12.  Truncating q to W fractional bits moves the sum by
    less than 2^(13 - W).  Each step truncates by less than 2^-W per part,
    and the later steps multiply that by q, so the rounding totals less than
    2^(1 - W)."""
    from mpmath.libmp import to_fixed

    w = PREC_BITS + GUARD_BITS
    qr, qi = to_fixed(q[0], w), to_fixed(q[1], w)
    re = im = 0
    for c in reversed(coefficients):
        re, im = ((re * qr - im * qi) >> w) + (c << w), (re * qi + im * qr) >> w
    return re, im


def _sigma(k: int, n: int) -> int:
    return sum(d**k for d in range(1, n + 1) if n % d == 0)


def eisenstein_e4(order: int) -> QSeries:
    return QSeries(tuple([1] + [240 * _sigma(3, n) for n in range(1, order + 1)]))


def eisenstein_e6(order: int) -> QSeries:
    return QSeries(tuple([1] + [-504 * _sigma(5, n) for n in range(1, order + 1)]))


def eta_product_24(order: int) -> QSeries:
    """prod_{n>=1} (1 - q^n)^24, truncated."""
    coeffs = [1] + [0] * order
    for n in range(1, order + 1):
        # times (1 - q^n), in place: from the top down, c[k - n] is still
        # the coefficient before this factor
        for k in range(order, n - 1, -1):
            coeffs[k] -= coeffs[k - n]
    return QSeries(tuple(coeffs)).power(24)


@functools.cache
def j_series(order: int) -> QSeries:
    """Integer series S with j(q) = S(q)/q; starts 1, 744, 196884, ..."""
    return eisenstein_e4(order).power(3) * eta_product_24(order).inverse()


def truncation_order(im) -> int:
    """The order N at which j_numeric truncates S = q j at a reduced point
    with Im = im >= sqrt(3)/2: the least N with e^(4 pi x - 2 pi y x^2) <=
    2^-(W + 1) at x = sqrt(N + 1), which bounds the tail beyond q^N by 2^-W
    (module docstring).  With a = (W + 1) ln 2 / (2 pi), the larger root of
    y x^2 - 2 x - a is (1 + sqrt(1 + a y)) / y, and N + 1 is the least
    integer above its square.  y is float(im) lowered by 2^-32 of itself,
    which raises the square by more than the float rounding can lower it."""
    y = float(im) * (1 - 2.0**-32)
    x = (1 + math.sqrt(1 + _TAIL_TARGET * y)) / y
    return int(x * x)


# The reader's size bound.  A part of tau, read from decimal text or taken
# from an mpmath number, is zero or lies between 2^-TAU_FLOOR_BITS and
# TAU_PART_LIMIT = 2^(PREC_BITS/2 - 16) in absolute value, and Im(tau) after
# reduction is at most TAU_PART_LIMIT (j_numeric).  Reduction is exact, so
# the bound on the parts costs no precision; it keeps the exact numbers that
# reach reduction within a few thousand bits.
TAU_PART_BITS = PREC_BITS // 2 - 16
TAU_PART_LIMIT = 2**TAU_PART_BITS
TAU_FLOOR_BITS = 4096
_LOG2_10 = math.log2(10)


class RationalPoint(NamedTuple):
    """x + iy with x, y rational: a point of Q(i), held exactly."""

    real: Fraction
    imag: Fraction


# Five significant digits, at any exponent.
_SHOWN = decimal.Context(prec=5, Emax=decimal.MAX_EMAX, Emin=decimal.MIN_EMIN)


def _shown(x) -> str:
    """A Decimal, an mpf or a Fraction to five significant digits."""
    if hasattr(x, "_mpf_"):
        import mpmath

        return mpmath.nstr(x, 5)
    if isinstance(x, Fraction):
        x = _SHOWN.divide(Decimal(x.numerator), x.denominator)
    return f"{_SHOWN.normalize(x):g}"


def exact_part(value, name: str) -> Fraction:
    """The part `name` of tau, exactly: from decimal text, from an mpf (every
    mpf is dyadic) or from a Python number.  Outside the reader's size bound
    it raises PrecisionError.  Text and mpf are first held to the bound by
    their exponent, with a margin, so that no Fraction is built for a part
    such as 1e-999999999, which would need a 10^9-digit integer."""
    scale = 0  # about log2 |value|, while value is not yet a Fraction
    if isinstance(value, str):
        try:
            value = Decimal(value)
        except ArithmeticError:  # an exponent beyond 10^18
            raise PrecisionError(f"{name} = {value} has an exponent too large to read") from None
        if value:
            scale = value.adjusted() * _LOG2_10
    elif hasattr(value, "_mpf_"):
        _, man, exp, bc = value._mpf_
        if not man and exp:
            raise ValueError(f"{name} is not finite")
        scale = exp + bc
    if not -TAU_FLOOR_BITS - 8 < scale < TAU_PART_BITS + 8:
        _out_of_bound(name, value, scale > 0)
    if hasattr(value, "_mpf_"):
        from mpmath import libmp

        value = Fraction(*libmp.to_rational(value._mpf_))
    value = Fraction(value)
    if value and not Fraction(1, 1 << TAU_FLOOR_BITS) <= abs(value) <= TAU_PART_LIMIT:
        _out_of_bound(name, value, abs(value) > 1)
    return value


def _out_of_bound(name: str, value, above: bool):
    if above:
        raise PrecisionError(f"{name} = {_shown(value)} is beyond 2^{TAU_PART_BITS}, "
                             f"the limit of {PREC_BITS}-bit precision")
    raise PrecisionError(f"{name} = {_shown(value)} is below 2^-{TAU_FLOOR_BITS}, "
                         "the smallest part read exactly")


def _form(tau) -> tuple:
    """(a, b, c, s) with tau = (-b + i s)/(2a): tau is the root in the upper
    half plane of the positive definite form a X^2 + b X Y + c Y^2, whose
    discriminant is -s^2.  tau is a RationalPoint or a number (exact_part)."""
    if isinstance(tau, RationalPoint):
        x, y = tau
    else:
        x, y = exact_part(tau.real, "Re(tau)"), exact_part(tau.imag, "Im(tau)")
    if y <= 0:
        raise DomainError("tau must lie in the upper half plane")
    d = math.lcm(x.denominator, y.denominator)
    u, v = x.numerator * (d // x.denominator), y.numerator * (d // y.denominator)
    return d * d, -2 * u * d, u * u + v * v, 2 * v * d


def _reduced(a: int, b: int, c: int, s: int) -> RationalPoint:
    """The point (-b + i s)/(2a) of the form (a, b, c), moved into the
    fundamental domain by Gauss's reduction of the form: translate until
    -a < b <= a (tau -> tau - k takes b to b + 2ak), and while a > c, swap a
    and c (tau -> -1/tau takes (a, b, c) to (c, -b, a)); if then a = c, make
    b >= 0.  Every proper class of positive definite forms holds exactly one
    form so reduced (Cox, "Primes of the form x^2 + ny^2", Theorem 2.8), and
    proportional forms have the same point, so tau and g tau end at the same
    point for every g in SL_2(Z): Re in [-1/2, 1/2), and Re <= 0 on |tau| = 1.
    All in integers; the Fractions are made once, at the end."""
    while True:
        k = (a - b) // (2 * a)
        if k:
            c += k * (a * k + b)
            b += 2 * a * k
        if a <= c:
            break
        a, b, c = c, -b, a
    if a == c and b < 0:
        b = -b
    return RationalPoint(Fraction(-b, 2 * a), Fraction(s, 2 * a))


def reduce_to_fundamental_domain(tau) -> RationalPoint:
    """The canonical representative of the SL_2(Z)-orbit of tau, exactly:
    Re in [-1/2, 1/2), |tau| >= 1, and Re <= 0 on |tau| = 1.  tau is a
    RationalPoint, or a number that exact_part converts exactly, within the
    reader's size bound; nothing is rounded, so j_numeric builds q from the
    exact point (q_at)."""
    return _reduced(*_form(tau))


# A numeric value below CHOP_TOL in absolute value, or a real or imaginary
# part below CHOP_TOL max(1, |value|), is rounding noise: `chop` sets it to
# zero before the value is printed or a and b are built from it.  The
# double nearest 10^-40.
CHOP_TOL = 1e-40
# A nonzero raw mpf part (sign, man, exp, bc) lies in [2^(e - 1), 2^e), e =
# exp + bc, and CHOP_TOL < 2^-(_CHOP_GAP + 12).  A part whose e is above
# -_CHOP_GAP and above the other part's e - _CHOP_GAP is then no noise: its
# square exceeds CHOP_TOL^2 max(1, |value|^2) by more than 2^20.  A value
# whose parts both pass (a real value counts its one part twice) is kept.
_CHOP_GAP = math.floor(-math.log2(CHOP_TOL)) - 12


def chop(value):
    """The mpf or mpc `value` with its noise set to zero (CHOP_TOL): 0, its
    real part alone, i times its imaginary part alone, or `value`.  A value
    whose parts are nonzero and all far from noise is returned on their
    binary exponents alone (_CHOP_GAP); the rest are decided on the exact
    squares of the parts.  The part kept keeps all its bits."""
    is_complex = hasattr(value, "_mpc_")
    re, im = value._mpc_ if is_complex else (value._mpf_, value._mpf_)
    if re[1] and im[1]:
        e, f = re[2] + re[3], im[2] + im[3]
        if min(e, f) > max(0, e, f) - _CHOP_GAP:
            return value
    from mpmath import mp
    from mpmath.libmp import fone, fzero, mpf_add, mpf_lt, mpf_mul

    if not is_complex:
        im = fzero
    tol2, re2, im2 = _chop_tol2(), mpf_mul(re, re), mpf_mul(im, im)
    norm = mpf_add(re2, im2)
    if mpf_lt(norm, tol2):
        return mp.zero
    if not is_complex:
        return value
    bound = tol2 if mpf_lt(norm, fone) else mpf_mul(tol2, norm)
    if mpf_lt(im2, bound):
        return mp.make_mpf(re)
    if mpf_lt(re2, bound):
        return mp.make_mpc((fzero, im))
    return value


@functools.cache
def _chop_tol2() -> tuple:
    """CHOP_TOL^2 as a raw mpf, exactly, made once per process."""
    from mpmath.libmp import from_float, mpf_mul

    tol = from_float(CHOP_TOL)
    return mpf_mul(tol, tol)


def q_at(t: RationalPoint):
    """q = exp(2 pi i t) = e^(-2 pi y) (cos 2 pi x + i sin 2 pi x) at the
    exact point t = x + iy, an mpc at PREC_BITS.  The exponent and the
    angle are computed at PREC_BITS + 16 bits and each part is then rounded
    to nearest, so q is within (1.001 + 2 pi y 2^-14) 2^-PREC_BITS of its
    exact value, relative to |q|.  Built on mpmath's mpf layer: converting t
    to an mpc and taking a complex exp costs about twice as much."""
    from mpmath import libmp, mp

    wp = PREC_BITS + 16
    two_pi = libmp.mpf_shift(libmp.mpf_pi(wp), 1)
    angle, height = (libmp.mpf_mul(two_pi, libmp.from_rational(v.numerator, v.denominator, wp),
                                   wp) for v in t)
    modulus = libmp.mpf_exp(libmp.mpf_neg(height), wp)
    return mp.make_mpc(tuple(libmp.mpf_mul(modulus, part, PREC_BITS, libmp.round_nearest)
                             for part in libmp.mpf_cos_sin(angle, wp)))


def j_numeric(tau):
    """j(tau) = S(q)/q at PREC_BITS, from the exactly reduced point t.

    t itself is exact; q = exp(2 pi i t) is rounded once, to PREC_BITS, with
    a relative error below d = (1.001 + 2 pi y 2^-14) 2^-PREC_BITS, y =
    Im(t) (q_at).  S = q j is summed through q^N, N = truncation_order(y),
    in fixed point (_fixed_sum): the tail beyond q^N is below 2^-W
    (Brisebarre and Philibert's bound on the coefficients; see the module
    docstring) and the sum adds less than 2^(14 - W), W = PREC_BITS +
    GUARD_BITS = 288.  The sum, held exactly, is divided by q once, rounded
    to nearest at PREC_BITS.  Moving q by a relative d moves S(q)/q by at
    most |q dj/dq| d = |S'(q) - j| d <= (|j| + 2^12) d, so

        |computed j - j| <= (|j| + 2^12) d + 2^(15 - W)/|q| + 1.01 |j| 2^-PREC_BITS.

    Relative to |j| that is below (2.02 + 2 pi y 2^-14) 2^-PREC_BITS where
    |j| is large, and up to Im(t) = TAU_PART_LIMIT = 2^(PREC_BITS/2 - 16)
    below 2^-140, far finer than the 17 significant digits that `family`
    prints; a larger Im(t) raises PrecisionError.  Near rho = e^(2 pi i/3),
    where j has a triple zero, the absolute terms dominate: together they
    are below 4 10^-74, so a j closer to 0 than that may keep no correct
    digit.  `chop` sets every |j| below CHOP_TOL = 10^-40 to 0.
    """
    from mpmath import mp
    from mpmath.libmp import from_man_exp, mpc_div, round_nearest

    t = reduce_to_fundamental_domain(tau)
    if t.imag > TAU_PART_LIMIT:
        raise PrecisionError(
            f"Im(tau) = {_shown(t.imag)} after reduction is beyond "
            f"2^{TAU_PART_BITS}, the limit of {PREC_BITS}-bit precision")
    q = q_at(t)._mpc_
    w = PREC_BITS + GUARD_BITS
    head = j_series(SERIES_ORDER).coefficients[: truncation_order(t.imag) + 1]
    re, im = _fixed_sum(head, q)
    return mp.make_mpc(mpc_div((from_man_exp(re, -w), from_man_exp(im, -w)), q,
                               PREC_BITS, round_nearest))


def fricke_pair(tau, n: int):
    """(j(tau), j(-1/(n tau)), same), j(tau) and j(-1/(n tau)) each chopped.
    Both points are reduced exactly, and `same` tells whether they reduce
    to one point.  The reduced point is unique in its SL_2(Z)-orbit and j is
    injective on the fundamental domain, so `same` is j1 == j2, decided
    exactly; then, as for every tau at n = 1, j_numeric runs once and the
    pair is one value twice.  A tau outside the upper half plane raises
    DomainError before it is inverted."""
    if n < 1:
        raise ValueError("the level must be a positive integer")
    a, b, c, s = _form(tau)
    here, there = _reduced(a, b, c, s), _reduced(c * n * n, -b * n, a, s * n)
    same = there == here
    j = chop(j_numeric(here))
    return j, (j if same else chop(j_numeric(there))), same


# ---------------------------------------------------------------------------
# Modular polynomials
# ---------------------------------------------------------------------------


class ModularPolynomial(NamedTuple):
    n: int
    coefficients: dict  # (i, j) -> int, exponents of (X, Y)

    def degree(self) -> int:
        return max(max(i, j) for i, j in self.coefficients)

    def is_symmetric(self) -> bool:
        return all(self.coefficients.get((j, i), 0) == c
                   for (i, j), c in self.coefficients.items())


def _scaled_series(n: int, order: int) -> tuple[QSeries, QSeries]:
    """x = q j(q) and y = q^n j(q^n), through q^order."""
    s = j_series(max(order, SERIES_ORDER)).coefficients
    x = QSeries(s[: order + 1])
    y = QSeries(tuple(0 if k % n else s[k // n] for k in range(order + 1)))
    return x, y


def _monomial_series(n: int, monomials, top: int) -> dict:
    """Laurent coefficients of j(q)^i j(q^n)^j for each (i, j) in
    `monomials` (i, j <= n + 1), listed for q^e, e = -(n+1)^2 .. top."""
    low = (n + 1) ** 2
    x, y = _scaled_series(n, low + top)
    xs, ys = [x.power(0)], [y.power(0)]
    for _ in range(n + 1):
        xs.append(xs[-1] * x)
        ys.append(ys[-1] * y)
    out = {}
    for i, j in monomials:
        c = (xs[i] * ys[j]).coefficients
        pole = i + n * j
        out[(i, j)] = [c[e + pole] if e + pole >= 0 else 0 for e in range(-low, top + 1)]
    return out


def q_expansion(phi: ModularPolynomial, top: int) -> dict:
    """Phi_n(j(q), j(q^n)) as {e: coefficient of q^e}, e = -(n+1)^2 .. top;
    all zero exactly when Phi_n vanishes on (j(q), j(q^n)) to that order.

    With N = n + 1 and x, y as in `_scaled_series`, q^(N^2) Phi_n is the
    power series sum_i x^i R_i, R_i = sum_j c_ij y^j q^((N - i) + n (N - j)),
    summed by Horner's rule in x: N products by x after the N powers of y.
    """
    n = phi.n
    deg = n + 1
    if phi.degree() > deg:
        raise ValueError(f"the expansion takes degree at most {deg} in X and Y")
    low = deg**2
    order = low + top
    x, y = _scaled_series(n, order)
    ys = [y.power(0), y]
    while len(ys) <= deg:
        ys.append(ys[-1] * y)
    total = None
    for i in range(deg, -1, -1):
        row = [0] * (order + 1)
        for j in range(deg + 1):
            c = phi.coefficients.get((i, j))
            if c:
                shift = (deg - i) + n * (deg - j)
                for k, v in enumerate(ys[j].coefficients[: order + 1 - shift]):
                    row[k + shift] += c * v
        if total is not None:
            row = [r + v for r, v in zip(row, (total * x).coefficients)]
        total = QSeries(tuple(row))
    return {e: total.coefficients[e + low] for e in range(-low, top + 1)}


def build_modular_polynomial(n: int) -> ModularPolynomial:
    """Phi_1 = X - Y; Phi_n for the other LEVELS solved exactly from the
    q-expansions.

    The unknowns are the coefficients of a symmetric polynomial of degree
    n+1 in each variable.  Phi_n(j(q), j(q^n)) has poles only at the two
    cusps, which the Fricke involution swaps, so it is zero once its
    expansion at infinity vanishes from q^-(n+1)^2 through q^0: one
    equation per exponent.  Since q j(q) starts with 1, X^i Y^j + X^j Y^i
    (i <= j) starts with 1 * q^-(i + n j).  Only (0, n+1) and (n, n) share
    a pole order, so once X^(n+1) has coefficient 1, each equation brings
    in at most one new unknown, with coefficient 1: it is minus the known
    part.  An equation that brings in none must already vanish.
    """
    if n == 1:
        return ModularPolynomial(1, {(1, 0): 1, (0, 1): -1})
    if n not in LEVELS:
        raise ValueError(f"supported levels are {', '.join(map(str, LEVELS))}")
    low = (n + 1) ** 2
    unknowns = [(i, j) for j in range(n + 2) for i in range(j + 1)]
    series = _monomial_series(n, [(i, j) for i in range(n + 2) for j in range(n + 2)], 0)
    entering = {i + n * j: (i, j) for i, j in unknowns if (i, j) != (0, n + 1)}
    solved = {(0, n + 1): 1}
    for e in range(-low, 1):
        known = sum(c * (series[(i, j)][e + low] + (series[(j, i)][e + low] if i != j else 0))
                    for (i, j), c in solved.items())
        if -e in entering:
            solved[entering[-e]] = -known
        elif known:
            raise ArithmeticError(f"level {n}: inconsistent at q^{e}")
    coefficients = {}
    for (i, j), c in solved.items():
        if c:
            coefficients[(i, j)] = coefficients[(j, i)] = c
    return ModularPolynomial(n, coefficients)
