"""Principal roots at rational values, from exact powers.

The principal k-th root of a real rational x is |x|^(1/k), times the exact
phase e^(i pi/k) where x < 0.  `real_root` takes |x|^(1/k) in integers and
rounds it once to modular.PREC_BITS; `rational_ab` builds the numeric a and
b of a rational member from its exact a^3 and b^2 (`shioda_inose.ab_numeric`).
Only `ab_numeric` at a rational member imports this module, so `k3lab verify`
never compiles it.
"""

from __future__ import annotations

import math
from fractions import Fraction

from . import modular as md


def rational_ab(j1, j2, powers):
    """(a, b) = (-cbrt(j1/48^3) cbrt(j2), -sqrt((j1-1728)/864^2)
    sqrt(j2-1728)) under principal roots, for rational j1, j2 with `powers`
    = (a^3, b^2) exact: a = -|a^3|^(1/3) e^(i k pi/3), with k the number of
    negative values among j1, j2, and b = -|b^2|^(1/2) i^m, with m that
    among j1 - 1728, j2 - 1728.  Each part is one real root of an exact
    rational, rounded once: |a^3|^(1/3) (its half is a shift),
    (27 (a^3)^2/64)^(1/6) = |a^3|^(1/3) sqrt(3)/2, and |b^2|^(1/2).  A real
    result is an mpf."""
    from mpmath import mp
    from mpmath.libmp import fzero, mpf_neg, mpf_shift

    a_cubed, b_squared = powers
    if a_cubed == 0:
        a = mp.zero
    else:
        r = real_root(abs(a_cubed), 3)
        k = (j1 < 0) + (j2 < 0)
        if k == 0:
            a = mp.make_mpf(mpf_neg(r))
        else:
            # -r e^(i pi/3) = -r/2 - i r sqrt(3)/2, -r e^(2 i pi/3) = r/2 - i r sqrt(3)/2
            half = mpf_shift(r, -1)
            a = mp.make_mpc((mpf_neg(half) if k == 1 else half,
                             mpf_neg(real_root(27 * a_cubed**2 / 64, 6))))
    if b_squared == 0:
        b = mp.zero
    else:
        s = real_root(abs(b_squared), 2)
        m = (j1 < 1728) + (j2 < 1728)
        # -s i^m is -s, -i s or s
        b = (mp.make_mpc((fzero, mpf_neg(s))) if m == 1
             else mp.make_mpf(s if m == 2 else mpf_neg(s)))
    return a, b


def real_root(x: Fraction, k: int) -> tuple:
    """x^(1/k) for a rational x > 0 and k in (2, 3, 6), as a raw mpf rounded
    once to nearest at modular.PREC_BITS.

    m = floor(x^(1/k) 2^s) is taken in integers, with s chosen so that m
    has at least PREC_BITS + 3 bits.  Where m 2^-s is not the root itself,
    the root lies strictly between m and m + 1, and no rounding boundary
    does; neither does m + 1/2, which is therefore rounded as the root is.
    """
    from mpmath.libmp import from_man_exp, round_nearest

    p, q = x.numerator, x.denominator
    s = -((p.bit_length() - q.bit_length() - 1 - k * (md.PREC_BITS + 2)) // k)
    n, rest = divmod(p << k * s, q) if s >= 0 else divmod(p, q << -k * s)
    m = _integer_root(n, k)
    if rest or m**k != n:
        m, s = 2 * m + 1, s + 1
    return from_man_exp(m, -s, md.PREC_BITS, round_nearest)


def _integer_root(n: int, k: int) -> int:
    """floor(n^(1/k)) for an integer n > 0 and k in (2, 3, 6)."""
    if k == 2:
        return math.isqrt(n)
    if k == 6:
        return _integer_root(math.isqrt(n), 3)
    # Newton's step x -> (2x + n // x^2) // 3 decreases strictly while x is
    # above the root and never passes below its floor; the float seed, on
    # the top 900 or so bits, is raised by 2^-30 so that it starts above.
    e = max(n.bit_length() - 900, 0) // 3
    x = (int(float(n >> 3 * e) ** (1 / 3) * (1 + 2**-30)) + 1) << e
    while True:
        y = (2 * x + n // (x * x)) // 3
        if y >= x:
            return x
        x = y
