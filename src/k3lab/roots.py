"""Principal roots of a member's a and b: at rational values from exact
powers, elsewhere from one root of each product.

The principal k-th root of a real rational x is |x|^(1/k), times the exact
phase e^(i pi/k) where x < 0.  `real_root` takes |x|^(1/k) in integers and
rounds it once to modular.PREC_BITS; `rational_ab` builds the numeric a and
b of a rational member from its exact a^3 and b^2 (`shioda_inose.ab_numeric`).

For numeric j1 != j2, `numeric_ab` takes one principal root of j1 j2 and
one of (j1 - 1728)(j2 - 1728), not one of each factor.  Write upper(z) for
arg z in (0, pi].  The principal k-th roots of a product obey

    rho_k(z1) rho_k(z2) = rho_k(z1 z2) e^(2 pi i t/k),

with t = 1 if z1 and z2 are upper and z1 z2 is not, t = -1 if neither is
and z1 z2 is, and t = 0 otherwise, since arg z1 + arg z2 leaves (-pi, pi]
exactly then (Kahan, "Branch cuts for complex elementary functions", 1987).
For real j, upper(j) is j < 0: rational_ab's count k is the number of
upper j, and t = 1 exactly when k = 2.  Every input to t is the sign of a
part of a value that is rounded correctly, which keeps the sign of each part
and every zero, so t is decided exactly.

Only `ab_numeric` imports this module, and only `family` calls it, so
`k3lab verify` never compiles it, and it loads mpmath when it is imported.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction

from mpmath import mp
from mpmath.libmp import (fone, from_int, from_man_exp, fzero, mpc_cbrt, mpc_div_mpf, mpc_mul,
                          mpc_sqrt, mpc_sub_mpf, mpf_neg, mpf_shift, mpf_sqrt, round_nearest)

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


# Guard bits of numeric_ab's products and roots; a and b are then rounded
# once more, to PREC_BITS.
_GUARD_BITS = 16


def numeric_ab(j1, j2):
    """(a, b) for mpmath numbers j1 != j2: the principal roots
    -cbrt(j1/48^3) cbrt(j2) and -sqrt((j1 - 1728)/864^2) sqrt(j2 - 1728),
    taken as a = -rho_3(j1 j2) w^t / 48 and b = -(-1)^s rho_2((j1 - 1728)
    (j2 - 1728)) / 864, with w = e^(2 pi i/3) and t, s the turns of the two
    products (module docstring).

    Each product and each j - 1728 is rounded correctly to PREC_BITS + 16
    bits, which keeps the side of the branch cut that each value lies on;
    an exact j - 1728 would need about log2 |j| bits, 9 10^30 of them for
    j(10^30 i).  Each root is taken at that precision, and a and b are
    rounded to PREC_BITS.  A real result is an mpf."""
    wp = md.PREC_BITS + _GUARD_BITS
    z1, z2 = (z._mpc_ if hasattr(z, "_mpc_") else (z._mpf_, fzero) for z in (j1, j2))
    product = mpc_mul(z1, z2, wp, round_nearest)
    root = mpc_cbrt(product, wp, round_nearest)
    t = _turn(z1, z2, product)
    if t:
        root = mpc_mul(root, _cube_root_of_unity(t), wp, round_nearest)
    a = mpc_div_mpf(root, from_int(-48), md.PREC_BITS, round_nearest)
    w1, w2 = (mpc_sub_mpf(z, from_int(1728), wp, round_nearest) for z in (z1, z2))
    product = mpc_mul(w1, w2, wp, round_nearest)
    b = mpc_div_mpf(mpc_sqrt(product, wp, round_nearest),
                    from_int(864 if _turn(w1, w2, product) else -864),
                    md.PREC_BITS, round_nearest)
    return tuple(mp.make_mpf(re) if im == fzero else mp.make_mpc((re, im)) for re, im in (a, b))


def _upper(z) -> bool:
    """arg z in (0, pi] for a raw mpc z: Im z > 0, or Im z = 0 > Re z (at
    z = 0 the answer does not matter, as every root there is 0)."""
    re, im = z
    return not im[0] if im[1] else re[0] == 1


def _turn(z1, z2, product) -> int:
    """t with rho_k(z1) rho_k(z2) = rho_k(z1 z2) e^(2 pi i t/k), from the
    sides of z1, z2 and their product (module docstring)."""
    upper = _upper(z1)
    if upper == _upper(z2) and upper != _upper(product):
        return 1 if upper else -1
    return 0


@functools.cache
def _cube_root_of_unity(t: int) -> tuple:
    """e^(2 pi i t/3) = (-1 + i t sqrt 3)/2 for t = +-1, a raw mpc at
    PREC_BITS + 16 bits."""
    half_root = mpf_shift(mpf_sqrt(from_int(3), md.PREC_BITS + _GUARD_BITS, round_nearest), -1)
    return mpf_neg(mpf_shift(fone, -1)), half_root if t > 0 else mpf_neg(half_root)


def real_root(x: Fraction, k: int) -> tuple:
    """x^(1/k) for a rational x > 0 and k in (2, 3, 6), as a raw mpf rounded
    once to nearest at modular.PREC_BITS.

    m = floor(x^(1/k) 2^s) is taken in integers, with s chosen so that m
    has at least PREC_BITS + 3 bits.  Where m 2^-s is not the root itself,
    the root lies strictly between m and m + 1, and no rounding boundary
    does; neither does m + 1/2, which is therefore rounded as the root is.
    """
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
