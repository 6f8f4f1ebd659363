"""Exact multivariate polynomial and rational-function arithmetic over Q.

A polynomial is a map from exponent vectors to nonzero rational coefficients,
always kept in canonical form (no stored zeros), so identity testing is exact:
two polynomials are equal iff their term maps are equal, and a sum of terms is
zero iff the map is empty.

Coefficients are ``int`` or ``fractions.Fraction``; the two interoperate, and
an integral coefficient is always stored as ``int``, so integer-only inputs
stay integer, which keeps the large expansions fast.
Rational functions are never reduced; equality is decided by comparing
numerators over a shared denominator, else by cross-multiplication, which
avoids multivariate gcd entirely.

    >>> u, v = variables("u", "v")
    >>> ((u + v) ** 2 - u**2 - 2 * u * v - v**2).is_zero()
    True
"""

from __future__ import annotations

import heapq
from fractions import Fraction
from operator import add, sub
from typing import Iterable, Mapping, Sequence, Union

Coeff = Union[int, Fraction]
Exponents = tuple[int, ...]


def _exact_ratio(a: Coeff, b: Coeff) -> Coeff:
    """a / b, as an ``int`` when the ratio is integral."""
    if isinstance(a, int) and isinstance(b, int) and a % b == 0:
        return a // b
    q = Fraction(a) / b
    return q.numerator if q.denominator == 1 else q


class MultiPolynomial:
    """Polynomial in a fixed ordered tuple of variables, exact over Q."""

    __slots__ = ("vars", "terms")

    def __init__(self, vars: tuple[str, ...], terms: Mapping[Exponents, Coeff]):
        self.vars = vars
        # Fraction * int is a Fraction even when integral: store those as int
        self.terms = {e: c.numerator if type(c) is Fraction and c.denominator == 1 else c
                      for e, c in terms.items() if c != 0}

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, vars: tuple[str, ...]) -> "MultiPolynomial":
        return cls(vars, {})

    @classmethod
    def constant(cls, vars: tuple[str, ...], value: Coeff) -> "MultiPolynomial":
        return cls(vars, {(0,) * len(vars): value})

    @classmethod
    def variable(cls, vars: tuple[str, ...], name: str) -> "MultiPolynomial":
        if name not in vars:
            raise ValueError(f"unknown variable {name!r}; have {vars}")
        exp = tuple(1 if w == name else 0 for w in vars)
        return cls(vars, {exp: 1})

    # -- predicates --------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = MultiPolynomial.constant(self.vars, other)
        if not isinstance(other, MultiPolynomial):
            return NotImplemented
        return self.vars == other.vars and self.terms == other.terms

    def __hash__(self):
        return hash((self.vars, frozenset(self.terms.items())))

    # -- arithmetic --------------------------------------------------------

    def _coerce(self, other) -> "MultiPolynomial":
        if isinstance(other, MultiPolynomial):
            if other.vars != self.vars:
                raise ValueError(f"variable mismatch: {self.vars} vs {other.vars}")
            return other
        if isinstance(other, (int, Fraction)):
            return MultiPolynomial.constant(self.vars, other)
        return NotImplemented

    def __add__(self, other) -> "MultiPolynomial":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        out = dict(self.terms)
        for e, c in other.terms.items():
            s = out.get(e, 0) + c
            if s:
                out[e] = s
            else:
                out.pop(e, None)
        return MultiPolynomial(self.vars, out)

    __radd__ = __add__

    def __neg__(self) -> "MultiPolynomial":
        return MultiPolynomial(self.vars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other) -> "MultiPolynomial":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "MultiPolynomial":
        return (-self) + other

    def __mul__(self, other) -> "MultiPolynomial":
        if isinstance(other, (int, Fraction)):
            if other == 0:
                return MultiPolynomial.zero(self.vars)
            return MultiPolynomial(
                self.vars, {e: c * other for e, c in self.terms.items()}
            )
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self.terms, other.terms
        if len(a) > len(b):
            a, b = b, a
        out: dict = {}
        get = out.get
        for e1, c1 in a.items():
            for e2, c2 in b.items():
                e = tuple(map(add, e1, e2))
                out[e] = get(e, 0) + c1 * c2
        return MultiPolynomial(self.vars, out)  # drops the cancelled terms

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "MultiPolynomial":
        if not isinstance(n, int) or n < 0:
            raise ValueError("exponent must be a non-negative integer")
        result = MultiPolynomial.constant(self.vars, 1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def divide_exact(self, divisor: "MultiPolynomial") -> "MultiPolynomial":
        """The quotient q with q * divisor == self; raises if there is none.

        Lex leading-term division.  If the divisor divides self, every step
        cancels the remainder's leading term and the quotient is exact; the
        first leading term the divisor's cannot divide, or a quotient term
        beyond the per-variable degree bound deg(self) - deg(divisor), shows
        that it does not.  Quotient coefficients stay ``int`` where integral.
        """
        divisor = self._coerce(divisor)
        if divisor is NotImplemented:
            raise TypeError("can only divide by a polynomial or a constant")
        if divisor.is_zero():
            raise ZeroDivisionError("division by the zero polynomial")
        lead = max(divisor.terms)
        lead_c = divisor.terms[lead]
        tail = [(e, c) for e, c in divisor.terms.items() if e != lead]
        bound = [
            max((e[i] for e in self.terms), default=0)
            - max(e[i] for e in divisor.terms)
            for i in range(len(self.vars))
        ]
        rem = dict(self.terms)
        # max-heap of remainder monomials, keyed by negated exponents;
        # entries whose monomial has since cancelled are skipped
        heap = [tuple(-k for k in e) for e in rem]
        heapq.heapify(heap)
        quotient: dict = {}
        while rem:
            e = tuple(-k for k in heapq.heappop(heap))
            c = rem.pop(e, 0)
            if not c:
                continue
            qe = tuple(map(sub, e, lead))
            if any(k < 0 or k > b for k, b in zip(qe, bound)):
                raise ValueError("the divisor does not divide the polynomial")
            qc = _exact_ratio(c, lead_c)
            quotient[qe] = qc
            for te, tc in tail:
                m = tuple(map(add, qe, te))
                if m not in rem:
                    heapq.heappush(heap, tuple(-k for k in m))
                s = rem.get(m, 0) - qc * tc
                if s:
                    rem[m] = s
                else:
                    rem.pop(m, None)
        return MultiPolynomial(self.vars, quotient)

    # -- queries -----------------------------------------------------------

    def evaluate(self, point: Mapping[str, Coeff]) -> Fraction:
        """Exact value at a rational point assigning every variable."""
        missing = [w for w in self.vars if w not in point]
        if missing:
            raise ValueError(f"no value assigned to {missing}")
        values = [Fraction(point[w]) for w in self.vars]
        total = Fraction(0)
        for e, c in self.terms.items():
            term = Fraction(c)
            for val, k in zip(values, e):
                if k:
                    term *= val**k
            total += term
        return total

    def total_degree(self) -> int:
        if not self.terms:
            return 0
        return max(sum(e) for e in self.terms)

    def degree_in(self, names: Iterable[str]) -> int:
        """Max combined exponent of the given variables over all terms."""
        idx = [self.vars.index(w) for w in names]
        if not self.terms:
            return 0
        return max(sum(e[i] for i in idx) for e in self.terms)

    def is_homogeneous_in(self, names: Iterable[str], degree: int) -> bool:
        idx = [self.vars.index(w) for w in names]
        return all(sum(e[i] for i in idx) == degree for e in self.terms)

    def coefficient_items(self) -> list[tuple[Exponents, Coeff]]:
        """Terms in a deterministic (sorted) order."""
        return sorted(self.terms.items())

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        bits = []
        for e, c in self.coefficient_items():
            mono = "*".join(
                f"{w}^{k}" if k > 1 else w for w, k in zip(self.vars, e) if k
            )
            bits.append(f"{c}" + (f"*{mono}" if mono else ""))
        return " + ".join(bits)


def variables(*names: str) -> tuple[MultiPolynomial, ...]:
    """Generator polynomials for a ring in the given variables.

    >>> x, y = variables("x", "y")
    """
    vars = tuple(names)
    return tuple(MultiPolynomial.variable(vars, w) for w in vars)


class RationalFunction:
    """Quotient of two polynomials; the denominator must be nonzero.

    No reduction is ever performed. Equality is by comparing numerators over
    a shared denominator, else by cross-multiplication: f == g iff
    f.num * g.den - g.num * f.den is the zero polynomial.  A polynomial or a
    number combines with a rational function over its denominator alone.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: MultiPolynomial, den: MultiPolynomial):
        if den.is_zero():
            raise ZeroDivisionError("zero denominator in rational function")
        self.num = num
        self.den = den

    def __mul__(self, other) -> "RationalFunction":
        if isinstance(other, RationalFunction):
            return RationalFunction(self.num * other.num, self.den * other.den)
        return RationalFunction(self.num * other, self.den)

    __rmul__ = __mul__

    def __add__(self, other) -> "RationalFunction":
        if isinstance(other, RationalFunction):
            return RationalFunction(self.num * other.den + other.num * self.den,
                                    self.den * other.den)
        return RationalFunction(self.num + other * self.den, self.den)

    def __sub__(self, other) -> "RationalFunction":
        return self + (-1) * other

    def evaluate(self, point: Mapping[str, Coeff]) -> Fraction:
        den = self.den.evaluate(point)
        if den == 0:
            raise ZeroDivisionError("denominator vanishes at the point")
        return self.num.evaluate(point) / den

    def equals(self, other: "RationalFunction") -> bool:
        if self.den == other.den:
            return self.num == other.num
        return (self.num * other.den - other.num * self.den).is_zero()


def clear_denominators(terms: Sequence[RationalFunction]) -> MultiPolynomial:
    """Numerator of a sum of rational terms over a common multiple of the
    denominators.

    For f = sum(terms), returns N with f = N / M, where M is a product of
    factors F_k built greedily: the denominators are taken by decreasing
    total degree, and one that divides a factor adds num * (F_k / den) to
    that factor's numerator sum S_k, the quotient coming from the one
    divisibility test; any other denominator becomes a new factor with its
    numerator as the sum.  N = sum_i S_i * prod_{k != i} F_k.  M is a
    nonzero common multiple (not necessarily the least one), so f == 0 iff
    N == 0.
    """
    terms = sorted(terms, key=lambda t: t.den.total_degree(), reverse=True)
    if not terms:
        raise ValueError("empty sum")
    factors: list[MultiPolynomial] = []
    sums: list[MultiPolynomial] = []
    for t in terms:
        for k, factor in enumerate(factors):
            try:
                cofactor = factor.divide_exact(t.den)
            except ValueError:
                continue
            sums[k] = sums[k] + t.num * cofactor
            break
        else:
            factors.append(t.den)
            sums.append(t.num)
    total = MultiPolynomial.zero(terms[0].num.vars)
    for i, s in enumerate(sums):
        for k, factor in enumerate(factors):
            if k != i:
                s = s * factor
        total = total + s
    return total

