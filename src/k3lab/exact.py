"""Exact multivariate polynomial and rational-function arithmetic over Q.

A polynomial is a map from monomials to nonzero rational coefficients,
always kept in canonical form (no stored zeros), so identity testing is
exact: two polynomials are equal iff their term maps are equal, and a sum of
terms is zero iff the map is empty.

A monomial is stored as a packed integer key (Monagan and Pearce,
"Polynomial division using dynamic arrays, heaps, and packed exponent
vectors", CASC 2007).  Each exponent sits in a 16-bit field, the first
variable's in the most significant one, so integer order is lex order and
the monomial of a product is one integer sum.  The top bit of every field is
a guard bit that no stored exponent sets: an exponent runs from 0 to
``MAX_EXPONENT`` = 2**15 - 1, and one subtraction compares two keys field
by field.  Each polynomial keeps a packed bound on its degree in every
variable, so a product or power whose exponent would pass ``MAX_EXPONENT``
raises ``OverflowError`` before any field can carry.  The constructor takes
exponent tuples and raises ``ValueError`` on a tuple of the wrong length or
an exponent outside 0..``MAX_EXPONENT``.  ``terms`` is a read-only map from
exponent tuples: its length needs no unpacking, and a polynomial's keys are
unpacked only when a caller first reads them, so a product that nobody reads
stays packed.

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
import struct
from collections.abc import Mapping
from fractions import Fraction
from functools import cache, reduce
from types import MappingProxyType
from typing import Iterable, Sequence, Union

Coeff = Union[int, Fraction]
Exponents = tuple[int, ...]

_BITS = 16  # one struct "H" field per exponent
MAX_EXPONENT = (1 << (_BITS - 1)) - 1


def _exact_ratio(a: Coeff, b: Coeff) -> Coeff:
    """a / b, as an ``int`` when the ratio is integral."""
    if isinstance(a, int) and isinstance(b, int) and a % b == 0:
        return a // b
    q = Fraction(a) / b
    return q.numerator if q.denominator == 1 else q


class _Fields:
    """The packing of n exponents into one key, field 0 most significant."""

    def __init__(self, n: int):
        self.n = n
        self._struct = struct.Struct(f">{n}H")
        self.guards = int.from_bytes(b"\x80\x00" * n, "big")

    def pack(self, exponents) -> int:
        """The key of n exponents from 0 to MAX_EXPONENT; ValueError on any other."""
        try:
            key = int.from_bytes(self._struct.pack(*exponents), "big")
        except struct.error:  # a wrong length, or an exponent outside 0 .. 2**16 - 1
            key = None
        if key is None or key & self.guards:
            raise ValueError(f"exponents {exponents!r} are not {self.n} integers "
                             f"from 0 to {MAX_EXPONENT}")
        return key

    def unpack(self, key: int) -> Exponents:
        return self._struct.unpack(key.to_bytes(self._struct.size, "big"))

    def max(self, a: int, b: int) -> int:
        """The field-wise maximum of two packed exponent vectors."""
        # a field of (a | guards) - b keeps its guard bit iff a >= b there
        ge = ((a | self.guards) - b) & self.guards
        take_a = ge - (ge >> (_BITS - 1))  # the exponent bits of those fields
        return a & take_a | b & ~take_a


_fields = cache(_Fields)


class _Terms(Mapping):
    """The terms of a polynomial not yet unpacked, as a read-only map from
    exponent tuples to coefficients: its length is the packed map's, and any
    other read unpacks the keys, once per polynomial."""

    __slots__ = ("_poly",)

    def __init__(self, poly: "MultiPolynomial"):
        self._poly = poly

    def __len__(self) -> int:
        return len(self._poly._terms)

    def __iter__(self):
        return iter(self._poly._tuples())

    def __getitem__(self, exponents) -> Coeff:
        return self._poly._tuples()[exponents]

    def items(self):
        return self._poly._tuples().items()

    def values(self):
        return self._poly._terms.values()


class MultiPolynomial:
    """Polynomial in a fixed ordered tuple of variables, exact over Q."""

    __slots__ = ("vars", "_terms", "_degrees", "_unpacked")

    def __new__(cls, vars: tuple[str, ...], terms: Mapping[Exponents, Coeff]):
        fields = _fields(len(vars))
        kept = [e for e, c in terms.items() if c != 0]
        return cls._packed(vars, {fields.pack(e): c for e, c in terms.items()},
                           fields.pack(map(max, zip(*kept))) if kept else 0)

    def __reduce__(self):  # pickle and copy through the constructor
        return MultiPolynomial, (self.vars, dict(self.terms))

    @classmethod
    def _packed(cls, vars: tuple[str, ...], terms: dict, degrees: int) -> "MultiPolynomial":
        """The polynomial of the nonzero ones of the packed terms, given a
        packed bound on its degree in each variable; no exponent is checked."""
        p = object.__new__(cls)
        p.vars, p._unpacked = vars, None
        # Fraction * int is a Fraction even when integral: store those as int
        p._terms = {k: c.numerator if type(c) is Fraction and c.denominator == 1 else c
                    for k, c in terms.items() if c}
        p._degrees = degrees if p._terms else 0
        return p

    @property
    def terms(self) -> Mapping[Exponents, Coeff]:
        """The terms, as a read-only map from exponent tuples to coefficients."""
        return self._unpacked or _Terms(self)

    def _tuples(self) -> Mapping[Exponents, Coeff]:
        """The terms keyed by exponent tuples, unpacked on first use and kept."""
        if self._unpacked is None:
            unpack = _fields(len(self.vars)).unpack
            self._unpacked = MappingProxyType({unpack(k): c for k, c in self._terms.items()})
        return self._unpacked

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, vars: tuple[str, ...]) -> "MultiPolynomial":
        return cls._packed(vars, {}, 0)

    @classmethod
    def constant(cls, vars: tuple[str, ...], value: Coeff) -> "MultiPolynomial":
        return cls._packed(vars, {0: value}, 0)

    @classmethod
    def variable(cls, vars: tuple[str, ...], name: str) -> "MultiPolynomial":
        if name not in vars:
            raise ValueError(f"unknown variable {name!r}; have {vars}")
        key = 1 << _BITS * (len(vars) - 1 - vars.index(name))
        return cls._packed(vars, {key: 1}, key)

    # -- predicates --------------------------------------------------------

    def is_zero(self) -> bool:
        return not self._terms

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = MultiPolynomial.constant(self.vars, other)
        if not isinstance(other, MultiPolynomial):
            return NotImplemented
        return self.vars == other.vars and self._terms == other._terms

    def __hash__(self):
        if self._terms.keys() <= {0}:  # a constant hashes as the number it equals
            return hash(self._terms.get(0, 0))
        return hash((self.vars, frozenset(self._terms.items())))

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
        out = dict(self._terms)
        get = out.get
        for k, c in other._terms.items():
            out[k] = get(k, 0) + c
        # the field-wise larger bound; cancellation can leave it above the degree
        degrees = self._degrees
        if other._degrees & ~degrees:  # else each field of other's is within ours
            degrees = _fields(len(self.vars)).max(degrees, other._degrees)
        return MultiPolynomial._packed(self.vars, out, degrees)

    __radd__ = __add__

    def __neg__(self) -> "MultiPolynomial":
        return MultiPolynomial._packed(
            self.vars, {k: -c for k, c in self._terms.items()}, self._degrees)

    def __sub__(self, other) -> "MultiPolynomial":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "MultiPolynomial":
        return (-self) + other

    def __mul__(self, other) -> "MultiPolynomial":
        if isinstance(other, (int, Fraction)):
            return MultiPolynomial._packed(
                self.vars, {k: c * other for k, c in self._terms.items()},
                self._degrees)
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        degrees = self._degrees + other._degrees  # no field carries: both < 2**15
        fields = _fields(len(self.vars))
        if degrees & fields.guards:
            bounds = dict(zip(self.vars, fields.unpack(degrees)))
            raise OverflowError(f"product degrees {bounds} pass {MAX_EXPONENT}")
        a, b = self._terms, other._terms
        if len(a) > len(b):
            a, b = b, a
        b = b.items()
        out: dict = {}
        get = out.get
        for k1, c1 in a.items():
            for k2, c2 in b:
                k = k1 + k2
                out[k] = get(k, 0) + c1 * c2
        return MultiPolynomial._packed(self.vars, out, degrees)

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

        Lex leading-term division on packed keys.  If the divisor divides
        self, every step cancels the remainder's leading term and the
        quotient is exact; the first leading term the divisor's cannot
        divide, or a quotient term beyond the per-variable degree bound
        deg(self) - deg(divisor), shows that it does not.  The bound also
        keeps every remainder exponent within self's, so no field carries.
        Quotient coefficients stay ``int`` where integral.
        """
        divisor = self._coerce(divisor)
        if divisor is NotImplemented:
            raise TypeError("can only divide by a polynomial or a constant")
        if divisor.is_zero():
            raise ZeroDivisionError("division by the zero polynomial")
        if self.is_zero():
            return MultiPolynomial.zero(self.vars)
        fields = _fields(len(self.vars))
        guards = fields.guards
        # a field of (k | guards) - j keeps its guard bit iff k >= j there.
        # The divisor's degrees are read off its terms, since a bound above
        # them could reject a true divisor; self's bound only loosens this.
        bound = (self._degrees | guards) - reduce(fields.max, divisor._terms, 0)
        if bound & guards != guards:
            raise ValueError("the divisor does not divide the polynomial")
        lead = max(divisor._terms)
        lead_c = divisor._terms[lead]
        tail = [(k, c) for k, c in divisor._terms.items() if k != lead]
        rem = dict(self._terms)
        # max-heap of remainder monomials, keyed by negated keys; entries
        # whose monomial has since cancelled are skipped
        heap = [-k for k in rem]
        heapq.heapify(heap)
        quotient: dict = {}
        while rem:
            k = -heapq.heappop(heap)
            c = rem.pop(k, 0)
            if not c:
                continue
            q = (k | guards) - lead
            if q & guards != guards or (bound - (q ^ guards)) & guards != guards:
                raise ValueError("the divisor does not divide the polynomial")
            q ^= guards
            qc = _exact_ratio(c, lead_c)
            quotient[q] = qc
            for tk, tc in tail:
                m = q + tk
                if m not in rem:
                    heapq.heappush(heap, -m)
                s = rem.get(m, 0) - qc * tc
                if s:
                    rem[m] = s
                else:
                    rem.pop(m, None)
        return MultiPolynomial._packed(self.vars, quotient, bound ^ guards)

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
        if not self._terms:
            return 0
        return max(sum(e) for e in self.terms)

    def degree_in(self, names: Iterable[str]) -> int:
        """Max combined exponent of the given variables over all terms."""
        idx = [self.vars.index(w) for w in names]
        if not self._terms:
            return 0
        return max(sum(e[i] for i in idx) for e in self.terms)

    def is_homogeneous_in(self, names: Iterable[str], degree: int) -> bool:
        idx = [self.vars.index(w) for w in names]
        return all(sum(e[i] for i in idx) == degree for e in self.terms)

    def coefficient_items(self) -> list[tuple[Exponents, Coeff]]:
        """Terms in a deterministic (sorted) order."""
        return sorted(self.terms.items())

    def __repr__(self) -> str:
        if not self._terms:
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

