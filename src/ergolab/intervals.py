"""Finite unions of half-open intervals with exact Lebesgue measure.

An :class:`IntervalSet` is a canonical (sorted, disjoint, merged) union of
``[lo, hi)`` intervals inside ``[0, 1)``.  Endpoints are exact scalars from
one of two domains:

* the rational domain -- ``int`` or ``Fraction``;
* a quadratic domain -- :class:`QuadraticReal` over a fixed surd base.

Set algebra (union, intersection, complement in ``[0, 1)``) stays inside the
operands' domain; mixing the two domains raises :class:`DomainMismatch`.
Rational constants may be embedded into a quadratic domain explicitly via
:func:`algebraic_set`.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cmp_to_key

from .dyadic import BinaryPoint, dyadic_exponent
from .errors import DomainMismatch
from .surd import QuadraticReal

RATIONAL_KINDS = (int, Fraction)


def _domain_of(x):
    if isinstance(x, QuadraticReal):
        return ("quadratic", x.d)
    if isinstance(x, RATIONAL_KINDS):
        return ("rational",)
    raise TypeError(f"unsupported endpoint type {type(x).__name__}")


def _join_domains(da, db):
    if da == db or db is None:
        return da
    if da is None:
        return db
    raise DomainMismatch(f"cannot combine {da} with {db}")


def _cmp(x, y) -> int:
    """Exact three-way comparison across the supported scalar types."""
    if isinstance(x, BinaryPoint):
        if isinstance(y, QuadraticReal):
            raise TypeError("binary points compare against rationals only")
        return x.compare(y)
    if isinstance(x, QuadraticReal):
        return x.compare(y)
    if isinstance(y, QuadraticReal):
        return -y.compare(x)
    return (x > y) - (x < y)


# (lo, hi) pairs in lexicographic order under _cmp
_PAIR_ORDER = cmp_to_key(lambda a, b: _cmp(a[0], b[0]) or _cmp(a[1], b[1]))


class Interval:
    """Half-open interval ``[lo, hi)`` with exact endpoints."""

    __slots__ = ("lo", "hi")

    def __init__(self, lo, hi):
        if _cmp(lo, hi) >= 0:
            raise ValueError("interval needs lo < hi")
        self.lo = lo
        self.hi = hi

    def width(self):
        return self.hi - self.lo

    def __repr__(self):
        return f"[{self.lo}, {self.hi})"

    def __eq__(self, other):
        return (isinstance(other, Interval)
                and _cmp(self.lo, other.lo) == 0 and _cmp(self.hi, other.hi) == 0)

    def __hash__(self):
        return hash((self.lo, self.hi))


class IntervalSet:
    """Canonical finite union of half-open intervals within [0, 1)."""

    __slots__ = ("intervals", "domain")

    def __init__(self, intervals=(), domain=None):
        pairs = []
        for item in intervals:
            if isinstance(item, Interval):
                lo, hi = item.lo, item.hi
            else:
                lo, hi = item
            if _cmp(lo, hi) == 0:
                continue
            domain = _join_domains(domain, _domain_of(lo))
            domain = _join_domains(domain, _domain_of(hi))
            pairs.append((lo, hi))
        pairs.sort(key=_PAIR_ORDER)
        merged = []
        for lo, hi in pairs:
            if merged and _cmp(lo, merged[-1][1]) <= 0:
                if _cmp(hi, merged[-1][1]) > 0:
                    merged[-1] = (merged[-1][0], hi)
            else:
                merged.append((lo, hi))
        self.intervals = tuple(Interval(lo, hi) for lo, hi in merged)
        self.domain = domain

    # -- constructors

    @classmethod
    def empty(cls, domain=None) -> "IntervalSet":
        s = cls(())
        s.domain = domain
        return s

    def is_empty(self) -> bool:
        return not self.intervals

    def _require_compatible(self, other: "IntervalSet"):
        if self.domain is not None and other.domain is not None \
                and self.domain != other.domain:
            raise DomainMismatch(
                f"set domains differ: {self.domain} vs {other.domain}")

    # -- algebra (operands canonical; results canonical)

    def union(self, other: "IntervalSet") -> "IntervalSet":
        self._require_compatible(other)
        return IntervalSet(list(self.intervals) + list(other.intervals),
                           domain=self.domain or other.domain)

    def intersection(self, other: "IntervalSet") -> "IntervalSet":
        self._require_compatible(other)
        out = []
        i = j = 0
        a, b = self.intervals, other.intervals
        while i < len(a) and j < len(b):
            lo = a[i].lo if _cmp(a[i].lo, b[j].lo) >= 0 else b[j].lo
            hi = a[i].hi if _cmp(a[i].hi, b[j].hi) <= 0 else b[j].hi
            if _cmp(lo, hi) < 0:
                out.append((lo, hi))
            if _cmp(a[i].hi, b[j].hi) <= 0:
                i += 1
            else:
                j += 1
        return IntervalSet(out, domain=self.domain or other.domain)

    def complement(self) -> "IntervalSet":
        """Complement within [0, 1)."""
        if self.domain and self.domain[0] == "quadratic":
            zero = QuadraticReal.rational(0, self.domain[1])
            one = QuadraticReal.rational(1, self.domain[1])
        else:
            zero, one = Fraction(0), Fraction(1)
        out = []
        cursor = zero
        for iv in self.intervals:
            if _cmp(cursor, iv.lo) < 0:
                out.append((cursor, iv.lo))
            cursor = iv.hi
        if _cmp(cursor, one) < 0:
            out.append((cursor, one))
        return IntervalSet(out, domain=self.domain)

    def difference(self, other: "IntervalSet") -> "IntervalSet":
        return self.intersection(other.complement())

    def measure(self):
        """Exact total length; 0 for the empty set."""
        total = 0
        for iv in self.intervals:
            total = iv.width() + total
        return total

    def contains(self, x) -> bool:
        """Exact membership; `x` may be a scalar or a BinaryPoint."""
        lo, hi = 0, len(self.intervals)
        while lo < hi:
            mid = (lo + hi) // 2
            iv = self.intervals[mid]
            if _cmp(x, iv.lo) < 0:
                hi = mid
            elif _cmp(x, iv.hi) >= 0:
                lo = mid + 1
            else:
                return True
        return False

    def translate_mod1(self, delta) -> "IntervalSet":
        """Exact image under x -> x + delta (mod 1); splits at the wrap."""
        if self.domain and self.domain[0] == "quadratic":
            one = QuadraticReal.rational(1, self.domain[1])
        else:
            one = Fraction(1)
        if isinstance(delta, QuadraticReal):
            delta = delta.mod1()
        else:
            delta = Fraction(delta) % 1
        out = []
        for iv in self.intervals:
            lo = iv.lo + delta
            hi = iv.hi + delta
            if _cmp(lo, one) >= 0:
                out.append((lo - one, hi - one))
            elif _cmp(hi, one) <= 0:
                out.append((lo, hi))
            else:
                out.append((lo, one))
                out.append((lo - lo, hi - one))  # [0, hi-1) in the same domain
        return IntervalSet(out, domain=self.domain)

    def sup(self):
        if not self.intervals:
            raise ValueError("empty set has no sup")
        return self.intervals[-1].hi

    def inf(self):
        if not self.intervals:
            raise ValueError("empty set has no inf")
        return self.intervals[0].lo

    def diameter(self):
        """sup - inf, or 0 for the empty set."""
        if not self.intervals:
            return 0
        return self.sup() - self.inf()

    def __eq__(self, other):
        return isinstance(other, IntervalSet) and self.intervals == other.intervals

    def __hash__(self):
        return hash(self.intervals)

    def __iter__(self):
        return iter(self.intervals)

    def __len__(self):
        return len(self.intervals)

    def __repr__(self):
        inner = " u ".join(repr(iv) for iv in self.intervals) or "{}"
        return f"IntervalSet({inner})"


def dyadic_set(*pairs) -> IntervalSet:
    """Interval set with dyadic-rational endpoints, e.g. dyadic_set((0, '1/2')).

    Raises :class:`ValueError` when an endpoint is not dyadic.
    """
    out = []
    for lo, hi in pairs:
        lo, hi = Fraction(lo), Fraction(hi)
        dyadic_exponent(lo)
        dyadic_exponent(hi)
        out.append((lo, hi))
    return IntervalSet(out, domain=("rational",))


def rational_set(*pairs) -> IntervalSet:
    return IntervalSet([(Fraction(lo), Fraction(hi)) for lo, hi in pairs],
                       domain=("rational",))


def algebraic_set(d: int, *pairs) -> IntervalSet:
    """Interval set over Q(sqrt(d)); rational endpoints are embedded."""
    out = []
    for lo, hi in pairs:
        if not isinstance(lo, QuadraticReal):
            lo = QuadraticReal.rational(Fraction(lo), d)
        if not isinstance(hi, QuadraticReal):
            hi = QuadraticReal.rational(Fraction(hi), d)
        out.append((lo, hi))
    return IntervalSet(out, domain=("quadratic", d))
