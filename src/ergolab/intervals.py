"""Finite unions of half-open intervals with exact Lebesgue measure.

An :class:`IntervalSet` is a canonical (sorted, disjoint, merged) union of
``[lo, hi)`` intervals inside ``[0, 1)``.  Endpoints are exact scalars of
any supported kind -- ``int``, ``Fraction`` or :class:`QuadraticReal` --
and may mix freely: the rationals lie in every Q(sqrt(d)), so a set with
rational and field endpoints is as exact as either.

Set algebra (union, intersection, complement in ``[0, 1)``) and membership
order endpoints and points by :func:`~ergolab.surd.compare`, so they refuse
what it refuses: TypeError for a float or any other non-scalar, and
:class:`DomainMismatch` for field elements over two different surd bases.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cmp_to_key

from .dyadic import dyadic_exponent
from .surd import compare, scaled_floor

# (lo, hi) pairs in lexicographic order
_PAIR_ORDER = cmp_to_key(lambda a, b: compare(a[0], b[0])
                         or compare(a[1], b[1]))


class Interval:
    """Half-open interval ``[lo, hi)`` with exact endpoints."""

    __slots__ = ("lo", "hi")

    def __init__(self, lo, hi):
        if compare(lo, hi) >= 0:
            raise ValueError("interval needs lo < hi")
        self.lo = lo
        self.hi = hi

    def width(self):
        return self.hi - self.lo

    def __repr__(self):
        return f"[{self.lo}, {self.hi})"

    def __eq__(self, other):
        return (isinstance(other, Interval)
                and compare(self.lo, other.lo) == 0
                and compare(self.hi, other.hi) == 0)

    def __hash__(self):
        return hash((self.lo, self.hi))


class IntervalSet:
    """Canonical finite union of half-open intervals within [0, 1)."""

    __slots__ = ("intervals",)

    def __init__(self, intervals=()):
        pairs = []
        for item in intervals:
            if isinstance(item, Interval):
                lo, hi = item.lo, item.hi
            else:
                lo, hi = item
            order = compare(lo, hi)
            if order > 0:
                raise ValueError(f"reversed pair ({lo}, {hi})")
            if order == 0:
                continue
            pairs.append((lo, hi))
        pairs.sort(key=_PAIR_ORDER)
        merged = []
        for lo, hi in pairs:
            if merged and compare(lo, merged[-1][1]) <= 0:
                if compare(hi, merged[-1][1]) > 0:
                    merged[-1] = (merged[-1][0], hi)
            else:
                merged.append((lo, hi))
        if merged and (compare(merged[0][0], 0) < 0 or compare(merged[-1][1], 1) > 0):
            raise ValueError("interval set reaches outside [0, 1)")
        self.intervals = tuple(Interval(lo, hi) for lo, hi in merged)

    # -- algebra (operands canonical; results canonical)

    def union(self, other: "IntervalSet") -> "IntervalSet":
        return IntervalSet(list(self.intervals) + list(other.intervals))

    def intersection(self, other: "IntervalSet") -> "IntervalSet":
        out = []
        i = j = 0
        a, b = self.intervals, other.intervals
        while i < len(a) and j < len(b):
            lo = a[i].lo if compare(a[i].lo, b[j].lo) >= 0 else b[j].lo
            hi = a[i].hi if compare(a[i].hi, b[j].hi) <= 0 else b[j].hi
            if compare(lo, hi) < 0:
                out.append((lo, hi))
            if compare(a[i].hi, b[j].hi) <= 0:
                i += 1
            else:
                j += 1
        return IntervalSet(out)

    def complement(self) -> "IntervalSet":
        """Complement within [0, 1)."""
        out = []
        cursor = Fraction(0)
        for iv in self.intervals:
            if compare(cursor, iv.lo) < 0:
                out.append((cursor, iv.lo))
            cursor = iv.hi
        if compare(cursor, 1) < 0:
            out.append((cursor, Fraction(1)))
        return IntervalSet(out)

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
            if compare(x, iv.lo) < 0:
                hi = mid
            elif compare(x, iv.hi) >= 0:
                lo = mid + 1
            else:
                return True
        return False

    def translate_mod1(self, delta) -> "IntervalSet":
        """Exact image under x -> x + delta (mod 1), split at the wrap."""
        one = Fraction(1)
        delta = delta - scaled_floor(delta, 1)
        out = []
        for iv in self.intervals:
            lo = iv.lo + delta
            hi = iv.hi + delta
            if compare(lo, one) >= 0:
                out.append((lo - one, hi - one))
            elif compare(hi, one) <= 0:
                out.append((lo, hi))
            else:
                out.append((lo, one))
                out.append((Fraction(0), hi - one))
        return IntervalSet(out)

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

    Raises :class:`ValueError` when an endpoint is not dyadic, and TypeError
    for a float.
    """
    out = []
    for lo, hi in pairs:
        dyadic_exponent(lo)
        dyadic_exponent(hi)
        out.append((Fraction(lo), Fraction(hi)))
    return IntervalSet(out)
